import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distillery import datasets
from distillery.core import RngStream
from distillery.datasets import (
    BadMagicError,
    CountMismatchError,
    ImageSet,
    ParseError,
    TableFormatError,
    TruncatedFileError,
    downscale,
    load_cifar,
    load_idx,
    load_multitask_csv,
    open_cifar,
    open_idx,
    pollute,
    write_idx,
)


def make_idx_pair(tmp_path, n=6, h=28, w=28, seed=0, label_magic=0x801, image_magic=0x803,
                  truncate_images=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    img_bytes = struct.pack(">iiii", image_magic, n, h, w) + images.tobytes()
    if truncate_images:
        img_bytes = img_bytes[:-truncate_images]
    ip.write_bytes(img_bytes)
    lp.write_bytes(struct.pack(">ii", label_magic, n) + labels.tobytes())
    return ip, lp, images, labels


class TestIdx:
    def test_parse(self, tmp_path):
        ip, lp, images, labels = make_idx_pair(tmp_path)
        s = load_idx(ip, lp)
        assert s.n == 6 and s.images.shape == (6, 28, 28, 1)
        np.testing.assert_array_equal(s.images[..., 0], images)
        np.testing.assert_array_equal(s.labels, labels)

    def test_wrong_magic(self, tmp_path):
        ip, lp, *_ = make_idx_pair(tmp_path, label_magic=0x803)
        with pytest.raises(BadMagicError):
            load_idx(ip, lp)
        ip2, lp2, *_ = make_idx_pair(tmp_path, image_magic=0x801)
        with pytest.raises(BadMagicError):
            load_idx(ip2, lp2)

    def test_truncation_names_byte_counts(self, tmp_path):
        ip, lp, *_ = make_idx_pair(tmp_path, truncate_images=10)
        with pytest.raises(TruncatedFileError) as exc:
            load_idx(ip, lp)
        msg = str(exc.value)
        expected = 16 + 6 * 28 * 28
        assert str(expected) in msg and str(expected - 10) in msg

    def test_count_mismatch(self, tmp_path):
        ip, _, _, _ = make_idx_pair(tmp_path, n=6)
        lp = tmp_path / "labels5-idx1-ubyte"
        lp.write_bytes(struct.pack(">ii", 0x801, 5) + np.zeros(5, dtype=np.uint8).tobytes())
        with pytest.raises(CountMismatchError):
            load_idx(ip, lp)

    def test_round_trip_bit_exact(self, tmp_path):
        ip, lp, *_ = make_idx_pair(tmp_path, seed=3)
        s = load_idx(ip, lp)
        ip2, lp2 = tmp_path / "im2", tmp_path / "lab2"
        write_idx(s, ip2, lp2)
        assert ip2.read_bytes() == ip.read_bytes()
        assert lp2.read_bytes() == lp.read_bytes()


IO_FUZZ = settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


def be32s(*values):
    return struct.pack(f">{len(values)}i", *values)


class TestIdxFuzz:
    @given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 5), st.data())
    @IO_FUZZ
    def test_write_load_round_trips_bit_exactly(self, tmp_path, n, h, w, data):
        images = np.frombuffer(data.draw(st.binary(min_size=n * h * w, max_size=n * h * w)),
                               dtype=np.uint8).reshape(n, h, w, 1)
        labels = np.array(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=int)
        ip, lp = tmp_path / "images", tmp_path / "labels"
        write_idx(ImageSet(images, labels, 10), ip, lp)
        back = load_idx(ip, lp)
        assert back.images.tobytes() == images.tobytes() and back.images.shape == images.shape
        assert np.array_equal(back.labels, labels)
        files = ip.read_bytes(), lp.read_bytes()
        write_idx(back, ip, lp)
        assert (ip.read_bytes(), lp.read_bytes()) == files

    @given(
        st.one_of(st.binary(max_size=40), st.builds(
            lambda dims, body: be32s(0x803, *dims) + body,
            st.lists(st.integers(-2, 3), min_size=3, max_size=3), st.binary(max_size=30),
        )),
        st.one_of(st.binary(max_size=20), st.builds(
            lambda n, body: be32s(0x801, n) + body, st.integers(-2, 4), st.binary(max_size=6),
        )),
    )
    @IO_FUZZ
    def test_arbitrary_bytes_parse_or_name_the_file(self, tmp_path, image_bytes, label_bytes):
        ip, lp = tmp_path / "images", tmp_path / "labels"
        ip.write_bytes(image_bytes)
        lp.write_bytes(label_bytes)
        try:
            s = load_idx(ip, lp)
        except ParseError as e:
            assert str(ip) in str(e) or str(lp) in str(e)
        else:
            assert s.images.tobytes() == image_bytes[16:] and s.labels.max(initial=0) < 10

    def test_label_out_of_range_names_the_file(self, tmp_path):
        ip, lp, *_ = make_idx_pair(tmp_path, n=3)
        lp.write_bytes(be32s(0x801, 3) + bytes([1, 200, 2]))
        with pytest.raises(ParseError, match=f"^{lp}: record 1: label 200 out of range"):
            load_idx(ip, lp)

    def test_negative_dimensions_name_the_file(self, tmp_path):
        ip, lp = tmp_path / "images", tmp_path / "labels"
        ip.write_bytes(be32s(0x803, -1, -1, 4))
        lp.write_bytes(be32s(0x801, 1) + bytes([0]))
        with pytest.raises(ParseError, match=f"^{ip}: negative dimension in -1x-1x4"):
            load_idx(ip, lp)

    @pytest.mark.parametrize("label_bytes, message", [
        (be32s(0x801, -3) + bytes(3), "negative dimension in -3"),
        (be32s(0x801) + bytes(2), "header truncated at byte 6"),
    ])
    def test_label_header_checked_like_the_image_header(self, tmp_path, label_bytes, message):
        ip, lp, *_ = make_idx_pair(tmp_path, n=3)
        lp.write_bytes(label_bytes)
        with pytest.raises(ParseError, match=f"^{lp}: {message}$"):
            load_idx(ip, lp)

    @pytest.mark.parametrize("labels, first", [([3, 257, 299], "257"), ([3, 10, 9], "10")])
    def test_writing_a_label_that_would_not_reload_raises(self, tmp_path, labels, first):
        # stored as a byte, label 257 would reload as class 1; IDX has only the classes 0-9
        imgset = ImageSet(np.zeros((3, 2, 2, 1), dtype=np.uint8), np.array(labels), n_classes=300)
        with pytest.raises(ValueError, match=f"^image 1: label {first} is not an IDX label in 0-9$"):
            write_idx(imgset, tmp_path / "images", tmp_path / "labels")


class TestDownscale:
    def test_constant_image(self):
        img = np.full((28, 28), 51, dtype=np.uint8)
        np.testing.assert_allclose(downscale(img), np.full((7, 7), 51 / 255), rtol=1e-15)

    def test_checkerboard_averages_to_half(self):
        img = np.zeros((28, 28))
        img[::2, 1::2] = 255
        img[1::2, ::2] = 255
        np.testing.assert_allclose(downscale(img), 0.5, rtol=1e-15)

    def test_single_hot_pixel(self):
        img = np.zeros((28, 28))
        img[0, 0] = 255
        out = downscale(img)
        assert out[0, 0] == pytest.approx(1 / 16, rel=1e-15)
        assert np.count_nonzero(out) == 1

    def test_block_means_are_fixed_points(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(28, 28)).astype(np.float64)
        d = downscale(img)
        upsampled = np.kron(d, np.ones((4, 4))) * 255.0
        np.testing.assert_allclose(downscale(upsampled), d, rtol=1e-12)

    def test_batch_axis(self):
        imgs = np.zeros((3, 28, 28, 1), dtype=np.uint8)
        assert downscale(imgs).shape == (3, 7, 7)

    def test_pixel_images_give_the_block_mean_bit_for_bit(self):
        imgs = np.random.default_rng(6).integers(0, 256, size=(50, 28, 28, 1), dtype=np.uint8)
        blocks = imgs[..., 0].astype(np.float64).reshape(50, 7, 4, 7, 4)
        expected = blocks.mean(axis=(-3, -1)) / 255.0
        assert downscale(imgs).tobytes() == expected.tobytes()

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            downscale(np.zeros((27, 28)))


CIFAR_RECORD = 3073


def cifar_record(label, value=0, rng=None):
    pixels = (
        rng.integers(0, 256, size=3072, dtype=np.uint8)
        if rng is not None
        else np.full(3072, value, dtype=np.uint8)
    )
    return bytes([label]) + pixels.tobytes()


class TestCifar:
    def test_single_record(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(cifar_record(7, value=9))
        s = load_cifar([p])
        assert s.n == 1 and s.labels[0] == 7
        assert s.images.shape == (1, 3, 32, 32)
        assert np.all(s.images == 9)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        assert load_cifar([p]).n == 0

    def test_concatenates_batches(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for b in range(3):
            p = tmp_path / f"b{b}.bin"
            p.write_bytes(b"".join(cifar_record(i % 10, rng=rng) for i in range(4)))
            paths.append(p)
        assert load_cifar(paths).n == 12

    def test_bad_size(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 3072)  # one byte short of a record
        with pytest.raises(TruncatedFileError):
            load_cifar([p])

    def test_label_out_of_range_names_the_file(self, tmp_path):
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        paths[0].write_bytes(cifar_record(3))
        paths[1].write_bytes(cifar_record(4) + cifar_record(77))
        with pytest.raises(ParseError, match=f"^{paths[1]}: record 1: label 77 out of range"):
            load_cifar(paths)

    @given(st.lists(st.one_of(
        st.binary(max_size=8),
        st.builds(lambda labels, tail: b"".join(bytes([k]) + bytes(3072) for k in labels) + tail,
                  st.lists(st.integers(0, 255), max_size=3), st.binary(max_size=2)),
    ), min_size=1, max_size=3))
    @IO_FUZZ
    def test_arbitrary_bytes_parse_or_name_the_file(self, tmp_path, contents):
        paths = [tmp_path / f"batch{i}.bin" for i in range(len(contents))]
        for p, content in zip(paths, contents):
            p.write_bytes(content)
        try:
            s = load_cifar(paths)
        except ParseError as e:
            assert any(str(e).startswith(f"{p}: ") for p in paths)
        else:
            assert s.n == sum(map(len, contents)) // CIFAR_RECORD and s.labels.max(initial=0) < 10

    def test_features_scaled(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(cifar_record(0, value=255))
        feats = load_cifar([p]).to_features()
        assert feats.shape == (1, 3072)
        assert np.all(feats == 1.0)

    @pytest.mark.parametrize("shape", [(0, 3, 32, 32), (0, 28, 28, 1)])
    def test_features_of_no_images_keep_the_row_width(self, shape):
        # reshape(0, -1) raised: cannot reshape array of size 0 into shape (0,newaxis)
        feats = datasets.pixel_features(np.zeros(shape, np.uint8))
        assert feats.shape == (0, math.prod(shape[1:])) and feats.dtype == np.float64


def cifar_batches(tmp_path, counts, seed=0):
    """CIFAR batches of `counts` records each; returns the paths and the
    records as one (n, 3073) array."""
    rng = np.random.default_rng(seed)
    records = rng.integers(0, 256, size=(sum(counts), CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] %= 10
    paths, start = [], 0
    for b, count in enumerate(counts):
        paths.append(tmp_path / f"data_batch_{b}.bin")
        paths[-1].write_bytes(records[start : start + count].tobytes())
        start += count
    return paths, records


class TestImageRecords:
    """Records read on demand equal the rows of the whole files."""

    @given(st.data())
    @IO_FUZZ
    def test_idx_take_equals_whole_file_rows(self, tmp_path, data):
        n = data.draw(st.integers(1, 12))
        ip, lp, images, labels = make_idx_pair(tmp_path, n=n, h=3, w=2, seed=n)
        idx = data.draw(st.one_of(st.lists(st.integers(0, n - 1), max_size=20),
                                  st.just(list(range(n)))))
        records = open_idx(ip, lp)
        taken = records.take(np.array(idx, dtype=np.int64))
        assert taken.shape == (len(idx), 3, 2, 1) and taken.dtype == np.uint8
        assert taken.tobytes() == images[idx].tobytes()
        assert np.array_equal(records.labels, labels)
        assert load_idx(ip, lp).images.tobytes() == images.tobytes()

    @given(st.data())
    @IO_FUZZ
    def test_cifar_take_equals_whole_file_rows(self, tmp_path, data):
        counts = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
        paths, records = cifar_batches(tmp_path, counts, seed=sum(counts))
        n = len(records)
        idx = data.draw(st.one_of(st.lists(st.integers(0, max(n - 1, 0)), max_size=20 if n else 0),
                                  st.just(list(range(n)))))
        images = records[:, 1:].reshape(-1, 3, 32, 32)
        opened = open_cifar(paths)
        assert opened.take(np.array(idx, dtype=np.int64)).tobytes() == images[idx].tobytes()
        assert np.array_equal(opened.labels, records[:, 0])
        assert load_cifar(paths).images.tobytes() == images.tobytes()

    def test_a_long_run_reads_in_scan_sized_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datasets, "SCAN_BYTES", 2 * CIFAR_RECORD)
        paths, records = cifar_batches(tmp_path, [5, 4])
        idx = np.array([0, 1, 2, 3, 4, 5, 6, 8, 7, 2])
        expected = records[idx, 1:].reshape(-1, 3, 32, 32)
        assert open_cifar(paths).take(idx).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("indices", [[6], [-1], [0.0], [[0]], np.array([2**64 - 1], np.uint64)])
    def test_index_outside_the_set_raises(self, tmp_path, indices):
        ip, lp, *_ = make_idx_pair(tmp_path, n=6)
        with pytest.raises(IndexError):
            open_idx(ip, lp).take(indices)

    def test_idx_truncated_after_open_names_the_file(self, tmp_path):
        ip, lp, images, _ = make_idx_pair(tmp_path, n=6)
        records = open_idx(ip, lp)
        ip.write_bytes(ip.read_bytes()[: 16 + 4 * 28 * 28])
        assert records.take([0, 3]).tobytes() == images[[0, 3]].tobytes()
        with pytest.raises(TruncatedFileError, match=f"^{ip}: shorter than its {16 + 6 * 784} bytes"):
            records.take([3, 4])

    def test_cifar_truncated_after_open_names_the_file(self, tmp_path):
        paths, _ = cifar_batches(tmp_path, [3, 3])
        records = open_cifar(paths)
        paths[1].write_bytes(b"")
        records.take([0, 1, 2])
        with pytest.raises(TruncatedFileError, match=f"^{paths[1]}: shorter than its {3 * CIFAR_RECORD} bytes"):
            records.take([1, 5])

    def test_opening_cifar_batches_allocates_less_than_one_batch(self, tmp_path):
        # each batch is larger than the SCAN_BYTES chunk in which its labels are scanned
        paths, records = cifar_batches(tmp_path, [700, 700])
        tracemalloc.start()
        try:
            opened = open_cifar(paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opened.n == 1400 and peak < paths[0].stat().st_size


class TestPollute:
    def test_sigma_zero_is_identity(self):
        x = np.linspace(0, 1, 20)
        np.testing.assert_array_equal(pollute(x, 0.0, RngStream(1)), x)

    def test_noise_scale(self):
        x = np.zeros(100_000)
        noisy = pollute(x, 0.37, RngStream(2))
        assert abs(noisy.std() - 0.37) / 0.37 < 0.02

    def test_mean_preserved(self):
        x = np.full(100_000, 0.25)
        noisy = pollute(x, 0.5, RngStream(3))
        assert abs(noisy.mean() - 0.25) <= 3 * 0.5 / np.sqrt(100_000)

    def test_deterministic(self):
        x = np.ones((10, 4))
        a = pollute(x, 1.0, RngStream(4, 2))
        b = pollute(x, 1.0, RngStream(4, 2))
        np.testing.assert_array_equal(a, b)

    def test_no_clipping(self):
        x = np.zeros(1000)
        assert pollute(x, 2.0, RngStream(5)).min() < 0

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            pollute(np.zeros(3), -1.0, RngStream(0))

    @pytest.mark.parametrize("sigma", ["0.5", True, np.bool_(False), None])
    def test_sigma_must_be_a_real_number(self, sigma):
        with pytest.raises(ValueError, match=r"^sigma must be a finite real number >= 0, got "):
            pollute(np.zeros(3), sigma, RngStream(0))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match=r"^sigma must be a finite real number >= 0, got "):
            pollute(np.zeros(3), sigma, RngStream(0))


class TestPixelBlocks:
    B = datasets.PIXEL_ROWS

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, 2 * B - 1, 2 * B, 10 * B + 100])
    def test_row_blocks_cover_the_rows_in_order_and_none_is_short(self, n):
        blocks = datasets.row_blocks(n)
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        sizes = [rows.stop - rows.start for rows in blocks]
        if n < 2 * self.B:
            assert sizes == [n]
        else:
            assert set(sizes[:-1]) == {self.B} and self.B <= sizes[-1] < 2 * self.B

    # a multiple of the block, a ragged count and one below a block
    @pytest.mark.parametrize("n", [2 * B, 2 * B + 100, B // 3])
    @pytest.mark.parametrize("shape", [(28, 28, 1), (3, 32, 32)])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_blockwise_noisy_view_equals_the_noisy_features(self, n, shape, sigma):
        images = np.random.default_rng(n).integers(0, 256, (n, *shape), dtype=np.uint8)
        noisy = pollute(images, sigma, RngStream(9).fork("noise"))
        whole = pollute(datasets.pixel_features(images), sigma, RngStream(9).fork("noise"))
        assert noisy.dtype == np.float64 and noisy.shape == whole.shape == (n, math.prod(shape))
        assert noisy.tobytes() == whole.tobytes()


# any text but the delimiter and line breaks, which would move a cell to
# another column or row
CELL_TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n")


def number(cell):
    """A table cell's value, or None where the loader must reject it: a finite
    number written without a digit separator or surrounding whitespace."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if "_" not in cell and cell == cell.strip() and math.isfinite(value) else None


class TestMultitaskCsv:
    def write(self, tmp_path, lines):
        p = tmp_path / "table.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def row(self, start=0.0):
        return ",".join(str(start + 0.1 * i) for i in range(28))

    def test_three_rows(self, tmp_path):
        p = self.write(tmp_path, [self.row(i) for i in range(3)])
        inputs, outputs = load_multitask_csv(p)
        assert inputs.shape == (3, 21) and outputs.shape == (3, 7)

    def test_arity_error_names_row(self, tmp_path):
        bad = ",".join(["1.0"] * 27)
        p = self.write(tmp_path, [self.row(), bad, self.row()])
        with pytest.raises(TableFormatError, match="row 2"):
            load_multitask_csv(p)

    def test_scientific_notation(self, tmp_path):
        cells = ["1e-3"] * 28
        p = self.write(tmp_path, [",".join(cells)])
        assert load_multitask_csv(p)[0][0, 0] == 1e-3

    def test_non_numeric_cell(self, tmp_path):
        cells = ["1.0"] * 27 + ["oops"]
        p = self.write(tmp_path, [",".join(cells)])
        with pytest.raises(TableFormatError, match="row 1"):
            load_multitask_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        cells = ["1.0"] * 28
        cells[5] = cell
        p = self.write(tmp_path, [self.row(), ",".join(cells)])
        with pytest.raises(TableFormatError, match=f"^row 2, column 6: '{cell}' is not finite"):
            load_multitask_csv(p)

    def test_digit_separator_names_row_and_column(self, tmp_path):
        cells = ["1.0"] * 28
        cells[5] = "1_0"
        p = self.write(tmp_path, [self.row(), ",".join(cells)])
        with pytest.raises(TableFormatError, match="^row 2, column 6: '1_0' is not a number"):
            load_multitask_csv(p)

    def test_padded_cell_names_row_and_column(self, tmp_path):
        # a ", "-separated row split at "," leaves a space in front of each later cell
        p = self.write(tmp_path, [self.row(), ", ".join(str(0.1 * i) for i in range(28))])
        with pytest.raises(TableFormatError, match="^row 2, column 2: ' 0.1' is not a number$"):
            load_multitask_csv(p)

    @given(
        st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=28,
                          max_size=28), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 27), st.text(CELL_TEXT, max_size=8)),
                 max_size=3),
    )
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_cells_parse_to_equal_rows_or_name_their_row(self, tmp_path, rows, edits):
        cells = [[repr(v) for v in row] for row in rows]
        for r, k, text in edits:
            cells[r % len(cells)][k] = text
        lines = [",".join(row) for row in cells]
        p = tmp_path / "table.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # the format: a row is a stripped ASCII line, split at the delimiter
        # into finite numbers written without digit separators
        expected = [[number(c) for c in line.strip().split(",")] if line.isascii() else [None]
                    for line in lines]
        bad = [r for r, values in enumerate(expected, start=1) if None in values]
        if bad:
            with pytest.raises(TableFormatError, match=f"^row {bad[0]}[:,]"):
                load_multitask_csv(p)
        else:
            assert np.hstack(load_multitask_csv(p)).tobytes() == np.array(expected).tobytes()

    def test_whitespace_delimiter(self, tmp_path):
        p = self.write(tmp_path, [" ".join(["2.5"] * 28)])
        assert len(load_multitask_csv(p, delimiter=None)[0]) == 1

    @pytest.mark.parametrize("delimiter", ["", 5, b","])
    def test_bad_delimiter_rejected_before_the_file_is_opened(self, tmp_path, delimiter):
        # nothing exists at `nowhere`, so opening it first would raise FileNotFoundError
        message = f"delimiter must be a non-empty string or None, got {delimiter!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_multitask_csv(tmp_path / "nowhere", delimiter)


class TestImageSet:
    def test_label_count_checked(self):
        with pytest.raises(CountMismatchError):
            ImageSet(np.zeros((3, 2, 2, 1), dtype=np.uint8), np.zeros(2, dtype=int), 10)

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            ImageSet(np.zeros((1, 2, 2, 1), dtype=np.uint8), np.array([11]), 10)

    @pytest.mark.parametrize("labels, got", [
        (np.array([2.5, 9.9]), "float64 (2,)"),
        (np.array([1.0, 2.0]), "float64 (2,)"),
        (np.array([True, False]), "bool (2,)"),
        (np.array(["1", "2"]), "<U1 (2,)"),
        (np.array([[1], [2]]), "int64 (2, 1)"),
        ([1, 2], "list"),
    ], ids=["fractional", "integral-float", "bool", "str", "2-D", "list"])
    def test_labels_must_be_a_1d_integer_array(self, labels, got):
        with pytest.raises(ValueError, match=f"^labels must be a 1-D integer array, got {re.escape(got)}$"):
            ImageSet(np.zeros((2, 2, 2, 1), dtype=np.uint8), labels, 10)

    def test_empty_set_with_integer_labels_builds(self):
        assert ImageSet(np.zeros((0, 2, 2, 1), dtype=np.uint8), np.zeros(0, np.uint8), 10).n == 0
