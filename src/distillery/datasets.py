"""Real-dataset ingestion and transformation.

Three container formats, all parsed strictly (a malformed file raises
before any partially built set escapes):

  * IDX (big-endian), the classic MNIST container: magic 0x00000803 for
    image files with dims (n, H, W), 0x00000801 for label files.
  * CIFAR-10 binary batches: 3073-byte records, one label byte followed
    by 3072 channel-planar pixel bytes (R plane, G plane, B plane).
  * Delimiter-separated numeric text with 21 input columns and 7 output
    columns for multitask regression tables, loaded as (inputs, outputs).

Both image containers are fixed-size records behind one on-disk reader,
`ImageRecords`: opening checks every header, size and label byte and
keeps only the labels (CIFAR batches are scanned SCAN_BYTES at a time),
and `take` reads the pixels of the records drawn.  `load_idx` and
`load_cifar` open a set and take every record.  One header reader checks
both IDX files.

Pixels stay uint8 in the containers; `pixel_features` is the one rule that
turns them into feature rows scaled to [0, 1].  A whole set's pixels are
turned into features PIXEL_ROWS rows at a time (`row_blocks`), by
`pollute` and by `models.forward`, so that no float64 copy of its clean
pixels is held.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import RngStream, check_real, parse_number

__all__ = [
    "ParseError",
    "BadMagicError",
    "TruncatedFileError",
    "CountMismatchError",
    "TableFormatError",
    "ImageSet",
    "ImageRecords",
    "open_idx",
    "open_cifar",
    "load_idx",
    "write_idx",
    "load_cifar",
    "pixel_features",
    "row_blocks",
    "downscale",
    "pollute",
    "load_multitask_csv",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073
# records are scanned and read at most about this many bytes at a time
SCAN_BYTES = 1 << 20
# pixel rows are turned into float64 features in blocks of this many rows
# (see `row_blocks`)
PIXEL_ROWS = 1000


class ParseError(ValueError):
    """Malformed dataset container."""


class BadMagicError(ParseError):
    pass


class TruncatedFileError(ParseError):
    pass


class CountMismatchError(ParseError):
    pass


class TableFormatError(ParseError):
    pass


@dataclass
class ImageSet:
    """Labeled uint8 images: (n, H, W, C) from IDX files, (n, C, H, W) from
    CIFAR batches, which are kept channel-planar as stored on disk."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.dtype != np.uint8:
            raise ValueError("images must be uint8 with shape (n, H, W, C) or (n, C, H, W)")
        labels = self.labels
        if not isinstance(labels, np.ndarray):
            raise ValueError(f"labels must be a 1-D integer array, got {type(labels).__name__}")
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be a 1-D integer array, got {labels.dtype} {labels.shape}")
        if len(labels) != len(self.images):
            raise CountMismatchError(f"{len(self.images)} images but {len(labels)} labels")
        if self.n and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(f"labels out of range for {self.n_classes} classes")

    @property
    def n(self) -> int:
        return len(self.images)

    def to_features(self) -> np.ndarray:
        """The images as `pixel_features` rows."""
        return pixel_features(self.images)


class ImageRecords:
    """Labeled uint8 images left on disk: fixed-size records in one or more
    files, of which only the labels are held.  Made by `open_idx` and
    `open_cifar`.  The files must not change while the set is in use; one
    found shorter raises TruncatedFileError at the `take` that reads past
    its end."""

    def __init__(self, files, shape: tuple, header: int, skip: int):
        """`files` holds (path, size in bytes, label bytes) per file, in record order."""
        self.labels = np.concatenate([np.empty(0, dtype=np.int64), *(lab for *_, lab in files)])
        self.shape = shape  # one image's
        self._files = [(path, size) for path, size, _ in files]
        self._ends = np.cumsum([len(lab) for *_, lab in files], dtype=np.int64)
        self._header = header  # bytes before the first record
        self._skip = skip  # bytes before the pixels within a record
        self._record = skip + math.prod(shape)

    @property
    def n(self) -> int:
        return len(self.labels)

    def take(self, indices) -> np.ndarray:
        """The images at `indices` (any order, repeats allowed), shaped
        (len(indices), *shape): the rows that indexing the whole set gives.
        One read per run of consecutive records in a file (per SCAN_BYTES
        of a longer run)."""
        idx = np.asarray(indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise IndexError(f"indices must be a 1-D integer array, got {idx.dtype} {idx.shape}")
        idx = idx.astype(np.int64, copy=False)
        if len(idx) and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError(f"indices must be in [0, {self.n}), got {idx.min()}..{idx.max()}")
        if np.any(idx[1:] <= idx[:-1]):
            unique, inverse = np.unique(idx, return_inverse=True)
            return self.take(unique)[inverse]
        out = np.empty((len(idx), *self.shape), dtype=np.uint8)
        rows = out.reshape(len(idx), self._record - self._skip)
        ends = np.searchsorted(idx, self._ends)
        for (path, size), first, lo, hi in zip(self._files, [0, *self._ends], [0, *ends], ends):
            if lo == hi:
                continue
            local = idx[lo:hi] - first
            runs = [0, *(np.flatnonzero(np.diff(local) != 1) + 1), hi - lo]
            with open(path, "rb") as f:
                for a, b in zip(runs, runs[1:]):
                    offset = self._header + int(local[a]) * self._record
                    for k, block in _blocks(f, path, size, offset, self._record, b - a):
                        rows[lo + a + k : lo + a + k + len(block)] = block[:, self._skip :]
        return out


def _blocks(f, path, size: int, offset: int, record: int, count: int):
    """Read `count` records of `record` bytes from byte `offset` of the open
    file `f`, at most SCAN_BYTES at a time: yields (first record, block of
    shape (k, record)), one buffer reused.  A short read raises
    TruncatedFileError naming `path`, whose size was `size`."""
    step = max(1, SCAN_BYTES // max(record, 1))
    buf = np.empty((min(count, step), record), dtype=np.uint8)
    f.seek(offset)
    for first in range(0, count, step):
        block = buf[: min(step, count - first)]
        if f.readinto(block) != block.nbytes:
            raise TruncatedFileError(f"{path}: shorter than its {size} bytes")
        yield first, block


def _idx_dims(f, magic: int, ndim: int) -> tuple[int, ...]:
    """The `ndim` dimensions in the header of the IDX file `f`, open at its
    start; leaves `f` at the first payload byte.  The file must start with
    `magic`, no dimension may be negative, and its size must be the header
    plus their product in bytes; a ParseError names the file otherwise."""
    head, size = f.read(4 + 4 * ndim), os.fstat(f.fileno()).st_size
    if len(head) < 4 + 4 * ndim:
        raise TruncatedFileError(f"{f.name}: header truncated at byte {len(head)}")
    found, *dims = struct.unpack(f">{1 + ndim}i", head)
    if found != magic:
        raise BadMagicError(f"{f.name}: magic {found:#010x}, expected {magic:#010x}")
    shape = "x".join(map(str, dims))
    if min(dims) < 0:
        raise ParseError(f"{f.name}: negative dimension in {shape}")
    expected = len(head) + math.prod(dims)
    if size != expected:
        raise TruncatedFileError(f"{f.name}: expected {expected} bytes ({shape} payload), got {size}")
    return tuple(dims)


def _check_labels(labels: np.ndarray, path) -> None:
    """Reject a label byte outside the 10 classes, naming the file and its record."""
    bad = labels >= 10
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(f"{path}: record {k}: label {labels[k]} out of range for 10 classes")


def open_idx(images_path, labels_path) -> ImageRecords:
    """Open an IDX image/label file pair; the counts must agree.  Reads the
    image header and every label; raises a ParseError naming the file that
    is malformed."""
    with open(images_path, "rb") as f:
        n, h, w = _idx_dims(f, IDX_IMAGE_MAGIC, 3)
    with open(labels_path, "rb") as f:
        (n_lab,) = _idx_dims(f, IDX_LABEL_MAGIC, 1)
        labels = np.frombuffer(f.read(n_lab), dtype=np.uint8)
    if n_lab != n:
        raise CountMismatchError(
            f"{labels_path}: {n_lab} labels for the {n} images of {images_path}"
        )
    _check_labels(labels, labels_path)
    return ImageRecords([(images_path, 16 + n * h * w, labels)], (h, w, 1), header=16, skip=0)


def load_idx(images_path, labels_path) -> ImageSet:
    """Parse an IDX image/label file pair whole (`open_idx`, then every record)."""
    records = open_idx(images_path, labels_path)
    return ImageSet(records.take(np.arange(records.n)), records.labels, n_classes=10)


def write_idx(imgset: ImageSet, images_path, labels_path) -> None:
    """Inverse of load_idx; a parsed set re-serializes bit-exactly.  A set
    that is not (n, H, W, 1), or a label other than the integers 0-9 (which
    one label byte would not give back), raises ValueError."""
    if imgset.images.shape[3] != 1:
        raise ValueError("IDX writing supports single-channel (n, H, W, 1) sets only")
    bad = np.flatnonzero(~np.isin(imgset.labels, np.arange(10)))
    if len(bad):
        raise ValueError(f"image {bad[0]}: label {imgset.labels[bad[0]]} is not an IDX label in 0-9")
    n, h, w, _ = imgset.images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, h, w))
        f.write(imgset.images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        f.write(imgset.labels.astype(np.uint8).tobytes())


def open_cifar(batch_paths) -> ImageRecords:
    """Open CIFAR-10 binary batches (label byte + 3072 pixel bytes) as one
    set, in order.  Scans every label in chunks of about SCAN_BYTES;
    raises a ParseError naming the file that is malformed.  Pixels are
    channel-planar: an image has shape (3, 32, 32)."""
    sizes = [os.path.getsize(p) for p in batch_paths]
    files = [(path, size, _cifar_labels(path, size)) for path, size in zip(batch_paths, sizes)]
    return ImageRecords(files, (3, 32, 32), header=0, skip=1)


def _cifar_labels(path, size: int) -> np.ndarray:
    """The checked label bytes of the CIFAR batch at `path`, of `size` bytes."""
    if size % CIFAR_RECORD_BYTES != 0:
        raise TruncatedFileError(f"{path}: size {size} not a multiple of {CIFAR_RECORD_BYTES}")
    labels = np.empty(size // CIFAR_RECORD_BYTES, dtype=np.uint8)
    with open(path, "rb") as f:
        for k, block in _blocks(f, path, size, 0, CIFAR_RECORD_BYTES, len(labels)):
            labels[k : k + len(block)] = block[:, 0]
    _check_labels(labels, path)
    return labels


def load_cifar(batch_paths) -> ImageSet:
    """Parse CIFAR-10 binary batches whole (`open_cifar`, then every record);
    pixels are kept channel-planar: shape (n, 3, 32, 32)."""
    records = open_cifar(batch_paths)
    images = records.take(np.arange(records.n))
    return ImageSet(images, records.labels, n_classes=10)


def pixel_features(images: np.ndarray) -> np.ndarray:
    """uint8 images (n, ...) as row-major float64 rows scaled to [0, 1], one per
    image; zero images give shape (0, H*W*C)."""
    features = images.reshape(len(images), math.prod(images.shape[1:])).astype(np.float64)
    features /= 255.0
    return features


def row_blocks(n: int) -> list[slice]:
    """Slices that cover rows 0 to n in order: PIXEL_ROWS rows each, but the
    last, which also takes the rest; one slice of all n rows when n is below
    2 * PIXEL_ROWS.  No block is shorter than PIXEL_ROWS rows, because on
    OpenBLAS a product of fewer than about 10^6 multiply-adds takes a
    kernel that rounds otherwise: a 784-wide product with 10 columns taken
    in blocks of 1,000 rows gives the bits of the whole product, but not
    with a last block of 100 rows."""
    k = max(n // PIXEL_ROWS, 1)
    return [slice(i * PIXEL_ROWS, n if i == k - 1 else (i + 1) * PIXEL_ROWS) for i in range(k)]


def downscale(img) -> np.ndarray:
    """28x28 grayscale -> 7x7 reals in [0, 1] by 4x4 block mean.

    Accepts a single image or a leading batch axis; a trailing size-1
    channel axis is squeezed.  Block means of exact replications are
    fixed points, so downscaling is idempotent under 4x upsampling.
    """
    a = np.asarray(img)
    if a.ndim >= 3 and a.shape[-1] == 1:
        a = a[..., 0]
    if a.shape[-2:] != (28, 28):
        raise ValueError(f"expected 28x28 images, got shape {np.shape(img)}")
    # whole-slice adds: exact block sums for integer pixels, ~3x faster than mean();
    # uint8 pixels sum in uint16, which holds a block's 16 * 255 exactly
    blocks = a.reshape(*a.shape[:-2], 7, 4, 7, 4)
    rows = blocks[..., 0, :, :].astype(np.uint16 if a.dtype == np.uint8 else np.float64)
    for k in (1, 2, 3):
        rows += blocks[..., k, :, :]
    sums = (rows[..., 0] + rows[..., 1] + rows[..., 2] + rows[..., 3]).astype(np.float64)
    sums /= 16
    sums /= 255.0
    return sums


def pollute(features, sigma: float, rng: RngStream) -> np.ndarray:
    """Add i.i.d. N(0, sigma^2) noise per component; no clipping.

    Values may leave [0, 1]; the draw is fully determined by the stream.
    uint8 images (n, ...) stand for their `pixel_features` rows: the noise
    is drawn whole and scaled in place, and the rows are added into it in
    `row_blocks`, so only one block of features is held at a time.  The
    sums are the bits of `pollute(pixel_features(images), sigma, rng)`.
    """
    sigma = check_real("sigma", sigma)
    x = np.asarray(features)
    if x.dtype != np.uint8:
        x = x.astype(np.float64, copy=False)
        return x.copy() if sigma == 0 else x + sigma * rng.generator().standard_normal(x.shape)
    if sigma == 0:
        return pixel_features(x)
    noisy = rng.generator().standard_normal((len(x), math.prod(x.shape[1:])))
    noisy *= sigma
    for rows in row_blocks(len(x)):
        noisy[rows] += pixel_features(x[rows])
    return noisy


def load_multitask_csv(path, delimiter: str = ",") -> tuple[np.ndarray, np.ndarray]:
    """Parse a text table of 21 input and 7 output columns of finite numbers,
    each cell read by `core.parse_number`, into (inputs, outputs) arrays of
    one row per data row; errors name the row (and column).

    Pass delimiter=None to split on arbitrary whitespace; any other
    delimiter that is not a non-empty string raises ValueError before the
    file is opened.
    """
    if delimiter == "" or not isinstance(delimiter, (str, type(None))):
        raise ValueError(f"delimiter must be a non-empty string or None, got {delimiter!r}")
    n_inputs, arity = 21, 28
    rows = []
    # a byte that is not ASCII reads as a lone surrogate, so that its row can be named
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        for row_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line.isascii():
                raise TableFormatError(f"row {row_no}: not ASCII text")
            if not line:
                continue
            cells = line.split(delimiter) if delimiter is not None else line.split()
            if len(cells) != arity:
                raise TableFormatError(f"row {row_no}: expected {arity} columns, got {len(cells)}")
            values = []
            for k, cell in enumerate(cells, start=1):
                where = f"row {row_no}, column {k}: {cell!r}"
                try:
                    values.append(parse_number(cell))
                except ValueError:
                    raise TableFormatError(f"{where} is not a number") from None
                if not math.isfinite(values[-1]):
                    raise TableFormatError(f"{where} is not finite")
            rows.append(values)
    if not rows:
        raise TableFormatError(f"{path}: no data rows")
    rows = np.array(rows)
    return rows[:, :n_inputs], rows[:, n_inputs:]
