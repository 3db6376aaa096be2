"""Real-dataset ingestion and transformation.

Three container formats, all parsed strictly (a malformed file raises
before any partially built set escapes):

  * IDX (big-endian), the classic MNIST container: magic 0x00000803 for
    image files with dims (n, H, W), 0x00000801 for label files.
  * CIFAR-10 binary batches: 3073-byte records, one label byte followed
    by 3072 channel-planar pixel bytes (R plane, G plane, B plane).
  * Delimiter-separated numeric text with 21 input columns and 7 output
    columns for multitask regression tables.

Pixels stay uint8 in the containers and are scaled to [0, 1] when
converted to feature vectors.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import RngStream

__all__ = [
    "ParseError",
    "BadMagicError",
    "TruncatedFileError",
    "CountMismatchError",
    "TableFormatError",
    "ImageSet",
    "MultitaskTable",
    "load_idx",
    "write_idx",
    "load_cifar",
    "downscale",
    "pollute",
    "load_multitask_csv",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


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
    """Labeled uint8 images.

    Layout is (n, H, W, C) normally, or (n, C, H, W) when channel_first
    (CIFAR batches are kept channel-planar, as stored on disk).
    """

    images: np.ndarray
    labels: np.ndarray
    n_classes: int
    channel_first: bool = False

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.dtype != np.uint8:
            raise ValueError("images must be uint8 with shape (n, H, W, C) or (n, C, H, W)")
        if len(self.labels) != len(self.images):
            raise CountMismatchError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if self.n and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError(f"labels out of range for {self.n_classes} classes")

    @property
    def n(self) -> int:
        return len(self.images)

    def to_features(self) -> np.ndarray:
        """Row-major flattened pixels scaled to [0, 1], one row per image."""
        return self.images.reshape(self.n, -1).astype(np.float64) / 255.0


def _read_be32(data: bytes, offset: int, path) -> int:
    if offset + 4 > len(data):
        raise TruncatedFileError(f"{path}: header truncated at byte {len(data)}")
    return struct.unpack_from(">i", data, offset)[0]


def _check_labels(labels: np.ndarray, path) -> None:
    """Reject a label byte outside the 10 classes, naming the file and its record."""
    bad = labels >= 10
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(f"{path}: record {k}: label {labels[k]} out of range for 10 classes")


def load_idx(images_path, labels_path) -> ImageSet:
    """Parse an IDX image/label file pair; the counts must agree.  Raises a
    ParseError naming the file that is malformed."""
    with open(images_path, "rb") as f:
        img_data = f.read()
    magic = _read_be32(img_data, 0, images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise BadMagicError(
            f"{images_path}: magic {magic:#010x}, expected {IDX_IMAGE_MAGIC:#010x}"
        )
    n = _read_be32(img_data, 4, images_path)
    h = _read_be32(img_data, 8, images_path)
    w = _read_be32(img_data, 12, images_path)
    if min(n, h, w) < 0:
        raise ParseError(f"{images_path}: negative dimension in {n}x{h}x{w}")
    expected = 16 + n * h * w
    if len(img_data) != expected:
        raise TruncatedFileError(
            f"{images_path}: expected {expected} bytes ({n}x{h}x{w} payload), got {len(img_data)}"
        )
    images = np.frombuffer(img_data, dtype=np.uint8, offset=16).reshape(n, h, w, 1)

    with open(labels_path, "rb") as f:
        lab_data = f.read()
    magic = _read_be32(lab_data, 0, labels_path)
    if magic != IDX_LABEL_MAGIC:
        raise BadMagicError(
            f"{labels_path}: magic {magic:#010x}, expected {IDX_LABEL_MAGIC:#010x}"
        )
    n_lab = _read_be32(lab_data, 4, labels_path)
    if len(lab_data) != 8 + n_lab:
        raise TruncatedFileError(
            f"{labels_path}: expected {8 + n_lab} bytes, got {len(lab_data)}"
        )
    if n_lab != n:
        raise CountMismatchError(
            f"{labels_path}: {n_lab} labels for the {n} images of {images_path}"
        )
    labels = np.frombuffer(lab_data, dtype=np.uint8, offset=8)
    _check_labels(labels, labels_path)
    return ImageSet(images, labels.astype(np.int64), n_classes=10)


def write_idx(imgset: ImageSet, images_path, labels_path) -> None:
    """Inverse of load_idx; a parsed set re-serializes bit-exactly."""
    if imgset.channel_first or imgset.images.shape[3] != 1:
        raise ValueError("IDX writing supports single-channel (n, H, W, 1) sets only")
    n, h, w, _ = imgset.images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, h, w))
        f.write(imgset.images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        f.write(imgset.labels.astype(np.uint8).tobytes())


def load_cifar(batch_paths) -> ImageSet:
    """Concatenate CIFAR-10 binary batches (label byte + 3072 pixel bytes),
    read straight into one buffer.

    Pixels are kept channel-planar: shape (n, 3, 32, 32).  Raises a
    ParseError naming the file that is malformed.
    """
    sizes = [os.path.getsize(p) for p in batch_paths]
    records, start = np.empty(sum(sizes), dtype=np.uint8), 0
    for path, size in zip(batch_paths, sizes):
        if size % CIFAR_RECORD_BYTES != 0:
            raise TruncatedFileError(f"{path}: size {size} not a multiple of {CIFAR_RECORD_BYTES}")
        with open(path, "rb") as f:
            if f.readinto(records[start : start + size]) != size:
                raise TruncatedFileError(f"{path}: shorter than its {size} bytes")
        _check_labels(records[start : start + size : CIFAR_RECORD_BYTES], path)
        start += size
    records = records.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return ImageSet(images, labels, n_classes=10, channel_first=True)


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
    # whole-slice adds: exact block sums for integer pixels, ~3x faster than mean()
    blocks = a.reshape(*a.shape[:-2], 7, 4, 7, 4)
    rows = blocks[..., 0, :, :].astype(np.float64)
    for k in (1, 2, 3):
        rows += blocks[..., k, :, :]
    return (rows[..., 0] + rows[..., 1] + rows[..., 2] + rows[..., 3]) / 16 / 255.0


def pollute(features, sigma: float, rng: RngStream) -> np.ndarray:
    """Add i.i.d. N(0, sigma^2) noise per component; no clipping.

    Values may leave [0, 1]; the draw is fully determined by the stream.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    x = np.asarray(features, dtype=np.float64)
    if sigma == 0:
        return x.copy()
    return x + sigma * rng.generator().standard_normal(x.shape)


@dataclass
class MultitaskTable:
    """Rows of 21 real inputs followed by 7 task outputs."""

    rows: np.ndarray
    n_inputs: int = 21
    n_outputs: int = 7

    def __post_init__(self):
        arity = self.n_inputs + self.n_outputs
        if self.rows.ndim != 2 or self.rows.shape[1] != arity:
            raise TableFormatError(f"table must have {arity} columns, got {self.rows.shape}")
        if not np.all(np.isfinite(self.rows)):
            raise TableFormatError("table contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def inputs(self) -> np.ndarray:
        return self.rows[:, : self.n_inputs]

    @property
    def outputs(self) -> np.ndarray:
        return self.rows[:, self.n_inputs :]


def load_multitask_csv(path, delimiter: str = ",") -> MultitaskTable:
    """Parse a 28-numeric-column text table; errors carry the row number.

    Pass delimiter=None to split on arbitrary whitespace.
    """
    arity = 28
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
            if any("_" in c for c in cells):  # float() takes digit separators, as in 1_0
                k = next(k for k, c in enumerate(cells) if "_" in c)
                where = f"row {row_no}, column {k + 1}"
                raise TableFormatError(f"{where}: {cells[k]!r} is not a number")
            try:
                values = [float(c) for c in cells]
            except ValueError as e:
                raise TableFormatError(f"row {row_no}: {e}") from None
            if not all(map(math.isfinite, values)):
                k = next(k for k, v in enumerate(values) if not math.isfinite(v))
                raise TableFormatError(f"row {row_no}, column {k + 1}: {cells[k]!r} is not finite")
            rows.append(values)
    if not rows:
        raise TableFormatError(f"{path}: no data rows")
    return MultitaskTable(np.array(rows))
