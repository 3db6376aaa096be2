"""Stand-in image data of the real MNIST and CIFAR-10 shapes.

The files are random uint8 pixels and labels drawn from the workload
seed, written in the real container formats: IDX through
`distillery.datasets.write_idx`, CIFAR-10 as 3073-byte records (one
label byte, then 3072 channel-planar pixel bytes).  A directory is
reused only when its manifest names the same seed and every file's
blake2b digest still matches the manifest; otherwise it is rewritten.

Run as a script so that generation stays out of the benchmark
process's time and memory:

    python3 perfbench/standin.py {mnist|cifar} <seed> <directory>
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MNIST_SPLITS = (("train", 60_000), ("t10k", 10_000))
CIFAR_FILES = tuple((f"data_batch_{i}.bin", 10_000) for i in range(1, 6)) + (("test_batch.bin", 10_000),)
CIFAR_RECORD_BYTES = 3073
MANIFEST = "MANIFEST.json"
FORMAT_VERSION = 1


def _rng(kind: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.blake2b(kind.encode(), digest_size=8).digest(), "little")
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), tag]))


def _write_mnist(root: Path, seed: int) -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from distillery.datasets import ImageSet, write_idx

    g = _rng("mnist", seed)
    for prefix, n in MNIST_SPLITS:
        images = g.integers(0, 256, size=(n, 28, 28, 1), dtype=np.uint8)
        labels = g.integers(0, 10, size=n).astype(np.int64)
        write_idx(
            ImageSet(images, labels, n_classes=10),
            root / f"{prefix}-images-idx3-ubyte",
            root / f"{prefix}-labels-idx1-ubyte",
        )


def _write_cifar(root: Path, seed: int) -> None:
    g = _rng("cifar", seed)
    for name, n in CIFAR_FILES:
        records = g.integers(0, 256, size=(n, CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = g.integers(0, 10, size=n, dtype=np.uint8)
        (root / name).write_bytes(records.tobytes())


WRITERS = {"mnist": _write_mnist, "cifar": _write_cifar}


def _digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def _matches(root: Path, kind: str, seed: int) -> bool:
    try:
        manifest = json.loads((root / MANIFEST).read_text())
    except (OSError, ValueError):
        return False
    if manifest.get("kind") != kind or manifest.get("seed") != seed or manifest.get("version") != FORMAT_VERSION:
        return False
    files = manifest.get("files", {})
    present = sorted(p.name for p in root.iterdir() if p.name != MANIFEST)
    if not files or sorted(files) != present:
        return False
    return all(_digest(root / name) == digest for name, digest in files.items())


def ensure(kind: str, seed: int, root: Path) -> bool:
    """Make `root` hold the stand-in files for (kind, seed).

    Returns True when the files were (re)written, False when reused.
    """
    if kind not in WRITERS:
        raise ValueError(f"unknown stand-in kind {kind!r}")
    root = Path(root)
    if root.is_dir() and _matches(root, kind, seed):
        return False
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    WRITERS[kind](root, seed)
    for p in root.iterdir():
        # write back now, not during the first timed sample
        with open(p, "rb+") as f:
            os.fsync(f.fileno())
    files = {p.name: _digest(p) for p in sorted(root.iterdir())}
    manifest = {"kind": kind, "seed": seed, "version": FORMAT_VERSION, "files": files}
    (root / MANIFEST).write_text(json.dumps(manifest, indent=1) + "\n")
    return True


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: standin.py {mnist|cifar} <seed> <directory>")
    written = ensure(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(f"stand-in {sys.argv[1]} seed {sys.argv[2]}: {'written' if written else 'reused'}")
