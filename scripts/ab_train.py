"""In-process A/B timing of `models.train` from two source trees.

    python3 scripts/ab_train.py OLD_TREE NEW_TREE

Each tree's `src/distillery` is imported under its own package name, so
both run in one process on the same data.  For each of the benchmark's
three training shapes, each of `ROUNDS` rounds times one `train` call
from each tree, alternating which goes first; the script prints the
median NEW/OLD time ratio with its min and max, the median microseconds
per SGD step of each tree, and whether the two trees trained
bit-identical weights.  It exits 1 when any shape's weights differ.
The data is given to each tree as its own `models.Packed` of
`(targets, weights)` hard and soft targets; a tree without `Packed` is
refused, and one whose `Packed` takes another form fails to build it.
Timing both trees in one process, interleaved, cancels the host's speed
drift over minutes that separate benchmark runs cannot.

BLAS and OpenMP pools are set to one thread before numpy loads, as in
the benchmark.  Uses only numpy and the standard library.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# name, hidden sizes, (d, c), rows, labeled rows, epochs; the rows past
# `labeled` carry a soft target only, as CIFAR's unlabeled pool does
SHAPES = [
    ("linear 50->2, n=200", (), (50, 2), 200, 200, 400),
    ("mlp 49->20->20->10, n=300", (20, 20), (49, 10), 300, 300, 100),
    ("mlp 3072->20->20->10, n=800", (20, 20), (3072, 10), 800, 300, 10),
]
IMITATION = 0.5
BATCH_SIZE = 32
ROUNDS = 11  # timed rounds per shape


def load_models(tree: Path, name: str):
    """`distillery.models` of `tree`, imported as package `name`."""
    src = tree / "src" / "distillery"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    if spec is None:
        raise SystemExit(f"no distillery package under {src}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.models")


def problem(models, hidden, d, c, n, labeled, epochs):
    """(m0, data, cfg) for one shape, built with the tree's own classes."""
    rng = np.random.default_rng([d, c, n])
    X = rng.normal(size=(n, d))
    labels = rng.integers(c, size=n)
    soft = rng.dirichlet(np.ones(c), size=n)
    hard = (np.eye(c)[labels], np.where(np.arange(n) < labeled, 1.0 - IMITATION, 0.0))
    data = models.Packed(X, "classification", hard, (soft, np.full(n, IMITATION)), range(n))
    arch = models.Arch.mlp(*hidden) if hidden else models.Arch("linear")
    m0 = models.init_model(arch, d, c, rng=models.RngStream(1))
    cfg = models.TrainConfig(learning_rate=0.01, epochs=epochs, batch_size=BATCH_SIZE, l2=1e-4,
                             rng=models.RngStream(2))
    return m0, data, cfg


def timed(models, args):
    start = time.perf_counter()
    m = models.train(*args)
    return time.perf_counter() - start, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the baseline")
    parser.add_argument("new", type=Path, help="source tree of the change")
    args = parser.parse_args(argv)
    trees = {k: load_models(getattr(args, k), f"distillery_{k}") for k in ("old", "new")}
    for k, models in trees.items():
        if not hasattr(models, "Packed"):
            raise SystemExit(f"{getattr(args, k)}: distillery.models has no Packed training input")
    print(f"numpy {np.__version__}, nproc {os.cpu_count()}, {ROUNDS} rounds per shape")
    all_same = True
    for name, hidden, (d, c), n, labeled, epochs in SHAPES:
        problems = {k: problem(m, hidden, d, c, n, labeled, epochs) for k, m in trees.items()}
        steps = epochs * math.ceil(n / BATCH_SIZE)
        results = {k: timed(m, problems[k])[1] for k, m in trees.items()}  # warm-up
        same = all(
            np.array_equal(a, b)
            for a, b in zip(results["old"].weights + results["old"].biases,
                            results["new"].weights + results["new"].biases)
        )
        times = {"old": [], "new": []}
        for r in range(ROUNDS):
            for k in ("old", "new") if r % 2 == 0 else ("new", "old"):
                times[k].append(timed(trees[k], problems[k])[0])
        ratios = [b / a for a, b in zip(times["old"], times["new"])]
        us = {k: 1e6 * statistics.median(t) / steps for k, t in times.items()}
        print(
            f"{name}: new/old median {statistics.median(ratios):.3f} "
            f"(min {min(ratios):.3f}, max {max(ratios):.3f}); "
            f"us/step old {us['old']:.1f}, new {us['new']:.1f}; "
            f"weights identical: {'yes' if same else 'NO'}"
        )
        all_same &= same
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
