"""In-process A/B timing of `models.train` from two source trees.

    python3 scripts/ab_train.py OLD_TREE NEW_TREE

Each tree's `src/distillery` is imported under its own package name, so
both run in one process on the same data.  For each of the benchmark's
three training shapes, each of `ROUNDS` rounds times one `train` call
from each tree, alternating which goes first; the script prints the
median NEW/OLD time ratio with its min and max, the median microseconds
per SGD step of each tree, and whether the two trees trained
bit-identical weights.  The group row then times the MNIST grid's 25
students (the regular one and 6 T x 4 lambda > 0 cells, on the same
rows) as one NEW `train` call of a stacked `Packed` against 25 OLD
calls, and compares each model and its loss history.  It exits 1 when
any weights differ.
The data is given to each tree as its own `models.Packed` of
`(targets, weights)` hard and soft targets; a tree without `Packed` is
refused, and one whose `Packed` takes another form fails to build it
(the NEW tree's must take `(R, n)` weights and `(R, n, c)` soft targets).
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
ROUNDS = 21  # timed rounds per shape
# the group row: mlp 49->20->20->10 on 300 rows, 100 epochs, the benchmark's grid
GROUP_T = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
GROUP_LAMBDA = (0.25, 0.5, 0.75, 1.0)


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


def group_problem(models, stacked: bool):
    """(m0, datas, cfg) of the group row: one stacked Packed of the 25 target
    sets, or 25 single ones, built with the tree's own classes."""
    d, c, n = 49, 10, 300
    m0, _, cfg = problem(models, (20, 20), d, c, n, n, 100)
    rng = np.random.default_rng([d, c, n, 25])
    X, hard = rng.normal(size=(n, d)), np.eye(c)[rng.integers(c, size=n)]
    logits = rng.normal(size=(n, c))
    soft, hw, sw = [hard], [1.0], [0.0]  # the regular student reads no soft target
    for T in GROUP_T:
        p = np.exp(logits / T)
        soft += [p / p.sum(axis=1, keepdims=True)] * len(GROUP_LAMBDA)
        hw, sw = hw + [1.0 - lam for lam in GROUP_LAMBDA], sw + list(GROUP_LAMBDA)
    S = np.stack(soft)
    HW, SW = (np.repeat(np.array(w)[:, None], n, axis=1) for w in (hw, sw))
    if stacked:
        return m0, [models.Packed(X, "classification", (hard, HW), (S, SW), range(n))], cfg
    return m0, [models.Packed(X, "classification", (hard, a), (s, b), range(n))
                for a, s, b in zip(HW, S, SW)], cfg


def timed(models, args):
    start = time.perf_counter()
    m = models.train(*args)
    return time.perf_counter() - start, m


def timed_group(models, problem):
    """(seconds, models) of training every Packed of a `group_problem`."""
    m0, datas, cfg = problem
    start = time.perf_counter()
    out = [models.train(m0, data, cfg) for data in datas]
    seconds = time.perf_counter() - start
    return seconds, out[0] if len(out) == 1 else out


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
    problems = {k: group_problem(m, stacked=k == "new") for k, m in trees.items()}
    results = {k: timed_group(m, problems[k])[1] for k, m in trees.items()}  # warm-up
    same = all(
        a.params.tobytes() == b.params.tobytes() and a.loss_history == b.loss_history
        for a, b in zip(results["old"], results["new"], strict=True)
    )
    times = {"old": [], "new": []}
    for r in range(ROUNDS):
        for k in ("old", "new") if r % 2 == 0 else ("new", "old"):
            times[k].append(timed_group(trees[k], problems[k])[0])
    ratios = [b / a for a, b in zip(times["old"], times["new"])]
    print(
        f"group of {len(results['new'])}, mlp 49->20->20->10, n=300: one new call / "
        f"{len(results['old'])} old calls median {statistics.median(ratios):.3f} "
        f"(min {min(ratios):.3f}, max {max(ratios):.3f}); "
        f"models and loss histories identical: {'yes' if same else 'NO'}"
    )
    all_same &= same
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
