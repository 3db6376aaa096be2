"""In-process A/B timing of `models.train` from two source trees.

    python3 scripts/ab_train.py OLD_TREE NEW_TREE

Each tree's `src/distillery` is imported under its own package name, so
both run in one process on the same data.  Each row is timed over
`ROUNDS` rounds, each of which times the row's `train` calls from each
tree, alternating which goes first; the script prints the median NEW/OLD
time ratio with its min and max.  The first rows are the benchmark's
three training shapes, one model per call, and the synthetic workload's
student call: its regular and lambda = 1 students, a stack of 2 linear
50->2 models, as one stacked call on both trees.  They also print the
median microseconds per SGD step of each tree.  The group row then times
the MNIST grid's 25 students (the regular one and 6 T x 4 lambda > 0
cells, on the same rows) as one NEW `train` call of a stacked `Packed`
against 25 OLD calls.  Every row compares each model's parameter and
loss-history bits across the trees, and the script exits 1 when any of
them differ.
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

# name, hidden sizes, d, c, rows, labeled rows, epochs; the rows past
# `labeled` carry a soft target only, as CIFAR's unlabeled pool does
SHAPES = [
    ("linear 50->2, n=200", (), 50, 2, 200, 200, 400),
    ("mlp 49->20->20->10, n=300", (20, 20), 49, 10, 300, 300, 100),
    ("mlp 3072->20->20->10, n=800", (20, 20), 3072, 10, 800, 300, 10),
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
    """(m0, [data], cfg) for one shape, built with the tree's own classes."""
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
    return m0, [data], cfg


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


def synthetic_problem(models):
    """(m0, [data], cfg) of the synthetic row: the regular and the lambda = 1
    student of one setup, a stack of 2 linear 50->2 models on 200 rows, with
    the synthetic runner's student settings."""
    d, c, n = 50, 2, 200
    rng = np.random.default_rng([d, c, n, 2])
    X, hard = rng.normal(size=(n, d)), np.eye(c)[rng.integers(c, size=n)]
    p = np.exp(rng.normal(size=(n, c)))
    soft = np.stack([p / p.sum(axis=1, keepdims=True)] * 2)
    hw, sw = (np.repeat(np.array(w)[:, None], n, axis=1) for w in ([1.0, 0.0], [0.0, 1.0]))
    m0 = models.init_model(models.Arch("linear"), d, c, rng=models.RngStream(1))
    cfg = models.TrainConfig(learning_rate=0.2, epochs=800, batch_size=BATCH_SIZE, l2=1e-4,
                             rng=models.RngStream(2))
    return m0, [models.Packed(X, "classification", (hard, hw), (soft, sw), range(n))], cfg


def timed(models, problem):
    """(seconds, [models]) of training every Packed of a problem (m0, datas,
    cfg), the models in order, those of a stacked call in its place."""
    m0, datas, cfg = problem
    start = time.perf_counter()
    out = [models.train(m0, data, cfg) for data in datas]
    seconds = time.perf_counter() - start
    return seconds, [m for r in out for m in (r if isinstance(r, list) else [r])]


def identical(a, b) -> bool:
    """Whether two lists of models hold the same parameter and loss-history bits."""
    return len(a) == len(b) and all(
        x.params.tobytes() == y.params.tobytes()
        and np.array(x.loss_history).tobytes() == np.array(y.loss_history).tobytes()
        for x, y in zip(a, b)
    )


def race(trees, problems):
    """(NEW/OLD time ratios, median seconds per tree, identical results?) of
    `ROUNDS` interleaved rounds after one warm-up call per tree."""
    results = {k: timed(m, problems[k])[1] for k, m in trees.items()}
    same = identical(results["old"], results["new"])
    times = {"old": [], "new": []}
    for r in range(ROUNDS):
        for k in ("old", "new") if r % 2 == 0 else ("new", "old"):
            times[k].append(timed(trees[k], problems[k])[0])
    ratios = [b / a for a, b in zip(times["old"], times["new"])]
    return ratios, {k: statistics.median(t) for k, t in times.items()}, same


def spread(ratios) -> str:
    return (f"median {statistics.median(ratios):.3f} "
            f"(min {min(ratios):.3f}, max {max(ratios):.3f})")


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
    verdict = {True: "yes", False: "NO"}
    rows = [(name, lambda m, shape=shape: problem(m, *shape)) for name, *shape in SHAPES]
    rows.append(("synthetic students, stack of 2 linear 50->2, n=200", synthetic_problem))
    all_same = True
    for name, build in rows:
        problems = {k: build(m) for k, m in trees.items()}
        _, datas, cfg = problems["new"]
        steps = cfg.epochs * math.ceil(len(datas[0]) / cfg.batch_size)
        ratios, seconds, same = race(trees, problems)
        us = {k: 1e6 * t / steps for k, t in seconds.items()}
        print(f"{name}: new/old {spread(ratios)}; us/step old {us['old']:.1f}, "
              f"new {us['new']:.1f}; weights and loss histories identical: {verdict[same]}")
        all_same &= same
    problems = {k: group_problem(m, stacked=k == "new") for k, m in trees.items()}
    ratios, _, same = race(trees, problems)
    calls = len(problems["old"][1])
    print(f"group of {calls}, mlp 49->20->20->10, n=300: one new call / {calls} old calls "
          f"{spread(ratios)}; models and loss histories identical: {verdict[same]}")
    all_same &= same
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
