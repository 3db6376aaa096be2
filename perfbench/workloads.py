"""The benchmark's workloads, and the checks run on every result.

Each workload runs through distillery's public `run_*` entry points.
One *sample* is one call with `reps=1` (for `synthetic-paper`, one call
per setup 1-4); the same call with `reps=0` does only the work before
the repetition loop, which is what `setup_s` times.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

# distillery's default grid, fixed here so that a change of the library's
# defaults cannot change what the benchmark measures
T_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  `data` names the stand-in files it reads
    (None: no files); `kwargs` go to the `run_*` function unchanged."""

    name: str
    data: str | None
    kwargs: dict = field(default_factory=dict)
    setups: tuple[int, ...] = ()  # synthetic setups; one report each
    n_train: int = 200  # synthetic spec sizes
    n_test: int = 10_000

    def trainings(self) -> int:
        """Trainings one `reps=1` sample attempts."""
        if self.data is None:
            return 3 * len(self.setups)  # teacher, regular, distilled
        cells = len(self.kwargs["T_grid"]) * len(self.kwargs["lambda_grid"])
        per_cell = 2 if self.data == "cifar" else 1  # semi-supervised and labeled-only
        return 2 + per_cell * cells


WORKLOADS = {
    w.name: w
    for w in (
        # Paper sizes, linear models, T = 1, lambda = 1: per-step call overhead,
        # a 10k-row test set rebuilt every repetition, no files, no lambda = 0 cell.
        Workload("synthetic-paper", None, {"temperature": 1.0, "imitation": 1.0}, setups=(1, 2, 3, 4)),
        # Many small MLP trainings, 32 evaluations on 10k rows, 6 redundant
        # lambda = 0 students, IDX parsing and downscaling in set-up.
        Workload("mnist-grid", "mnist", {"n_train": 300, "T_grid": T_GRID, "lambda_grid": LAMBDA_GRID}),
        # 3072-wide FLOP- and copy-bound steps, the large memory footprint and
        # the only soft-only (unlabeled) rows; the grid keeps a lambda = 0 cell.
        Workload(
            "cifar-semisup",
            "cifar",
            {"n_labeled": 300, "sigma": 0.5, "max_unlabeled": 500, "T_grid": (1.0,), "lambda_grid": (0.0, 1.0)},
        ),
    )
}


def run_sample(ex, wl: Workload, seed: int, reps: int, data_dir=None) -> list:
    """Run one sample through the experiment module `ex`; one report per call."""
    if wl.data is None:
        return [
            ex.run_synthetic(
                e,
                reps=reps,
                spec=ex.SyntheticSpec(e, n_train=wl.n_train, n_test=wl.n_test),
                seed=seed,
                **wl.kwargs,
            )
            for e in wl.setups
        ]
    run = ex.run_mnist if wl.data == "mnist" else ex.run_cifar_semisup
    return [run(reps=reps, seed=seed, data_dir=data_dir, **wl.kwargs)]


def trainings_done(reports) -> int:
    """Trainings that produced a value: one per arm value or cell value."""
    return sum(len(r.values) for rep in reports for r in rep.results)


def check(ex, reports, path) -> list[str]:
    """Problems found in a sample's reports; empty when all checks pass.

    Every report must be complete, reload from its JSON form equal to
    itself, and have every lambda = 0 cell equal to the regular arm bit for
    bit (same model, same data, same stream).
    """
    problems = []
    for rep in reports:
        rid = rep.experiment_id
        if rep.status != "complete":
            problems.append(f"{rid}: status {rep.status} ({'; '.join(rep.errors)})")
        ex.emit_report(rep, "json", path)
        if ex.load_report_json(path) != rep:
            problems.append(f"{rid}: JSON report does not reload equal")
        regular = rep.arm("regular").values
        for r in rep.results:
            if r.temperature is not None and r.imitation == 0.0 and r.values != regular:
                problems.append(f"{rid}: {r.arm} T={r.temperature} lambda=0 differs from the regular arm")
    return problems


def digest(reports) -> str:
    """SHA-256 over every numeric result, exact to the bit."""
    rows = [
        [rep.experiment_id, r.arm, r.metric, r.temperature, r.imitation, r.reps, r.status,
         [float(v).hex() for v in (r.mean, r.std, *r.values)]]
        for rep in reports
        for r in rep.results
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()
