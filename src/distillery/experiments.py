"""Experiment harness: three-arm runs, grids, and machine-readable reports.

Every run evaluates up to three arms per repetition: the teacher on the
privileged view (arm "privileged"), a plain student on the regular view
(arm "regular"), and distilled students per (temperature, imitation)
grid cell (arm "distilled", plus "distilled-labeled" for the
labeled-only variant of the semi-supervised run).  All four runs share
one repetition loop (`_repeat`); each contributes only its data
preparation and a generator of per-repetition problems.

Randomness is a tree of forked streams keyed by purpose ("rep", r,
"teacher", ...).  Grid cells reuse one per-repetition student stream, so
an imitation = 0 cell reproduces the regular baseline bit for bit, and a
cell run alone equals its value inside a full-grid run.  Arms within a
repetition train on identical data draws, isolating the effect of the
soft labels.

Reports serialize to JSON (full nested structure, lossless round-trip)
and CSV (one aggregate row per experiment/arm/T/lambda).  A report's
config snapshot holds the run's own arguments, encoded by parameter name
(`_CODEC`), so `run_from_config` can call the runner again.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import RngStream
from .datasets import downscale, load_cifar, load_idx, load_multitask_csv, pollute
from .distill import (
    Dataset,
    DatasetHeader,
    DistillConfig,
    distill_student,
    multitask_views,
    soft_labels,
    train_teacher,
)
from .models import Arch, TrainConfig, TrainingDivergence, forward
from .synthetic import SyntheticSpec, draw_hyperplane, generate

__all__ = [
    "ArmResult",
    "ExperimentReport",
    "run_synthetic",
    "run_mnist",
    "run_cifar_semisup",
    "run_multitask",
    "run_from_config",
    "RUNNERS",
    "emit_report",
    "load_report_json",
    "load_report_csv",
    "DEFAULT_T_GRID",
    "DEFAULT_LAMBDA_GRID",
    "data_dir_from_env",
]

DEFAULT_T_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
DEFAULT_LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# Synthetic runs: the teacher trains at the base setting; students get a
# larger budget because the distilled fit (regression toward soft
# targets) converges more slowly than the accuracy of the plain
# baseline, which is flat in the extra epochs.
SYNTH_TEACHER_TRAIN = TrainConfig(learning_rate=0.1, epochs=200, batch_size=32, l2=1e-4)
SYNTH_STUDENT_TRAIN = TrainConfig(learning_rate=0.2, epochs=800, batch_size=32, l2=1e-4)
# Image and multitask runs share one MLP setting.
MLP_TRAIN = TrainConfig(learning_rate=0.01, epochs=100, batch_size=32, l2=1e-4)
MLP_ARCH = Arch.mlp(20, 20)

CSV_HEADER = ["experiment", "arm", "T", "lambda", "mean", "std", "reps", "status"]


@dataclass
class ArmResult:
    """Aggregate for one arm (or one grid cell of the distilled arm)."""

    arm: str
    metric: str  # "accuracy" | "mse"
    mean: float
    std: float
    reps: int
    temperature: float | None = None
    imitation: float | None = None
    values: list[float] = field(default_factory=list)
    status: str = "complete"

    def __eq__(self, other):
        # An arm without values has mean = std = NaN by definition; those
        # compare equal, so its report reloads (or re-runs) equal.  A NaN
        # next to values is a corrupt aggregate and never equals anything.
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(a == b or (not self.values and a != a and b != b) for a, b in pairs)


@dataclass
class ExperimentReport:
    experiment_id: str
    master_seed: int
    artifact_version: str
    config: dict
    results: list[ArmResult]
    errors: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        ok = not self.errors and all(r.status == "complete" for r in self.results)
        return "complete" if ok else "incomplete"

    def arm(self, name: str, temperature=None, imitation=None) -> ArmResult:
        for r in self.results:
            if r.arm == name and r.temperature == temperature and r.imitation == imitation:
                return r
        raise KeyError(f"no result for arm={name!r} T={temperature} lambda={imitation}")

    def cells(self, arm: str = "distilled") -> list[ArmResult]:
        return [r for r in self.results if r.arm == arm and r.temperature is not None]

    def best_cell(self, arm: str = "distilled") -> ArmResult:
        cells = self.cells(arm)
        if not cells:
            raise KeyError(f"no grid cells for arm {arm!r}")
        lower_is_better = cells[0].metric == "mse"
        key = (lambda r: r.mean) if lower_is_better else (lambda r: -r.mean)
        return min(cells, key=key)


def _aggregate(arm, metric, values, expected_reps, T=None, lam=None) -> ArmResult:
    values = [float(v) for v in values]
    status = "complete" if len(values) == expected_reps else "incomplete"
    if values:
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    else:
        mean = std = float("nan")
    return ArmResult(arm, metric, mean, std, len(values), T, lam, values, status)


def accuracy(model, ds: Dataset, view: str) -> float:
    """Fraction of examples whose argmax prediction matches the label's
    argmax (ties go to the lowest index on both sides)."""
    out = forward(model, ds.column(view))
    return float(np.mean(np.argmax(out, axis=1) == np.argmax(ds.column("y"), axis=1)))


def mse(model, ds: Dataset, view: str) -> float:
    """Mean squared error over examples and output components."""
    out = forward(model, ds.column(view))
    return float(np.mean((out - ds.column("y")) ** 2))


# --- the repetition loop shared by every run ---------------------------------


def _base(stream: RngStream, teacher_train, student_train, arch, **extra) -> DistillConfig:
    """A problem's base config: teacher and student streams forked from `stream`."""
    return DistillConfig(
        teacher_arch=arch,
        student_arch=arch,
        teacher_train=replace(teacher_train, rng=stream.fork("teacher")),
        student_train=replace(student_train, rng=stream.fork("student")),
        **extra,
    )


def _check_batch(name: str, n: int, *configs: TrainConfig) -> None:
    """Reject a training sample `name` of n rows smaller than a config's batch."""
    for cfg in configs:
        if n < cfg.batch_size:
            raise ValueError(f"{name} {n} is smaller than batch_size {cfg.batch_size}")


def _repeat(problems, T_grid, lambda_grid, metric="accuracy", arms=None, per_task=False):
    """Generalized distillation over a stream of problems: (results, errors).

    A problem is (label, train set, test set, base DistillConfig).  For
    each one the teacher and the regular student (imitation 0, no soft
    labels) are trained and scored, then soft labels are computed once
    per T and one student per lambda is trained for every distilled arm.
    `arms` maps a distilled arm to a predicate on example ids that keeps
    part of the soft labels (None keeps them all).  A diverging teacher
    or regular student drops the problem; a diverging distilled student
    drops only its cell; an aggregate is complete with one value per
    problem.  `per_task` adds one row per value, named after its problem.
    """
    score = accuracy if metric == "accuracy" else mse
    arms = arms or {"distilled": None}
    grid = [(a, float(T), float(lam)) for a in arms for T in T_grid for lam in lambda_grid]
    for _, T, lam in grid:  # a bad grid value fails here, before any training
        DistillConfig(temperature=T, imitation=lam)
    values = {key: [] for key in [("privileged", None, None), ("regular", None, None), *grid]}
    errors, n_problems = [], 0
    for label, train_ds, test_ds, base in problems:
        n_problems += 1
        try:
            teacher = train_teacher(train_ds, base)
            regular = distill_student(train_ds, [], replace(base, imitation=0.0))
        except TrainingDivergence as e:
            errors.append(f"{label}: {e}")
            continue
        values["privileged", None, None].append((label, score(teacher, test_ds, "x_star")))
        values["regular", None, None].append((label, score(regular, test_ds, "x")))
        for T in T_grid:
            soft = soft_labels(teacher, train_ds, T)
            kept = {a: [s for s in soft if keep is None or keep(s[0])] for a, keep in arms.items()}
            for lam in lambda_grid:
                cfg = replace(base, temperature=float(T), imitation=float(lam))
                try:
                    students = {a: distill_student(train_ds, kept[a], cfg) for a in arms}
                except TrainingDivergence as e:
                    errors.append(f"{label} cell T={T} lambda={lam}: {e}")
                    continue
                for a, student in students.items():
                    values[a, float(T), float(lam)].append((label, score(student, test_ds, "x")))
    results = []
    for (arm, T, lam), scored in values.items():
        results.append(_aggregate(arm, metric, [v for _, v in scored], n_problems, T, lam))
        if per_task:  # "task 3" -> arm "regular/task3"
            results += [
                _aggregate(f"{arm}/{label.replace(' ', '')}", metric, [v], 1, T, lam)
                for label, v in scored
            ]
    return results, errors


# --- config snapshots --------------------------------------------------------


def _same(value, config=None):
    return value


def _fields_of(obj, names) -> dict:
    return {n: getattr(obj, n) for n in names}


def _arch_text(arch: Arch) -> str:
    return f"{arch.kind}:{','.join(map(str, arch.hidden))}" if arch.hidden else arch.kind


def _arch_from_text(text: str, config=None) -> Arch:
    kind, _, hidden = text.partition(":")
    return Arch(kind, tuple(int(h) for h in hidden.split(",")) if hidden else ())


_TRAIN_CODEC = (
    lambda c: _fields_of(c, ("learning_rate", "epochs", "batch_size", "l2", "init_scale")),
    lambda d, config: TrainConfig(**d),
)
_GRID_CODEC = (lambda grid: [float(v) for v in grid], _same)

# parameter name -> (snapshot key, encode(value), decode(value, config));
# any other parameter is stored under its own name as it is
_CODEC = {
    "spec": (
        "spec",
        lambda s: _fields_of(s, ("d", "n_train", "n_test", "relevant_size")),
        lambda s, config: SyntheticSpec(config["experiment"], **s),
    ),
    "teacher_train": ("teacher_train", *_TRAIN_CODEC),
    "student_train": ("student_train", *_TRAIN_CODEC),
    "train_config": ("train", *_TRAIN_CODEC),
    "arch": ("arch", _arch_text, _arch_from_text),
    "T_grid": ("T_grid", *_GRID_CODEC),
    "lambda_grid": ("lambda_grid", *_GRID_CODEC),
    "data_dir": ("data_dir", str, _same),
    "path": ("path", str, _same),
}


def _snapshot(kind: str, arguments: dict, **notes) -> dict:
    """Config of a run: its arguments (a superset, e.g. `locals()`), then
    fixed notes and the library version."""
    config = {"kind": kind}
    for name in inspect.signature(RUNNERS[kind]).parameters:
        key, encode, _ = _CODEC.get(name, (name, _same, _same))
        config[key] = encode(arguments[name])
    return {**config, **notes, "version": __version__}


# --- synthetic experiments ---------------------------------------------------


def run_synthetic(
    experiment: int,
    reps: int = 100,
    spec: SyntheticSpec | None = None,
    temperature: float = 1.0,
    imitation: float = 1.0,
    seed: int = 0,
    teacher_train: TrainConfig = SYNTH_TEACHER_TRAIN,
    student_train: TrainConfig = SYNTH_STUDENT_TRAIN,
) -> ExperimentReport:
    """Three-arm run of one synthetic setup over fresh repetitions.

    Each repetition draws a fresh problem instance (hyperplane), a fresh
    train set and a fresh test set; all three arms share them.
    """
    if spec is None:
        spec = SyntheticSpec(experiment)
    _check_batch("spec.n_train", spec.n_train, teacher_train, student_train)
    master = RngStream(seed)

    def problems():
        for r in range(reps):
            rep = master.fork("rep", r)
            hp = draw_hyperplane(spec, rep.fork("problem"))
            train_ds = generate(spec, hp, n=spec.n_train, rng=rep.fork("train"))
            test_ds = generate(spec, hp, n=spec.n_test, rng=rep.fork("test"))
            base = _base(rep, teacher_train, student_train, Arch("linear"))
            yield f"rep {r}", train_ds, test_ds, base

    config = _snapshot(
        "synthetic", locals(), teacher_arch="linear", student_arch="linear",
        alpha_policy="fresh hyperplane per repetition",
    )
    results, errors = _repeat(problems(), (temperature,), (imitation,))
    return ExperimentReport(f"synthetic-{experiment}", seed, __version__, config, results, errors)


# --- image experiments -------------------------------------------------------


def data_dir_from_env(data_dir=None) -> Path:
    """Resolve the dataset root: explicit argument or DISTILLERY_DATA_DIR."""
    if data_dir is None:
        data_dir = os.environ.get("DISTILLERY_DATA_DIR")
    if data_dir is None:
        raise FileNotFoundError(
            "no data directory: pass data_dir or set DISTILLERY_DATA_DIR"
        )
    return Path(data_dir)


def _locate(root: Path, names, subdir: str) -> list[Path]:
    """Find the named files in root or root/subdir; all must exist."""
    for base in (root, root / subdir):
        paths = [base / n for n in names]
        if all(p.exists() for p in paths):
            return paths
    missing = [str(root / n) for n in names]
    raise FileNotFoundError(f"dataset files not found: looked for {missing} (and under {subdir}/)")


MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def run_mnist(
    n_train: int = 300,
    T_grid=DEFAULT_T_GRID,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    data_dir=None,
    reps: int = 5,
    seed: int = 0,
    train_config: TrainConfig = MLP_TRAIN,
    arch: Arch = MLP_ARCH,
) -> ExperimentReport:
    """Full-resolution teacher (28x28) distilled into a 7x7 student.

    Both are MLPs with two hidden ReLU layers; the distilled arm is
    evaluated per (T, lambda) grid cell on the full test set.
    """
    data_dir = data_dir_from_env(data_dir)
    paths = _locate(data_dir, MNIST_FILES, "mnist")
    train_set = load_idx(paths[0], paths[1])
    test_set = load_idx(paths[2], paths[3])
    if not 1 <= n_train <= train_set.n:
        raise ValueError(f"n_train must lie in [1, {train_set.n}] (training images), got {n_train}")
    _check_batch("n_train", n_train, train_config)

    header = DatasetHeader(49, 784, 10)
    full_te = test_set.to_features()
    small_te = downscale(test_set.images).reshape(test_set.n, -1)
    ds_te = Dataset.from_arrays(header, x=small_te, x_star=full_te, y=np.eye(10)[test_set.labels])
    master = RngStream(seed)

    def problems():
        for r in range(reps):
            rep = master.fork("rep", r)
            idx = rep.fork("sample").generator().choice(train_set.n, size=n_train, replace=False)
            picked = train_set.images[idx]
            full_tr = picked.reshape(n_train, -1).astype(np.float64) / 255.0
            small_tr = downscale(picked).reshape(n_train, -1)
            y = np.eye(10)[train_set.labels[idx]]
            ds_tr = Dataset.from_arrays(header, x=small_tr, x_star=full_tr, y=y)
            yield f"rep {r}", ds_tr, ds_te, _base(rep, train_config, train_config, arch)

    config = _snapshot(
        "mnist", locals(), teacher_features="28x28 pixels scaled to [0,1]",
        student_features="7x7 block means",
    )
    results, errors = _repeat(problems(), T_grid, lambda_grid)
    return ExperimentReport(f"mnist-{n_train}", seed, __version__, config, results, errors)


CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"


def run_cifar_semisup(
    n_labeled: int = 300,
    data_dir=None,
    sigma: float = 0.5,
    T_grid=DEFAULT_T_GRID,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    max_unlabeled: int | None = None,
    unlabeled_weight: float = 1.0,
    seed: int = 0,
    reps: int = 1,
    train_config: TrainConfig = MLP_TRAIN,
    arch: Arch = MLP_ARCH,
) -> ExperimentReport:
    """Semi-supervised distillation on noisy images.

    The teacher sees clean pixels for the few labeled images; it then
    soft-labels the whole unlabeled pool (optionally subsampled with
    max_unlabeled for desk-scale runs).  The student trains on noisy
    pixels: hard labels for the labeled images plus soft labels for the
    pool ("distilled" arm), or the labeled images alone
    ("distilled-labeled" arm), against a supervised-only baseline.
    """
    data_dir = data_dir_from_env(data_dir)
    paths = _locate(data_dir, CIFAR_TRAIN_FILES + (CIFAR_TEST_FILE,), "cifar-10-batches-bin")
    train_set = load_cifar(paths[:-1])
    test_set = load_cifar([paths[-1]])
    if not 1 <= n_labeled <= train_set.n:
        raise ValueError(f"n_labeled must lie in [1, {train_set.n}] (images), got {n_labeled}")
    _check_batch("n_labeled", n_labeled, train_config)
    if max_unlabeled is not None and max_unlabeled < 0:
        raise ValueError(f"max_unlabeled must be >= 0 or None, got {max_unlabeled}")

    master = RngStream(seed)
    test_clean = test_set.to_features()
    test_noisy = pollute(test_clean, sigma, master.fork("pollute-test"))
    d = test_clean.shape[1]
    header = DatasetHeader(d, d, 10)
    y_te = np.eye(10)[test_set.labels]
    ds_te = Dataset.from_arrays(header, x=test_noisy, x_star=test_clean, y=y_te)

    def problems():
        for r in range(reps):
            rep = master.fork("rep", r)
            g = rep.fork("labeled").generator()
            labeled_idx = g.choice(train_set.n, size=n_labeled, replace=False)
            rest = np.setdiff1d(np.arange(train_set.n), labeled_idx)
            if max_unlabeled is not None and len(rest) > max_unlabeled:
                g = rep.fork("pool").generator()
                rest = np.sort(g.choice(rest, size=max_unlabeled, replace=False))
            pool_idx = np.concatenate([labeled_idx, rest])
            clean = train_set.images[pool_idx].reshape(len(pool_idx), -1).astype(np.float64) / 255.0
            noisy = pollute(clean, sigma, rep.fork("pollute-train"))
            y = np.eye(10)[train_set.labels[pool_idx]]
            labeled = {"y": np.arange(len(pool_idx)) < n_labeled}
            ds_tr = Dataset.from_arrays(header, x=noisy, x_star=clean, y=y, present=labeled)
            base = _base(rep, train_config, train_config, arch, unlabeled_weight=unlabeled_weight)
            yield f"rep {r}", ds_tr, ds_te, base

    config = _snapshot(
        "cifar", locals(),
        noise="additive N(0, sigma^2) on [0,1] pixels, train and test, no clipping",
    )
    arms = {"distilled": None, "distilled-labeled": lambda i: i < n_labeled}
    results, errors = _repeat(problems(), T_grid, lambda_grid, arms=arms)
    return ExperimentReport("cifar-semisup", seed, __version__, config, results, errors)


# --- multitask regression ----------------------------------------------------


def run_multitask(
    path,
    n_train: int = 300,
    T_grid=(1.0,),
    lambda_grid=DEFAULT_LAMBDA_GRID,
    seed: int = 0,
    test_cap: int = 5000,
    delimiter: str = ",",
    train_config: TrainConfig = MLP_TRAIN,
    arch: Arch = MLP_ARCH,
) -> ExperimentReport:
    """Each task's teacher predicts its output from the other tasks' outputs.

    Inputs and each output are standardized from the training split;
    MSE is reported on the standardized scale, per task and averaged
    across tasks (rows `privileged/task3`, ...).  Temperature does not act
    on regression soft targets, so the default grid has a single T.
    """
    table = load_multitask_csv(path, delimiter)
    n_tasks = table.n_outputs
    master = RngStream(seed)
    perm = master.fork("split").generator().permutation(table.n)
    if not 1 <= n_train < table.n:
        raise ValueError(f"n_train must lie in [1, {table.n - 1}] (rows - 1), got {n_train}")
    if test_cap < 1:
        raise ValueError(f"test_cap must be >= 1, got {test_cap}")
    _check_batch("n_train", n_train, train_config)
    train_idx = perm[:n_train]
    test_idx = perm[n_train : n_train + test_cap]

    X, Y = table.inputs, table.outputs
    x_mean, x_std = X[train_idx].mean(axis=0), X[train_idx].std(axis=0)
    y_mean, y_std = Y[train_idx].mean(axis=0), Y[train_idx].std(axis=0)
    x_std = np.where(x_std == 0, 1.0, x_std)
    y_std = np.where(y_std == 0, 1.0, y_std)
    Xs = (X - x_mean) / x_std
    Ys = (Y - y_mean) / y_std

    header = DatasetHeader(table.n_inputs, 0, n_tasks, "regression")
    base_tr = Dataset.from_arrays(header, x=Xs[train_idx], y=Ys[train_idx])
    base_te = Dataset.from_arrays(header, x=Xs[test_idx], y=Ys[test_idx])

    def problems():
        for j in range(n_tasks):
            base = _base(master.fork("task", j), train_config, train_config, arch)
            yield f"task {j}", multitask_views(base_tr, j), multitask_views(base_te, j), base

    config = _snapshot(
        "multitask", locals(),
        standardization="inputs and each task output, train-split statistics",
        temperature_note="temperature is a no-op for regression soft targets",
    )
    results, errors = _repeat(problems(), T_grid, lambda_grid, "mse", per_task=True)
    return ExperimentReport("multitask", seed, __version__, config, results, errors)


# --- config replay -----------------------------------------------------------

RUNNERS = {
    "synthetic": run_synthetic,
    "mnist": run_mnist,
    "cifar": run_cifar_semisup,
    "multitask": run_multitask,
}


def run_from_config(config: dict) -> ExperimentReport:
    """Re-run an experiment from a report's config snapshot.

    With the same master seed this reproduces every aggregate bit for
    bit (dataset paths must still be present for the real-data runs).
    A parameter missing from the snapshot takes the runner's default.
    """
    runner = RUNNERS.get(config["kind"])
    if runner is None:
        raise ValueError(f"unknown experiment kind {config['kind']!r}")
    arguments = {}
    for name in inspect.signature(runner).parameters:
        key, _, decode = _CODEC.get(name, (name, _same, _same))
        if key in config:
            arguments[name] = decode(config[key], config)
    return runner(**arguments)


# --- report serialization ----------------------------------------------------


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def emit_report(report: ExperimentReport, format: str, path) -> None:
    """Write the report as CSV (one aggregate row per arm/cell) or JSON.

    JSON carries the full nested report, including the config snapshot,
    and reloads structurally equal via load_report_json.
    """
    if format == "json":
        payload = asdict(report)
        payload["status"] = report.status
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(CSV_HEADER)
            for r in report.results:
                w.writerow(
                    [
                        report.experiment_id,
                        r.arm,
                        _fmt(r.temperature),
                        _fmt(r.imitation),
                        repr(r.mean),
                        repr(r.std),
                        r.reps,
                        r.status,
                    ]
                )
    else:
        raise ValueError(f"unknown report format {format!r} (expected csv or json)")


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the JSON values a report field accepts, by the field's annotation
_JSON_FIELD = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _number,
    "float | None": lambda v: v is None or _number(v),
    "dict": lambda v: isinstance(v, dict),
    "list[float]": lambda v: isinstance(v, list) and all(map(_number, v)),
    "list[str]": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    "list[ArmResult]": lambda v: isinstance(v, list),
}


def _json_fields(cls, obj, where: str) -> dict:
    """`obj` if it is a JSON object holding a valid value for each field of
    dataclass `cls` (fields with a default may be left out) and no other key;
    raises ValueError naming `where` and the key otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for f in fields(cls):
        if f.name in obj:
            if not _JSON_FIELD[f.type](obj[f.name]):
                raise ValueError(f"{where}: key {f.name!r} holds a malformed value")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where}: missing key {f.name!r}")
    unknown = obj.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"{where}: unknown key {min(unknown)!r}")
    return obj


def load_report_json(path) -> ExperimentReport:
    """Read an `emit_report` JSON file.  Raises ValueError naming the key, or
    the result index and its key, that is missing, unknown or malformed."""
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k != "status"}
    payload = _json_fields(ExperimentReport, payload, "report")
    results = [
        ArmResult(**_json_fields(ArmResult, r, f"results[{i}]"))
        for i, r in enumerate(payload.pop("results"))
    ]
    return ExperimentReport(results=results, **payload)


def load_report_csv(path) -> list[dict]:
    """Rows of an emitted CSV, with numeric fields parsed back.

    Raises ValueError naming the line of a malformed row (the header is line 1).
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            if next(reader, None) != CSV_HEADER:
                raise ValueError(f"expected the CSV header {','.join(CSV_HEADER)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                experiment, arm, T, lam, mean, std, reps, status = row
                rows.append(
                    {
                        "experiment": experiment,
                        "arm": arm,
                        "T": float(T) if T else None,
                        "lambda": float(lam) if lam else None,
                        "mean": float(mean),
                        "std": float(std),
                        "reps": int(reps),
                        "status": status,
                    }
                )
        except (ValueError, csv.Error) as e:
            raise ValueError(f"line {max(reader.line_num, 1)}: {e}") from None
    return rows
