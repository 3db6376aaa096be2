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
a cell run alone equals its value inside a full-grid run, and an
imitation = 0 cell is the regular student itself.  A problem's students
train in one `distill_students` call, which trains each distinct student
once, in lockstep with those on the same rows, and `distill_student` then
hands each cell a copy of its own.
Arms within a repetition train on identical data draws, isolating the
effect of the soft labels.

Reports serialize to JSON (full nested structure, lossless round-trip)
and CSV (one aggregate row per experiment/arm/T/lambda).  A report's
config snapshot holds its kind, the run's arguments under their parameter
names (encoded by `_CODEC`) and the library version, so `run_from_config`
can call the runner again.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import RngStream, check_count, check_real, parse_number
from .datasets import (
    ImageSet,
    downscale,
    load_cifar,
    load_idx,
    load_multitask_csv,
    open_cifar,
    open_idx,
    pollute,
)
from .distill import (
    Dataset,
    DatasetHeader,
    DistillConfig,
    distill_student,
    distill_students,
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


def _cell_key(T, lam) -> tuple[float | None, float | None]:
    """A result row's (T, lambda): both None, or T a finite real > 0 and lambda
    in [0, 1], as floats; else ValueError."""
    if (T is None) != (lam is None):
        raise ValueError("T and lambda must be both empty or both numbers")
    if T is None:
        return None, None
    return check_real("T", T, 0.0, low_open=True), check_real("lambda", lam, 0.0, 1.0)


@dataclass
class ArmResult:
    """Aggregate for one arm (or one grid cell of the distilled arm).  The
    metric, status, reps and (T, lambda) are checked when it is built; mean
    and std are not (an arm without values has NaN for both)."""

    arm: str
    metric: str  # "accuracy" | "mse"
    mean: float
    std: float
    reps: int
    temperature: float | None = None
    imitation: float | None = None
    values: list[float] = field(default_factory=list)
    status: str = "complete"

    def __post_init__(self):
        if self.metric not in ("accuracy", "mse"):
            raise ValueError(f"metric must be accuracy or mse, got {self.metric!r}")
        if self.status not in ("complete", "incomplete"):
            raise ValueError(f"status must be complete or incomplete, got {self.status!r}")
        self.reps = check_count("reps", self.reps, 0)
        self.temperature, self.imitation = _cell_key(self.temperature, self.imitation)

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


def _check_kind(name: str, value, kind, what: str):
    """`value`, or a ValueError naming argument `name` if it is not a `kind` (a
    class or a tuple of them).  A class also matches by name, because a caller
    may hold distillery's classes from an earlier import of it."""
    kinds = {k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))}
    if not isinstance(value, kind) and kinds.isdisjoint(c.__name__ for c in type(value).__mro__):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _check_batch(name: str, n: int, *configs: TrainConfig) -> None:
    """Reject a training sample `name` of n rows smaller than a config's batch."""
    for cfg in configs:
        if n < cfg.batch_size:
            raise ValueError(f"{name} {n} is smaller than batch_size {cfg.batch_size}")


def _grid(name: str, grid, high=None, low_open=False) -> tuple[float, ...]:
    """`grid`, an iterable of numbers that is not a string, as a tuple of
    distinct floats in [0, high] checked by `check_real`."""
    try:
        values = None if isinstance(grid, (str, bytes)) else tuple(grid)
    except TypeError:
        values = None
    if values is None:
        raise ValueError(f"{name} must be a sequence of numbers, got {grid!r}")
    values = tuple(check_real(f"{name}[{i}]", v, 0.0, high, low_open) for i, v in enumerate(values))
    for i, v in enumerate(values):
        if v in values[:i]:  # a cell is keyed by its values, so a repeat would double it
            raise ValueError(f"{name}[{i}] repeats {name}[{values.index(v)}] ({v!r})")
    return values


def _grids(T_grid, lambda_grid) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The grids as tuples of distinct checked floats: every T > 0, every lambda in [0, 1]."""
    return _grid("T_grid", T_grid, low_open=True), _grid("lambda_grid", lambda_grid, 1.0)


def _repeat(problems, T_grid, lambda_grid, metric="accuracy", arms=None, per_task=False):
    """Generalized distillation over a stream of problems: (results, errors).

    A problem is (label, train set, test set, base DistillConfig).  Per
    problem the teacher trains, one soft-label column is computed per T
    unless every lambda is 0, and a cell table maps each (T, lambda) to an
    (arm, soft column, DistillConfig) per distilled arm of `arms` (arm ->
    DistillConfig overrides, e.g. {"unlabeled_weight": 0.0} to train on the
    labeled rows alone; by default one arm, "distilled", with none).  One
    `distill_students` call trains the regular student (imitation 0) and the
    table's; `distill_student` then takes the regular one, and cell by cell
    the table's.  A cell whose student equals the regular one (the same
    parameter bits, as at lambda = 0) gets its score, and any other student
    is scored, so a lambda = 0 student that differed would show.  A
    diverging teacher or regular student drops the problem, a diverging
    distilled student only its cell; an aggregate is complete with one value
    per problem.  Results are arm-major; `per_task` adds one row per value,
    named after its problem.
    """
    score = accuracy if metric == "accuracy" else mse
    arms = arms or {"distilled": {}}
    grid = [(a, T, lam) for a in arms for T in T_grid for lam in lambda_grid]
    values = {key: [] for key in [("privileged", None, None), ("regular", None, None), *grid]}
    errors, n_problems = [], 0
    for label, train_ds, test_ds, base in problems:
        n_problems += 1
        plain = replace(base, imitation=0.0)
        try:
            teacher = train_teacher(train_ds, base)
        except TrainingDivergence as e:
            errors.append(f"{label}: {e}")
            continue
        softs = {T: soft_labels(teacher, train_ds, T) if any(lambda_grid) else [] for T in T_grid}
        cells = {}  # (T, lambda) -> [(arm, soft column, config)]: per T, per lambda, per arm
        for a, T, lam in grid:
            config = replace(base, imitation=lam, **arms[a])
            cells.setdefault((T, lam), []).append((a, softs[T], config))
        requests = [(s, c) for cell in cells.values() for _, s, c in cell]
        distill_students(train_ds, [([], plain), *requests])
        try:
            regular = distill_student(train_ds, [], plain)
        except TrainingDivergence as e:
            errors.append(f"{label}: {e}")
            continue
        values["privileged", None, None].append((label, score(teacher, test_ds, "x_star")))
        regular_score = score(regular, test_ds, "x")
        values["regular", None, None].append((label, regular_score))
        for (T, lam), cell in cells.items():
            try:
                students = [(a, distill_student(train_ds, s, c)) for a, s, c in cell]
            except TrainingDivergence as e:
                errors.append(f"{label} cell T={T} lambda={lam}: {e}")
                continue
            for a, student in students:
                value = regular_score if student == regular else score(student, test_ds, "x")
                values[a, T, lam].append((label, value))
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


def _record(key: str, cls, shared=()):
    """Codec of config-class argument `key`, stored as an object of the fields
    of `cls` in order (tuples as lists), but its stream `rng` and the `shared`
    ones, parameters of their own; so a field added to the class is snapshot
    and replayed too.  Decoding rejects anything but an object of those fields
    with a ValueError naming `key`, then calls `cls`, which checks the values."""
    names = [f.name for f in fields(cls) if f.name != "rng" and f.name not in shared]

    def encode(obj):
        values = {n: getattr(obj, n) for n in names}
        return {n: list(v) if isinstance(v, tuple) else v for n, v in values.items()}

    def decode(value, config):
        if not isinstance(value, dict):
            raise ValueError(f"config[{key!r}]: expected an object, got {type(value).__name__}")
        unknown = value.keys() - set(names)
        if unknown:
            raise ValueError(f"config[{key!r}]: unknown key {min(unknown, key=str)!r}")
        return cls(**value, **{n: config[n] for n in shared})

    return encode, decode


# parameter name -> (encode(value), decode(value, config)); any other
# parameter is stored as it is
_CODEC = {
    "spec": _record("spec", SyntheticSpec, ("experiment",)),
    "teacher_train": _record("teacher_train", TrainConfig),
    "student_train": _record("student_train", TrainConfig),
    "train_config": _record("train_config", TrainConfig),
    "arch": _record("arch", Arch),
    "T_grid": (list, _same),
    "lambda_grid": (list, _same),
    "data_dir": (str, _same),
    "path": (str, _same),
}
_PLAIN = (_same, _same)


def _snapshot(kind: str, arguments: dict) -> dict:
    """Config of a run: its kind, each parameter's checked argument (taken
    from a superset, e.g. `locals()`) under the parameter's name, and the
    library version."""
    config = {"kind": kind}
    for name in inspect.signature(RUNNERS[kind]).parameters:
        config[name] = _CODEC.get(name, _PLAIN)[0](arguments[name])
    return {**config, "version": __version__}


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
    train set and a fresh test set; all three arms share them.  The
    teacher and the students are linear models.
    """
    master = RngStream(seed)
    seed, reps = master.seed, check_count("reps", reps, 0)
    experiment = check_count("experiment", experiment, 1, 4)
    temperature = check_real("temperature", temperature, 0.0, low_open=True)
    imitation = check_real("imitation", imitation, 0.0, 1.0)
    if spec is None:
        spec = SyntheticSpec(experiment)
    _check_kind("spec", spec, SyntheticSpec, "a SyntheticSpec or None")
    _check_kind("teacher_train", teacher_train, TrainConfig, "a TrainConfig")
    _check_kind("student_train", student_train, TrainConfig, "a TrainConfig")
    if spec.experiment != experiment:
        raise ValueError(f"spec.experiment {spec.experiment} differs from experiment {experiment}")
    _check_batch("spec.n_train", spec.n_train, teacher_train, student_train)

    def problems():
        for r in range(reps):
            rep = master.fork("rep", r)
            hp = draw_hyperplane(spec, rep.fork("problem"))
            train_ds = generate(spec, hp, n=spec.n_train, rng=rep.fork("train"))
            test_ds = generate(spec, hp, n=spec.n_test, rng=rep.fork("test"))
            base = _base(rep, teacher_train, student_train, Arch("linear"))
            yield f"rep {r}", train_ds, test_ds, base

    config = _snapshot("synthetic", locals())
    results, errors = _repeat(problems(), (temperature,), (imitation,))
    experiment_id = f"synthetic-{experiment}"
    return ExperimentReport(experiment_id, master.seed, __version__, config, results, errors)


# --- image experiments -------------------------------------------------------


def data_dir_from_env(data_dir=None) -> Path:
    """Resolve the dataset root: explicit argument or DISTILLERY_DATA_DIR, an empty one unset."""
    if data_dir is None or isinstance(data_dir, str) and not data_dir:
        data_dir = os.environ.get("DISTILLERY_DATA_DIR") or None
    if data_dir is None:
        raise FileNotFoundError(
            "no data directory: pass data_dir or set DISTILLERY_DATA_DIR"
        )
    return Path(_check_kind("data_dir", data_dir, (str, os.PathLike), "a str or os.PathLike"))


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
    master = RngStream(seed)
    seed, reps = master.seed, check_count("reps", reps, 0)
    T_grid, lambda_grid = _grids(T_grid, lambda_grid)
    _check_kind("train_config", train_config, TrainConfig, "a TrainConfig")
    _check_kind("arch", arch, Arch, "an Arch")
    _check_batch("n_train", check_count("n_train", n_train, 1), train_config)
    data_dir = data_dir_from_env(data_dir)
    paths = _locate(data_dir, MNIST_FILES, "mnist")
    train_set = open_idx(paths[0], paths[1])
    _check_mnist_shape(paths[0], train_set.shape)
    n_train = check_count("n_train", n_train, 1, train_set.n)
    test_set = _nonempty(paths[2], load_idx(paths[2], paths[3]))
    _check_mnist_shape(paths[2], test_set.images.shape[1:])
    ds_te = _mnist_set(test_set)
    del test_set  # its pixels are kept as the test set's x_star alone

    def problems():
        for r in range(reps):
            rep = master.fork("rep", r)
            idx = rep.fork("sample").generator().choice(train_set.n, size=n_train, replace=False)
            ds_tr = _mnist_set(ImageSet(train_set.take(idx), train_set.labels[idx], 10))
            yield f"rep {r}", ds_tr, ds_te, _base(rep, train_config, train_config, arch)

    config = _snapshot("mnist", locals())
    results, errors = _repeat(problems(), T_grid, lambda_grid)
    return ExperimentReport(f"mnist-{n_train}", master.seed, __version__, config, results, errors)


def _nonempty(path, test_set: ImageSet) -> ImageSet:
    """`test_set`, or a ValueError naming `path` if it holds no image: an
    accuracy over zero rows would be NaN."""
    if test_set.n == 0:
        raise ValueError(f"{path}: no test images")
    return test_set


def _check_mnist_shape(path, shape) -> None:
    """Reject an IDX image file whose images (shape h, w, 1) are not 28x28."""
    if shape != (28, 28, 1):
        raise ValueError(f"{path}: expected 28x28 images, got {shape[0]}x{shape[1]}")


def _mnist_set(images: ImageSet) -> Dataset:
    """MNIST images as a Dataset of 7x7 block means (x), the 28x28 uint8
    pixels as stored (x_star, which the models read as `pixel_features`) and
    one-hot labels (y): the training draws and the test set alike."""
    pixels = images.images.reshape(images.n, -1)
    small = downscale(images.images).reshape(images.n, -1)
    header = DatasetHeader(small.shape[1], pixels.shape[1], 10)
    return Dataset.from_arrays(header, x=small, x_star=pixels, y=np.eye(10)[images.labels])


CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"


def _cifar_set(images: ImageSet, sigma: float, noise: RngStream, present=None) -> Dataset:
    """CIFAR images as a Dataset of `pixel_features` with N(0, sigma^2) noise
    from `noise` (x, built from the pixels block by block), the clean uint8
    pixels as stored (x_star, which the models read as `pixel_features`) and
    one-hot labels (y), whose rows `present` may mask: the training draws and
    the test set alike."""
    pixels = images.images.reshape(images.n, -1)
    noisy = pollute(pixels, sigma, noise)
    header = DatasetHeader(pixels.shape[1], pixels.shape[1], 10)
    y = np.eye(10)[images.labels]
    return Dataset.from_arrays(header, x=noisy, x_star=pixels, y=y, present=present)


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
    master = RngStream(seed)
    seed, reps = master.seed, check_count("reps", reps, 0)
    T_grid, lambda_grid = _grids(T_grid, lambda_grid)
    sigma = check_real("sigma", sigma)
    unlabeled_weight = check_real("unlabeled_weight", unlabeled_weight)
    _check_kind("train_config", train_config, TrainConfig, "a TrainConfig")
    _check_kind("arch", arch, Arch, "an Arch")
    if max_unlabeled is not None:
        max_unlabeled = check_count("max_unlabeled", max_unlabeled, 0)
    _check_batch("n_labeled", check_count("n_labeled", n_labeled, 1), train_config)
    data_dir = data_dir_from_env(data_dir)
    paths = _locate(data_dir, CIFAR_TRAIN_FILES + (CIFAR_TEST_FILE,), "cifar-10-batches-bin")
    train_set = open_cifar(paths[:-1])
    n_labeled = check_count("n_labeled", n_labeled, 1, train_set.n)
    test_set = _nonempty(paths[-1], load_cifar(paths[-1:]))
    ds_te = _cifar_set(test_set, sigma, master.fork("pollute-test"))
    del test_set  # its pixels are kept as the test set's x_star alone

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
            ds_tr = _cifar_set(
                ImageSet(train_set.take(pool_idx), train_set.labels[pool_idx], 10),
                sigma, rep.fork("pollute-train"), {"y": np.arange(len(pool_idx)) < n_labeled},
            )
            base = _base(rep, train_config, train_config, arch, unlabeled_weight=unlabeled_weight)
            yield f"rep {r}", ds_tr, ds_te, base

    config = _snapshot("cifar", locals())
    arms = {"distilled": {}, "distilled-labeled": {"unlabeled_weight": 0.0}}
    results, errors = _repeat(problems(), T_grid, lambda_grid, arms=arms)
    return ExperimentReport("cifar-semisup", master.seed, __version__, config, results, errors)


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
    master = RngStream(seed)
    seed = master.seed
    T_grid, lambda_grid = _grids(T_grid, lambda_grid)
    _check_kind("path", path, (str, os.PathLike), "a str or os.PathLike")
    _check_kind("train_config", train_config, TrainConfig, "a TrainConfig")
    _check_kind("arch", arch, Arch, "an Arch")
    test_cap = check_count("test_cap", test_cap)
    _check_batch("n_train", check_count("n_train", n_train, 1), train_config)
    X, Y = load_multitask_csv(path, delimiter)
    n_tasks = Y.shape[1]
    perm = master.fork("split").generator().permutation(len(X))
    n_train = check_count("n_train", n_train, 1, len(X) - 1)
    train_idx = perm[:n_train]
    test_idx = perm[n_train : n_train + test_cap]

    x_mean, x_std = X[train_idx].mean(axis=0), X[train_idx].std(axis=0)
    y_mean, y_std = Y[train_idx].mean(axis=0), Y[train_idx].std(axis=0)
    x_std = np.where(x_std == 0, 1.0, x_std)
    y_std = np.where(y_std == 0, 1.0, y_std)
    Xs = (X - x_mean) / x_std
    Ys = (Y - y_mean) / y_std

    header = DatasetHeader(X.shape[1], 0, n_tasks, "regression")
    base_tr = Dataset.from_arrays(header, x=Xs[train_idx], y=Ys[train_idx])
    base_te = Dataset.from_arrays(header, x=Xs[test_idx], y=Ys[test_idx])

    def problems():
        for j in range(n_tasks):
            base = _base(master.fork("task", j), train_config, train_config, arch)
            yield f"task {j}", multitask_views(base_tr, j), multitask_views(base_te, j), base

    config = _snapshot("multitask", locals())
    results, errors = _repeat(problems(), T_grid, lambda_grid, "mse", per_task=True)
    return ExperimentReport("multitask", master.seed, __version__, config, results, errors)


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
    Before any value is decoded, a config that is not an object, a `kind`
    that names no runner, a key other than `kind`, `version` and the
    runner's parameters, and a missing parameter without a default raise
    ValueError naming the key; so does a malformed object value.
    """
    if not isinstance(config, dict):
        raise ValueError(f"config: expected an object, got {type(config).__name__}")
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in RUNNERS:
        raise ValueError(f"config['kind']: unknown experiment kind {kind!r}")
    parameters = inspect.signature(RUNNERS[kind]).parameters
    unknown = config.keys() - {"kind", "version", *parameters}
    if unknown:
        raise ValueError(f"config: unknown key {min(unknown, key=str)!r}")
    for name, p in parameters.items():
        if p.default is p.empty and name not in config:
            raise ValueError(f"config: missing key {name!r}")
    arguments = {n: _CODEC.get(n, _PLAIN)[1](config[n], config) for n in parameters if n in config}
    return RUNNERS[kind](**arguments)


# --- report serialization ----------------------------------------------------


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def emit_report(report: ExperimentReport, format: str, path) -> None:
    """Write the report as CSV (one aggregate row per arm/cell) or JSON.

    JSON carries the full nested report, including the config snapshot,
    and reloads structurally equal via load_report_json.  The report goes
    to a temporary file next to `path` that then replaces `path`, so a
    failed write leaves `path` as it was and no stray file behind; a
    `path` that exists and is not a regular file raises ValueError.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r} (expected csv or json)")
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{os.fspath(path)!r} is not a regular file")
    target = Path(path).resolve()  # write through a symlink, not over it
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="" if format == "csv" else None) as f:
            if format == "json":
                payload = asdict(report)
                payload["status"] = report.status
                json.dump(payload, f, indent=2)
                f.write("\n")
            else:
                w = csv.writer(f)
                w.writerow(CSV_HEADER)
                w.writerows(
                    [report.experiment_id, r.arm, _fmt(r.temperature), _fmt(r.imitation),
                     repr(r.mean), repr(r.std), r.reps, r.status]
                    for r in report.results
                )
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _number(v) -> bool:
    """A JSON number that converts to a float: not a bool, nor an int too large."""
    return isinstance(v, float) or type(v) is int and abs(v) <= sys.float_info.max


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
    the result index and its key, that is missing, unknown or malformed, a
    result that `ArmResult` refuses (naming its index), a result whose `reps`,
    `mean` or `std` differs by more than 1e-9 (relative, for another numpy's
    summation order) from what its `values` give, or a `status` that its
    errors and results do not give.  A NaN mean or std is
    not checked: next to values it never compares equal (`ArmResult.__eq__`)."""
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    status = payload.pop("status", MISSING) if isinstance(payload, dict) else MISSING
    payload = _json_fields(ExperimentReport, payload, "report")
    results = []
    for i, r in enumerate(payload.pop("results")):
        r = _json_fields(ArmResult, r, f"results[{i}]")
        try:
            result = ArmResult(**r)
        except ValueError as e:
            raise ValueError(f"results[{i}]: {e}") from None
        given = _aggregate(result.arm, result.metric, result.values, result.reps)
        for key in ("reps", "mean", "std"):
            a, b = getattr(result, key), getattr(given, key)
            if a == a and not math.isclose(a, b, rel_tol=1e-9):
                raise ValueError(f"results[{i}]: key {key!r} is {a!r}, but its values give {b!r}")
        results.append(result)
    report = ExperimentReport(results=results, **payload)
    if status is not MISSING and status != report.status:
        raise ValueError(f"report: key 'status' is {status!r}, but the report is {report.status!r}")
    return report


def load_report_csv(path) -> list[dict]:
    """Rows of an emitted CSV, with numeric fields parsed back.

    Raises ValueError naming the line of a malformed row (the header is line
    1): a wrong field count, a field that is not a number, `reps` below 0,
    only one of T and lambda given, a T that is not a finite real > 0 or a
    lambda outside [0, 1] (the rule `ArmResult` keeps), or a status other
    than complete and incomplete.
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
                T, lam = (parse_number(v) if v else None for v in (T, lam))
                mean, std = parse_number(mean), parse_number(std)
                reps = check_count("reps", parse_number(reps, int), 0)
                T, lam = _cell_key(T, lam)
                if status not in ("complete", "incomplete"):
                    raise ValueError(f"status must be complete or incomplete, got {status!r}")
                rows.append(dict(zip(CSV_HEADER, (experiment, arm, T, lam, mean, std, reps, status))))
        except (ValueError, csv.Error) as e:
            raise ValueError(f"line {max(reader.line_num, 1)}: {e}") from None
    return rows
