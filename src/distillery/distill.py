"""Teacher-student pipeline over triplet data.

A triplet holds regular features x, privileged features x_star, and a
label y; any field may be missing (None).  A Dataset stores triplets as
columns, one array and presence mask per field.  The pipeline is three
sequential steps: train a teacher on the privileged view, soften its
predictions into per-example soft labels, and train a student on the
regular view against an imitation-weighted mix of hard and soft targets.

Soft labels are one (n, c) column aligned with the dataset's rows: the
teacher's output on the rows with x_star, NaN on the rest.  The student
reads a soft label only on a row that has both x and x_star, so a row
without them is never read and no filtering can misalign a feature
vector with another example's soft label.  The student always trains
at T = 1 on soft labels taken at the teacher's temperature.

Extensions: clean-subset routing for semi-supervised data, soft-label
restriction to the classes of interest for out-of-task (Universum)
examples, and per-task views of multi-output regression data.
"""

from __future__ import annotations

import copy
import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import check_count, check_real, check_rows, check_simplex_rows, finite_rows, softmax
# check_simplex is looked up here by perfbench/tracing.py, which counts its calls
from .core import check_simplex  # noqa: F401
from .models import (
    CLASSIFICATION,
    REGRESSION,
    Arch,
    Model,
    Packed,
    TrainConfig,
    forward,
    init_model,
    train,
)

__all__ = [
    "Triplet",
    "DatasetHeader",
    "Dataset",
    "DistillConfig",
    "clean_subset",
    "train_teacher",
    "soft_labels",
    "distill_student",
    "distill_students",
    "universum_soft_labels",
    "restrict_simplex",
    "multitask_views",
]


@dataclass
class Triplet:
    """One training example; None marks a missing field."""

    x: np.ndarray | None = None
    x_star: np.ndarray | None = None
    y: np.ndarray | None = None

    def __post_init__(self):
        if self.x is None and self.x_star is None and self.y is None:
            raise ValueError("a triplet needs at least one present field")


@dataclass(frozen=True)
class DatasetHeader:
    d: int
    d_star: int
    c: int
    task: str = CLASSIFICATION

    def __post_init__(self):
        for name, low in (("d", 0), ("d_star", 0), ("c", 1)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")


_VIEWS = ("x", "x_star", "y")
# A lockstep group holds several stacks of R x rows x c target floats, so
# `distill_students` trains a group in chunks of about this many bytes of
# soft targets (4 whole-pool CIFAR students, while a grid on a few hundred
# rows stays one chunk).  Chunks train concurrently, so up to one chunk per
# worker (see `_workers`) is live at once.
GROUP_BYTES = 16 << 20


class Dataset:
    """Header plus columns; `meta` records how the data was generated.

    Each field ("x", "x_star", "y") is one 2-D float array, a row per
    example (the row index is its id), with a mask of the rows that have it.
    Both are read-only, so `distill_students` may keep the outcome of each
    student trained on a dataset with it: the model, or the error it failed with.
    """

    def __init__(self, header: DatasetHeader, examples, meta=None):
        """Row adapter: copies the fields of `examples` (Triplets) into
        columns once; errors name the example."""
        widths = dict(zip(_VIEWS, (header.d, header.d_star, header.c)))
        cols = {view: np.zeros((len(examples), width)) for view, width in widths.items()}
        masks = {view: np.zeros(len(examples), dtype=bool) for view in widths}
        for i, t in enumerate(examples):
            for view, width in widths.items():
                row = getattr(t, view)
                if row is None:
                    continue
                if np.shape(row) != (width,):
                    raise ValueError(
                        f"example {i}: {view} has shape {np.shape(row)}, header says ({width},)"
                    )
                cols[view][i], masks[view][i] = row, True
        self._store(header, cols, masks, meta)

    @classmethod
    def from_arrays(
        cls, header: DatasetHeader, x=None, x_star=None, y=None, meta=None, present=None
    ) -> "Dataset":
        """Build from column arrays; a None column is missing everywhere.  A
        float64 column is kept as given, not copied, so do not write to it
        afterwards.  `present` may map a given column's name to a boolean mask
        of the rows that have it (other rows are ignored; any other key, or a
        mask that is not boolean, raises ValueError); the mask is copied."""
        arrays = zip(_VIEWS, (x, x_star, y))
        given = {v: np.asarray(a, dtype=np.float64) for v, a in arrays if a is not None}
        if len({len(a) for a in given.values()}) != 1:
            raise ValueError("from_arrays needs at least one column, all of one length")
        present = present or {}
        for view, mask in present.items():
            if view not in given:
                raise ValueError(f"present: {view!r} names no column given")
            dtype = np.asarray(mask).dtype
            if dtype != bool:
                raise ValueError(f"present: the mask of {view!r} has dtype {dtype}, not bool")
        masks = {v: present.get(v, np.ones(len(a), bool)) for v, a in given.items()}
        ds = cls.__new__(cls)
        ds._store(header, given, masks, meta)
        return ds

    def _store(self, header: DatasetHeader, cols: dict, masks: dict, meta) -> None:
        """Check `cols` and keep read-only views of them and read-only copies of
        `masks`; a field not in `cols` is missing.  Present features must be
        finite, and present labels probability vectors (classification) or
        finite (regression)."""
        n = len(next(iter(cols.values())))
        for view, width in zip(_VIEWS, (header.d, header.d_star, header.c)):
            col = cols[view] if view in cols else np.zeros((n, width))
            mask = np.array(masks.get(view, np.zeros(n, bool)), dtype=bool)
            if col.shape != (n, width):
                raise ValueError(f"{view} has shape {col.shape}, header says ({n}, {width})")
            if mask.shape != (n,):
                raise ValueError(f"the mask of {view} has shape {mask.shape}, not ({n},)")
            cols[view], masks[view] = col.view(), mask
            cols[view].flags.writeable = mask.flags.writeable = False
        y, labeled = cols["y"], masks["y"]
        if header.task == CLASSIFICATION:
            check_simplex_rows(y, labeled, range(n))
        else:
            check_rows(finite_rows(y) | ~labeled, range(n), "label is not finite")
        for view in ("x", "x_star"):
            check_rows(finite_rows(cols[view]) | ~masks[view], range(n),
                       f"features are not finite in {view}")
        self.header, self.meta, self._cols, self._masks = header, meta or {}, cols, masks
        self._students = {}  # memo key -> trained student or its error, see distill_students

    def __len__(self) -> int:
        return len(self._masks["x"])

    @property
    def examples(self) -> tuple[Triplet, ...]:
        """Triplets of read-only row views (None where missing), built on each read."""
        cols = [(self._cols[view], self._masks[view]) for view in _VIEWS]
        return tuple(Triplet(*(c[i] if m[i] else None for c, m in cols)) for i in range(len(self)))

    def column(self, view: str) -> np.ndarray:
        """Field `view` of every example, one row each: the stored array, read-only.
        Raises ValueError naming the first example without the field."""
        if view not in _VIEWS:
            raise ValueError(f"unknown view {view!r}")
        if not self._masks[view].all():
            raise ValueError(f"example {int(np.argmin(self._masks[view]))} has no {view}")
        return self._cols[view]


def clean_subset(items, fields):
    """Elements of `items` whose every field in `fields` is present.

    Fields are attribute names (for Triplet-like records) or positional
    indices (for plain tuples); missing means None.  Order is preserved
    and the operation is idempotent.
    """
    fields = tuple(fields)

    def present(v, f):
        return (getattr(v, f) if isinstance(f, str) else v[f]) is not None

    return [v for v in items if all(present(v, f) for f in fields)]


@dataclass(frozen=True)
class DistillConfig:
    """Knobs for the teacher and the student.

    imitation weighs soft against hard targets (0 = supervised only,
    1 = imitation only); unlabeled_weight additionally scales the soft term
    of examples that have no hard label (0 trains on the labeled examples
    alone).  The temperature is not a knob here: it acts only in
    `soft_labels`, and the student always trains at T = 1.
    """

    imitation: float = 1.0
    unlabeled_weight: float = 1.0
    teacher_arch: Arch = Arch("linear")
    student_arch: Arch = Arch("linear")
    teacher_train: TrainConfig = TrainConfig()
    student_train: TrainConfig = TrainConfig()

    def __post_init__(self):
        for name, high in (("imitation", 1.0), ("unlabeled_weight", None)):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0, high))


def _rows(col: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows `ids` (sorted and unique, as from np.flatnonzero) of `col`: a view
    when they are one contiguous run of a C-contiguous `col`, a copy otherwise.
    Both are C-contiguous, so a product with them gives the same bits (BLAS
    may round a product with another layout differently)."""
    if col.flags.c_contiguous and ids.size and ids[-1] - ids[0] + 1 == ids.size:
        return col[ids[0] : ids[-1] + 1]
    return col[ids]


def train_teacher(data: Dataset, cfg: DistillConfig) -> Model:
    """Step 1: fit the teacher on (x_star, y) pairs with hard labels only."""
    hw = data._masks["y"].astype(np.float64)
    ids = np.flatnonzero(data._masks["x_star"] & (hw > 0))
    if not ids.size:
        raise ValueError("no examples with both privileged features and a label")
    return _fit(data, "x_star", ids, hw[ids], None, cfg.teacher_arch, cfg.teacher_train)


def soft_labels(teacher: Model, data: Dataset, T: float) -> np.ndarray:
    """Step 2: an (n, c) column of soft targets aligned with `data`'s rows.

    Classification: sigma(f_t(x_star) / T), a valid probability vector.
    Regression: the teacher's raw prediction (temperature does not act).
    Labels are not required, so unlabeled examples are covered too; rows
    without x_star hold NaN.  For either task, and whether or not a row has
    x_star, T must be a finite real > 0 (ValueError, as from softmax).
    """
    T = check_real("temperature", T, 0.0, low_open=True)
    ids = np.flatnonzero(data._masks["x_star"])
    soft = np.full((len(data), teacher.output_dim), np.nan)
    if ids.size:
        out = forward(teacher, _rows(data._cols["x_star"], ids))
        soft[ids] = softmax(out, T) if teacher.task == CLASSIFICATION else out
    return soft


def distill_student(data: Dataset, soft, cfg: DistillConfig) -> Model:
    """Step 3: train the student on regular features with mixed targets.

    `soft` is a `soft_labels` column for `data`, or empty for none; the
    student reads it on the rows with x_star.  Labeled examples weigh their
    hard label by (1 - imitation) and their soft label by imitation;
    unlabeled ones get only the soft term, scaled further by
    unlabeled_weight.  Examples without x, or whose every weight is zero
    (e.g. unlabeled ones under imitation = 0), drop out.

    Imitation 0 weighs every soft label by zero, so it trains the plain
    student and reads neither `soft` nor unlabeled_weight.  A student that
    `distill_students` has trained on `data` is not trained again: each call
    returns a copy of it, or raises a copy of the error it failed with.
    """
    [student] = distill_students(data, [(soft, cfg)])
    if isinstance(student, Exception):
        raise student
    return student


def distill_students(data: Dataset, requests) -> list:
    """`distill_student` for each (soft, cfg) of `requests`, in one pass: per
    request, a deep copy of its student or of the error it failed with (a
    TrainingDivergence, or ValueError when no row is usable).

    `data` keeps the outcome of each student trained on it, keyed by what the
    student depends on: (student_arch, student_train) at imitation 0, and
    also imitation, unlabeled_weight and a digest of the soft column
    otherwise; so no student trains twice, failed or not.  The students left
    to train share `train` calls per (student_arch, student_train, rows
    trained on), one per GROUP_BYTES of their soft targets: from one initial
    model and one shuffle stream, each step multiplies one batch of X
    against all of their first layers, and each comes out bit for bit as it
    would alone.  Independent calls run at the same time on up to one thread
    per usable CPU (numpy releases the interpreter lock in its products);
    what they return is kept in call order, so no result depends on the CPU
    count.  Any other error of a call is raised, the first in call order.
    """
    keyed, groups, shape = [], {}, (len(data), data.header.c)
    for soft, cfg in requests:
        S = np.asarray(soft, dtype=np.float64) if len(soft) > 0 else None
        if S is not None and S.shape != shape:
            raise ValueError(f"soft labels: shape {S.shape}, expected {shape}")
        key = (cfg.student_arch, cfg.student_train)
        if cfg.imitation != 0.0:
            digest = None if S is None else hashlib.blake2b(np.ascontiguousarray(S)).digest()
            key += (cfg.imitation, cfg.unlabeled_weight, digest)
        keyed.append(key)
        if key in data._students or keyed.count(key) > 1:  # kept, or asked for earlier
            continue
        lam, labeled = cfg.imitation, data._masks["y"]
        hw = np.where(labeled, 1.0 - lam, 0.0)
        sw = np.where(labeled, lam, lam * cfg.unlabeled_weight) * data._masks["x_star"]
        if S is None:  # no soft column: weight 0, never read
            S, sw = data._cols["y"], np.zeros(len(data))
        ids = np.flatnonzero(data._masks["x"] & ((hw > 0) | (sw > 0)))
        if not ids.size:
            data._students[key] = ValueError("no usable examples to distill into the student")
            continue
        group = groups.setdefault((cfg.student_arch, cfg.student_train, ids.tobytes()), [])
        group.append((key, hw, S, sw))
    jobs = []  # per train call: (its members, rows, student_arch, student_train)
    for (arch, train_cfg, ids), members in groups.items():
        ids = np.frombuffer(ids, dtype=np.intp)
        size = max(1, GROUP_BYTES // (8 * ids.size * data.header.c))
        jobs += [(members[i : i + size], ids, arch, train_cfg) for i in range(0, len(members), size)]
    for trained, (chunk, *_) in zip(_run(data, jobs), jobs):
        for (key, *_), student in zip(chunk, trained):
            data._students[key] = student
    return [copy.deepcopy(data._students[key]) for key in keyed]


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _run(data: Dataset, jobs):
    """The `train` results of `distill_students`' jobs, in job order; the
    stacked targets of a job are built when it starts, so at most one job's
    are live per thread.  One job, or one CPU, runs them here, one by one."""

    def fit(job):
        chunk, ids, arch, train_cfg = job
        hw, S, sw = (np.stack([m[k][ids] for m in chunk]) for k in (1, 2, 3))
        return _fit(data, "x", ids, hw, (S, sw), arch, train_cfg)

    workers = min(len(jobs), _workers())
    if workers <= 1:
        yield from map(fit, jobs)
        return
    # imported here, so that a process that never trains two calls at once
    # does not load it (about 0.75 MB)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(fit, jobs)


def _fit(data: Dataset, view: str, ids: np.ndarray, hw, soft, arch: Arch, train_cfg: TrainConfig):
    """A fresh `arch` model trained with `train_cfg` on rows `ids` of
    features `view` against their labels weighted by `hw` and `soft` = (soft
    targets, their weights) of those rows, None for none.  Weights of shape
    (R, len(ids)) make a stack of R target sets: one `train` call fits R
    models and returns a list (see `models.train`)."""
    X, h = _rows(data._cols[view], ids), data.header
    hard = data._cols["y"][ids]
    batch = Packed(X, h.task, (hard, hw), soft or (hard, np.zeros(len(ids))), ids)
    m0 = init_model(arch, X.shape[1], h.c, h.task, train_cfg.rng.fork("init"))
    return train(m0, batch, replace(train_cfg, rng=train_cfg.rng.fork("shuffle")))


def restrict_simplex(p: np.ndarray, classes) -> np.ndarray:
    """Renormalize probability vectors (along the last axis) onto a subset of
    their classes; a NaN row stays NaN.  Raises ValueError, naming the
    first row of a 2-D `p`, where the mass on the subset is numerically zero."""
    q = np.asarray(p, dtype=np.float64)[..., classes]
    mass = q.sum(axis=-1, keepdims=True)
    zero = np.flatnonzero(mass < 1e-300)
    if zero.size:
        row = f"row {zero[0]}: " if q.ndim == 2 else ""
        raise ValueError(f"{row}probability mass on the classes of interest is numerically zero")
    return q / mass


def universum_soft_labels(teacher: Model, data: Dataset, T: float, classes_of_interest):
    """`soft_labels` of an all-classes teacher, kept only for the classes of
    interest and renormalized row by row (rows without x_star stay NaN).

    The teacher may have been trained on extra out-of-task classes; the
    restriction preserves the ratios between retained class
    probabilities.  Columns are indexed by ascending class id.
    """
    if teacher.task != CLASSIFICATION:
        raise ValueError("universum soft labels require a classification teacher")
    requested = list(classes_of_interest)
    for k in requested:
        check_count("class of interest", k, 0, teacher.output_dim - 1)
    classes = sorted(set(requested))
    if not classes:
        raise ValueError("classes_of_interest must be non-empty")
    if len(classes) != len(requested):
        raise ValueError("classes_of_interest contains duplicates")
    return restrict_simplex(soft_labels(teacher, data, T), classes)


def multitask_views(data: Dataset, target_task: int) -> Dataset:
    """Per-task view of multi-output regression data.

    For target task j: regular features stay x, the other tasks' outputs
    become the privileged features, and the label is task j's output.
    """
    h = data.header
    if h.task != REGRESSION or h.c < 2:
        raise ValueError("multitask views need multi-output regression data")
    target_task = check_count("target_task", target_task, 0, h.c - 1)
    others = [k for k in range(h.c) if k != target_task]
    X, Y = data.column("x"), data.column("y")  # raise naming an example without them
    header = DatasetHeader(h.d, h.c - 1, 1, REGRESSION)
    meta = dict(data.meta, target_task=target_task, source_tasks=others)
    return Dataset.from_arrays(header, X, Y[:, others], Y[:, [target_task]], meta)
