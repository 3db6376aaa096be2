"""Teacher-student pipeline over triplet data.

A triplet holds regular features x, privileged features x_star, and a
label y; any field may be missing (None).  A Dataset stores triplets as
columns, one array and presence mask per field.  The pipeline is three
sequential steps: train a teacher on the privileged view, soften its
predictions into per-example soft labels, and train a student on the
regular view against an imitation-weighted mix of hard and soft targets.

Soft labels are keyed by the example's row in the full dataset (a
stable id), so filtering incomplete examples can never misalign a
feature vector with someone else's soft label.

Extensions: clean-subset routing for semi-supervised data, soft-label
restriction to the classes of interest for out-of-task (Universum)
examples, and per-task views of multi-output regression data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import check_simplex, simplex_rows, softmax
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
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")


_VIEWS = ("x", "x_star", "y")


class Dataset:
    """Header plus columns; `meta` records how the data was generated.

    Each field ("x", "x_star", "y") is one 2-D float array, a row per
    example (the row index is its id), with a mask of the rows that have it.
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
        """Build from column arrays, kept as given (float64 is not copied); a
        None column is missing everywhere.  `present` may map a column's name
        to a boolean mask of the rows that have it (other rows are ignored)."""
        arrays = zip(_VIEWS, (x, x_star, y))
        given = {v: np.asarray(a, dtype=np.float64) for v, a in arrays if a is not None}
        if len({len(a) for a in given.values()}) != 1:
            raise ValueError("from_arrays needs at least one column, all of one length")
        present = present or {}
        masks = {v: np.asarray(present.get(v, np.ones(len(a))), bool) for v, a in given.items()}
        ds = cls.__new__(cls)
        ds._store(header, given, masks, meta)
        return ds

    def _store(self, header: DatasetHeader, cols: dict, masks: dict, meta) -> None:
        """Check `cols` and keep read-only views of them; a field not in `cols` is missing."""
        n = len(next(iter(cols.values())))
        for view, width in zip(_VIEWS, (header.d, header.d_star, header.c)):
            col = cols.setdefault(view, np.zeros((n, width)))
            mask = masks.setdefault(view, np.zeros(n, dtype=bool))
            if col.shape != (n, width):
                raise ValueError(f"{view} has shape {col.shape}, header says ({n}, {width})")
            if mask.shape != (n,):
                raise ValueError(f"the mask of {view} has shape {mask.shape}, not ({n},)")
            cols[view] = col.view()
            cols[view].flags.writeable = False
        if header.task == CLASSIFICATION:
            # check_simplex's test on every present label at once; check_simplex
            # itself runs only on the first failing row
            ok = simplex_rows(cols["y"]) | ~masks["y"]
            if not ok.all():
                i = int(np.argmin(ok))
                try:
                    check_simplex(cols["y"][i])
                except ValueError as e:
                    raise ValueError(f"example {i}: {e}") from None
        self.header, self.meta, self._cols, self._masks = header, meta or {}, cols, masks

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
    """Knobs for the full pipeline.

    temperature softens the teacher's predictions; imitation weighs soft
    against hard targets (0 = supervised only, 1 = imitation only);
    unlabeled_weight additionally scales the soft term of examples that
    have no hard label.  match_teacher_temperature applies the same
    temperature to the student's own logits during training
    (classification only); by default the student trains at T = 1.
    """

    temperature: float = 1.0
    imitation: float = 1.0
    unlabeled_weight: float = 1.0
    teacher_arch: Arch = Arch("linear")
    student_arch: Arch = Arch("linear")
    teacher_train: TrainConfig = TrainConfig()
    student_train: TrainConfig = TrainConfig()
    match_teacher_temperature: bool = False

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if not 0.0 <= self.imitation <= 1.0:
            raise ValueError("imitation must lie in [0, 1]")
        if not 0 <= self.unlabeled_weight < math.inf:
            raise ValueError("unlabeled_weight must be finite and >= 0")


def train_teacher(data: Dataset, cfg: DistillConfig) -> Model:
    """Step 1: fit the teacher on (x_star, y) pairs with hard labels only."""
    ids = np.flatnonzero(data._masks["x_star"] & data._masks["y"])
    if not ids.size:
        raise ValueError("no examples with both privileged features and a label")
    h, n, Y = data.header, len(ids), data._cols["y"][ids]
    hard, no_soft = (Y, np.ones(n), np.ones(n, bool)), (Y, np.zeros(n), np.zeros(n, bool))
    batch = Packed(data._cols["x_star"][ids], h.task, hard, no_soft, ids)
    rng = cfg.teacher_train.rng
    m0 = init_model(cfg.teacher_arch, h.d_star, h.c, h.task, rng.fork("init"))
    return train(m0, batch, replace(cfg.teacher_train, rng=rng.fork("shuffle")))


def soft_labels(teacher: Model, data: Dataset, T: float) -> list[tuple[int, np.ndarray]]:
    """Step 2: (example-id, soft target) for every example with x_star.

    Classification: sigma(f_t(x_star) / T), a valid probability vector.
    Regression: the teacher's raw prediction (temperature does not act).
    Labels are not required, so unlabeled examples are covered too.
    """
    ids = np.flatnonzero(data._masks["x_star"])
    if not ids.size:
        return []
    out = forward(teacher, data._cols["x_star"][ids])
    if teacher.task == CLASSIFICATION:
        out = softmax(out, T)
    return list(zip(ids.tolist(), out))


def _soft_column(soft, n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """`soft`'s (id, vector) pairs as an (n, c) column, zero elsewhere, and the
    mask of its ids.  Raises ValueError naming an id that is not an integer
    in [0, n), is listed twice, or has a vector not of shape (c,)."""
    S, has = np.zeros((n, c)), np.zeros(n, dtype=bool)
    if not len(soft):
        return S, has
    ids, vectors = zip(*soft)
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"soft label ids must be integers, not {ids.dtype}")
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        raise ValueError(f"soft label id {ids[np.argmax(outside)]} is outside [0, {n})")
    repeated = np.bincount(ids, minlength=n) > 1
    if repeated.any():
        raise ValueError(f"soft label id {np.argmax(repeated)} is listed more than once")
    if set(map(np.shape, vectors)) != {(c,)}:
        i, v = next((i, v) for i, v in soft if np.shape(v) != (c,))
        raise ValueError(f"example {i}: soft target has shape {np.shape(v)}, expected ({c},)")
    S[ids], has[ids] = vectors, True
    return S, has


def distill_student(data: Dataset, soft, cfg: DistillConfig) -> Model:
    """Step 3: train the student on regular features with mixed targets.

    Labeled examples weigh their hard label by (1 - imitation) and their
    soft label by imitation; unlabeled ones get only the soft term,
    scaled further by unlabeled_weight.  Examples without x, or whose
    every weight is zero (e.g. unlabeled ones under imitation = 0), drop out.
    """
    h, lam, labeled = data.header, cfg.imitation, data._masks["y"]
    S, has_soft = _soft_column(soft, len(data), h.c)
    hw = np.where(labeled, 1.0 - lam, 0.0)
    sw = np.where(has_soft, np.where(labeled, lam, lam * cfg.unlabeled_weight), 0.0)
    ids = np.flatnonzero(data._masks["x"] & ((hw != 0.0) | (sw != 0.0)))
    if not ids.size:
        raise ValueError("no usable examples to distill into the student")
    hard = (data._cols["y"][ids], hw[ids], labeled[ids])
    batch = Packed(data._cols["x"][ids], h.task, hard, (S[ids], sw[ids], has_soft[ids]), ids)
    T_student = 1.0
    if cfg.match_teacher_temperature and h.task == CLASSIFICATION:
        T_student = cfg.temperature
    rng = cfg.student_train.rng
    m0 = init_model(cfg.student_arch, h.d, h.c, h.task, rng.fork("init"))
    return train(m0, batch, replace(cfg.student_train, rng=rng.fork("shuffle")), T_student)


def restrict_simplex(p: np.ndarray, classes) -> np.ndarray:
    """Renormalize a probability vector onto a subset of its classes."""
    q = np.asarray(p, dtype=np.float64)[classes]
    mass = float(q.sum())
    if mass < 1e-300:
        raise ValueError("probability mass on the classes of interest is numerically zero")
    return q / mass


def universum_soft_labels(
    teacher: Model, data: Dataset, T: float, classes_of_interest
) -> list[tuple[int, np.ndarray]]:
    """Soft labels from an all-classes teacher, kept only for the classes
    of interest and renormalized.

    The teacher may have been trained on extra out-of-task classes; the
    restriction preserves the ratios between retained class
    probabilities.  Output vectors are indexed by ascending class id.
    """
    if teacher.task != CLASSIFICATION:
        raise ValueError("universum soft labels require a classification teacher")
    requested = [int(k) for k in classes_of_interest]
    classes = sorted(set(requested))
    if not classes:
        raise ValueError("classes_of_interest must be non-empty")
    if len(classes) != len(requested):
        raise ValueError("classes_of_interest contains duplicates")
    c_all = teacher.output_dim
    if classes[0] < 0 or classes[-1] >= c_all:
        raise ValueError(f"classes of interest out of range for {c_all} teacher classes")
    return [(i, restrict_simplex(p, classes)) for i, p in soft_labels(teacher, data, T)]


def multitask_views(data: Dataset, target_task: int) -> Dataset:
    """Per-task view of multi-output regression data.

    For target task j: regular features stay x, the other tasks' outputs
    become the privileged features, and the label is task j's output.
    """
    h = data.header
    if h.task != REGRESSION or h.c < 2:
        raise ValueError("multitask views need multi-output regression data")
    if not 0 <= target_task < h.c:
        raise ValueError(f"target task {target_task} out of range for {h.c} tasks")
    others = [k for k in range(h.c) if k != target_task]
    X, Y = data.column("x"), data.column("y")  # raise naming an example without them
    header = DatasetHeader(h.d, h.c - 1, 1, REGRESSION)
    meta = dict(data.meta, target_task=target_task, source_tasks=others)
    return Dataset.from_arrays(header, X, Y[:, others], Y[:, [target_task]], meta)
