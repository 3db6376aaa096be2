"""Teacher-student pipeline over triplet data.

A triplet holds regular features x, privileged features x_star, and a
label y; any field may be missing (None).  The pipeline is three
sequential steps: train a teacher on the privileged view, soften its
predictions into per-example soft labels, and train a student on the
regular view against an imitation-weighted mix of hard and soft targets.

Soft labels are keyed by the example's index in the full dataset (a
stable id), so filtering incomplete examples can never misalign a
feature vector with someone else's soft label.

Extensions: clean-subset routing for semi-supervised data, soft-label
restriction to the classes of interest for out-of-task (Universum)
examples, and per-task views of multi-output regression data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import check_simplex, simplex_rows, softmax
from .models import (
    CLASSIFICATION,
    REGRESSION,
    Arch,
    Model,
    TrainConfig,
    WeightedTarget,
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


@dataclass
class Dataset:
    """Header plus examples; `meta` records how the data was generated.

    `column(view)` stacks one field of every example once and keeps the
    result, so it reflects the examples as built: do not reassign them
    (or their fields) after construction.
    """

    header: DatasetHeader
    examples: list[Triplet]
    meta: dict = field(default_factory=dict)
    _columns: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        h = self.header
        labeled = []
        for i, t in enumerate(self.examples):
            if t.x is not None and np.shape(t.x) != (h.d,):
                raise ValueError(f"example {i}: x has shape {np.shape(t.x)}, header says ({h.d},)")
            if t.x_star is not None and np.shape(t.x_star) != (h.d_star,):
                raise ValueError(
                    f"example {i}: x_star has shape {np.shape(t.x_star)}, header says ({h.d_star},)"
                )
            if t.y is not None:
                if np.shape(t.y) != (h.c,):
                    raise ValueError(f"example {i}: y has shape {np.shape(t.y)}, header says ({h.c},)")
                labeled.append(i)
        if h.task == CLASSIFICATION and labeled:
            # check_simplex's test on all labels at once; check_simplex itself
            # runs only on the first failing row
            ok = simplex_rows([self.examples[i].y for i in labeled])
            if not ok.all():
                i = labeled[int(np.argmin(ok))]
                try:
                    check_simplex(self.examples[i].y)
                except ValueError as e:
                    raise ValueError(f"example {i}: {e}") from None

    def __len__(self) -> int:
        return len(self.examples)

    def column(self, view: str) -> np.ndarray:
        """Field `view` ("x", "x_star" or "y") of every example, stacked as
        rows; stacked on the first call and kept.  The result is a
        read-only view, so writing into it cannot change the dataset."""
        col = self._columns.get(view)
        if col is None:
            if view not in ("x", "x_star", "y"):
                raise ValueError(f"unknown view {view!r}")
            rows = [getattr(t, view) for t in self.examples]
            for i, row in enumerate(rows):
                if row is None:
                    raise ValueError(f"example {i} has no {view}")
            col = self._columns[view] = np.asarray(rows)
        col = col.view()
        col.flags.writeable = False
        return col

    @classmethod
    def from_arrays(cls, header: DatasetHeader, x=None, x_star=None, y=None, meta=None) -> "Dataset":
        """Build from columnar arrays; a None column is missing everywhere.

        The examples' fields are rows of the given arrays, and `column`
        returns read-only views of the arrays themselves (no copy).
        """
        given = (("x", x), ("x_star", x_star), ("y", y))
        columns = {view: np.asarray(a) for view, a in given if a is not None}
        lengths = {len(a) for a in columns.values()}
        if len(lengths) != 1:
            raise ValueError("from_arrays needs at least one column, all of one length")
        (n,) = lengths
        rows = zip(*(columns[view] if view in columns else [None] * n for view, _ in given))
        examples = [Triplet(*fields) for fields in rows]
        ds = cls(header, examples, meta or {})
        ds._columns.update(columns)
        return ds


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
    ids = [i for i, t in enumerate(data.examples) if t.x_star is not None and t.y is not None]
    if not ids:
        raise ValueError("no examples with both privileged features and a label")
    batch = [
        (data.examples[i].x_star, WeightedTarget(hard=data.examples[i].y, hard_weight=1.0))
        for i in ids
    ]
    rng = cfg.teacher_train.rng
    m0 = init_model(cfg.teacher_arch, data.header.d_star, data.header.c, data.header.task, rng.fork("init"))
    return train(m0, batch, replace(cfg.teacher_train, rng=rng.fork("shuffle")), ids=ids)


def soft_labels(teacher: Model, data: Dataset, T: float) -> list[tuple[int, np.ndarray]]:
    """Step 2: (example-id, soft target) for every example with x_star.

    Classification: sigma(f_t(x_star) / T), a valid probability vector.
    Regression: the teacher's raw prediction (temperature does not act).
    Labels are not required, so unlabeled examples are covered too.
    """
    ids = [i for i, t in enumerate(data.examples) if t.x_star is not None]
    if not ids:
        return []
    if len(ids) == len(data):
        X = data.column("x_star")
    else:
        X = np.asarray([data.examples[i].x_star for i in ids])
    out = forward(teacher, X)
    if teacher.task == CLASSIFICATION:
        out = softmax(out, T)
    return [(i, out[k]) for k, i in enumerate(ids)]


def distill_student(data: Dataset, soft, cfg: DistillConfig) -> Model:
    """Step 3: train the student on regular features with mixed targets.

    Labeled examples weigh their hard label by (1 - imitation) and their
    soft label by imitation; unlabeled ones get only the soft term,
    scaled further by unlabeled_weight.  Examples whose every weight is
    zero (e.g. unlabeled ones under imitation = 0) drop out entirely.
    """
    soft_map = dict(soft)
    lam = cfg.imitation
    ids, batch = [], []
    for i, t in enumerate(data.examples):
        if t.x is None:
            continue
        s = soft_map.get(i)
        hard_w = (1.0 - lam) if t.y is not None else 0.0
        soft_w = 0.0
        if s is not None:
            soft_w = lam if t.y is not None else lam * cfg.unlabeled_weight
        if hard_w == 0.0 and soft_w == 0.0:
            continue
        ids.append(i)
        batch.append((t.x, WeightedTarget(t.y, s, hard_w, soft_w)))
    if not batch:
        raise ValueError("no usable examples to distill into the student")
    T_student = 1.0
    if cfg.match_teacher_temperature and data.header.task == CLASSIFICATION:
        T_student = cfg.temperature
    rng = cfg.student_train.rng
    m0 = init_model(cfg.student_arch, data.header.d, data.header.c, data.header.task, rng.fork("init"))
    return train(m0, batch, replace(cfg.student_train, rng=rng.fork("shuffle")), T_student, ids=ids)


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
    examples = []
    for i, t in enumerate(data.examples):
        if t.x is None or t.y is None:
            raise ValueError(f"example {i} lacks inputs or task outputs")
        examples.append(Triplet(t.x, np.asarray(t.y)[others], np.asarray(t.y)[[target_task]]))
    header = DatasetHeader(h.d, h.c - 1, 1, REGRESSION)
    meta = dict(data.meta, target_task=target_task, source_tasks=others)
    return Dataset(header, examples, meta)
