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

from dataclasses import dataclass, replace

import numpy as np

from .core import check_count, check_real, check_rows, check_simplex_rows, softmax
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


class Dataset:
    """Header plus columns; `meta` records how the data was generated.

    Each field ("x", "x_star", "y") is one 2-D float array, a row per
    example (the row index is its id), with a mask of the rows that have it.
    Both are read-only, so `distill_student` may keep the imitation-0
    student trained on a dataset with it.
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
        afterwards.  `present` may map a column's name to a boolean mask of
        the rows that have it (other rows are ignored); the mask is copied."""
        arrays = zip(_VIEWS, (x, x_star, y))
        given = {v: np.asarray(a, dtype=np.float64) for v, a in arrays if a is not None}
        if len({len(a) for a in given.values()}) != 1:
            raise ValueError("from_arrays needs at least one column, all of one length")
        present = present or {}
        masks = {v: present.get(v, np.ones(len(a), bool)) for v, a in given.items()}
        ds = cls.__new__(cls)
        ds._store(header, given, masks, meta)
        return ds

    def _store(self, header: DatasetHeader, cols: dict, masks: dict, meta) -> None:
        """Check `cols` and keep read-only views of them and read-only copies of
        `masks`; a field not in `cols` is missing.  Present labels must be
        probability vectors (classification) or finite (regression)."""
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
            check_rows(np.isfinite(y).all(axis=1) | ~labeled, range(n), "label is not finite")
        self.header, self.meta, self._cols, self._masks = header, meta or {}, cols, masks
        self._plain = None  # (key, model): the imitation-0 student, see distill_student

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
    return _fit(data, "x_star", hw, None, cfg.teacher_arch, cfg.teacher_train,
                "no examples with both privileged features and a label")


def soft_labels(teacher: Model, data: Dataset, T: float) -> np.ndarray:
    """Step 2: an (n, c) column of soft targets aligned with `data`'s rows.

    Classification: sigma(f_t(x_star) / T), a valid probability vector.
    Regression: the teacher's raw prediction (temperature does not act).
    Labels are not required, so unlabeled examples are covered too; rows
    without x_star hold NaN.
    """
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
    student and reads neither `soft` nor unlabeled_weight.  `data` keeps
    that student for the last (student_arch, student_train) it was trained
    with, and each call returns a copy of it.
    """
    given = len(soft) > 0
    S = np.asarray(soft, dtype=np.float64) if given else None
    if given and S.shape != (len(data), data.header.c):
        raise ValueError(f"soft labels: shape {S.shape}, expected ({len(data)}, {data.header.c})")
    if cfg.imitation != 0.0:
        return _train_student(data, S, cfg)
    key = (cfg.student_arch, cfg.student_train)
    if data._plain is None or data._plain[0] != key:
        data._plain = key, _train_student(data, None, cfg)
    plain = data._plain[1]
    return Model(plain.task, plain.weights, plain.biases, list(plain.loss_history))


def _train_student(data: Dataset, S: np.ndarray | None, cfg: DistillConfig) -> Model:
    """`distill_student` on a checked soft column `S`, None for none."""
    lam, labeled = cfg.imitation, data._masks["y"]
    hw = np.where(labeled, 1.0 - lam, 0.0)
    sw = np.where(labeled, lam, lam * cfg.unlabeled_weight) * data._masks["x_star"]
    soft = None if S is None else (S, sw)
    return _fit(data, "x", hw, soft, cfg.student_arch, cfg.student_train,
                "no usable examples to distill into the student")


def _fit(data: Dataset, view: str, hw, soft, arch: Arch, train_cfg: TrainConfig, empty: str):
    """A fresh `arch` model trained with `train_cfg` on features `view` against
    the labels weighted by `hw` and `soft` = (an (n, c) soft column, its
    weights), None for none.  Only the rows with `view` and a weight > 0 are
    trained on; ValueError `empty` when there is none."""
    S, sw = soft or (data._cols["y"], np.zeros(len(data)))  # no soft column: weight 0, never read
    ids = np.flatnonzero(data._masks[view] & ((hw > 0) | (sw > 0)))
    if not ids.size:
        raise ValueError(empty)
    X, h = _rows(data._cols[view], ids), data.header
    batch = Packed(X, h.task, (data._cols["y"][ids], hw[ids]), (S[ids], sw[ids]), ids)
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
