"""Differentiable classifiers/regressors with hand-derived gradients.

Two architectures: a linear map (multinomial logistic regression when
trained with cross-entropy) and an MLP with two ReLU hidden layers.  The
trainer is plain mini-batch SGD with a constant learning rate.  Each
example carries a weighted pair of targets (hard label and/or soft
label), so the same trainer covers ordinary supervised training,
imitation-weighted distillation, and their regression analogues.

Classification losses consume logits, never probabilities: temperature
scaling and the log are fused through log-sum-exp.  Regression replaces
cross-entropy with 0.5 * squared error per target (gradient out - y).
L2 regularization is (l2 / 2) * sum of squared weight-matrix entries;
biases are not regularized.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

# check_simplex is looked up here by perfbench/tracing.py, which counts its calls
from .core import RngStream, check_rows, check_simplex, check_simplex_rows  # noqa: F401

__all__ = [
    "Arch",
    "Model",
    "TrainConfig",
    "Packed",
    "Gradient",
    "TrainingDivergence",
    "init_model",
    "forward",
    "loss",
    "gradient",
    "train",
    "predict_class",
    "save_model",
    "load_model",
    "model_to_text",
    "model_from_text",
]

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class Arch:
    """Architecture descriptor: 'linear' or 'mlp' with ReLU hidden sizes."""

    kind: str = "linear"
    hidden: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.kind == "linear" and self.hidden:
            raise ValueError("linear architecture takes no hidden sizes")
        if self.kind == "mlp" and not self.hidden:
            raise ValueError("mlp architecture needs at least one hidden size")

    @staticmethod
    def mlp(*hidden: int) -> "Arch":
        return Arch("mlp", tuple(int(h) for h in hidden))


class TrainingDivergence(RuntimeError):
    """Raised when the training loss becomes non-finite. Carries the epoch."""

    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite training loss {value!r} at epoch {epoch}")
        self.epoch = epoch


@dataclass
class Model:
    """Parameters of a layered map from features to outputs.

    weights[i] has shape (fan_in, fan_out); biases[i] has shape (fan_out,).
    ReLU is applied between layers, never on the output layer, so a
    single-layer model is exactly the linear map x @ W + b.
    """

    kind: str
    task: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss_history: list[float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights/biases layer counts must match and be non-empty")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i} has inconsistent shapes {w.shape}, {b.shape}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i - 1} -> {i} dimension mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} has non-finite parameters")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "Model":
        return Model(
            self.kind,
            self.task,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


@dataclass
class Gradient:
    """Parameter-shaped gradient (mirrors Model.weights / Model.biases)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def norm(self) -> float:
        sq = sum(float(np.sum(g * g)) for g in self.weights)
        sq += sum(float(np.sum(g * g)) for g in self.biases)
        return float(np.sqrt(sq))


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch SGD settings. The rng stream drives shuffling only."""

    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int = 32
    l2: float = 1e-4
    init_scale: str = "fan_in_normal"
    rng: RngStream = RngStream(0)

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        for name in ("epochs", "batch_size"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.l2 < math.inf:
            raise ValueError("l2 must be finite and >= 0")
        if self.init_scale != "fan_in_normal":
            raise ValueError(f"unknown init scheme {self.init_scale!r}")


def init_model(
    arch: Arch | str,
    d: int,
    c: int,
    task: str = CLASSIFICATION,
    rng: RngStream = RngStream(0),
) -> Model:
    """Fresh model with fan-in-scaled normal weights and zero biases.

    Hidden (ReLU) layers use variance 2 / fan_in, the output or plain
    linear layer 1 / fan_in.
    """
    if isinstance(arch, str):
        arch = Arch(arch)
    sizes = [d, *arch.hidden, c]
    g = rng.generator()
    weights, biases = [], []
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
        is_hidden = i < len(sizes) - 2
        scale = np.sqrt((2.0 if is_hidden else 1.0) / fi)
        weights.append(g.standard_normal((fi, fo)) * scale)
        biases.append(np.zeros(fo))
    return Model(arch.kind, task, weights, biases)


def _as_batch(m: Model, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != m.input_dim:
        raise ValueError(f"expected features of dimension {m.input_dim}, got shape {x.shape}")
    return x, single


def _forward_cached(weights, biases, X: np.ndarray) -> list[np.ndarray]:
    """Every layer's activations, X first and the output last."""
    acts = [X]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w
        z += b
        acts.append(np.maximum(z, 0.0, out=z) if i < last else z)
    return acts


def forward(m: Model, x) -> np.ndarray:
    """Logits (classification) or raw outputs (regression) for x.

    Accepts a single feature vector or an (n, d) batch.
    """
    X, single = _as_batch(m, x)
    out = _forward_cached(m.weights, m.biases, X)[-1]
    return out[0] if single else out


def predict_class(m: Model, x):
    """Argmax class of forward(m, x); ties go to the lowest index."""
    if m.task != CLASSIFICATION:
        raise ValueError("predict_class requires a classification model")
    out = forward(m, x)
    return int(np.argmax(out)) if out.ndim == 1 else np.argmax(out, axis=1)


class Packed:
    """Checked training columns of n >= 1 rows: features X (n, d) and the
    target columns the loss needs; len() is n.  Errors name row i `names[i]`.

    `hard` and `soft` are each ((n, c) targets, (n,) row weights, boolean (n,)
    mask of the rows that have the target).  An absent row reads as zero and
    must weigh 0; weights are finite and >= 0, and every row has a present
    target.  Features must be finite, present classification targets
    probability vectors and present regression targets finite.
    Classification combines them into Y = hw * hard + sw * soft and
    w_tot = hw * sum(hard) + sw * sum(soft) for the loss; regression keeps
    (hard, soft, hw, sw).
    """

    def __init__(self, X, task: str, hard, soft, names):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or not len(X):
            raise ValueError(f"X: shape {X.shape}, expected (n, d) with n >= 1")
        n = len(X)
        if len(names) != n:
            raise ValueError(f"names has {len(names)} entries for {n} rows")
        if np.ndim(hard[0]) != 2:
            raise ValueError(f"hard targets: shape {np.shape(hard[0])}, expected (n, c)")
        c = np.shape(hard[0])[1]
        cols, has_target = [], np.zeros(n, dtype=bool)
        for kind, (rows, weights, present) in (("hard", hard), ("soft", soft)):
            rows, weights = np.asarray(rows, np.float64), np.asarray(weights, np.float64)
            present = np.asarray(present)
            for arg, a, shape in (("targets", rows, (n, c)), ("weights", weights, (n,)),
                                  ("mask", present, (n,))):
                if a.shape != shape:
                    raise ValueError(f"{kind} {arg}: shape {a.shape}, expected {shape}")
            if present.dtype != bool:
                raise ValueError(f"{kind} mask: dtype {present.dtype}, expected bool")
            ok = np.isfinite(weights) & (weights >= 0)
            check_rows(ok, names, f"{kind} weight is not finite and >= 0")
            absent_ok = present | (weights == 0)
            check_rows(absent_ok, names, f"absent {kind} target has a nonzero weight")
            rows = np.where(present[:, None], rows, 0.0)
            if task == CLASSIFICATION:
                check_simplex_rows(rows, present, names, f"{kind} target: ")
            else:
                check_rows(np.isfinite(rows).all(axis=1), names, f"{kind} target is not finite")
            cols += [rows, weights]
            has_target |= present
        check_rows(has_target, names, "no hard or soft target")
        check_rows(np.isfinite(X).all(axis=1), names, "features are not finite")
        hard, hw, soft, sw = cols
        if task == REGRESSION:
            self.X, self.targets = X, (hard, soft, hw, sw)
        else:
            w_tot = hw * np.sum(hard, axis=1) + sw * np.sum(soft, axis=1)
            self.X, self.targets = X, (hw[:, None] * hard + sw[:, None] * soft, w_tot[:, None])

    def __len__(self) -> int:
        return len(self.X)


class _Flat:
    """A layer stack's weight matrices, then its biases, as views into one
    float64 buffer, so a whole-model update is one call on `buf`; the
    weight matrices fill `buf[:len(w_flat)]`, viewed as `w_flat`."""

    def __init__(self, weights, biases):
        shapes = [np.shape(a) for a in (*weights, *biases)]
        self.buf = np.empty(sum(math.prod(s) for s in shapes))
        views, start = [], 0
        for s, a in zip(shapes, (*weights, *biases)):
            stop = start + math.prod(s)
            views.append(self.buf[start:stop].reshape(s))
            views[-1][...] = a
            start = stop
        self.weights, self.biases = views[: len(weights)], views[len(weights) :]
        self.w_flat = self.buf[: sum(w.size for w in self.weights)]


def _loss_grad(p: _Flat, X: np.ndarray, tgt: tuple, T: float, task: str, l2: float, grad=None):
    """Mean weighted loss of the layer stack `p` on rows X, plus the L2
    penalty; given a `_Flat` `grad` of the same layout, also writes the
    exact gradient into it.

    `tgt` holds the target columns of a `Packed`, restricted to the rows of X.
    Every layer's gradient is formed from the weights as they are on
    entry, so the caller may update all of them afterwards at once.
    """
    acts = _forward_cached(p.weights, p.biases, X)
    out, n = acts[-1], X.shape[0]
    if task == CLASSIFICATION:
        Y, w_tot = tgt
        zt = out / T
        m = zt.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(zt - m).sum(axis=1, keepdims=True))
        logp = zt - lse
        value = -float(np.vdot(Y, logp)) / n
        if grad is not None:
            # d/dz of -sum_k y_k logp_k is (sigma * sum(y) - y) / T
            g = (np.exp(logp) * w_tot - Y) / T
    else:  # 0.5 * ||out - y||^2 per target
        hard, soft, hw, sw = tgt
        dh = out - hard
        ds = out - soft
        value = float(np.mean(0.5 * (hw * np.sum(dh * dh, axis=1) + sw * np.sum(ds * ds, axis=1))))
        if grad is not None:
            g = hw[:, None] * dh + sw[:, None] * ds
    if l2 != 0.0:
        value += 0.5 * l2 * float(np.vdot(p.w_flat, p.w_flat))
    if grad is None:
        return value
    g /= n
    for i in range(len(p.weights) - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grad.weights[i])
        np.add.reduce(g, axis=0, out=grad.biases[i])
        if i > 0:
            g = g @ p.weights[i].T
            np.multiply(g, acts[i] > 0.0, out=g)  # ReLU mask; `g *= mask` is slower
    if l2 != 0.0:
        grad.w_flat += l2 * p.w_flat
    return value


def _checked(m: Model, data: Packed, T_student: float) -> Packed:
    """`data`, checked to be a Packed that fits m."""
    if not T_student > 0:
        raise ValueError("T_student must be positive")
    if not isinstance(data, Packed):
        raise TypeError(f"expected training data as a Packed, got {type(data).__name__}")
    got = (data.X.shape[1], data.targets[0].shape[1])
    if got != (m.input_dim, m.output_dim):
        raise ValueError(f"expected (d, c) = {(m.input_dim, m.output_dim)}, got {got}")
    return data


def loss(m: Model, batch: Packed, T_student: float = 1.0, l2: float = 0.0) -> float:
    """Mean weighted hard/soft loss over the batch plus the L2 penalty.

    T_student rescales the model's logits before the softmax (classification
    only).
    """
    data = _checked(m, batch, T_student)
    return _loss_grad(_Flat(m.weights, m.biases), data.X, data.targets, T_student, m.task, l2)


def gradient(m: Model, batch: Packed, T_student: float = 1.0, l2: float = 0.0) -> Gradient:
    """Exact gradient of loss() with respect to every parameter."""
    data = _checked(m, batch, T_student)
    grad = _Flat(m.weights, m.biases)  # same layout, overwritten
    _loss_grad(_Flat(m.weights, m.biases), data.X, data.targets, T_student, m.task, l2, grad)
    return Gradient(grad.weights, grad.biases)


def train(m0: Model, data: Packed, cfg: TrainConfig, T_student: float = 1.0) -> Model:
    """Mini-batch SGD from m0 on `data`; returns the final model.

    Batches are drawn by a seeded shuffle each epoch.  The returned model
    owns fresh arrays (m0 is left as it was) and records the mean batch
    loss per epoch in `loss_history`.

    Raises ValueError if `data` does not fit m0 or has fewer rows than a
    batch, and TrainingDivergence (with the epoch index) if the loss ever
    becomes non-finite.
    """
    data = _checked(m0, data, T_student)
    n = len(data)
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds data size {n}")
    X, tgt = data.X, data.targets
    params = _Flat(m0.weights, m0.biases)
    grad = _Flat(m0.weights, m0.biases)  # same layout; every step overwrites it
    shuffle = cfg.rng.generator()
    lr, l2, size = cfg.learning_rate, cfg.l2, cfg.batch_size
    history = []
    # overflow here is not an error: it is how divergence is detected
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = shuffle.permutation(n)
            cols = [col[perm] for col in tgt]
            epoch_losses = []
            for start in range(0, n, size):
                rows = slice(start, start + size)
                batch_tgt = [col[rows] for col in cols]
                value = _loss_grad(params, X[perm[rows]], batch_tgt, T_student, m0.task, l2, grad)
                if not math.isfinite(value):
                    raise TrainingDivergence(epoch, value)
                grad.buf *= lr
                params.buf -= grad.buf
                epoch_losses.append(value)
            history.append(float(np.mean(epoch_losses)))
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    return Model(m0.kind, m0.task, weights, biases, loss_history=history)


# --- serialization ---------------------------------------------------------
#
# Flat text record, version 1:
#   line 1: "distillery-model 1"
#   line 2: "kind <linear|mlp>"
#   line 3: "task <classification|regression>"
#   line 4: "sizes d h1 ... c"
#   then per layer i: a line "W<i>" followed by fan_in rows of fan_out
#   hexadecimal float64 values, and a line "b<i>" followed by one row.
# Hex floats round-trip bit-exactly across platforms.

_MAGIC = "distillery-model 1"


def model_to_text(m: Model) -> str:
    sizes = [m.input_dim] + [w.shape[1] for w in m.weights]
    lines = [
        _MAGIC,
        f"kind {m.kind}",
        f"task {m.task}",
        "sizes " + " ".join(str(s) for s in sizes),
    ]
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        lines.append(f"W{i}")
        for row in w:
            lines.append(" ".join(v.hex() for v in row.tolist()))
        lines.append(f"b{i}")
        lines.append(" ".join(v.hex() for v in b.tolist()))
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> Model:
    lines = text.strip().split("\n")
    if lines[0] != _MAGIC:
        raise ValueError(f"not a model record (expected {_MAGIC!r})")

    def line(k: int) -> str:
        if k >= len(lines):
            raise ValueError(f"truncated model record: line {k + 1} is missing")
        return lines[k]

    def value(k: int, key: str) -> str:
        name, _, rest = line(k).partition(" ")
        if name != key:
            raise ValueError(f"expected {key!r} at line {k + 1}")
        return rest

    kind, task = value(1, "kind"), value(2, "task")
    sizes = [int(s) for s in value(3, "sizes").split()]
    pos = 4
    weights, biases = [], []
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
        if line(pos) != f"W{i}":
            raise ValueError(f"expected W{i} at line {pos + 1}")
        pos += 1
        rows = [[float.fromhex(v) for v in line(pos + r).split()] for r in range(fi)]
        pos += fi
        w = np.array(rows)
        if w.shape != (fi, fo):
            raise ValueError(f"layer {i} weight shape {w.shape} != ({fi}, {fo})")
        if line(pos) != f"b{i}":
            raise ValueError(f"expected b{i} at line {pos + 1}")
        pos += 1
        b = np.array([float.fromhex(v) for v in line(pos).split()])
        pos += 1
        weights.append(w)
        biases.append(b)
    return Model(kind, task, weights, biases)


def save_model(m: Model, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(model_to_text(m))


def load_model(path) -> Model:
    with open(path, "r", encoding="ascii") as f:
        return model_from_text(f.read())
