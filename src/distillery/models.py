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
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, check_simplex

__all__ = [
    "Arch",
    "Model",
    "TrainConfig",
    "WeightedTarget",
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


def _forward_cached(m: Model, X: np.ndarray):
    """All layer activations; returns (activations list, output)."""
    acts = [X]
    a = X
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w + b
        a = np.maximum(z, 0.0) if i < last else z
        acts.append(a)
    return acts, a


def forward(m: Model, x) -> np.ndarray:
    """Logits (classification) or raw outputs (regression) for x.

    Accepts a single feature vector or an (n, d) batch.
    """
    X, single = _as_batch(m, x)
    _, out = _forward_cached(m, X)
    return out[0] if single else out


def predict_class(m: Model, x):
    """Argmax class of forward(m, x); ties go to the lowest index."""
    if m.task != CLASSIFICATION:
        raise ValueError("predict_class requires a classification model")
    out = forward(m, x)
    return int(np.argmax(out)) if out.ndim == 1 else np.argmax(out, axis=1)


@dataclass(frozen=True)
class WeightedTarget:
    """Hard and/or soft target for one example, each with its own weight.

    For classification both targets are probability vectors; for
    regression they are raw target vectors.  An absent target must have
    weight 0 (and is stored as None).
    """

    hard: np.ndarray | None = None
    soft: np.ndarray | None = None
    hard_weight: float = 0.0
    soft_weight: float = 0.0

    def __post_init__(self):
        if self.hard is None and self.soft is None:
            raise ValueError("at least one of hard/soft must be present")
        if self.hard is None and self.hard_weight != 0:
            raise ValueError("absent hard target must have weight 0")
        if self.soft is None and self.soft_weight != 0:
            raise ValueError("absent soft target must have weight 0")
        if self.hard_weight < 0 or self.soft_weight < 0:
            raise ValueError("target weights must be >= 0")


@dataclass
class _Targets:
    # dense per-batch view: absent targets are zero rows with zero weight
    hard: np.ndarray
    soft: np.ndarray
    hard_w: np.ndarray
    soft_w: np.ndarray

    def take(self, idx) -> "_Targets":
        return _Targets(self.hard[idx], self.soft[idx], self.hard_w[idx], self.soft_w[idx])


def _pack(batch, c: int, task: str) -> tuple[np.ndarray, _Targets]:
    if not batch:
        raise ValueError("empty batch")
    xs = np.asarray([np.asarray(x, dtype=np.float64) for x, _ in batch])
    n = len(batch)
    hard = np.zeros((n, c))
    soft = np.zeros((n, c))
    hw = np.zeros(n)
    sw = np.zeros(n)
    for i, (_, t) in enumerate(batch):
        if t.hard is not None:
            hard[i] = check_simplex(t.hard) if task == CLASSIFICATION else np.asarray(t.hard)
            hw[i] = t.hard_weight
        if t.soft is not None:
            soft[i] = check_simplex(t.soft) if task == CLASSIFICATION else np.asarray(t.soft)
            sw[i] = t.soft_weight
    return xs, _Targets(hard, soft, hw, sw)


def _data_loss_grad(out: np.ndarray, tgt: _Targets, T: float, task: str, want_grad: bool):
    """Mean weighted loss over the batch and (optionally) dLoss/dOut."""
    n = out.shape[0]
    if task == CLASSIFICATION:
        zt = out / T
        m = np.max(zt, axis=1, keepdims=True)
        lse = m + np.log(np.sum(np.exp(zt - m), axis=1, keepdims=True))
        logp = zt - lse
        ce_h = -np.einsum("ij,ij->i", tgt.hard, logp)
        ce_s = -np.einsum("ij,ij->i", tgt.soft, logp)
        value = float(np.mean(tgt.hard_w * ce_h + tgt.soft_w * ce_s))
        if not want_grad:
            return value, None
        p = np.exp(logp)
        # d/dz of -sum_k y_k logp_k is (sigma * sum(y) - y) / T
        w_tot = tgt.hard_w * np.sum(tgt.hard, axis=1) + tgt.soft_w * np.sum(tgt.soft, axis=1)
        g = (p * w_tot[:, None] - (tgt.hard_w[:, None] * tgt.hard + tgt.soft_w[:, None] * tgt.soft)) / T
        return value, g / n
    # regression: 0.5 * ||out - y||^2 per target
    dh = out - tgt.hard
    ds = out - tgt.soft
    value = float(
        np.mean(0.5 * (tgt.hard_w * np.sum(dh * dh, axis=1) + tgt.soft_w * np.sum(ds * ds, axis=1)))
    )
    if not want_grad:
        return value, None
    g = tgt.hard_w[:, None] * dh + tgt.soft_w[:, None] * ds
    return value, g / n


def _l2_penalty(m: Model, l2: float) -> float:
    if l2 == 0.0:
        return 0.0
    return 0.5 * l2 * sum(float(np.sum(w * w)) for w in m.weights)


def _loss_and_grads(m: Model, X, tgt: _Targets, T: float, l2: float, want_grad: bool):
    acts, out = _forward_cached(m, X)
    value, g_out = _data_loss_grad(out, tgt, T, m.task, want_grad)
    value += _l2_penalty(m, l2)
    if not want_grad:
        return value, None, None
    d_w, d_b = [], []
    g = g_out
    for i in range(len(m.weights) - 1, -1, -1):
        a_in = acts[i]
        gw = a_in.T @ g
        if l2 != 0.0:
            gw += l2 * m.weights[i]
        d_w.append(gw)
        d_b.append(np.sum(g, axis=0))
        if i > 0:
            g = (g @ m.weights[i].T) * (acts[i] > 0.0)
    d_w.reverse()
    d_b.reverse()
    return value, d_w, d_b


def loss(m: Model, batch, T_student: float = 1.0, l2: float = 0.0) -> float:
    """Mean weighted hard/soft loss over the batch plus the L2 penalty.

    batch is a list of (x, WeightedTarget).  T_student rescales the
    model's logits before the softmax (classification only).
    """
    if not T_student > 0:
        raise ValueError("T_student must be positive")
    X, tgt = _pack(batch, m.output_dim, m.task)
    if X.shape[1] != m.input_dim:
        raise ValueError(f"expected features of dimension {m.input_dim}, got {X.shape[1]}")
    value, _, _ = _loss_and_grads(m, X, tgt, T_student, l2, want_grad=False)
    return value


def gradient(m: Model, batch, T_student: float = 1.0, l2: float = 0.0) -> Gradient:
    """Exact gradient of loss() with respect to every parameter."""
    if not T_student > 0:
        raise ValueError("T_student must be positive")
    X, tgt = _pack(batch, m.output_dim, m.task)
    if X.shape[1] != m.input_dim:
        raise ValueError(f"expected features of dimension {m.input_dim}, got {X.shape[1]}")
    _, d_w, d_b = _loss_and_grads(m, X, tgt, T_student, l2, want_grad=True)
    return Gradient(d_w, d_b)


def train(
    m0: Model,
    data,
    cfg: TrainConfig,
    T_student: float = 1.0,
    ids=None,
) -> Model:
    """Mini-batch SGD from m0; returns the final model.

    Batches are drawn by a seeded shuffle each epoch.  When `ids` are
    given, examples are first put in ascending-id order, so the result
    does not depend on the order the caller listed them in.  The returned
    model records the mean batch loss per epoch in `loss_history`.

    Raises TrainingDivergence (with the epoch index) if the loss ever
    becomes non-finite.
    """
    if not data:
        raise ValueError("empty training data")
    if not T_student > 0:
        raise ValueError("T_student must be positive")
    n = len(data)
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds data size {n}")
    if ids is not None:
        if len(ids) != n:
            raise ValueError("ids must match data length")
        order = np.argsort(np.asarray(ids), kind="stable")
        data = [data[i] for i in order]

    X, tgt = _pack(data, m0.output_dim, m0.task)
    if X.shape[1] != m0.input_dim:
        raise ValueError(f"expected features of dimension {m0.input_dim}, got {X.shape[1]}")

    m = m0.copy()
    shuffle = cfg.rng.generator()
    lr = cfg.learning_rate
    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            # overflow here is not an error: it is how divergence is detected
            with np.errstate(over="ignore", invalid="ignore"):
                value, d_w, d_b = _loss_and_grads(m, X[idx], tgt.take(idx), T_student, cfg.l2, True)
            if not np.isfinite(value):
                raise TrainingDivergence(epoch, value)
            for w, gw in zip(m.weights, d_w):
                w -= lr * gw
            for b, gb in zip(m.biases, d_b):
                b -= lr * gb
            epoch_losses.append(value)
        history.append(float(np.mean(epoch_losses)))
    m.loss_history = history
    return m


def hard_target(y, weight: float = 1.0) -> WeightedTarget:
    """Convenience: a purely hard-labeled target."""
    return WeightedTarget(hard=np.asarray(y, dtype=np.float64), hard_weight=weight)


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
