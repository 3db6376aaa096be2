"""Differentiable classifiers/regressors with hand-derived gradients.

Two architectures: a linear map (multinomial logistic regression when
trained with cross-entropy) and an MLP with two ReLU hidden layers.  The
trainer is plain mini-batch SGD with a constant learning rate.  Each
example carries a weighted pair of targets (hard label and/or soft
label), so the same trainer covers ordinary supervised training,
imitation-weighted distillation, and their regression analogues.

Classification losses consume logits (at T = 1), never probabilities:
the softmax and the log are fused through log-sum-exp.  Regression replaces
cross-entropy with 0.5 * squared error per target (gradient out - y).
L2 regularization is (l2 / 2) * sum of squared weight-matrix entries;
biases are not regularized.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, check_count, check_real, check_rows, check_simplex_rows, finite_rows
from .datasets import pixel_features, row_blocks
# check_simplex is looked up here by perfbench/tracing.py, which counts its calls
from .core import check_simplex  # noqa: F401

__all__ = [
    "Arch",
    "Model",
    "TrainConfig",
    "Packed",
    "TrainingDivergence",
    "init_model",
    "forward",
    "loss",
    "gradient",
    "train",
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
        if isinstance(self.hidden, (str, bytes)) or not isinstance(self.hidden, Iterable):
            raise ValueError(f"hidden must be a sequence of sizes, got {self.hidden!r}")
        if self.kind == "linear" and self.hidden:
            raise ValueError("linear architecture takes no hidden sizes")
        if self.kind == "mlp" and not self.hidden:
            raise ValueError("mlp architecture needs at least one hidden size")
        hidden = tuple(check_count("hidden size", h) for h in self.hidden)
        object.__setattr__(self, "hidden", hidden)

    @staticmethod
    def mlp(*hidden: int) -> "Arch":
        return Arch("mlp", hidden)


class TrainingDivergence(RuntimeError):
    """Raised when the training loss becomes non-finite. Carries the epoch and value."""

    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite training loss {value!r} at epoch {epoch}")
        self.epoch, self.value = epoch, value

    def __reduce__(self):  # copy and pickle rebuild it from its arguments
        return type(self), (self.epoch, self.value)


@dataclass
class Model:
    """Parameters of a layered map from features to outputs.

    weights[i] has shape (fan_in, fan_out); biases[i] has shape (fan_out,).
    ReLU is applied between layers, never on the output layer, so a
    single-layer model is exactly the linear map x @ W + b.

    The model owns one float64 buffer `params`: every weight matrix, then
    every bias, each in C order.  `weights`, `biases` and `w_flat` (the
    span of the weight matrices) are views into it, so edit them in place;
    the constructor copies its input arrays into a fresh buffer.
    """

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
        arrays = (*self.weights, *self.biases)
        self.params = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        shapes = [w.shape for w in self.weights]
        self.weights, self.biases, self.w_flat = _views(self.params, shapes)

    def __eq__(self, other):
        # same task, layer shapes and parameter bits; loss_history records the training only
        if other.__class__ is not self.__class__:
            return NotImplemented
        same_shapes = [w.shape for w in self.weights] == [w.shape for w in other.weights]
        return self.task == other.task and same_shapes and np.array_equal(self.params, other.params)

    @property
    def kind(self) -> str:
        return "linear" if len(self.weights) == 1 else "mlp"

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "Model":
        return Model(self.task, self.weights, self.biases)

    def __reduce__(self):
        # pickle and copy rebuild the model, so the layer views stay views into params;
        # a copy gets a history list of its own (the floats in it are immutable)
        history = None if self.loss_history is None else list(self.loss_history)
        return Model, (self.task, self.weights, self.biases, history)


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch SGD settings. The rng stream drives shuffling only."""

    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int = 32
    l2: float = 1e-4
    rng: RngStream = RngStream(0)

    def __post_init__(self):
        lr = check_real("learning_rate", self.learning_rate, 0.0, low_open=True)
        object.__setattr__(self, "learning_rate", lr)
        for name in ("epochs", "batch_size"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        object.__setattr__(self, "l2", check_real("l2", self.l2))


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
    sizes = [check_count("d", d), *arch.hidden, check_count("c", c)]
    g = rng.generator()
    weights, biases = [], []
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
        is_hidden = i < len(sizes) - 2
        scale = np.sqrt((2.0 if is_hidden else 1.0) / fi)
        weights.append(g.standard_normal((fi, fo)) * scale)
        biases.append(np.zeros(fo))
    return Model(task, weights, biases)


def _as_batch(m: Model, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x)
    if x.dtype != np.uint8:
        x = x.astype(np.float64, copy=False)
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

    Accepts a single feature vector or an (n, d) batch, of floats or of
    uint8 pixels, which stand for their `pixel_features`.  The first layer
    takes pixels in `row_blocks`, so that no float64 copy of them is held
    whole, and the later layers take every row at once: in blocks, they
    too would round otherwise.
    """
    X, single = _as_batch(m, x)
    weights, biases = m.weights, m.biases
    if X.dtype == np.uint8:
        X = np.concatenate([pixel_features(X[rows]) @ weights[0] for rows in row_blocks(len(X))])
        X += biases[0]
        weights, biases = weights[1:], biases[1:]
        if weights:  # X is a hidden layer
            np.maximum(X, 0.0, out=X)
    out = _forward_cached(weights, biases, X)[-1]
    return out[0] if single else out


class Packed:
    """Checked training columns of n >= 1 rows: features X (n, d) and the
    target columns the loss needs; len() is n.  Errors name row i `names[i]`.
    uint8 pixels X are held as their `pixel_features`, as `forward` reads them.

    `hard` and `soft` are each ((n, c) targets, (n,) row weights).  Weights
    are finite and >= 0, and a target is read only where its weight is > 0:
    there it must be a probability vector (classification) or finite
    (regression), and everywhere else it reads as zero, whatever is stored.
    Features must be finite.  Classification combines the targets into
    Y = hw * hard + sw * soft and w_tot = hw * sum(hard) + sw * sum(soft) for
    the loss; regression keeps (hard, soft, hw, sw).  Every target column
    has the rows on its second-to-last axis.

    A stack of R target sets on the same rows takes (R, n) weights, and soft
    targets may then be (R, n, c) (hard targets stay one (n, c) column);
    `lead` is (R,), and () for one set.  `train` fits one model per set.
    """

    def __init__(self, X, task: str, hard, soft, names):
        X = np.asarray(X)
        if X.ndim != 2 or not len(X):
            raise ValueError(f"X: shape {X.shape}, expected (n, d) with n >= 1")
        X = pixel_features(X) if X.dtype == np.uint8 else X.astype(np.float64, copy=False)
        n = len(X)
        if len(names) != n:
            raise ValueError(f"names has {len(names)} entries for {n} rows")
        if np.ndim(hard[0]) != 2:
            raise ValueError(f"hard targets: shape {np.shape(hard[0])}, expected (n, c)")
        c = np.shape(hard[0])[1]
        self.lead = next((np.shape(w)[:1] for _, w in (hard, soft) if np.ndim(w) == 2), ())
        cols = []
        for kind, (rows, weights) in (("hard", hard), ("soft", soft)):
            rows, weights = np.asarray(rows, np.float64), np.asarray(weights, np.float64)
            for arg, a, shape in (("targets", rows, (n, c)), ("weights", weights, (n,))):
                expected = (*self.lead, *shape)
                if a.shape not in (shape, expected):
                    raise ValueError(f"{kind} {arg}: shape {a.shape}, expected {expected}")
            ok = np.isfinite(weights) & (weights >= 0)
            check_rows(_every_set(ok, n), names, f"{kind} weight is not finite and >= 0")
            read = weights > 0
            rows = np.where(read[..., None], rows, 0.0)
            if task == CLASSIFICATION:
                read = np.broadcast_to(read, rows.shape[:-1])
                for r in np.ndindex(rows.shape[:-2]):
                    check_simplex_rows(rows[r], read[r], names, f"{kind} target: ")
            else:
                finite = _every_set(np.isfinite(rows).all(axis=-1), n)
                check_rows(finite, names, f"{kind} target is not finite")
            cols += [rows, weights]
        check_rows(finite_rows(X), names, "features are not finite")
        hard, hw, soft, sw = cols
        if task == REGRESSION:
            self.X, self.targets = X, (hard, soft, hw[..., None], sw[..., None])
        else:
            w_tot = hw * np.sum(hard, axis=-1) + sw * np.sum(soft, axis=-1)
            Y = hw[..., None] * hard + sw[..., None] * soft
            self.X, self.targets = X, (Y, w_tot[..., None])

    def __len__(self) -> int:
        return len(self.X)


def _every_set(ok: np.ndarray, n: int) -> np.ndarray:
    """(n,) mask of the rows that pass in every target set of the (..., n) mask `ok`."""
    return ok.reshape(-1, n).all(axis=0)


def _views(params: np.ndarray, shapes) -> tuple[list, list, np.ndarray]:
    """Views of a (..., P) buffer in the `Model.params` layout for layers of
    `shapes` (fan_in, fan_out): the weight matrices (..., fan_in, fan_out),
    the biases (..., fan_out), and the span of the weights (..., W)."""
    lead, weights, at = params.shape[:-1], [], 0
    for fan_in, fan_out in shapes:
        weights.append(params[..., at : at + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        at += fan_in * fan_out
    w_flat, biases = params[..., :at], []
    for _, fan_out in shapes:
        biases.append(params[..., at : at + fan_out])
        at += fan_out
    return weights, biases, w_flat


def _loss_grad(task: str, layers, X: np.ndarray, tgt, l2: float, terms, grads=None):
    """Writes to the (2, ...) array `terms` the parts of the mean weighted
    loss on rows X, plus the L2 penalty, of the models whose `_views` are
    `layers`: per model, the data term summed over the rows, and w·w if
    l2 != 0.  `_mean_loss` assembles the loss from them.  Given `_views`
    `grads` of a buffer of the same shape and, last, a scratch buffer of
    the shape of its weight span, also writes the exact gradients there.

    `tgt` holds the target columns of a `Packed`, restricted to the rows of X.
    Every layer's gradient is formed from the weights as they are on
    entry, so the caller may update all of them afterwards at once.  The
    models share X; each one's loss and gradient get the bits they would
    get alone.
    """
    weights, biases, w_flat = layers
    acts = _forward_cached(weights, biases, X)
    out, n = acts[-1], X.shape[0]
    if task == CLASSIFICATION:
        Y, w_tot = tgt
        # max rounds nothing, so reducing the rows of a (..., c, n) copy gives out.max's bits
        m = np.maximum.reduce(np.ascontiguousarray(out.mT), axis=-2, keepdims=True).mT
        logp = np.subtract(out, m)
        lse = np.add.reduce(np.exp(logp, out=logp), axis=-1, keepdims=True)
        np.add(m, np.log(lse, out=lse), out=lse)
        np.subtract(out, lse, out=logp)
        # one dot over each model's whole batch, with np.vdot's bits
        Y_flat, logp_flat = Y.reshape(Y.shape[:-2] + (-1,)), logp.reshape(logp.shape[:-2] + (-1,))
        np.vecdot(Y_flat, logp_flat, out=terms[0, ...])
        if grads is not None:
            # d/dz of -sum_k y_k logp_k is sigma * sum(y) - y
            g = np.multiply(np.exp(logp, out=out), w_tot, out=out)
            g -= Y
    else:  # 0.5 * ||out - y||^2 per target
        hard, soft, hw, sw = tgt
        dh = out - hard
        ds = out - soft
        sq_h = np.sum(dh * dh, axis=-1, keepdims=True)
        sq_s = np.sum(ds * ds, axis=-1, keepdims=True)
        np.add.reduce((0.5 * (hw * sq_h + sw * sq_s))[..., 0], axis=-1, out=terms[0, ...])
        if grads is not None:
            g = hw * dh + sw * ds
    if l2 != 0.0:
        np.vecdot(w_flat, w_flat, out=terms[1, ...])
    if grads is None:
        return
    grad_w, grad_b, grad_flat, l2_grad = grads
    g /= n
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].mT, g, out=grad_w[i])
        np.add.reduce(g, axis=-2, out=grad_b[i])
        if i > 0:
            g = g @ weights[i].mT
            np.multiply(g, acts[i] > 0.0, out=g)  # ReLU mask; `g *= mask` is slower
    if l2 != 0.0:
        grad_flat += np.multiply(w_flat, l2, out=l2_grad)


def _mean_loss(task: str, terms, n, l2: float):
    """The loss of `_loss_grad`'s `terms` on n rows; every argument broadcasts."""
    data, ww = terms
    value = (np.negative(data) if task == CLASSIFICATION else data) / n
    return value + 0.5 * l2 * ww if l2 != 0.0 else value


def _checked(m: Model, data: Packed) -> Packed:
    """`data`, checked to be a Packed that fits m."""
    if not isinstance(data, Packed):
        raise TypeError(f"expected training data as a Packed, got {type(data).__name__}")
    got = (data.X.shape[1], data.targets[0].shape[-1])
    if got != (m.input_dim, m.output_dim):
        raise ValueError(f"expected (d, c) = {(m.input_dim, m.output_dim)}, got {got}")
    return data


def loss(m: Model, batch: Packed, *, l2: float = 0.0):
    """Mean weighted hard/soft loss over the batch plus the L2 penalty; for
    a stacked batch, an (R,) array with one loss per target set."""
    data = _checked(m, batch)
    params = np.broadcast_to(m.params, (*data.lead, m.params.size))  # a model per target set
    terms = np.empty((2, *data.lead))
    _loss_grad(m.task, _layers(params, _shapes(m)), data.X, data.targets, l2, terms)
    value = _mean_loss(m.task, terms, len(data), l2)
    return value if data.lead else float(value)


def gradient(m: Model, batch: Packed, *, l2: float = 0.0) -> np.ndarray:
    """Exact gradient of loss() with respect to every parameter, as a (P,)
    array in the order of `m.params`; (R, P) for a stacked batch."""
    data = _checked(m, batch)
    grad = np.empty((*data.lead, m.params.size))
    grads = _views(grad, _shapes(m))
    params = np.broadcast_to(m.params, grad.shape)
    _loss_grad(m.task, _layers(params, _shapes(m)), data.X, data.targets, l2,
               np.empty((2, *data.lead)), (*grads, np.empty_like(grads[2])))
    return grad


def _shapes(m: Model) -> list[tuple[int, int]]:
    return [w.shape for w in m.weights]


def _layers(params: np.ndarray, shapes) -> tuple[list, list, np.ndarray]:
    """The `_views` of a (..., P) buffer that `_loss_grad` takes: each bias
    as a row, which adds to the batch of its model in a stack."""
    weights, biases, w_flat = _views(params, shapes)
    return weights, [b[..., None, :] for b in biases], w_flat


def train(m0: Model, data: Packed, cfg: TrainConfig):
    """Mini-batch SGD from m0 on `data`; returns the final model.

    Batches are drawn by a seeded shuffle each epoch.  The returned model
    owns fresh arrays (m0 is left as it was) and records the mean batch
    loss per epoch in `loss_history`.

    Raises ValueError if `data` does not fit m0 or has fewer rows than a
    batch, and TrainingDivergence (with the epoch index) if the loss ever
    becomes non-finite.

    A stacked `data` of R target sets trains R models from m0 in one loop:
    all of them draw the same shuffles, so every step multiplies one batch
    of X against the stack of first layers.  It returns a list with, per
    target set, the model, or the TrainingDivergence that training on that
    set alone would raise; each model is bit for bit the one it would be
    alone, and a diverged model does not disturb the others.
    """
    data = _checked(m0, data)
    n = len(data)
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds data size {n}")
    X, tgt, lead = data.X, data.targets, data.lead
    params = np.empty((*lead, m0.params.size))
    params[...] = m0.params
    grad = np.empty_like(params)  # every step overwrites it
    layers = _layers(params, _shapes(m0))
    grads = *_views(grad, _shapes(m0)), np.empty_like(layers[2])
    shuffle = cfg.rng.generator()
    lr, l2, size = cfg.learning_rate, cfg.l2, cfg.batch_size
    starts = range(0, n, size)
    terms = np.empty((2, len(starts), *lead))  # one epoch's batch loss terms
    # the rows of each batch, on the axis of `terms` that lists the batches
    counts = np.minimum(size, n - np.array(starts)).reshape(-1, *(1,) * len(lead))
    history = np.empty((cfg.epochs, *lead))
    diverged = {}  # stack index -> TrainingDivergence
    # overflow here is not an error: it is how divergence is detected
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = shuffle.permutation(n)
            cols = [col.take(perm, axis=-2) for col in tgt]
            for k, start in enumerate(starts):
                rows = slice(start, start + size)
                batch_tgt = [col[..., rows, :] for col in cols]
                _loss_grad(m0.task, layers, X.take(perm[rows], axis=0), batch_tgt, l2,
                           terms[:, k], grads)
                grad *= lr
                params -= grad
            # a contiguous row per model, which np.add.reduce sums as np.mean sums one model's list
            by_model = np.ascontiguousarray(_mean_loss(m0.task, terms, counts, l2).T)
            history[epoch] = np.add.reduce(by_model, axis=-1) / len(starts)
            finite = np.isfinite(by_model)
            if not finite.all():
                # a diverged model trains on; its own numbers reach no other model
                for r in np.ndindex(lead):
                    if r not in diverged and not finite[r].all():
                        value = float(by_model[r][np.argmin(finite[r])])
                        diverged[r] = TrainingDivergence(epoch, value)
                if not lead:
                    raise diverged[()]
                if len(diverged) == len(by_model):
                    break

    def result(r):
        if r in diverged:
            return diverged[r]
        weights, biases, _ = _views(params[r], _shapes(m0))
        return Model(m0.task, weights, biases, loss_history=history[(slice(None), *r)].tolist())

    return [result(r) for r in np.ndindex(lead)] if lead else result(())

