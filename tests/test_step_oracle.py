"""`train`, `loss` and `gradient` against a frozen copy of the SGD step.

`_oracle_loss_grad` and `_oracle_train` are the loss/gradient function and
the training loop as they stood before the step was rewritten to write
its loss terms into per-epoch buffers, copied verbatim (only renamed, and
the layer forward inlined as `_oracle_forward`).  Every rewrite of the step
must keep their bits: the trained parameters, each loss history, and the
epoch and value of each `TrainingDivergence`.  Both sides run on the same
machine, so no golden numbers are stored.
"""

import struct

import numpy as np
import pytest

from distillery.core import RngStream
from distillery.models import (
    CLASSIFICATION,
    Arch,
    Model,
    Packed,
    TrainConfig,
    TrainingDivergence,
    _views,
    gradient,
    init_model,
    loss,
    train,
)


def _oracle_forward(weights, biases, X):
    acts = [X]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w
        z += b
        acts.append(np.maximum(z, 0.0, out=z) if i < last else z)
    return acts


def _oracle_loss_grad(task, layers, X, tgt, l2, grads=None):
    weights, biases, w_flat = layers
    acts = _oracle_forward(weights, biases, X)
    out, n = acts[-1], X.shape[0]
    if task == CLASSIFICATION:
        Y, w_tot = tgt
        m = out.max(axis=-1, keepdims=True)
        lse = m + np.log(np.exp(out - m).sum(axis=-1, keepdims=True))
        logp = out - lse
        # one dot over each model's whole batch, with np.vdot's bits
        Y_flat, logp_flat = Y.reshape(Y.shape[:-2] + (-1,)), logp.reshape(logp.shape[:-2] + (-1,))
        value = -np.vecdot(Y_flat, logp_flat) / n
        if grads is not None:
            # d/dz of -sum_k y_k logp_k is sigma * sum(y) - y
            g = np.exp(logp) * w_tot - Y
    else:  # 0.5 * ||out - y||^2 per target
        hard, soft, hw, sw = tgt
        dh = out - hard
        ds = out - soft
        sq_h = np.sum(dh * dh, axis=-1, keepdims=True)
        sq_s = np.sum(ds * ds, axis=-1, keepdims=True)
        value = np.mean((0.5 * (hw * sq_h + sw * sq_s))[..., 0], axis=-1)
        if grads is not None:
            g = hw * dh + sw * ds
    if l2 != 0.0:
        value = value + 0.5 * l2 * np.vecdot(w_flat, w_flat)
    if grads is None:
        return value
    grad_w, grad_b, grad_flat = grads
    g /= n
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].mT, g, out=grad_w[i])
        np.add.reduce(g, axis=-2, out=grad_b[i])
        if i > 0:
            g = g @ weights[i].mT
            np.multiply(g, acts[i] > 0.0, out=g)  # ReLU mask; `g *= mask` is slower
    if l2 != 0.0:
        grad_flat += l2 * w_flat
    return value


def _shapes(m):
    return [w.shape for w in m.weights]


def _oracle_loss(m, data, l2):
    value = _oracle_loss_grad(m.task, _views(m.params, _shapes(m)), data.X, data.targets, l2)
    return value if data.lead else float(value)


def _oracle_gradient(m, data, l2):
    grad = np.empty((*data.lead, m.params.size))
    _oracle_loss_grad(m.task, _views(m.params, _shapes(m)), data.X, data.targets, l2,
                      _views(grad, _shapes(m)))
    return grad


def _oracle_train(m0, data, cfg):
    n = len(data)
    X, tgt, lead = data.X, data.targets, data.lead
    params = np.empty((*lead, m0.params.size))
    params[...] = m0.params
    grad = np.empty_like(params)  # every step overwrites it
    weights, biases, w_flat = _views(params, _shapes(m0))
    layers = weights, [b[..., None, :] for b in biases], w_flat  # bias rows add to a stack
    grads = _views(grad, _shapes(m0))
    shuffle = cfg.rng.generator()
    lr, l2, size = cfg.learning_rate, cfg.l2, cfg.batch_size
    starts = range(0, n, size)
    losses = np.empty((len(starts), *lead))  # one epoch's batch losses
    history = np.empty((cfg.epochs, *lead))
    diverged = {}  # stack index -> TrainingDivergence
    # overflow here is not an error: it is how divergence is detected
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = shuffle.permutation(n)
            cols = [col[..., perm, :] for col in tgt]
            for k, start in enumerate(starts):
                rows = slice(start, start + size)
                batch_tgt = [col[..., rows, :] for col in cols]
                losses[k] = _oracle_loss_grad(m0.task, layers, X[perm[rows]], batch_tgt, l2, grads)
                grad *= lr
                params -= grad
            # a contiguous row per model: np.mean sums it as it sums one model's list
            by_model = np.ascontiguousarray(losses.T)
            history[epoch] = np.mean(by_model, axis=-1)
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
        layers = [w[r] for w in weights], [b[r] for b in biases]
        return Model(m0.task, *layers, loss_history=history[(slice(None), *r)].tolist())

    return [result(r) for r in np.ndindex(lead)] if lead else result(())


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _outcome(fit, *args):
    """What a training call leaves: per model, the parameter and loss-history
    bits, or the epoch and value bits of its TrainingDivergence."""
    try:
        got = fit(*args)
    except TrainingDivergence as e:
        got = e
    out = []
    for m in got if isinstance(got, list) else [got]:
        if isinstance(m, TrainingDivergence):
            out.append(("diverged", m.epoch, _bits(m.value)))
        else:
            out.append((m.params.tobytes(), [_bits(v) for v in m.loss_history]))
    return out


def _problem(task, R, n, d, c, seed):
    """X and targets for R target sets (one set, unstacked, when R is 0):
    imitation weights from 0 to 1 and every fifth row without a hard weight."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if task == CLASSIFICATION:
        H = np.eye(c)[rng.integers(c, size=n)]
        S = rng.dirichlet(np.ones(c), size=(max(R, 1), n))
    else:
        H, S = rng.normal(size=(n, c)), rng.normal(size=(max(R, 1), n, c))
    lam = np.linspace(0.0, 1.0, max(R, 1))[:, None] if R else np.full((1, 1), 0.5)
    hw, sw = np.repeat(1.0 - lam, n, axis=1), np.repeat(lam, n, axis=1)
    hw[:, ::5] = 0.0
    if not R:
        S, hw, sw = S[0], hw[0], sw[0]
    return X, (H, hw), (S, sw)


CASES = {
    # a stack of 2 linear 50->2 models on 200 rows: the last batch of each epoch has 8
    "linear-stack-2": (CLASSIFICATION, Arch("linear"), 2, 200, 50, 2, 1e-4, 0.1, 20),
    "mlp-784-20-20-10": (CLASSIFICATION, Arch.mlp(20, 20), 0, 100, 784, 10, 1e-4, 0.05, 4),
    # 300 rows: ten batches, so the epoch mean sums pairwise
    "mlp-stack-3": (CLASSIFICATION, Arch.mlp(5, 4), 3, 300, 6, 3, 1e-2, 0.1, 8),
    "regression-stack-3": ("regression", Arch.mlp(5, 4), 3, 45, 6, 3, 1e-2, 0.05, 8),
    "l2-zero": (CLASSIFICATION, Arch.mlp(5), 3, 45, 6, 3, 0.0, 0.1, 8),
    "regression-l2-zero": ("regression", Arch("linear"), 0, 45, 6, 3, 0.0, 0.05, 8),
}


@pytest.mark.parametrize("case", list(CASES))
def test_train_keeps_the_bits_of_the_frozen_step(case):
    task, arch, R, n, d, c, l2, lr, epochs = CASES[case]
    X, hard, soft = _problem(task, R, n, d, c, seed=len(case))
    data = Packed(X, task, hard, soft, range(n))
    m0 = init_model(arch, d, c, task, RngStream(1))
    cfg = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=32, l2=l2, rng=RngStream(2))
    got = _outcome(train, m0, data, cfg)
    assert all(o[0] != "diverged" for o in got)
    assert got == _outcome(_oracle_train, m0, data, cfg)


# a soft weight this large on the middle set overflows its loss to inf, or to nan
DIVERGING = {
    "classification-inf": (CLASSIFICATION, 1e100, 0.05),
    "classification-nan": (CLASSIFICATION, 1e200, 0.05),
    "regression-inf": ("regression", 80.0, 0.5),
    "regression-nan": ("regression", 1e100, 0.5),
}


@pytest.mark.parametrize("case", list(DIVERGING))
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack-3"])
def test_a_diverging_model_fails_with_the_bits_of_the_frozen_step(case, stacked):
    task, soft_weight, lr = DIVERGING[case]
    X, (H, hw), (S, sw) = _problem(task, 3, 45, 6, 3, seed=7)
    sw[1] *= soft_weight
    if not stacked:
        hw, S, sw = hw[1], S[1], sw[1]
    data = Packed(X, task, (H, hw), (S, sw), range(45))
    m0 = init_model(Arch.mlp(5, 4), 6, 3, task, RngStream(1))
    cfg = TrainConfig(learning_rate=lr, epochs=30, batch_size=8, l2=1e-2, rng=RngStream(2))
    got = _outcome(train, m0, data, cfg)
    assert [o[0] == "diverged" for o in got] == ([False, True, False] if stacked else [True])
    value = struct.unpack("<d", got[1 if stacked else 0][2])[0]
    assert np.isnan(value) if case.endswith("nan") else value == np.inf
    assert got == _outcome(_oracle_train, m0, data, cfg)


@pytest.mark.parametrize("task", [CLASSIFICATION, "regression"])
@pytest.mark.parametrize("l2", [0.0, 0.1])
@pytest.mark.parametrize("R", [0, 3], ids=["single", "stack-3"])
def test_loss_and_gradient_keep_the_bits_of_the_frozen_step(task, l2, R):
    X, hard, soft = _problem(task, R, 45, 6, 3, seed=3)
    data = Packed(X, task, hard, soft, range(45))
    m = init_model(Arch.mlp(5, 4), 6, 3, task, RngStream(4))
    got, want = loss(m, data, l2=l2), _oracle_loss(m, data, l2)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert gradient(m, data, l2=l2).tobytes() == _oracle_gradient(m, data, l2).tobytes()
