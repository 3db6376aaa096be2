import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize
from scipy.special import logsumexp

from distillery.core import RngStream, one_hot, softmax
from distillery.models import (
    Arch,
    Model,
    Packed,
    TrainConfig,
    TrainingDivergence,
    forward,
    gradient,
    init_model,
    load_model,
    loss,
    model_from_text,
    model_to_text,
    predict_class,
    save_model,
    train,
)


def zero_model(kind, d, c, hidden=(), task="classification"):
    m = init_model(Arch(kind, hidden), d, c, task)
    for w in m.weights:
        w[:] = 0.0
    for b in m.biases:
        b[:] = 0.0
    return m


def pack(rows, task="classification", names=None):
    """Packed of (x, hard, soft, hard_weight, soft_weight) rows, assembled one
    row at a time; None marks an absent target, stored as zeros."""
    n, c = len(rows), next(len(v) for row in rows for v in row[1:3] if v is not None)
    cols = []
    for k in (1, 2):
        targets, weights, present = np.zeros((n, c)), np.zeros(n), np.zeros(n, dtype=bool)
        for i, row in enumerate(rows):
            if row[k] is not None:
                targets[i], present[i] = row[k], True
            weights[i] = row[k + 2]
        cols.append((targets, weights, present))
    X = np.array([row[0] for row in rows], dtype=np.float64)
    return Packed(X, task, *cols, range(n) if names is None else names)


def hard_rows(rng, n, d, c=2):
    """n rows of normal features and a hard one-hot label of weight 1."""
    return [(rng.normal(size=d), one_hot(rng.integers(c), c), None, 1.0, 0.0) for _ in range(n)]


def random_rows(rng, m, n, lam, task="classification"):
    c = m.output_dim
    rows = []
    for _ in range(n):
        x = rng.normal(size=m.input_dim)
        if task == "classification":
            hard = one_hot(rng.integers(c), c)
            soft = rng.dirichlet(np.ones(c))
        else:
            hard = rng.normal(size=c)
            soft = rng.normal(size=c)
        rows.append((x, hard, soft, 1.0 - lam, lam))
    return rows


class TestForward:
    def test_zero_linear(self):
        m = zero_model("linear", 4, 3)
        np.testing.assert_array_equal(forward(m, np.ones(4)), np.zeros(3))

    def test_identity_map(self):
        m = zero_model("linear", 3, 3)
        m.weights[0][:] = np.eye(3)
        e2 = np.zeros(3)
        e2[2] = 1.0
        np.testing.assert_array_equal(forward(m, e2), e2)

    def test_zero_mlp_outputs_bias(self):
        m = zero_model("mlp", 5, 2, hidden=(4, 4))
        m.biases[-1][:] = [0.3, -0.7]
        np.testing.assert_array_equal(forward(m, np.ones(5)), [0.3, -0.7])

    def test_dimension_mismatch(self):
        m = zero_model("linear", 4, 2)
        with pytest.raises(ValueError):
            forward(m, np.ones(5))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(0)
        m = init_model(Arch.mlp(6, 6), 4, 3, rng=RngStream(1))
        X = rng.normal(size=(7, 4))
        batched = forward(m, X)
        for i in range(7):
            # single-row and batched BLAS paths may differ in the last ulp
            np.testing.assert_allclose(batched[i], forward(m, X[i]), rtol=1e-12)


class TestPredictClass:
    def test_argmax(self):
        m = zero_model("linear", 1, 3)
        m.biases[0][:] = [0.1, 0.9, 0.3]
        assert predict_class(m, np.zeros(1)) == 1

    def test_tie_goes_low(self):
        m = zero_model("linear", 1, 2)
        m.biases[0][:] = [0.5, 0.5]
        assert predict_class(m, np.zeros(1)) == 0

    def test_identity_map(self):
        m = zero_model("linear", 3, 3)
        m.weights[0][:] = np.eye(3)
        x = np.zeros(3)
        x[2] = 1.0
        assert predict_class(m, x) == 2

    def test_regression_rejected(self):
        m = zero_model("linear", 2, 1, task="regression")
        with pytest.raises(ValueError):
            predict_class(m, np.zeros(2))


class TestLoss:
    def test_hard_only_is_plain_cross_entropy(self):
        rng = np.random.default_rng(5)
        m = init_model("linear", 3, 2, rng=RngStream(5))
        rows = hard_rows(rng, 6, 3)
        from distillery.core import cross_entropy

        expect = np.mean([cross_entropy(y, forward(m, x)) for x, y, *_ in rows])
        expect += 0.5 * 0.01 * sum(np.sum(w * w) for w in m.weights)
        assert loss(m, pack(rows), l2=0.01) == pytest.approx(expect, rel=1e-12)

    def test_self_prediction_gives_entropy(self):
        # hard target equal to the model's own softmax -> loss is the
        # prediction entropy (oracle: -sum p log p)
        m = init_model("linear", 4, 3, rng=RngStream(8))
        x = np.random.default_rng(2).normal(size=4)
        p = softmax(forward(m, x))
        batch = pack([(x, p, None, 1.0, 0.0)])
        oracle = -float(np.sum(p * np.log(p)))
        assert loss(m, batch) == pytest.approx(oracle, rel=1e-12)

    def test_self_distillation_fixed_point(self):
        # lam = 1 with s_i = sigma(f(x_i)): loss = mean prediction entropy + l2 term
        rng = np.random.default_rng(3)
        m = init_model(Arch.mlp(5), 3, 4, rng=RngStream(3))
        xs = rng.normal(size=(8, 3))
        rows, ents = [], []
        for x in xs:
            p = softmax(forward(m, x))
            rows.append((x, None, p, 0.0, 1.0))
            ents.append(-float(np.sum(p * np.log(p))))
        l2 = 0.05
        expect = np.mean(ents) + 0.5 * l2 * sum(np.sum(w * w) for w in m.weights)
        assert loss(m, pack(rows), l2=l2) == pytest.approx(expect, rel=1e-12)

    def test_linear_in_imitation_weight(self):
        rng = np.random.default_rng(7)
        m = init_model(Arch.mlp(6, 6), 4, 3, rng=RngStream(7))
        base = random_rows(rng, m, 10, lam=0.0)

        def at(lam):
            return loss(m, pack([(x, h, s, 1.0 - lam, lam) for x, h, s, *_ in base]), l2=0.01)

        l0, l1 = at(0.0), at(1.0)
        for lam in (0.25, 0.5, 0.75):
            assert at(lam) == pytest.approx((1 - lam) * l0 + lam * l1, rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="n >= 1"):
            Packed(np.zeros((0, 2)), "classification", *2 * [(np.zeros((0, 2)), [], [])], [])

    def test_only_a_packed_is_accepted(self):
        m = zero_model("linear", 2, 2)
        rows = [(np.zeros(2), one_hot(0, 2), None, 1.0, 0.0)]
        for fn in (loss, gradient):
            with pytest.raises(TypeError, match="expected training data as a Packed, got list"):
                fn(m, rows)
        with pytest.raises(TypeError, match="got list"):
            train(m, rows, TrainConfig(epochs=1, batch_size=1))


def flatten_grad(g):
    return np.concatenate([a.ravel() for a in g.weights + g.biases])


def kink_distance(m, batch):
    """Smallest |preactivation| across all hidden ReLU units and examples."""
    a = batch.X
    dist = np.inf
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w + b
        if i < len(m.weights) - 1:
            dist = min(dist, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        else:
            a = z
    return dist


def fd_gradient(m, batch, T, l2, step=1e-5):
    """Central finite differences over every parameter."""
    grads = []
    for arr_list in (m.weights, m.biases):
        for arr in arr_list:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                up = loss(m, batch, T, l2)
                arr[ix] = orig - step
                down = loss(m, batch, T, l2)
                arr[ix] = orig
                g[ix] = (up - down) / (2 * step)
                it.iternext()
            grads.append(g)
    return np.concatenate([a.ravel() for a in grads])


class TestGradient:
    def test_zero_weights_zero_gradient(self):
        m = init_model("linear", 3, 2, rng=RngStream(1))
        g = gradient(m, pack([(np.ones(3), one_hot(0, 2), one_hot(1, 2), 0.0, 0.0)]), l2=0.0)
        assert flatten_grad(g).max() == 0.0

    def test_l2_only_gradient_is_l2_times_weights(self):
        # Omega = (l2/2) * ||W||^2 over weight matrices, biases excluded
        m = init_model(Arch.mlp(4), 3, 2, rng=RngStream(2))
        g = gradient(m, pack([(np.ones(3), one_hot(0, 2), one_hot(1, 2), 0.0, 0.0)]), l2=0.5)
        for gw, w in zip(g.weights, m.weights):
            np.testing.assert_allclose(gw, 0.5 * w, rtol=1e-15)
        for gb in g.biases:
            np.testing.assert_array_equal(gb, np.zeros_like(gb))

    @pytest.mark.parametrize("lam", [0.0, 1.0, 0.4])
    def test_matches_finite_differences(self, lam):
        # 100 instances total across the three lam parametrizations
        rng = np.random.default_rng(int(lam * 10) + 1)
        cases = 34
        for k in range(cases):
            arch = [Arch("linear"), Arch.mlp(4), Arch.mlp(4, 3)][k % 3]
            task = "regression" if k % 4 == 3 else "classification"
            # redraw any instance whose ReLU preactivations sit within the
            # finite-difference step of a kink (the oracle is invalid there)
            for attempt in range(50):
                m = init_model(arch, 3, 2, task=task, rng=RngStream(1000 + k, attempt))
                batch = pack(random_rows(rng, m, 5, lam, task=task), task)
                if kink_distance(m, batch) > 1e-3:
                    break
            T = 1.0 if task == "regression" else [1.0, 2.5][k % 2]
            l2 = [0.0, 0.1][k % 2]
            ga = flatten_grad(gradient(m, batch, T, l2))
            gf = fd_gradient(m, batch, T, l2)
            err = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-8)
            assert err <= 1e-4, f"case {k}: rel err {err}"


def separable_rows():
    # 2-d, 2 classes, margin 1 around the axis x0 = 0
    rng = np.random.default_rng(12)
    rows = []
    for i in range(20):
        cls = i % 2
        x0 = rng.uniform(1.0, 2.0) * (1 if cls else -1)
        rows.append((np.array([x0, rng.normal()]), one_hot(cls, 2), None, 1.0, 0.0))
    return rows


class TestTrain:
    def test_linearly_separable_reaches_full_accuracy(self):
        rows = separable_rows()
        cfg = TrainConfig(learning_rate=0.5, epochs=300, batch_size=10, l2=0.0, rng=RngStream(0))
        m = train(init_model("linear", 2, 2, rng=RngStream(1)), pack(rows), cfg)
        correct = sum(predict_class(m, x) == int(np.argmax(y)) for x, y, *_ in rows)
        assert correct == 20

    def test_convex_problem_reaches_stationarity(self):
        data = pack(hard_rows(np.random.default_rng(20), 20, 2))
        cfg = TrainConfig(learning_rate=0.5, epochs=4000, batch_size=20, l2=0.1, rng=RngStream(2))
        m = train(init_model("linear", 2, 2, rng=RngStream(3)), data, cfg)
        assert gradient(m, data, l2=0.1).norm() <= 1e-3

    def test_convex_optimum_matches_descent_oracle(self):
        # independent objective implementation + BFGS as the oracle
        rows = hard_rows(np.random.default_rng(20), 20, 2)
        X = np.array([x for x, *_ in rows])
        Y = np.array([y for _, y, *_ in rows])

        def objective(theta):
            W = theta[:4].reshape(2, 2)
            b = theta[4:]
            Z = X @ W + b
            ce = np.mean(logsumexp(Z, axis=1) - np.sum(Y * Z, axis=1))
            return ce + 0.05 * np.sum(W * W)

        oracle = minimize(objective, np.zeros(6), method="BFGS", options={"gtol": 1e-10})
        cfg = TrainConfig(learning_rate=0.5, epochs=4000, batch_size=20, l2=0.1, rng=RngStream(2))
        data = pack(rows)
        m = train(init_model("linear", 2, 2, rng=RngStream(3)), data, cfg)
        assert loss(m, data, l2=0.1) == pytest.approx(oracle.fun, abs=1e-4)

    def test_deterministic(self):
        batch = pack(separable_rows())
        cfg = TrainConfig(epochs=20, batch_size=8, rng=RngStream(9))
        m1 = train(init_model("linear", 2, 2, rng=RngStream(4)), batch, cfg)
        m2 = train(init_model("linear", 2, 2, rng=RngStream(4)), batch, cfg)
        for w1, w2 in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.array_equal(w1, w2)

    def test_doubling_epochs_never_increases_final_loss(self):
        # full-batch descent at a stable learning rate is monotone
        data = pack(hard_rows(np.random.default_rng(31), 16, 3))
        m0 = init_model("linear", 3, 2, rng=RngStream(7))
        prev = None
        for epochs in (10, 20, 40, 80):
            cfg = TrainConfig(learning_rate=0.2, epochs=epochs, batch_size=16, l2=0.01, rng=RngStream(8))
            final = loss(train(m0, data, cfg), data, l2=0.01)
            if prev is not None:
                assert final <= prev + 1e-12
            prev = final

    def test_divergence_carries_epoch(self):
        rng = np.random.default_rng(40)
        rows = [(rng.normal(size=2), np.array([rng.normal()]), None, 1.0, 0.0) for _ in range(8)]
        m0 = init_model("linear", 2, 1, task="regression", rng=RngStream(9))
        cfg = TrainConfig(learning_rate=1e12, epochs=50, batch_size=8, rng=RngStream(10))
        with pytest.raises(TrainingDivergence) as exc:
            train(m0, pack(rows, "regression"), cfg)
        assert isinstance(exc.value.epoch, int)

    def test_non_finite_features_name_the_example(self):
        # a NaN feature is bad input, not a divergence at epoch 0
        rows = separable_rows()
        rows[4] = (np.array([np.nan, 0.0]), *rows[4][1:])
        with pytest.raises(ValueError, match="^example 4: features are not finite"):
            pack(rows)
        names = 10 * np.arange(len(rows))[::-1]
        with pytest.raises(ValueError, match=f"^example {names[4]}: features are not finite"):
            pack(rows, names=names)

    def test_m0_untouched_and_result_owns_its_arrays(self):
        m0 = init_model(Arch.mlp(3, 4), 2, 2, rng=RngStream(13))
        before = [a.copy() for a in m0.weights + m0.biases]
        cfg = TrainConfig(epochs=3, batch_size=8, rng=RngStream(14))
        m = train(m0, pack(separable_rows()), cfg)
        for a, b in zip(m0.weights + m0.biases, before):
            assert np.array_equal(a, b)
        arrays = m.weights + m.biases
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in m0.weights + m0.biases)
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])

    @pytest.mark.parametrize("kind", ["hard", "soft"])
    def test_bad_target_names_the_example(self, kind):
        rows, bad = separable_rows(), np.array([0.6, 0.6])
        x = rows[5][0]
        rows[5] = rows[6] = (x, bad, None, 1.0, 0.0) if kind == "hard" else (x, None, bad, 0.0, 1.0)
        names = 10 * np.arange(len(rows))
        with pytest.raises(ValueError, match=f"^example 50: {kind} target: .*sums to 1.2"):
            pack(rows, names=names)

    def test_batch_size_cannot_exceed_data(self):
        cfg = TrainConfig(batch_size=21)
        with pytest.raises(ValueError, match="batch_size 21 exceeds data size 20"):
            train(init_model("linear", 2, 2), pack(separable_rows()), cfg)

    def test_loss_history_recorded(self):
        cfg = TrainConfig(epochs=30, batch_size=20, learning_rate=0.2, rng=RngStream(11))
        m = train(init_model("linear", 2, 2, rng=RngStream(12)), pack(separable_rows()), cfg)
        assert len(m.loss_history) == 30
        assert m.loss_history[-1] < m.loss_history[0]


def reference_train(m0, data, cfg, T_student=1.0):
    """SGD as `train` ran it before targets were combined once per call, on
    (x, hard, soft, hard_weight, soft_weight) rows.

    Targets are packed into four dense columns; each step gathers all four
    and forms the loss and gradient from them, then applies every update
    after the whole backward pass.  `train` must match it bit for bit.
    """
    c, task = m0.output_dim, m0.task
    n = len(data)
    X = np.asarray([np.asarray(x, dtype=np.float64) for x, *_ in data])
    hard, soft, hw, sw = np.zeros((n, c)), np.zeros((n, c)), np.zeros(n), np.zeros(n)
    for i, (_, h, s, h_weight, s_weight) in enumerate(data):
        if h is not None:
            hard[i], hw[i] = h, h_weight
        if s is not None:
            soft[i], sw[i] = s, s_weight

    def loss_and_grads(m, Xb, hard, soft, hw, sw):
        acts = [Xb]
        for i, (w, b) in enumerate(zip(m.weights, m.biases)):
            z = acts[-1] @ w + b
            acts.append(np.maximum(z, 0.0) if i < len(m.weights) - 1 else z)
        out, k = acts[-1], Xb.shape[0]
        if task == "classification":
            zt = out / T_student
            mx = np.max(zt, axis=1, keepdims=True)
            logp = zt - (mx + np.log(np.sum(np.exp(zt - mx), axis=1, keepdims=True)))
            ce_h = -np.einsum("ij,ij->i", hard, logp)
            ce_s = -np.einsum("ij,ij->i", soft, logp)
            value = float(np.mean(hw * ce_h + sw * ce_s))
            w_tot = hw * np.sum(hard, axis=1) + sw * np.sum(soft, axis=1)
            y = hw[:, None] * hard + sw[:, None] * soft
            g = (np.exp(logp) * w_tot[:, None] - y) / T_student / k
        else:
            dh, ds = out - hard, out - soft
            value = float(np.mean(0.5 * (hw * np.sum(dh * dh, axis=1) + sw * np.sum(ds * ds, axis=1))))
            g = (hw[:, None] * dh + sw[:, None] * ds) / k
        if cfg.l2 != 0.0:
            value += 0.5 * cfg.l2 * sum(float(np.sum(w * w)) for w in m.weights)
        d_w, d_b = [], []
        for i in range(len(m.weights) - 1, -1, -1):
            gw = acts[i].T @ g
            if cfg.l2 != 0.0:
                gw += cfg.l2 * m.weights[i]
            d_w.insert(0, gw)
            d_b.insert(0, np.sum(g, axis=0))
            if i > 0:
                g = (g @ m.weights[i].T) * (acts[i] > 0.0)
        return value, d_w, d_b

    m = m0.copy()
    shuffle = cfg.rng.generator()
    history = []
    for _ in range(cfg.epochs):
        perm = shuffle.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            value, d_w, d_b = loss_and_grads(m, X[idx], hard[idx], soft[idx], hw[idx], sw[idx])
            for w, gw in zip(m.weights, d_w):
                w -= cfg.learning_rate * gw
            for b, gb in zip(m.biases, d_b):
                b -= cfg.learning_rate * gb
            losses.append(value)
        history.append(float(np.mean(losses)))
    m.loss_history = history
    return m


def mixed_data(rng, d, c, n, targets, task):
    """n rows whose targets are all hard, all soft, hard+soft (lambda 0.3),
    or hard+soft with every third row soft-only at weight 0.3 * 2.5."""
    data = []
    for i in range(n):
        x = rng.normal(size=d)
        if task == "classification":
            h, s = one_hot(rng.integers(c), c), rng.dirichlet(np.ones(c))
        else:
            h, s = rng.normal(size=c), rng.normal(size=c)
        if targets == "hard":
            data.append((x, h, None, 1.0, 0.0))
        elif targets == "soft":
            data.append((x, None, s, 0.0, 1.0))
        elif targets == "unlabeled" and i % 3 == 0:
            data.append((x, None, s, 0.0, 0.3 * 2.5))
        else:
            data.append((x, h, s, 0.7, 0.3))
    return data


class TestTrainMatchesReference:
    @pytest.mark.parametrize(
        "arch,task,targets",
        list(itertools.product(["linear", "mlp", "mlp3"], ["classification", "regression"],
                               ["hard", "soft", "mixed", "unlabeled"])),
    )
    def test_bit_identical_weights(self, arch, task, targets):
        rng = np.random.default_rng([ord(ch) for ch in arch + task + targets])
        arch = {"linear": Arch("linear"), "mlp": Arch.mlp(5, 4), "mlp3": Arch.mlp(4, 3, 5)}[arch]
        data = mixed_data(rng, 6, 3, 23, targets, task)  # 23 rows: the last batch is short
        for T, l2 in itertools.product([1.0, 3.0], [0.0, 1e-2]):
            m0 = init_model(arch, 6, 3, task=task, rng=RngStream(int(T), int(l2 * 100)))
            cfg = TrainConfig(learning_rate=0.1, epochs=6, batch_size=5, l2=l2, rng=RngStream(7))
            got = train(m0, pack(data, task), cfg, T_student=T)
            ref = reference_train(m0, data, cfg, T_student=T)
            for a, b in zip(got.weights + got.biases, ref.weights + ref.biases):
                assert np.array_equal(a, b), (T, l2)
            np.testing.assert_allclose(got.loss_history, ref.loss_history, rtol=1e-12, atol=0)


def columns(task="classification"):
    """Packed arguments for 4 hard-labeled rows of weight 1 without soft
    targets, named 0, 10, 20, 30: [X, task, hard, soft, names], as lists."""
    rng = np.random.default_rng(4)
    H = np.eye(2)[[0, 1, 1, 0]] if task == "classification" else rng.normal(size=(4, 2))
    hard = [H, np.ones(4), np.ones(4, bool)]
    soft = [np.zeros((4, 2)), np.zeros(4), np.zeros(4, bool)]
    return [rng.normal(size=(4, 3)), task, hard, soft, 10 * np.arange(4)]


class TestPacked:
    """Each malformed input raises ValueError naming the row by `names`, or the argument."""

    def test_requires_some_target(self):
        args = columns()
        args[2][1][1], args[2][2][1] = 0.0, False
        with pytest.raises(ValueError, match="^example 10: no hard or soft target"):
            Packed(*args)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_absent_target_must_be_unweighted(self, task):
        args = columns(task)
        args[3][1][2] = 0.5
        with pytest.raises(ValueError, match="^example 20: absent soft target has a nonzero"):
            Packed(*args)

    @pytest.mark.parametrize("weight", [-0.1, np.nan, np.inf])
    def test_weight_must_be_finite_and_non_negative(self, weight):
        args = columns()
        args[2][1][3] = weight
        with pytest.raises(ValueError, match="^example 30: hard weight is not finite and >= 0"):
            Packed(*args)

    def test_present_target_may_weigh_zero(self):
        args = columns()
        args[2][1][:] = 0.0
        assert len(Packed(*args)) == 4

    @pytest.mark.parametrize(
        "where,value,message",
        [
            ((2, 0), np.eye(2)[:1], r"^hard targets: shape \(1, 2\), expected \(4, 2\)"),
            ((2, 1), np.ones(1), r"^hard weights: shape \(1,\), expected \(4,\)"),
            ((3, 0), np.zeros((4, 3)), r"^soft targets: shape \(4, 3\), expected \(4, 2\)"),
            ((3, 2), np.zeros(1, bool), r"^soft mask: shape \(1,\), expected \(4,\)"),
            ((2, 2), np.ones(4), "^hard mask: dtype float64, expected bool"),
            ((2, 0), np.ones(4), r"^hard targets: shape \(4,\), expected \(n, c\)"),
            ((0,), np.ones(4), r"^X: shape \(4,\), expected \(n, d\)"),
            ((4,), range(3), "^names has 3 entries for 4 rows"),
        ],
        ids=["targets-of-one-row", "weights-of-one-row", "soft-width", "mask-of-one-row",
             "mask-not-bool", "targets-1d", "X-1d", "names-short"],
    )
    def test_shapes_are_not_broadcast(self, where, value, message):
        args = columns()
        (args[where[0]] if len(where) == 2 else args)[where[-1]] = value
        with pytest.raises(ValueError, match=message):
            Packed(*args)

    def test_regression_target_must_be_finite_where_present(self):
        args = columns("regression")
        args[3][0][:] = np.nan  # absent soft targets: never read
        assert np.array_equal(Packed(*args).targets[1], np.zeros((4, 2)))
        args[2][0][1, 0] = np.inf
        with pytest.raises(ValueError, match="^example 10: hard target is not finite"):
            Packed(*args)

    def test_length_and_fit_to_the_model(self):
        packed = Packed(*columns())
        assert len(packed) == 4
        cfg = TrainConfig(epochs=1, batch_size=4)
        with pytest.raises(ValueError, match=r"expected \(d, c\) = \(3, 3\), got \(3, 2\)"):
            train(init_model("linear", 3, 3), packed, cfg)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        m = init_model(Arch.mlp(5, 4), 7, 3, rng=RngStream(77))
        m.weights[0][0, 0] = math.pi  # irrational value must survive exactly
        path = tmp_path / "model.txt"
        save_model(m, path)
        back = load_model(path)
        assert back.kind == m.kind and back.task == m.task
        for a, b in zip(m.weights + m.biases, back.weights + back.biases):
            assert np.array_equal(a, b)

    def test_text_round_trip(self):
        m = init_model("linear", 2, 2, task="regression", rng=RngStream(78))
        back = model_from_text(model_to_text(m))
        assert (back.kind, back.task) == (m.kind, m.task)
        for a, b in zip(m.weights + m.biases, back.weights + back.biases):
            assert np.array_equal(a, b)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_text_round_trips_any_finite_model_bit_for_bit(self, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        shapes = list(zip(sizes, sizes[1:]))
        weights = [data.draw(arrays(np.float64, shape, elements=finite)) for shape in shapes]
        biases = [data.draw(arrays(np.float64, (c,), elements=finite)) for c in sizes[1:]]
        task = data.draw(st.sampled_from(["classification", "regression"]))
        m = Model("mlp" if len(sizes) > 2 else "linear", task, weights, biases)
        back = model_from_text(model_to_text(m))
        assert (back.kind, back.task) == (m.kind, m.task)
        for a, b in zip(m.weights + m.biases, back.weights + back.biases):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            model_from_text("something else\n")

    def test_truncated_record_names_missing_line(self):
        lines = model_to_text(init_model(Arch.mlp(3), 2, 2, rng=RngStream(5))).splitlines()
        for k in range(1, len(lines)):
            with pytest.raises(ValueError, match=f"line {k + 1} is missing"):
                model_from_text("\n".join(lines[:k]) + "\n")

    def test_misnamed_field_rejected(self):
        text = model_to_text(init_model("linear", 2, 2)).replace("task ", "tusk ")
        with pytest.raises(ValueError, match="'task' at line 3"):
            model_from_text(text)


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(learning_rate=0.0),
            dict(learning_rate=-0.1),
            dict(learning_rate=math.inf),
            dict(learning_rate=math.nan),
            dict(epochs=0),
            dict(batch_size=0),
            dict(l2=-1e-4),
            dict(l2=math.nan),
            dict(l2=math.inf),
            dict(init_scale="uniform"),
            dict(epochs=2.5),
            dict(epochs="3"),
            dict(batch_size=2.5),
            dict(batch_size="3"),
        ],
    )
    def test_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
