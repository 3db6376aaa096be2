import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize
from scipy.special import logsumexp

from distillery.core import RngStream, one_hot, softmax
from distillery.datasets import PIXEL_ROWS, pixel_features
from distillery.models import (
    Arch,
    Model,
    Packed,
    TrainConfig,
    TrainingDivergence,
    forward,
    gradient,
    init_model,
    loss,
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
        targets, weights = np.zeros((n, c)), np.zeros(n)
        for i, row in enumerate(rows):
            if row[k] is not None:
                targets[i] = row[k]
            weights[i] = row[k + 2]
        cols.append((targets, weights))
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


class TestForwardOnPixels:
    """uint8 pixels are read as their `pixel_features`, the first layer in
    `row_blocks`: the bits are those of the features taken whole."""

    B = PIXEL_ROWS

    # a multiple of the block, a ragged count and one below a block; at 10,000
    # rows the later layers round otherwise when they too are taken in blocks
    @pytest.mark.parametrize("n", [2 * B, 10 * B + 100, B // 3])
    @pytest.mark.parametrize("d", [784, 3072])
    @pytest.mark.parametrize("hidden", [(), (20,), (20, 20)], ids=["linear", "mlp20", "mlp20-20"])
    def test_blocked_first_layer_keeps_the_bits(self, n, d, hidden):
        pixels = np.random.default_rng(n).integers(0, 256, (n, d), dtype=np.uint8)
        m = init_model(Arch("mlp", hidden) if hidden else Arch("linear"), d, 10, rng=RngStream(d))
        for b in m.biases:
            b[:] = np.random.default_rng(1).normal(size=b.shape)
        features = pixel_features(pixels)
        assert forward(m, pixels).tobytes() == forward(m, features).tobytes()
        if not hidden:  # the output is the first layer's product plus the bias
            product = features @ m.weights[0]
            product += m.biases[0]
            assert forward(m, pixels).tobytes() == product.tobytes()

    def test_one_image_and_no_images(self):
        m = init_model(Arch.mlp(5), 12, 3, rng=RngStream(2))
        pixels = np.arange(24, dtype=np.uint8).reshape(2, 12) * 10
        assert forward(m, pixels[0]).tobytes() == forward(m, pixel_features(pixels[:1])[0]).tobytes()
        assert forward(m, pixels[:0]).shape == (0, 3)

    def test_packed_holds_pixels_as_their_features(self):
        pixels = np.arange(8, dtype=np.uint8).reshape(4, 2) * 30
        batch = Packed(pixels, "classification", (np.eye(2)[[0, 1, 0, 1]], np.ones(4)),
                       (np.zeros((4, 2)), np.zeros(4)), range(4))
        assert batch.X.tobytes() == pixel_features(pixels).tobytes()


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
            Packed(np.zeros((0, 2)), "classification", *2 * [(np.zeros((0, 2)), [])], [])

    def test_only_a_packed_is_accepted(self):
        m = zero_model("linear", 2, 2)
        rows = [(np.zeros(2), one_hot(0, 2), None, 1.0, 0.0)]
        for fn in (loss, gradient):
            with pytest.raises(TypeError, match="expected training data as a Packed, got list"):
                fn(m, rows)
        with pytest.raises(TypeError, match="got list"):
            train(m, rows, TrainConfig(epochs=1, batch_size=1))


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


def fd_gradient(m, batch, l2, step=1e-5):
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
                up = loss(m, batch, l2=l2)
                arr[ix] = orig - step
                down = loss(m, batch, l2=l2)
                arr[ix] = orig
                g[ix] = (up - down) / (2 * step)
                it.iternext()
            grads.append(g)
    return np.concatenate([a.ravel() for a in grads])


class TestGradient:
    def test_zero_weights_zero_gradient(self):
        m = init_model("linear", 3, 2, rng=RngStream(1))
        g = gradient(m, pack([(np.ones(3), one_hot(0, 2), one_hot(1, 2), 0.0, 0.0)]), l2=0.0)
        assert g.max() == 0.0

    def test_l2_only_gradient_is_l2_times_weights(self):
        # Omega = (l2/2) * ||W||^2 over weight matrices, biases excluded
        m = init_model(Arch.mlp(4), 3, 2, rng=RngStream(2))
        g = gradient(m, pack([(np.ones(3), one_hot(0, 2), one_hot(1, 2), 0.0, 0.0)]), l2=0.5)
        nw = m.w_flat.size
        np.testing.assert_allclose(g[:nw], 0.5 * m.w_flat, rtol=1e-15)
        np.testing.assert_array_equal(g[nw:], np.zeros_like(g[nw:]))

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
            l2 = [0.0, 0.1][k % 2]
            ga = gradient(m, batch, l2=l2)
            gf = fd_gradient(m, batch, l2)
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
        correct = sum(int(np.argmax(forward(m, x))) == int(np.argmax(y)) for x, y, *_ in rows)
        assert correct == 20

    def test_convex_problem_reaches_stationarity(self):
        data = pack(hard_rows(np.random.default_rng(20), 20, 2))
        cfg = TrainConfig(learning_rate=0.5, epochs=4000, batch_size=20, l2=0.1, rng=RngStream(2))
        m = train(init_model("linear", 2, 2, rng=RngStream(3)), data, cfg)
        assert np.linalg.norm(gradient(m, data, l2=0.1)) <= 1e-3

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

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda e: pickle.loads(pickle.dumps(e))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_divergence_copies_and_pickles(self, clone):
        for value in (math.nan, -math.inf):
            error = TrainingDivergence(3, value)
            twin = clone(error)
            assert twin is not error and type(twin) is TrainingDivergence
            assert str(twin) == str(error) == f"non-finite training loss {value!r} at epoch 3"
            assert twin.epoch == 3 and repr(twin.value) == repr(value)

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


def reference_train(m0, data, cfg):
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
            mx = np.max(out, axis=1, keepdims=True)
            logp = out - (mx + np.log(np.sum(np.exp(out - mx), axis=1, keepdims=True)))
            ce_h = -np.einsum("ij,ij->i", hard, logp)
            ce_s = -np.einsum("ij,ij->i", soft, logp)
            value = float(np.mean(hw * ce_h + sw * ce_s))
            w_tot = hw * np.sum(hard, axis=1) + sw * np.sum(soft, axis=1)
            y = hw[:, None] * hard + sw[:, None] * soft
            g = (np.exp(logp) * w_tot[:, None] - y) / k
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
        for l2 in [0.0, 1e-2]:
            m0 = init_model(arch, 6, 3, task=task, rng=RngStream(1, int(l2 * 100)))
            cfg = TrainConfig(learning_rate=0.1, epochs=6, batch_size=5, l2=l2, rng=RngStream(7))
            got = train(m0, pack(data, task), cfg)
            ref = reference_train(m0, data, cfg)
            for a, b in zip(got.weights + got.biases, ref.weights + ref.biases):
                assert np.array_equal(a, b), l2
            np.testing.assert_allclose(got.loss_history, ref.loss_history, rtol=1e-12, atol=0)


def columns(task="classification"):
    """Packed arguments for 4 hard-labeled rows of weight 1 without soft
    targets, named 0, 10, 20, 30: [X, task, hard, soft, names], as lists."""
    rng = np.random.default_rng(4)
    H = np.eye(2)[[0, 1, 1, 0]] if task == "classification" else rng.normal(size=(4, 2))
    hard = [H, np.ones(4)]
    soft = [np.zeros((4, 2)), np.zeros(4)]
    return [rng.normal(size=(4, 3)), task, hard, soft, 10 * np.arange(4)]


def weighted_columns(task, n=12, seed=5):
    """(X, hard targets, soft targets) of n rows with 3 features and c = 2."""
    rng = np.random.default_rng(seed)
    if task == "classification":
        H, S = np.eye(2)[rng.integers(2, size=n)], rng.dirichlet(np.ones(2), size=n)
    else:
        H, S = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    return rng.normal(size=(n, 3)), H, S


class TestPacked:
    """Each malformed input raises ValueError naming the row by `names`, or the argument."""

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
            ((2, 0), np.ones(4), r"^hard targets: shape \(4,\), expected \(n, c\)"),
            ((0,), np.ones(4), r"^X: shape \(4,\), expected \(n, d\)"),
            ((4,), range(3), "^names has 3 entries for 4 rows"),
        ],
        ids=["targets-of-one-row", "weights-of-one-row", "soft-width", "targets-1d", "X-1d",
             "names-short"],
    )
    def test_shapes_are_not_broadcast(self, where, value, message):
        args = columns()
        (args[where[0]] if len(where) == 2 else args)[where[-1]] = value
        with pytest.raises(ValueError, match=message):
            Packed(*args)

    def test_regression_target_must_be_finite_where_present(self):
        args = columns("regression")
        args[3][0][:] = np.nan  # soft targets of weight 0: never read
        assert np.array_equal(Packed(*args).targets[1], np.zeros((4, 2)))
        args[2][0][1, 0] = np.inf
        with pytest.raises(ValueError, match="^example 10: hard target is not finite"):
            Packed(*args)

    @pytest.mark.parametrize("kind", ["hard", "soft"])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_nan_target_at_weight_zero_trains_like_zero(self, task, kind):
        X, H, S = weighted_columns(task)
        weights = {"hard": np.full(12, 0.7), "soft": np.full(12, 0.3)}
        weights[kind][::3] = 0.0

        def trained(fill):
            targets = {"hard": H.copy(), "soft": S.copy()}
            targets[kind][::3] = fill
            data = Packed(X, task, *((targets[k], weights[k]) for k in ("hard", "soft")), range(12))
            m0 = init_model(Arch.mlp(4), 3, 2, task, RngStream(1))
            return train(m0, data, TrainConfig(epochs=3, batch_size=4, rng=RngStream(2)))

        zero, nan = trained(0.0), trained(np.nan)
        assert zero.params.tobytes() == nan.params.tobytes()
        assert zero.loss_history == nan.loss_history

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_a_row_of_weight_zero_is_inert(self, task):
        # its features and targets change nothing; it only counts in the mean's n
        X, H, S = weighted_columns(task)
        hw, sw = np.full(12, 0.7), np.full(12, 0.3)
        hw[5] = sw[5] = 0.0
        m = init_model(Arch.mlp(4), 3, 2, task, RngStream(3))

        def packed(X, H, S):
            return Packed(X, task, (H, hw), (S, sw), range(12))

        base = packed(X, H, S)
        X2, H2, S2 = X.copy(), H.copy(), S.copy()
        X2[5], H2[5], S2[5] = 10.0, np.nan, np.nan
        other = packed(X2, H2, S2)
        assert loss(m, base) == loss(m, other)
        assert gradient(m, base).tobytes() == gradient(m, other).tobytes()
        rest = np.arange(12) != 5
        alone = Packed(X[rest], task, (H[rest], hw[rest]), (S[rest], sw[rest]), range(11))
        assert 12 * loss(m, base) == pytest.approx(11 * loss(m, alone), rel=1e-12)
        np.testing.assert_allclose(12 * gradient(m, base), 11 * gradient(m, alone), rtol=1e-12)

    def test_length_and_fit_to_the_model(self):
        packed = Packed(*columns())
        assert len(packed) == 4
        cfg = TrainConfig(epochs=1, batch_size=4)
        with pytest.raises(ValueError, match=r"expected \(d, c\) = \(3, 3\), got \(3, 2\)"):
            train(init_model("linear", 3, 3), packed, cfg)


def stacked_sets(task, R, n=45, d=6, c=3):
    """X and R target sets on its rows, as Packed's (hard, soft) arguments:
    shared hard targets, per-set soft targets, and imitation weights from
    0 (set 0) to 1 (set R - 1); every fourth row has no hard weight."""
    rng = np.random.default_rng([R, task == "regression"])
    X = rng.normal(size=(n, d))
    if task == "classification":
        H, S = np.eye(c)[rng.integers(c, size=n)], rng.dirichlet(np.ones(c), size=(R, n))
    else:
        H, S = rng.normal(size=(n, c)), rng.normal(size=(R, n, c))
    lam = np.linspace(0.0, 1.0, R)[:, None]
    hw, sw = np.repeat(1.0 - lam, n, axis=1), np.repeat(lam, n, axis=1)
    hw[:, ::4] = 0.0
    return X, (H, hw), (S, sw)


class TestStackedTrain:
    """R target sets on the same rows, trained in one call, give the models
    and loss histories of R calls bit for bit."""

    @pytest.mark.parametrize("R", [1, 2, 25])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("arch", [Arch("linear"), Arch.mlp(5, 4)], ids=["linear", "mlp"])
    def test_one_call_equals_a_call_per_set(self, arch, task, R):
        X, (H, hw), (S, sw) = stacked_sets(task, R)
        m0 = init_model(arch, 6, 3, task, RngStream(1))
        # 45 rows in batches of 5: nine batches, so the epoch mean sums pairwise
        cfg = TrainConfig(learning_rate=0.1, epochs=6, batch_size=5, l2=1e-2, rng=RngStream(7))
        stack = Packed(X, task, (H, hw), (S, sw), range(45))
        assert stack.lead == (R,)
        group = train(m0, stack, cfg)
        assert len(group) == R
        for r, got in enumerate(group):
            alone = train(m0, Packed(X, task, (H, hw[r]), (S[r], sw[r]), range(45)), cfg)
            assert got.params.tobytes() == alone.params.tobytes()
            assert got.loss_history == alone.loss_history

    def test_loss_and_gradient_per_set(self):
        X, (H, hw), (S, sw) = stacked_sets("classification", 3)
        m = init_model(Arch.mlp(4), 6, 3, rng=RngStream(2))
        stack = Packed(X, "classification", (H, hw), (S, sw), range(45))
        values, grads = loss(m, stack, l2=0.1), gradient(m, stack, l2=0.1)
        assert values.shape == (3,) and grads.shape == (3, m.params.size)
        for r in range(3):
            alone = Packed(X, "classification", (H, hw[r]), (S[r], sw[r]), range(45))
            assert values[r] == loss(m, alone, l2=0.1)
            assert grads[r].tobytes() == gradient(m, alone, l2=0.1).tobytes()

    def test_a_diverging_set_fails_as_it_would_alone(self):
        # set 1's soft weight of 80 makes its steps grow until the loss overflows
        X, (H, hw), (S, sw) = stacked_sets("regression", 3)
        sw[1] *= 80.0
        m0 = init_model("linear", 6, 3, "regression", RngStream(1))
        cfg = TrainConfig(learning_rate=0.1, epochs=40, batch_size=5, l2=1e-2, rng=RngStream(7))
        group = train(m0, Packed(X, "regression", (H, hw), (S, sw), range(45)), cfg)
        assert isinstance(group[1], TrainingDivergence) and group[1].epoch > 0
        with pytest.raises(TrainingDivergence) as alone:
            train(m0, Packed(X, "regression", (H, hw[1]), (S[1], sw[1]), range(45)), cfg)
        assert (group[1].epoch, str(group[1])) == (alone.value.epoch, str(alone.value))
        for r in (0, 2):
            other = train(m0, Packed(X, "regression", (H, hw[r]), (S[r], sw[r]), range(45)), cfg)
            assert group[r].params.tobytes() == other.params.tobytes()
            assert group[r].loss_history == other.loss_history

    @pytest.mark.parametrize(
        "hard_w,soft,message",
        [
            ((2, 45), ((45, 3), (3, 45)), r"^soft weights: shape \(3, 45\), expected \(2, 45\)"),
            ((45,), ((2, 45, 3), (45,)), r"^soft targets: shape \(2, 45, 3\), expected \(45, 3\)"),
        ],
        ids=["two-stack-sizes", "stacked-targets-without-stacked-weights"],
    )
    def test_a_stack_has_one_size(self, hard_w, soft, message):
        X, (H, _), _ = stacked_sets("classification", 1)
        soft = (np.full(soft[0], 1.0 / 3), np.ones(soft[1]))
        with pytest.raises(ValueError, match=message):
            Packed(X, "classification", (H, np.ones(hard_w)), soft, range(45))


class TestCopies:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pickle_and_copies_keep_every_bit(self, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        shapes = list(zip(sizes, sizes[1:]))
        weights = [data.draw(arrays(np.float64, shape, elements=finite)) for shape in shapes]
        biases = [data.draw(arrays(np.float64, (c,), elements=finite)) for c in sizes[1:]]
        task = data.draw(st.sampled_from(["classification", "regression"]))
        history = data.draw(st.none() | st.lists(finite, max_size=3))
        m = Model(task, weights, biases, loss_history=history)
        for clone in (lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy):
            back = clone(m)
            assert back is not m and back.task == m.task
            assert [w.shape for w in back.weights] == [w.shape for w in m.weights]
            assert back.params.tobytes() == m.params.tobytes()  # -0.0 included
            assert not np.shares_memory(back.params, m.params)
            assert back.loss_history == m.loss_history
            assert history is None or back.loss_history is not m.loss_history
            for view in [*back.weights, *back.biases, back.w_flat]:
                assert np.shares_memory(view, back.params)


    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol_keeps_every_bit(self, protocol):
        m = init_model(Arch.mlp(5, 4), 7, 3, rng=RngStream(77))
        m.weights[0][0, 0] = math.pi
        m.loss_history = [0.5, 0.25]
        back = pickle.loads(pickle.dumps(m, protocol=protocol))
        assert back == m and back.params.tobytes() == m.params.tobytes()
        assert back.loss_history == [0.5, 0.25] and back.kind == "mlp"

    @pytest.mark.parametrize(
        "value", [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.pi],
        ids=["negative-zero", "least-subnormal", "negative-subnormal", "least-normal", "largest",
             "pi"],
    )
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_an_extreme_value_survives_every_copy(self, task, value):
        m = Model(task, [np.full((2, 3), value), np.ones((3, 1))], [np.zeros(3), np.full(1, value)])
        for back in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert back.task == task
            assert back.weights[0].tobytes() == np.full((2, 3), value).tobytes()
            assert back.biases[1].tobytes() == np.full(1, value).tobytes()

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_trains_like_the_original(self, clone):
        data = pack(hard_rows(np.random.default_rng(8), 12, 3))
        m0 = init_model(Arch.mlp(4), 3, 2, rng=RngStream(9))
        cfg = TrainConfig(epochs=5, batch_size=4, rng=RngStream(10))
        a, b = train(m0, data, cfg), train(clone(m0), data, cfg)
        assert a == b and a.loss_history == b.loss_history


class TestModelValidation:
    @pytest.mark.parametrize("task", ["banana", "Classification", None])
    def test_unknown_task_rejected(self, task):
        with pytest.raises(ValueError, match="^unknown task "):
            Model(task, [np.zeros((2, 2))], [np.zeros(2)])

    @pytest.mark.parametrize("layers,bias_layers", [(0, 0), (2, 1), (1, 2)])
    def test_layer_counts_must_match_and_be_non_empty(self, layers, bias_layers):
        weights, biases = [np.zeros((2, 2))] * layers, [np.zeros(2)] * bias_layers
        with pytest.raises(ValueError, match="^weights/biases layer counts must match"):
            Model("classification", weights, biases)

    @pytest.mark.parametrize(
        "w,b", [((3,), (3,)), ((2, 3), (2,)), ((2, 3), (1, 3)), ((1, 2, 3), (3,))],
        ids=["1-d-weights", "bias-of-fan-in", "2-d-bias", "3-d-weights"],
    )
    @pytest.mark.parametrize("layer", [0, 1])
    def test_inconsistent_layer_shapes_are_named(self, layer, w, b):
        weights, biases = [np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros(2), np.zeros(2)]
        weights[layer], biases[layer] = np.zeros(w), np.zeros(b)
        with pytest.raises(ValueError, match=f"^layer {layer} has inconsistent shapes "):
            Model("classification", weights, biases)

    def test_layers_that_do_not_chain_rejected(self):
        with pytest.raises(ValueError, match="^layer 1 -> 2 dimension mismatch$"):
            Model("regression", [np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((5, 1))],
                  [np.zeros(3), np.zeros(4), np.zeros(1)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["weights", "biases"])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_a_non_finite_parameter_names_its_layer(self, layer, where, value):
        m = init_model(Arch.mlp(3), 2, 2, rng=RngStream(4))
        arrays = {"weights": [w.copy() for w in m.weights], "biases": [b.copy() for b in m.biases]}
        arrays[where][layer].flat[-1] = value
        with pytest.raises(ValueError, match=f"^layer {layer} has non-finite parameters$"):
            Model(m.task, arrays["weights"], arrays["biases"])

    @pytest.mark.parametrize(
        "sizes,kind",
        [((3, 2), "linear"), ((3, 4, 2), "mlp"), ((3, 4, 5, 2), "mlp"), ((1, 1), "linear")],
    )
    def test_kind_and_dimensions_follow_the_layers(self, sizes, kind):
        weights = [np.zeros(shape) for shape in zip(sizes, sizes[1:])]
        m = Model("classification", weights, [np.zeros(c) for c in sizes[1:]])
        assert (m.kind, m.input_dim, m.output_dim) == (kind, sizes[0], sizes[-1])
        assert m.params.size == sum(a * b + b for a, b in zip(sizes, sizes[1:]))


class TestModelEquality:
    def test_copy_is_equal(self):
        m = init_model(Arch.mlp(3), 4, 2, rng=RngStream(3))
        assert m == m.copy()

    def test_loss_history_is_not_compared(self):
        data = pack(hard_rows(np.random.default_rng(0), 8, 4))
        m = train(init_model("linear", 4, 2), data, TrainConfig(epochs=2, batch_size=4))
        assert m.loss_history and m.copy().loss_history is None
        assert m == m.copy()

    @pytest.mark.parametrize("layer", ["weights", "biases"])
    def test_one_ulp_differs(self, layer):
        m = init_model(Arch.mlp(3), 4, 2, rng=RngStream(3))
        other = m.copy()
        a = getattr(other, layer)[1]
        a.flat[0] = np.nextafter(a.flat[0], np.inf)
        assert m != other and other != m

    def test_task_and_layers_compared(self):
        m = init_model("linear", 4, 2, rng=RngStream(3))
        assert m != Model("regression", m.weights, m.biases)
        assert m != init_model(Arch.mlp(3), 4, 2, rng=RngStream(3))
        assert m != "a model"
        # the same 6 parameter values laid out as different layer shapes
        a = Model("classification", [np.zeros((1, 3))], [np.zeros(3)])
        b = Model("classification", [np.zeros((2, 2))], [np.zeros(2)])
        assert np.array_equal(a.params, b.params) and a != b

    def test_params_is_one_copied_buffer_under_the_layer_views(self):
        weights = [np.arange(12.0).reshape(3, 4), np.arange(8.0).reshape(4, 2)]
        biases = [np.arange(4.0), np.arange(2.0)]
        m = Model("classification", weights, biases)
        expected = m.copy()
        for a in weights + biases:
            a += 100.0
        assert m == expected
        for c in (m, copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert c == expected
            for view in [*c.weights, *c.biases, c.w_flat]:
                assert np.shares_memory(view, c.params)
        np.testing.assert_array_equal(
            m.params, np.concatenate([a.ravel() - 100.0 for a in weights + biases])
        )


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
            dict(epochs=2.5),
            dict(epochs="3"),
            dict(batch_size=2.5),
            dict(batch_size="3"),
            dict(epochs=True),
            dict(learning_rate="0.1"),
            dict(learning_rate=True),
            dict(l2=np.bool_(False)),
            dict(l2="0"),
        ],
    )
    def test_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_numbers_stored_as_python_numbers(self):
        cfg = TrainConfig(learning_rate=np.float32(0.1), epochs=np.int64(3),
                          batch_size=np.uint8(4), l2=0)
        assert (cfg.learning_rate, cfg.epochs, cfg.batch_size, cfg.l2) == (
            float(np.float32(0.1)), 3, 4, 0.0)
        assert [type(v) for v in (cfg.learning_rate, cfg.epochs, cfg.batch_size, cfg.l2)] == [
            float, int, int, float]


class TestInitModel:
    @pytest.mark.parametrize(
        "sizes,name", [((0, 2), "d"), ((3, 0), "c"), ((2.0, 2), "d"), ((3, True), "c")]
    )
    def test_sizes_checked(self, sizes, name):
        # d = 0 divided by zero in the fan-in scale, and c = 0 built a model with no outputs
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
            init_model("linear", *sizes)


class TestArchValidation:
    @pytest.mark.parametrize("hidden", [(0,), (-3,), (4, 0), (2.5,), ("3",)])
    def test_bad_hidden_size_rejected(self, hidden):
        with pytest.raises(ValueError, match="^hidden size must be an integer >= 1"):
            Arch("mlp", hidden)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("hidden", [5, None, "20"])
    def test_hidden_that_is_not_a_sequence_rejected(self, kind, hidden):
        # an int, or None for linear, raised TypeError: the object is not iterable
        with pytest.raises(ValueError, match=f"^hidden must be a sequence of sizes, got {hidden!r}$"):
            Arch(kind, hidden)

    def test_mlp_shorthand_does_not_truncate(self):
        with pytest.raises(ValueError, match="^hidden size must be an integer >= 1, got 2.5"):
            Arch.mlp(2.5)
        hidden = Arch.mlp(np.int64(4), 2).hidden
        assert hidden == (4, 2) and all(type(h) is int for h in hidden)
