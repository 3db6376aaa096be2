import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from distillery.core import RngStream, one_hot, softmax
from distillery.models import (
    Arch,
    TrainConfig,
    TrainingDivergence,
    WeightedTarget,
    forward,
    gradient,
    hard_target,
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


def random_batch(rng, m, n, lam, task="classification"):
    c = m.output_dim
    batch = []
    for _ in range(n):
        x = rng.normal(size=m.input_dim)
        if task == "classification":
            hard = one_hot(rng.integers(c), c)
            soft = rng.dirichlet(np.ones(c))
        else:
            hard = rng.normal(size=c)
            soft = rng.normal(size=c)
        batch.append((x, WeightedTarget(hard, soft, 1.0 - lam, lam)))
    return batch


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
        batch = [(rng.normal(size=3), hard_target(one_hot(rng.integers(2), 2))) for _ in range(6)]
        from distillery.core import cross_entropy

        expect = np.mean([cross_entropy(t.hard, forward(m, x)) for x, t in batch])
        expect += 0.5 * 0.01 * sum(np.sum(w * w) for w in m.weights)
        assert loss(m, batch, l2=0.01) == pytest.approx(expect, rel=1e-12)

    def test_self_prediction_gives_entropy(self):
        # hard target equal to the model's own softmax -> loss is the
        # prediction entropy (oracle: -sum p log p)
        m = init_model("linear", 4, 3, rng=RngStream(8))
        x = np.random.default_rng(2).normal(size=4)
        p = softmax(forward(m, x))
        batch = [(x, WeightedTarget(hard=p, hard_weight=1.0))]
        oracle = -float(np.sum(p * np.log(p)))
        assert loss(m, batch) == pytest.approx(oracle, rel=1e-12)

    def test_self_distillation_fixed_point(self):
        # lam = 1 with s_i = sigma(f(x_i)): loss = mean prediction entropy + l2 term
        rng = np.random.default_rng(3)
        m = init_model(Arch.mlp(5), 3, 4, rng=RngStream(3))
        xs = rng.normal(size=(8, 3))
        batch, ents = [], []
        for x in xs:
            p = softmax(forward(m, x))
            batch.append((x, WeightedTarget(soft=p, soft_weight=1.0)))
            ents.append(-float(np.sum(p * np.log(p))))
        l2 = 0.05
        expect = np.mean(ents) + 0.5 * l2 * sum(np.sum(w * w) for w in m.weights)
        assert loss(m, batch, l2=l2) == pytest.approx(expect, rel=1e-12)

    def test_linear_in_imitation_weight(self):
        rng = np.random.default_rng(7)
        m = init_model(Arch.mlp(6, 6), 4, 3, rng=RngStream(7))
        base = random_batch(rng, m, 10, lam=0.0)

        def at(lam):
            b = [(x, WeightedTarget(t.hard, t.soft, 1.0 - lam, lam)) for x, t in base]
            return loss(m, b, l2=0.01)

        l0, l1 = at(0.0), at(1.0)
        for lam in (0.25, 0.5, 0.75):
            assert at(lam) == pytest.approx((1 - lam) * l0 + lam * l1, rel=1e-12)

    def test_empty_batch(self):
        m = zero_model("linear", 2, 2)
        with pytest.raises(ValueError):
            loss(m, [])


def flatten_grad(g):
    return np.concatenate([a.ravel() for a in g.weights + g.biases])


def kink_distance(m, batch):
    """Smallest |preactivation| across all hidden ReLU units and examples."""
    X = np.array([x for x, _ in batch])
    a = X
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
        x = np.ones(3)
        t = WeightedTarget(one_hot(0, 2), one_hot(1, 2), 0.0, 0.0)
        g = gradient(m, [(x, t)], l2=0.0)
        assert flatten_grad(g).max() == 0.0

    def test_l2_only_gradient_is_l2_times_weights(self):
        # Omega = (l2/2) * ||W||^2 over weight matrices, biases excluded
        m = init_model(Arch.mlp(4), 3, 2, rng=RngStream(2))
        t = WeightedTarget(one_hot(0, 2), one_hot(1, 2), 0.0, 0.0)
        g = gradient(m, [(np.ones(3), t)], l2=0.5)
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
                batch = random_batch(rng, m, 5, lam, task=task)
                if kink_distance(m, batch) > 1e-3:
                    break
            T = 1.0 if task == "regression" else [1.0, 2.5][k % 2]
            l2 = [0.0, 0.1][k % 2]
            ga = flatten_grad(gradient(m, batch, T, l2))
            gf = fd_gradient(m, batch, T, l2)
            err = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-8)
            assert err <= 1e-4, f"case {k}: rel err {err}"


def separable_batch():
    # 2-d, 2 classes, margin 1 around the axis x0 = 0
    rng = np.random.default_rng(12)
    batch = []
    for i in range(20):
        cls = i % 2
        x0 = rng.uniform(1.0, 2.0) * (1 if cls else -1)
        batch.append((np.array([x0, rng.normal()]), hard_target(one_hot(cls, 2))))
    return batch


class TestTrain:
    def test_linearly_separable_reaches_full_accuracy(self):
        batch = separable_batch()
        cfg = TrainConfig(learning_rate=0.5, epochs=300, batch_size=10, l2=0.0, rng=RngStream(0))
        m = train(init_model("linear", 2, 2, rng=RngStream(1)), batch, cfg)
        correct = sum(predict_class(m, x) == int(np.argmax(t.hard)) for x, t in batch)
        assert correct == 20

    def test_convex_problem_reaches_stationarity(self):
        rng = np.random.default_rng(20)
        data = [(rng.normal(size=2), hard_target(one_hot(rng.integers(2), 2))) for _ in range(20)]
        cfg = TrainConfig(learning_rate=0.5, epochs=4000, batch_size=20, l2=0.1, rng=RngStream(2))
        m = train(init_model("linear", 2, 2, rng=RngStream(3)), data, cfg)
        assert gradient(m, data, l2=0.1).norm() <= 1e-3

    def test_convex_optimum_matches_descent_oracle(self):
        # independent objective implementation + BFGS as the oracle
        rng = np.random.default_rng(20)
        data = [(rng.normal(size=2), hard_target(one_hot(rng.integers(2), 2))) for _ in range(20)]
        X = np.array([x for x, _ in data])
        Y = np.array([t.hard for _, t in data])

        def objective(theta):
            W = theta[:4].reshape(2, 2)
            b = theta[4:]
            Z = X @ W + b
            ce = np.mean(logsumexp(Z, axis=1) - np.sum(Y * Z, axis=1))
            return ce + 0.05 * np.sum(W * W)

        oracle = minimize(objective, np.zeros(6), method="BFGS", options={"gtol": 1e-10})
        cfg = TrainConfig(learning_rate=0.5, epochs=4000, batch_size=20, l2=0.1, rng=RngStream(2))
        m = train(init_model("linear", 2, 2, rng=RngStream(3)), data, cfg)
        assert loss(m, data, l2=0.1) == pytest.approx(oracle.fun, abs=1e-4)

    def test_deterministic(self):
        batch = separable_batch()
        cfg = TrainConfig(epochs=20, batch_size=8, rng=RngStream(9))
        m1 = train(init_model("linear", 2, 2, rng=RngStream(4)), batch, cfg)
        m2 = train(init_model("linear", 2, 2, rng=RngStream(4)), batch, cfg)
        for w1, w2 in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.array_equal(w1, w2)

    def test_invariant_to_example_order_given_ids(self):
        batch = separable_batch()
        ids = list(range(len(batch)))
        cfg = TrainConfig(epochs=15, batch_size=8, rng=RngStream(5))
        m0 = init_model("linear", 2, 2, rng=RngStream(6))
        ref = train(m0, batch, cfg, ids=ids)
        perm = np.random.default_rng(1).permutation(len(batch))
        shuffled = [batch[i] for i in perm]
        out = train(m0, shuffled, cfg, ids=[ids[i] for i in perm])
        for w1, w2 in zip(ref.weights + ref.biases, out.weights + out.biases):
            assert np.array_equal(w1, w2)
        assert loss(ref, batch) == loss(out, batch)

    def test_doubling_epochs_never_increases_final_loss(self):
        # full-batch descent at a stable learning rate is monotone
        rng = np.random.default_rng(31)
        data = [(rng.normal(size=3), hard_target(one_hot(rng.integers(2), 2))) for _ in range(16)]
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
        data = [(rng.normal(size=2), hard_target(np.array([rng.normal()]))) for _ in range(8)]
        m0 = init_model("linear", 2, 1, task="regression", rng=RngStream(9))
        cfg = TrainConfig(learning_rate=1e12, epochs=50, batch_size=8, rng=RngStream(10))
        with pytest.raises(TrainingDivergence) as exc:
            train(m0, data, cfg)
        assert isinstance(exc.value.epoch, int)

    def test_batch_size_cannot_exceed_data(self):
        batch = separable_batch()
        cfg = TrainConfig(batch_size=21)
        with pytest.raises(ValueError):
            train(init_model("linear", 2, 2), batch, cfg)

    def test_loss_history_recorded(self):
        batch = separable_batch()
        cfg = TrainConfig(epochs=30, batch_size=20, learning_rate=0.2, rng=RngStream(11))
        m = train(init_model("linear", 2, 2, rng=RngStream(12)), batch, cfg)
        assert len(m.loss_history) == 30
        assert m.loss_history[-1] < m.loss_history[0]


class TestWeightedTarget:
    def test_requires_some_target(self):
        with pytest.raises(ValueError):
            WeightedTarget()

    def test_absent_target_must_be_unweighted(self):
        with pytest.raises(ValueError):
            WeightedTarget(hard=one_hot(0, 2), hard_weight=0.5, soft_weight=0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedTarget(hard=one_hot(0, 2), hard_weight=-0.1)


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
        ],
    )
    def test_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
