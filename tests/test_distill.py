import math

import numpy as np
import pytest

from distillery.core import RngStream, one_hot, softmax
from distillery.distill import (
    Dataset,
    DatasetHeader,
    DistillConfig,
    Triplet,
    clean_subset,
    distill_student,
    multitask_views,
    restrict_simplex,
    soft_labels,
    train_teacher,
    universum_soft_labels,
)
from distillery.models import TrainConfig, forward, init_model


def toy_dataset(n=30, seed=0, unlabeled_from=None):
    """x in R^4; x_star = the 2 informative coordinates; y = sign rule."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    Xs = X[:, :2]
    labels = (X[:, 0] + X[:, 1] > 0).astype(int)
    examples = []
    for i in range(n):
        y = one_hot(labels[i], 2)
        if unlabeled_from is not None and i >= unlabeled_from:
            y = None
        examples.append(Triplet(X[i], Xs[i], y))
    return Dataset(DatasetHeader(4, 2, 2), examples)


def small_cfg(seed=0, **kw):
    tc = TrainConfig(learning_rate=0.2, epochs=40, batch_size=10, l2=1e-4, rng=RngStream(seed))
    sc = TrainConfig(learning_rate=0.2, epochs=40, batch_size=10, l2=1e-4, rng=RngStream(seed, 1))
    return DistillConfig(teacher_train=tc, student_train=sc, **kw)


def params(m):
    return m.weights + m.biases


class TestCleanSubset:
    def test_definition_on_triplets(self):
        a = Triplet(x=np.zeros(2), y=one_hot(0, 2))
        b = Triplet(x=np.zeros(2), x_star=np.zeros(1), y=one_hot(1, 2))
        out = clean_subset([a, b], ("x", "x_star", "y"))
        assert out == [b]

    def test_identity_when_complete(self):
        items = [Triplet(np.zeros(2), np.zeros(1), one_hot(0, 2)) for _ in range(3)]
        assert clean_subset(items, ("x", "x_star", "y")) == items

    def test_empty_when_nothing_complete(self):
        items = [Triplet(x=np.zeros(2)), Triplet(y=one_hot(0, 2))]
        assert clean_subset(items, ("x", "x_star", "y")) == []

    def test_idempotent_and_order_preserving(self):
        items = [Triplet(x=np.full(2, i), y=one_hot(i % 2, 2)) for i in range(5)]
        items.insert(2, Triplet(x_star=np.zeros(1)))
        once = clean_subset(items, ("x", "y"))
        assert clean_subset(once, ("x", "y")) == once
        assert [t.x[0] for t in once] == [0, 1, 2, 3, 4]

    def test_positional_tuples(self):
        rows = [(1, None, 3), (1, 2, 3), (None, 2, 3)]
        assert clean_subset(rows, (0, 1)) == [(1, 2, 3)]


class TestTrainTeacher:
    def test_learns_privileged_view(self):
        data = toy_dataset(n=60)
        teacher = train_teacher(data, small_cfg())
        X = np.array([t.x_star for t in data.examples])
        labels = np.array([np.argmax(t.y) for t in data.examples])
        acc = np.mean(np.argmax(forward(teacher, X), axis=1) == labels)
        assert acc >= 0.95

    def test_all_privileged_missing_is_an_error(self):
        data = toy_dataset(n=10)
        for t in data.examples:
            t.x_star = None
        with pytest.raises(ValueError):
            train_teacher(data, small_cfg())

    def test_sequential_steps_leave_teacher_untouched(self):
        data = toy_dataset(n=30)
        cfg = small_cfg()
        t1 = train_teacher(data, cfg)
        distill_student(data, soft_labels(t1, data, cfg.temperature), cfg)
        t2 = train_teacher(data, cfg)
        for a, b in zip(params(t1), params(t2)):
            assert np.array_equal(a, b)


class TestSoftLabels:
    def test_temperature_one_is_plain_softmax(self):
        data = toy_dataset(n=12)
        teacher = train_teacher(data, small_cfg())
        for i, s in soft_labels(teacher, data, 1.0):
            expect = softmax(forward(teacher, data.examples[i].x_star), 1.0)
            np.testing.assert_array_equal(s, expect)

    def test_high_temperature_limit_is_uniform(self):
        data = toy_dataset(n=12)
        teacher = train_teacher(data, small_cfg())
        for _, s in soft_labels(teacher, data, 1e9):
            np.testing.assert_allclose(s, [0.5, 0.5], atol=1e-5)

    def test_zero_teacher_emits_bias_softmax(self):
        data = toy_dataset(n=5)
        teacher = init_model("linear", 2, 2)
        for w in teacher.weights:
            w[:] = 0.0
        teacher.biases[0][:] = [1.0, -1.0]
        for _, s in soft_labels(teacher, data, 2.0):
            np.testing.assert_allclose(s, softmax(np.array([1.0, -1.0]), 2.0), rtol=1e-15)

    def test_covers_unlabeled_examples(self):
        data = toy_dataset(n=20, unlabeled_from=10)
        teacher = train_teacher(data, small_cfg())
        out = soft_labels(teacher, data, 1.0)
        assert len(out) == len(clean_subset(data.examples, ("x_star",))) == 20

    def test_outputs_are_simplex_vectors(self):
        data = toy_dataset(n=20)
        teacher = train_teacher(data, small_cfg())
        for _, s in soft_labels(teacher, data, 5.0):
            assert abs(s.sum() - 1.0) <= 1e-9 and np.all(s >= 0)


class TestDistillStudent:
    def test_lambda_zero_reduces_to_plain_student(self):
        data = toy_dataset(n=30)
        cfg = small_cfg(imitation=0.0)
        teacher = train_teacher(data, cfg)
        soft = soft_labels(teacher, data, cfg.temperature)
        with_soft = distill_student(data, soft, cfg)
        plain = distill_student(data, [], cfg)
        for a, b in zip(params(with_soft), params(plain)):
            assert np.array_equal(a, b)

    def test_pure_imitation_ignores_hard_labels(self):
        data = toy_dataset(n=30)
        cfg = small_cfg(imitation=1.0)
        teacher = train_teacher(data, cfg)
        soft = soft_labels(teacher, data, cfg.temperature)
        ref = distill_student(data, soft, cfg)
        poisoned = Dataset(
            data.header,
            [Triplet(t.x, t.x_star, one_hot(1 - int(np.argmax(t.y)), 2)) for t in data.examples],
        )
        out = distill_student(poisoned, soft, cfg)
        for a, b in zip(params(ref), params(out)):
            assert np.array_equal(a, b)

    def test_unlabeled_weight_zero_drops_unlabeled(self):
        data = toy_dataset(n=30, unlabeled_from=10)
        cfg = small_cfg(imitation=0.5, unlabeled_weight=0.0)
        teacher = train_teacher(data, cfg)
        soft = soft_labels(teacher, data, cfg.temperature)
        labeled_only = [(i, s) for i, s in soft if i < 10]
        a = distill_student(data, soft, cfg)
        b = distill_student(data, labeled_only, small_cfg(imitation=0.5, unlabeled_weight=0.0))
        for wa, wb in zip(params(a), params(b)):
            assert np.array_equal(wa, wb)

    def test_no_usable_examples(self):
        data = toy_dataset(n=5, unlabeled_from=0)  # nothing labeled
        with pytest.raises(ValueError):
            distill_student(data, [], small_cfg(imitation=1.0))

    def test_semi_supervised_uses_soft_only_for_unlabeled(self):
        data = toy_dataset(n=40, unlabeled_from=12)
        cfg = small_cfg(imitation=0.8)
        teacher = train_teacher(data, cfg)
        soft = soft_labels(teacher, data, cfg.temperature)
        student = distill_student(data, soft, cfg)
        X = np.array([t.x for t in data.examples])
        labels = np.array([int(t.x[0] + t.x[1] > 0) for t in data.examples])
        acc = np.mean(np.argmax(forward(student, X), axis=1) == labels)
        assert acc >= 0.8


class TestUniversum:
    def test_hand_renormalization(self):
        # teacher emitting exactly (0.5, 0.3, 0.2): keep {0, 1} -> (0.625, 0.375)
        teacher = init_model("linear", 1, 3)
        teacher.weights[0][:] = 0.0
        teacher.biases[0][:] = np.log([0.5, 0.3, 0.2])
        data = Dataset(DatasetHeader(1, 1, 3), [Triplet(x_star=np.zeros(1))])
        [(_, q)] = universum_soft_labels(teacher, data, 1.0, [0, 1])
        np.testing.assert_allclose(q, [0.625, 0.375], rtol=1e-12)

    def test_full_class_set_is_identity(self):
        p = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(restrict_simplex(p, [0, 1, 2]), p, rtol=1e-15)

    def test_uniform_stays_uniform(self):
        p = np.full(5, 0.2)
        np.testing.assert_allclose(restrict_simplex(p, [1, 3, 4]), [1 / 3] * 3, rtol=1e-15)

    def test_ratios_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.dirichlet(np.ones(6))
            keep = sorted(rng.choice(6, size=3, replace=False))
            q = restrict_simplex(p, keep)
            for a in range(3):
                for b in range(3):
                    assert q[a] * p[keep[b]] == pytest.approx(q[b] * p[keep[a]], rel=1e-12)

    def test_vanishing_mass_is_an_error(self):
        p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            restrict_simplex(p, [1, 2])

    def test_class_set_validation(self):
        teacher = init_model("linear", 1, 3)
        data = Dataset(DatasetHeader(1, 1, 3), [Triplet(x_star=np.zeros(1))])
        with pytest.raises(ValueError):
            universum_soft_labels(teacher, data, 1.0, [])
        with pytest.raises(ValueError):
            universum_soft_labels(teacher, data, 1.0, [0, 3])
        with pytest.raises(ValueError):
            universum_soft_labels(teacher, data, 1.0, [0, 0])

    def test_class_set_accepts_any_iterable(self):
        teacher = init_model("linear", 1, 3)
        data = Dataset(DatasetHeader(1, 1, 3), [Triplet(x_star=np.zeros(1))])
        [(_, q)] = universum_soft_labels(teacher, data, 1.0, (k for k in (0, 2)))
        assert q.shape == (2,)


def multitask_data(n=10, tasks=7, d=21, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=(n, tasks))
    header = DatasetHeader(d, 0, tasks, "regression")
    return Dataset(header, [Triplet(x=X[i], y=Y[i]) for i in range(n)])


class TestMultitaskViews:
    def test_view_shapes(self):
        data = multitask_data()
        view = multitask_views(data, 0)
        assert view.header == DatasetHeader(21, 6, 1, "regression")
        for t in view.examples:
            assert t.x_star.shape == (6,) and t.y.shape == (1,)

    def test_last_task(self):
        data = multitask_data()
        view = multitask_views(data, 6)
        np.testing.assert_array_equal(view.examples[0].x_star, data.examples[0].y[:6])

    def test_partition_round_trip(self):
        data = multitask_data()
        for j in range(7):
            view = multitask_views(data, j)
            for orig, t in zip(data.examples, view.examples):
                rebuilt = np.insert(t.x_star, j, t.y[0])
                np.testing.assert_array_equal(rebuilt, orig.y)

    def test_target_out_of_range(self):
        data = multitask_data()
        with pytest.raises(ValueError):
            multitask_views(data, 7)


class TestDistillConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(temperature=0.0),
            dict(temperature=-1.0),
            dict(temperature=math.inf),
            dict(temperature=math.nan),
            dict(imitation=-0.1),
            dict(imitation=1.5),
            dict(imitation=math.nan),
            dict(unlabeled_weight=-1.0),
            dict(unlabeled_weight=math.nan),
            dict(unlabeled_weight=math.inf),
        ],
    )
    def test_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            DistillConfig(**bad)


class TestDatasetValidation:
    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(DatasetHeader(3, 1, 2), [Triplet(x=np.zeros(2))])

    def test_label_must_be_simplex(self):
        with pytest.raises(ValueError):
            Dataset(DatasetHeader(2, 1, 2), [Triplet(x=np.zeros(2), y=np.array([0.7, 0.7]))])

    def test_empty_triplet_rejected(self):
        with pytest.raises(ValueError):
            Triplet()
