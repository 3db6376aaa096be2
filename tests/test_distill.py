import itertools
import math
from dataclasses import replace

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
from distillery.models import Packed, TrainConfig, forward, init_model, train


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


def toy_columns(n=30):
    """The header and the x, x_star and y columns of toy_dataset(n), to edit."""
    data = toy_dataset(n=n)
    cols = {v: np.array([getattr(t, v) for t in data.examples]) for v in ("x", "x_star", "y")}
    return data.header, cols


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
        data = Dataset(data.header, [Triplet(t.x, None, t.y) for t in data.examples])
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
        # also with soft-only (unlabeled) rows, any unlabeled_weight and any T
        for unlabeled_from, unlabeled_weight, T in [(None, 1.0, 1.0), (20, 2.5, 3.0)]:
            data = toy_dataset(n=30, unlabeled_from=unlabeled_from)
            cfg = small_cfg(imitation=0.0, temperature=T, unlabeled_weight=unlabeled_weight)
            teacher = train_teacher(data, cfg)
            soft = soft_labels(teacher, data, cfg.temperature)
            with_soft = distill_student(data, soft, cfg)
            plain = distill_student(data, [], small_cfg(imitation=0.0))
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

    def test_bad_soft_label_names_the_example(self):
        data = toy_dataset(n=30)
        cfg = small_cfg(imitation=0.5)
        soft = soft_labels(train_teacher(data, cfg), data, cfg.temperature)
        soft[17] = (soft[17][0], np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match=f"^example {soft[17][0]}: soft target: .*sums to 0.9"):
            distill_student(data, soft, cfg)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda soft: soft + [(30, soft[0][1])], "soft label id 30 is outside"),
            (lambda soft: soft + [(-1, soft[0][1])], "soft label id -1 is outside"),
            (lambda soft: soft + [(7, soft[0][1])], "soft label id 7 is listed more than once"),
            (lambda soft: soft + [(2.0, soft[0][1])], "soft label ids must be integers"),
            (lambda soft: soft[:4] + [(4, np.ones(3) / 3)], r"^example 4: soft target has shape"),
        ],
        ids=["past-the-end", "negative", "repeated", "float", "bad-shape"],
    )
    def test_bad_soft_ids_and_shapes_rejected(self, edit, message):
        data = toy_dataset(n=30)
        cfg = small_cfg(imitation=0.5)
        soft = soft_labels(train_teacher(data, cfg), data, cfg.temperature)
        with pytest.raises(ValueError, match=message):
            distill_student(data, edit(soft), cfg)

    def test_soft_labels_of_rows_without_x_are_ignored(self):
        data = toy_dataset(n=30)
        has_x = np.arange(30) % 4 != 1
        header, cols = toy_columns(30)
        part = Dataset.from_arrays(header, **cols, present={"x": has_x})
        cfg = small_cfg(imitation=0.5)
        soft = soft_labels(train_teacher(data, cfg), data, cfg.temperature)
        kept = [(i, s) for i, s in soft if has_x[i]]
        assert_same_bits(distill_student(part, soft, cfg), distill_student(part, kept, cfg))

    def test_non_finite_features_name_the_example(self):
        header, cols = toy_columns(30)
        cols["x"][13, 2] = np.nan
        with pytest.raises(ValueError, match="^example 13: features are not finite"):
            distill_student(Dataset.from_arrays(header, **cols), [], small_cfg(imitation=0.0))

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
        # the first bad row is named, with check_simplex's reason
        for bad, message in [
            ([0.7, 0.7], "sums to 1.4"),
            ([1.5, -0.5], "finite and >= 0"),
            ([np.nan, 1.0], "finite and >= 0"),
            ([np.inf, 0.0], "finite and >= 0"),
            ([0.5, 0.5 + 2e-9], "not 1"),
        ]:
            ys = [one_hot(0, 2), None, one_hot(1, 2), np.array(bad), np.array(bad)]
            with pytest.raises(ValueError, match=f"^example 3: .*{message}"):
                Dataset(DatasetHeader(2, 1, 2), [Triplet(x=np.zeros(2), y=y) for y in ys])

    @pytest.mark.parametrize("build", ["rows", "from_arrays"])
    def test_regression_label_must_be_finite(self, build):
        header, y = DatasetHeader(2, 1, 1, "regression"), np.arange(10.0)[:, None]
        y[3], y[5] = np.nan, np.inf
        with pytest.raises(ValueError, match="^example 3: label is not finite"):
            if build == "rows":
                Dataset(header, [Triplet(x=np.zeros(2), y=row) for row in y])
            else:
                Dataset.from_arrays(header, x=np.zeros((10, 2)), y=y)

    def test_label_within_tolerance_accepted(self):
        Dataset(DatasetHeader(2, 1, 2), [Triplet(y=np.array([0.5, 0.5 + 5e-10]))])
        Dataset(DatasetHeader(2, 1, 2, "regression"), [Triplet(y=np.array([0.7, 0.7]))])

    def test_empty_triplet_rejected(self):
        with pytest.raises(ValueError):
            Triplet()


class TestColumns:
    def test_from_arrays_columns_are_the_inputs(self):
        rng = np.random.default_rng(4)
        X, Xs, Y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2)), np.eye(2)[[0, 1, 1, 0, 1, 0]]
        ds = Dataset.from_arrays(DatasetHeader(3, 2, 2), x=X, x_star=Xs, y=Y)
        for view, a in (("x", X), ("x_star", Xs), ("y", Y)):
            assert np.shares_memory(ds.column(view), a)
            assert ds.column(view).base is ds.column(view).base  # stacked once
            rows = np.asarray([getattr(t, view) for t in ds.examples])
            np.testing.assert_array_equal(ds.column(view), rows)

    def test_from_arrays_rejects_missing_or_ragged_columns(self):
        with pytest.raises(ValueError, match="one length"):
            Dataset.from_arrays(DatasetHeader(2, 1, 2))
        with pytest.raises(ValueError, match="one length"):
            Dataset.from_arrays(DatasetHeader(2, 1, 2), x=np.zeros((3, 2)), y=np.eye(2))

    def test_triplet_columns_are_the_stacked_rows(self):
        triplets = toy_dataset(n=12).examples
        data = Dataset(DatasetHeader(4, 2, 2), triplets)
        for view in ("x", "x_star", "y"):
            rows = np.asarray([getattr(t, view) for t in data.examples])
            assert np.array_equal(data.column(view), rows)
            assert not np.shares_memory(data.column(view), getattr(triplets[0], view))

    def test_columns_are_read_only(self):
        X = np.arange(6.0).reshape(3, 2)
        built = Dataset.from_arrays(DatasetHeader(2, 0, 2), x=X)
        for ds, view in ((built, "x"), (toy_dataset(n=5), "x_star")):
            col = ds.column(view)
            with pytest.raises(ValueError, match="read-only"):
                col -= 1.0
            np.testing.assert_array_equal(ds.column(view), col)
        assert X.flags.writeable  # the caller's own array is left writable

    def test_zero_rows_keep_the_header_widths(self):
        header = DatasetHeader(3, 2, 2)
        for ds in (Dataset(header, []), Dataset.from_arrays(header, x=np.empty((0, 3)))):
            assert len(ds) == 0 and ds.examples == ()
            assert ds.column("x").shape == (0, 3)

    def test_from_arrays_builds_no_triplet(self, monkeypatch):
        built, init = [], Triplet.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Triplet, "__init__", counted)
        n, rng = 10_000, np.random.default_rng(6)
        ds = Dataset.from_arrays(
            DatasetHeader(3, 2, 2), rng.normal(size=(n, 3)), rng.normal(size=(n, 2)),
            np.eye(2)[rng.integers(0, 2, n)],
        )
        assert len(ds) == n and built == []
        assert len(ds.examples) == len(built) == n  # the count does see Triplets

    def test_example_rows_are_the_column_rows(self):
        rows = toy_dataset(n=9, unlabeled_from=6)
        X, Xs = rows.column("x"), rows.column("x_star")
        Y = np.eye(2)[[int(t.x[0] + t.x[1] > 0) for t in rows.examples]]
        built = Dataset.from_arrays(rows.header, X, Xs, Y, present={"y": np.arange(9) < 6})
        for ds in (rows, built):
            examples = ds.examples
            for view, col in (("x", X), ("x_star", Xs)):
                rows = [getattr(t, view) for t in examples]
                np.testing.assert_array_equal(rows, col)
                np.testing.assert_array_equal(rows, ds.column(view))
            assert [t.y is None for t in examples] == [False] * 6 + [True] * 3
            np.testing.assert_array_equal([t.y for t in examples[:6]], Y[:6])
            with pytest.raises(ValueError, match="read-only"):
                examples[0].x[0] = 1.0

    def test_from_arrays_checks_present_labels_only(self):
        header, X = DatasetHeader(2, 0, 2), np.zeros((3, 2))
        Y = np.array([[1.0, 0.0], [np.nan, 7.0], [0.7, 0.7]])
        with pytest.raises(ValueError, match="^example 2: .*sums to 1.4"):
            Dataset.from_arrays(header, x=X, y=Y, present={"y": np.array([True, False, True])})
        ds = Dataset.from_arrays(header, x=X, y=Y, present={"y": np.array([True, False, False])})
        assert [t.y is None for t in ds.examples] == [False, True, True]
        with pytest.raises(ValueError, match="example 1 has no y"):
            ds.column("y")
        with pytest.raises(ValueError, match=r"mask of y has shape \(2,\)"):
            Dataset.from_arrays(header, x=X, y=Y, present={"y": np.ones(2, dtype=bool)})

    def test_from_arrays_rejects_a_width_off_the_header(self):
        header, X = DatasetHeader(3, 2, 2), np.zeros((4, 3))
        with pytest.raises(ValueError, match=r"x_star has shape \(4, 3\), header says \(4, 2\)"):
            Dataset.from_arrays(header, x=X, x_star=X)

    def test_missing_field_names_the_example(self):
        data = toy_dataset(n=8, unlabeled_from=5)
        with pytest.raises(ValueError, match="example 5 has no y"):
            data.column("y")
        with pytest.raises(ValueError, match="unknown view"):
            data.column("z")


def pack_rows(rows, c, task):
    """Packed of (x, hard, soft, hard_weight, soft_weight) rows, assembled one
    row at a time; None marks an absent target, stored as zeros."""
    n = len(rows)
    cols = []
    for k in (1, 2):
        targets, weights, present = np.zeros((n, c)), np.zeros(n), np.zeros(n, dtype=bool)
        for i, row in enumerate(rows):
            if row[k] is not None:
                targets[i], present[i] = row[k], True
            weights[i] = row[k + 2]
        cols.append((targets, weights, present))
    return Packed(np.array([row[0] for row in rows]), task, *cols, range(n))


def reference_teacher(data, cfg):
    """train_teacher as (x_star, y) rows, one per example with both."""
    rows = [(t.x_star, t.y, None, 1.0, 0.0) for t in data.examples
            if t.x_star is not None and t.y is not None]
    h, rng = data.header, cfg.teacher_train.rng
    m0 = init_model(cfg.teacher_arch, h.d_star, h.c, h.task, rng.fork("init"))
    batch = pack_rows(rows, h.c, h.task)
    return train(m0, batch, replace(cfg.teacher_train, rng=rng.fork("shuffle")))


def reference_student(data, soft, cfg):
    """distill_student as (x, hard, soft, weights) rows, one per usable example."""
    soft, lam, rows = dict(soft), cfg.imitation, []
    for i, t in enumerate(data.examples):
        s = soft.get(i)
        hard_w = 0.0 if t.y is None else 1.0 - lam
        soft_w = 0.0 if s is None else lam if t.y is not None else lam * cfg.unlabeled_weight
        if t.x is not None and (hard_w != 0.0 or soft_w != 0.0):
            rows.append((t.x, t.y, s, hard_w, soft_w))
    h, rng = data.header, cfg.student_train.rng
    T = cfg.temperature if cfg.match_teacher_temperature and h.task == "classification" else 1.0
    m0 = init_model(cfg.student_arch, h.d, h.c, h.task, rng.fork("init"))
    batch = pack_rows(rows, h.c, h.task)
    return train(m0, batch, replace(cfg.student_train, rng=rng.fork("shuffle")), T)


def assert_same_bits(a, b):
    for wa, wb in zip(params(a), params(b)):
        assert np.array_equal(wa, wb)
    assert a.loss_history == b.loss_history


def gappy_dataset(n=40, stored=0.0):
    """toy_dataset with rows 24.. unlabeled, every 7th row without x and
    every 5th without x_star; `stored` fills the absent cells."""
    header, cols = toy_columns(n)
    present = {"x": np.arange(n) % 7 != 3, "x_star": np.arange(n) % 5 != 2, "y": np.arange(n) < 24}
    for view, mask in present.items():
        cols[view][~mask] = stored
    return Dataset.from_arrays(header, **cols, present=present)


class TestColumnsTrainAsRows:
    """train_teacher and distill_student equal `train` on the per-row list bit for bit."""

    @pytest.mark.parametrize(
        "lam,unlabeled_weight", list(itertools.product([0.0, 0.5, 1.0], [0.0, 2.5]))
    )
    def test_classification(self, lam, unlabeled_weight):
        data = gappy_dataset()
        cfg = small_cfg(imitation=lam, temperature=2.0, unlabeled_weight=unlabeled_weight)
        teacher = train_teacher(data, cfg)
        assert_same_bits(teacher, reference_teacher(data, cfg))
        soft = soft_labels(teacher, data, cfg.temperature)
        for c in (cfg, replace(cfg, match_teacher_temperature=True)):
            assert_same_bits(distill_student(data, soft, c), reference_student(data, soft, c))

    def test_regression_view(self):
        data = multitask_views(multitask_data(n=30), 2)
        cfg = small_cfg(imitation=0.5)
        teacher = train_teacher(data, cfg)
        assert_same_bits(teacher, reference_teacher(data, cfg))
        soft = soft_labels(teacher, data, 1.0)
        assert_same_bits(distill_student(data, soft, cfg), reference_student(data, soft, cfg))

    def test_nan_under_an_absent_mask_is_never_read(self):
        clean, dirty = gappy_dataset(), gappy_dataset(stored=np.nan)
        cfg = small_cfg(imitation=0.5, unlabeled_weight=2.5)
        teacher = train_teacher(dirty, cfg)
        assert_same_bits(teacher, train_teacher(clean, cfg))
        soft = soft_labels(teacher, dirty, cfg.temperature)
        assert_same_bits(distill_student(dirty, soft, cfg), distill_student(clean, soft, cfg))
