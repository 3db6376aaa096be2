import concurrent.futures
import itertools
import math
import re
import sys
import traceback
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from distillery import distill
from distillery.core import RngStream, one_hot, softmax
from distillery.distill import (
    Dataset,
    DatasetHeader,
    DistillConfig,
    Triplet,
    clean_subset,
    distill_student,
    distill_students,
    multitask_views,
    restrict_simplex,
    soft_labels,
    train_teacher,
    universum_soft_labels,
)
from distillery.models import (
    Arch,
    Packed,
    TrainConfig,
    TrainingDivergence,
    forward,
    init_model,
    train,
)


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


NO_TEACHER_ROWS = "no examples with both privileged features and a label"


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
        with pytest.raises(ValueError, match=f"^{NO_TEACHER_ROWS}$"):
            train_teacher(data, small_cfg())

    def test_rows_with_privileged_features_but_no_label_are_an_error(self):
        # every row has x_star, and the labeled ones lack it
        header, cols = toy_columns(10)
        present = {"x_star": np.arange(10) >= 5, "y": np.arange(10) < 5}
        data = Dataset.from_arrays(header, **cols, present=present)
        with pytest.raises(ValueError, match=f"^{NO_TEACHER_ROWS}$"):
            train_teacher(data, small_cfg())

    def test_sequential_steps_leave_teacher_untouched(self):
        data = toy_dataset(n=30)
        cfg = small_cfg()
        t1 = train_teacher(data, cfg)
        distill_student(data, soft_labels(t1, data, 1.0), cfg)
        t2 = train_teacher(data, cfg)
        for a, b in zip(params(t1), params(t2)):
            assert np.array_equal(a, b)


class TestSoftLabels:
    def test_temperature_one_is_plain_softmax(self):
        data = toy_dataset(n=12)
        teacher = train_teacher(data, small_cfg())
        soft = soft_labels(teacher, data, 1.0)
        assert soft.shape == (12, 2)
        for t, s in zip(data.examples, soft):
            np.testing.assert_array_equal(s, softmax(forward(teacher, t.x_star), 1.0))

    def test_high_temperature_limit_is_uniform(self):
        data = toy_dataset(n=12)
        teacher = train_teacher(data, small_cfg())
        np.testing.assert_allclose(soft_labels(teacher, data, 1e9), 0.5, atol=1e-5)

    def test_zero_teacher_emits_bias_softmax(self):
        data = toy_dataset(n=5)
        teacher = init_model("linear", 2, 2)
        for w in teacher.weights:
            w[:] = 0.0
        teacher.biases[0][:] = [1.0, -1.0]
        for s in soft_labels(teacher, data, 2.0):
            np.testing.assert_allclose(s, softmax(np.array([1.0, -1.0]), 2.0), rtol=1e-15)

    def test_covers_unlabeled_examples(self):
        data = toy_dataset(n=20, unlabeled_from=10)
        teacher = train_teacher(data, small_cfg())
        out = soft_labels(teacher, data, 1.0)
        assert out.shape == (20, 2) and np.isfinite(out).all()

    def test_rows_without_x_star_are_nan(self):
        data = gappy_dataset()
        out = soft_labels(train_teacher(data, small_cfg()), data, 1.0)
        assert len(out) == len(data)
        has_x_star = np.arange(len(data)) % 5 != 2
        assert np.isnan(out[~has_x_star]).all() and np.isfinite(out[has_x_star]).all()

    def test_outputs_are_simplex_vectors(self):
        data = toy_dataset(n=20)
        teacher = train_teacher(data, small_cfg())
        for s in soft_labels(teacher, data, 5.0):
            assert abs(s.sum() - 1.0) <= 1e-9 and np.all(s >= 0)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("T", ["x", math.nan, -3.0, 0.0, math.inf, True])
    def test_bad_temperature_rejected_for_either_task(self, task, T):
        # no row has x_star, so softmax, which checks T too, is never reached
        header = DatasetHeader(4, 2, 2, task)
        data = Dataset.from_arrays(header, x=np.zeros((3, 4)), x_star=np.zeros((3, 2)),
                                   y=np.eye(2)[[0, 1, 0]], present={"x_star": np.zeros(3, bool)})
        teacher = init_model("linear", 2, 2, task=task)
        message = f"temperature must be a finite real number > 0, got {T!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            soft_labels(teacher, data, T)


class TestDistillStudent:
    @pytest.mark.parametrize(
        "lam,soft,present",
        [
            (0.0, "teacher", {"y": np.zeros(10, bool)}),  # imitation 0 reads labels only
            (1.0, "none", {}),  # imitation 1 weighs every label by 0
            (0.5, "teacher", {"x": np.zeros(10, bool)}),  # no row has x
        ],
        ids=["no-label", "no-soft-label", "no-x"],
    )
    def test_no_usable_row_is_an_error(self, lam, soft, present):
        header, cols = toy_columns(10)
        data = Dataset.from_arrays(header, **cols, present=present)
        column = soft_labels(train_teacher(toy_dataset(n=10), small_cfg()), data, 1.0)
        with pytest.raises(ValueError, match="^no usable examples to distill into the student$"):
            distill_student(data, column if soft == "teacher" else [], small_cfg(imitation=lam))

    def test_lambda_zero_reduces_to_plain_student(self):
        # also with soft-only (unlabeled) rows, any unlabeled_weight and any T; the two
        # students train on two datasets of the same arrays, so each is trained
        for labeled, unlabeled_weight, T in [(30, 1.0, 1.0), (20, 2.5, 3.0)]:
            header, cols = toy_columns(30)
            present = {"y": np.arange(30) < labeled}
            data, twin = (Dataset.from_arrays(header, **cols, present=present) for _ in range(2))
            cfg = small_cfg(imitation=0.0, unlabeled_weight=unlabeled_weight)
            soft = soft_labels(train_teacher(data, cfg), data, T)
            with_soft = distill_student(data, soft, cfg)
            plain = distill_student(twin, [], small_cfg(imitation=0.0))
            assert_same_bits(with_soft, plain)

    def test_pure_imitation_ignores_hard_labels(self):
        data = toy_dataset(n=30)
        cfg = small_cfg(imitation=1.0)
        teacher = train_teacher(data, cfg)
        soft = soft_labels(teacher, data, 1.0)
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
        soft = soft_labels(teacher, data, 1.0)
        labeled_only = soft.copy()
        labeled_only[10:] = np.nan  # the unlabeled rows weigh 0, so they are never read
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
        soft = soft_labels(train_teacher(data, cfg), data, 1.0)
        soft[17] = [0.5, 0.4]
        with pytest.raises(ValueError, match="^example 17: soft target: .*sums to 0.9"):
            distill_student(data, soft, cfg)

    @pytest.mark.parametrize(
        "edit,shape",
        [
            (lambda soft: soft[:29], r"\(29, 2\)"),
            (lambda soft: np.vstack([soft, soft[:1]]), r"\(31, 2\)"),
            (lambda soft: np.full((30, 3), 1 / 3), r"\(30, 3\)"),
            (lambda soft: soft[:, 0], r"\(30,\)"),
            (lambda soft: soft[None], r"\(1, 30, 2\)"),
        ],
        ids=["short", "long", "wide", "one-dimensional", "three-dimensional"],
    )
    def test_soft_labels_of_the_wrong_shape_rejected(self, edit, shape):
        data = toy_dataset(n=30)
        cfg = small_cfg(imitation=0.5)
        soft = soft_labels(train_teacher(data, cfg), data, 1.0)
        distill_student(data, [], replace(cfg, imitation=0.0))  # kept, and reused below
        message = rf"^soft labels: shape {shape}, expected \(30, 2\)"
        for lam in (0.5, 0.0):
            with pytest.raises(ValueError, match=message):
                distill_student(data, edit(soft), replace(cfg, imitation=lam))

    def test_column_of_another_dataset_names_the_example(self):
        # gappy_dataset has no x_star on rows 2, 7, ..., so its column is NaN there;
        # toy_dataset has x_star on every row, so the student reads row 2
        cfg = small_cfg(imitation=0.5)
        other = gappy_dataset(n=30)
        soft = soft_labels(train_teacher(other, cfg), other, 1.0)
        with pytest.raises(ValueError, match="^example 2: soft target: .*finite"):
            distill_student(toy_dataset(n=30), soft, cfg)

    def test_soft_labels_of_rows_without_x_are_ignored(self):
        data = toy_dataset(n=30)
        has_x = np.arange(30) % 4 != 1
        header, cols = toy_columns(30)
        part = Dataset.from_arrays(header, **cols, present={"x": has_x})
        cfg = small_cfg(imitation=0.5)
        soft = soft_labels(train_teacher(data, cfg), data, 1.0)
        kept = soft.copy()
        kept[~has_x] = np.nan
        assert_same_bits(distill_student(part, soft, cfg), distill_student(part, kept, cfg))

    def test_soft_labels_of_rows_without_x_star_are_never_read(self):
        data = gappy_dataset()
        cfg = small_cfg(imitation=0.5, unlabeled_weight=2.5)
        soft = soft_labels(train_teacher(data, cfg), data, 1.0)
        no_x_star = np.arange(len(data)) % 5 == 2
        garbage = soft.copy()
        garbage[no_x_star] = [7.0, -3.0]  # no probability vector
        assert_same_bits(distill_student(data, garbage, cfg), distill_student(data, soft, cfg))
        garbage[~no_x_star] = np.nan
        with pytest.raises(ValueError, match="^example 0: soft target"):
            distill_student(data, garbage, cfg)

    def test_non_finite_features_name_the_example(self):
        header, cols = toy_columns(30)
        cols["x"][13, 2] = np.nan
        with pytest.raises(ValueError, match="^example 13: features are not finite"):
            distill_student(Dataset.from_arrays(header, **cols), [], small_cfg(imitation=0.0))

    def test_semi_supervised_uses_soft_only_for_unlabeled(self):
        data = toy_dataset(n=40, unlabeled_from=12)
        cfg = small_cfg(imitation=0.8)
        teacher = train_teacher(data, cfg)
        soft = soft_labels(teacher, data, 1.0)
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
        [q] = universum_soft_labels(teacher, data, 1.0, [0, 1])
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
        with pytest.raises(ValueError, match="^probability mass"):
            restrict_simplex(p, [1, 2])

    def test_rows_are_restricted_one_by_one(self):
        P = np.array([[0.2, 0.5, 0.3], [np.nan] * 3, [0.5, 0.25, 0.25]])
        Q = restrict_simplex(P, [1, 2])
        for p, q in zip(P[[0, 2]], Q[[0, 2]]):
            np.testing.assert_array_equal(q, restrict_simplex(p, [1, 2]))
        assert np.isnan(Q[1]).all()

    def test_first_row_without_mass_is_named(self):
        # logits (1000 x, 0, 0): x = 1 puts all the mass on class 0 (e^-1000 is 0.0)
        teacher = init_model("linear", 1, 3)
        teacher.weights[0][:] = [[1000.0, 0.0, 0.0]]
        data = Dataset.from_arrays(DatasetHeader(1, 1, 3), x_star=[[0.0], [0.5], [1.0], [1.0]])
        with pytest.raises(ValueError, match="^row 2: probability mass on the classes of interest"):
            universum_soft_labels(teacher, data, 1.0, [1, 2])
        np.testing.assert_allclose(universum_soft_labels(teacher, data, 1.0, [0, 1])[2], [1, 0])

    def test_class_set_validation(self):
        teacher = init_model("linear", 1, 3)
        data = Dataset(DatasetHeader(1, 1, 3), [Triplet(x_star=np.zeros(1))])
        with pytest.raises(ValueError):
            universum_soft_labels(teacher, data, 1.0, [])
        with pytest.raises(ValueError):
            universum_soft_labels(teacher, data, 1.0, [0, 3])
        with pytest.raises(ValueError):
            universum_soft_labels(teacher, data, 1.0, [0, 0])
        with pytest.raises(ValueError, match=r"^class of interest must be an integer in \[0, 2\]"):
            universum_soft_labels(teacher, data, 1.0, [0.5, 1.7])

    @pytest.mark.parametrize(
        "classes, message",
        [
            ([-1], r"class of interest must be an integer in \[0, 2\], got -1"),
            ([5], r"class of interest must be an integer in \[0, 2\], got 5"),
            ([0.0], r"class of interest must be an integer in \[0, 2\], got 0.0"),
            ([0, 0], "classes_of_interest contains duplicates"),
            ([], "classes_of_interest must be non-empty"),
        ],
        ids=["negative", "too-large", "float", "duplicate", "empty"],
    )
    def test_restrict_simplex_checks_the_class_set(self, classes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            restrict_simplex(np.array([[0.2, 0.3, 0.5]]), classes)

    @pytest.mark.parametrize("classes", [[1, 1], [3], []])
    def test_class_set_checked_before_the_teacher_runs(self, monkeypatch, classes):
        teacher = init_model("linear", 1, 3)
        data = Dataset(DatasetHeader(1, 1, 3), [Triplet(x_star=np.zeros(1))])
        ran = []
        monkeypatch.setattr(distill, "soft_labels", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="^class"):
            universum_soft_labels(teacher, data, 1.0, classes)
        assert ran == []

    def test_restrict_simplex_keeps_the_given_order(self):
        np.testing.assert_allclose(restrict_simplex([[0.2, 0.3, 0.5]], [2, 0]), [[5 / 7, 2 / 7]])

    def test_class_set_accepts_any_iterable(self):
        teacher = init_model("linear", 1, 3)
        data = Dataset(DatasetHeader(1, 1, 3), [Triplet(x_star=np.zeros(1))])
        assert universum_soft_labels(teacher, data, 1.0, (k for k in (0, 2))).shape == (1, 2)


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
            dict(imitation=-0.1),
            dict(imitation=1.5),
            dict(imitation=math.nan),
            dict(unlabeled_weight=-1.0),
            dict(unlabeled_weight=math.nan),
            dict(unlabeled_weight=math.inf),
            dict(imitation=True),
            dict(imitation=np.bool_(False)),
            dict(imitation="0.5"),
            dict(unlabeled_weight=True),
            dict(unlabeled_weight="1"),
        ],
    )
    def test_rejected_at_construction(self, bad):
        ((name, _),) = bad.items()
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            DistillConfig(**bad)

    def test_numbers_stored_as_python_floats(self):
        cfg = DistillConfig(imitation=np.float32(0.1), unlabeled_weight=2)
        assert type(cfg.imitation) is float and cfg.imitation == float(np.float32(0.1))
        assert type(cfg.unlabeled_weight) is float and cfg.unlabeled_weight == 2.0


class TestDatasetValidation:
    @pytest.mark.parametrize(
        "sizes,name",
        [((2, 0, 0), "c"), ((True, 0, 2), "d"), ((-1, 0, 2), "d"), ((2, -1, 2), "d_star"),
         ((2.0, 0, 2), "d"), ((2, 0, "2"), "c")],
    )
    def test_header_sizes_checked(self, sizes, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            DatasetHeader(*sizes)

    def test_header_sizes_stored_as_python_ints(self):
        h = DatasetHeader(np.int64(3), np.uint8(0), np.int32(2), "regression")
        assert (h.d, h.d_star, h.c) == (3, 0, 2)
        assert all(type(v) is int for v in (h.d, h.d_star, h.c))

    def test_present_columns_are_not_shadowed_by_zero_columns(self):
        # only a missing field gets a zero column: x and x_star here cost no allocation
        n, d = 400, 1000
        X, y = np.zeros((n, d)), np.eye(2)[np.arange(n) % 2]
        tracemalloc.start()
        try:
            Dataset.from_arrays(DatasetHeader(d, d, 2), x=X, x_star=X, y=y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 4

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
            ([np.inf, -np.inf], "finite and >= 0"),  # their sum warned, as inf + -inf
            ([1e308, 1e308], "sums to inf"),  # their sum warned, as an overflow
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

    @pytest.mark.parametrize("view", ["x", "x_star"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", ["rows", "from_arrays"])
    def test_features_must_be_finite_where_present(self, build, bad, view):
        header, cols = toy_columns(10)
        cols[view][3, 1] = cols[view][6, 0] = bad
        with pytest.raises(ValueError, match=f"^example 3: features are not finite in {view}$"):
            if build == "rows":
                rows = zip(cols["x"], cols["x_star"], cols["y"])
                Dataset(header, [Triplet(*row) for row in rows])
            else:
                Dataset.from_arrays(header, **cols)

    def test_absent_and_width_0_features_are_not_checked(self):
        header, cols = toy_columns(10)
        cols["x"][3] = np.nan
        present = {"x": np.arange(10) != 3}
        assert len(Dataset.from_arrays(header, **cols, present=present)) == 10
        no_x = Dataset.from_arrays(DatasetHeader(0, 2, 2), x=np.empty((10, 0)), y=cols["y"])
        assert len(no_x) == 10

    def test_finite_features_whose_sum_overflows_pass(self):
        header, cols = toy_columns(10)
        cols["x"][4] = [1e308, 1e308, -1e308, -1e308]
        cols["x_star"][7] = [1e308, 1e308]
        data = Dataset.from_arrays(header, **cols)
        assert data.column("x_star")[7, 0] == 1e308
        cols["x_star"][8] = [1e308, np.inf]
        with pytest.raises(ValueError, match="^example 8: features are not finite in x_star"):
            Dataset.from_arrays(header, **cols)

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

    def test_masks_are_read_only_copies(self):
        header, cols = toy_columns(6)
        labeled = np.arange(6) < 4
        ds = Dataset.from_arrays(header, **cols, present={"y": labeled})
        labeled[:] = False  # the caller's own mask stays writable, and the dataset keeps its copy
        assert [t.y is None for t in ds.examples] == [False] * 4 + [True] * 2
        for ds in (ds, toy_dataset(n=5, unlabeled_from=3)):
            for mask in ds._masks.values():
                with pytest.raises(ValueError, match="read-only"):
                    mask[0] = not mask[0]

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

    @pytest.mark.parametrize("key", ["Y", "x_star", 0])
    def test_from_arrays_rejects_a_mask_of_no_given_column(self, key):
        # "x_star" is a column name, but that column is passed as None
        header, X = DatasetHeader(2, 1, 2), np.zeros((3, 2))
        mask = np.array([True, False, True])
        message = f"present: {key!r} names no column given"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset.from_arrays(header, x=X, y=np.eye(2)[[0, 1, 0]], present={"y": mask, key: mask})

    @pytest.mark.parametrize("mask", [np.array([0, 2, 1]), np.array([1.0, 0.0, 1.0]), [1, 1, 1]])
    def test_from_arrays_rejects_a_mask_that_is_not_boolean(self, mask):
        # cast to bool, [0, 2, 1] would drop row 0's label without a word
        header, X = DatasetHeader(2, 0, 2), np.zeros((3, 2))
        message = f"present: the mask of 'y' has dtype {np.asarray(mask).dtype}, not bool"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset.from_arrays(header, x=X, y=np.eye(2)[[0, 1, 0]], present={"y": mask})

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
        targets, weights = np.zeros((n, c)), np.zeros(n)
        for i, row in enumerate(rows):
            if row[k] is not None:
                targets[i] = row[k]
            weights[i] = row[k + 2]
        cols.append((targets, weights))
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
    lam, rows = cfg.imitation, []
    for i, t in enumerate(data.examples):
        s = None if t.x_star is None else soft[i]
        hard_w = 0.0 if t.y is None else 1.0 - lam
        soft_w = 0.0 if s is None else lam if t.y is not None else lam * cfg.unlabeled_weight
        if t.x is not None and (hard_w != 0.0 or soft_w != 0.0):
            rows.append((t.x, t.y, s, hard_w, soft_w))
    h, rng = data.header, cfg.student_train.rng
    m0 = init_model(cfg.student_arch, h.d, h.c, h.task, rng.fork("init"))
    batch = pack_rows(rows, h.c, h.task)
    return train(m0, batch, replace(cfg.student_train, rng=rng.fork("shuffle")))


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
        cfg = small_cfg(imitation=lam, unlabeled_weight=unlabeled_weight)
        teacher = train_teacher(data, cfg)
        assert_same_bits(teacher, reference_teacher(data, cfg))
        soft = soft_labels(teacher, data, 2.0)
        assert_same_bits(distill_student(data, soft, cfg), reference_student(data, soft, cfg))

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
        soft = soft_labels(teacher, dirty, 1.0)
        assert_same_bits(distill_student(dirty, soft, cfg), distill_student(clean, soft, cfg))


def recorded(monkeypatch, name):
    """Replace distill.<name> by a wrapper that records its arguments in the list returned."""
    calls, real = [], getattr(distill, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distill, name, record)
    return calls


# the labeled rows of TestRowSelection's datasets: one run, or every other row
LABELED = {"run": np.arange(40) < 24, "scattered": np.arange(40) % 2 == 0}


class TestRowSelection:
    """Rows that form one run are trained on as a view of their column, other
    rows as a copy; either way the model equals one trained on copied rows."""

    @staticmethod
    def data(labeled, order="C"):
        header, cols = toy_columns(40)
        cols = {view: np.asarray(col, order=order) for view, col in cols.items()}
        return Dataset.from_arrays(header, **cols, present={"y": LABELED[labeled]})

    @pytest.mark.parametrize("labeled,run", [("run", True), ("scattered", False)])
    def test_teacher_rows(self, monkeypatch, labeled, run):
        data, cfg, calls = self.data(labeled), small_cfg(), recorded(monkeypatch, "train")
        teacher = train_teacher(data, cfg)
        assert np.shares_memory(calls[0][1].X, data.column("x_star")) == run
        assert_same_bits(teacher, reference_teacher(data, cfg))

    @pytest.mark.parametrize("labeled,lam,run", [
        ("run", 0.0, True), ("run", 0.5, True), ("scattered", 0.0, False), ("scattered", 0.5, True),
    ])
    def test_student_rows(self, monkeypatch, labeled, lam, run):
        data, cfg = self.data(labeled), small_cfg(imitation=lam)
        soft = soft_labels(train_teacher(data, cfg), data, 2.0)
        calls = recorded(monkeypatch, "train")
        student = distill_student(data, soft, cfg)
        assert np.shares_memory(calls[0][1].X, data.column("x")) == run
        assert_same_bits(student, reference_student(data, soft, cfg))

    @pytest.mark.parametrize("order,run", [("C", True), ("F", False)])
    def test_soft_label_rows(self, monkeypatch, order, run):
        # a row run of a column in another layout is copied: BLAS may round the
        # product with it differently
        data, cfg = self.data("run", order), small_cfg()
        teacher = train_teacher(data, cfg)
        calls = recorded(monkeypatch, "forward")
        soft = soft_labels(teacher, data, 2.0)
        assert np.shares_memory(calls[0][1], data.column("x_star")) == run
        copied = np.ascontiguousarray(data.column("x_star"))
        assert np.array_equal(soft, softmax(forward(teacher, copied), 2.0))

    def test_training_on_every_row_copies_no_column(self):
        n, d = 2000, 1000
        rng = np.random.default_rng(9)
        X = rng.normal(size=(n, d))
        data = Dataset.from_arrays(DatasetHeader(d, 0, 2), x=X, y=np.eye(2)[np.arange(n) % 2])
        train_cfg = TrainConfig(epochs=1, batch_size=100, rng=RngStream(0))
        cfg = DistillConfig(imitation=0.0, student_train=train_cfg)
        tracemalloc.start()
        try:
            distill_student(data, [], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes


class TestPlainStudentKept:
    """A dataset's imitation-0 student is trained once per student setting; every
    later imitation-0 call on that dataset gets a copy of it."""

    def test_later_calls_train_nothing(self, monkeypatch):
        data = toy_dataset(n=40, unlabeled_from=24)
        cfg = small_cfg(imitation=0.0)
        teacher = train_teacher(data, cfg)
        calls = [recorded(monkeypatch, name) for name in ("Packed", "init_model", "train")]
        first = distill_student(data, [], cfg)  # the regular student
        # any T and any arm: the soft column and unlabeled_weight are not read
        for T, unlabeled_weight in [(1.0, 1.0), (2.0, 0.0), (5.0, 2.5)]:
            soft = soft_labels(teacher, data, T)
            cell = distill_student(data, soft, replace(cfg, unlabeled_weight=unlabeled_weight))
            assert_same_bits(cell, first)
        assert [len(c) for c in calls] == [1, 1, 1]

    def test_each_call_returns_an_independent_copy(self):
        data, cfg = toy_dataset(n=30), small_cfg(imitation=0.0)
        first, second = distill_student(data, [], cfg), distill_student(data, [], cfg)
        assert_same_bits(first, second)
        assert_same_bits(second, distill_student(toy_dataset(n=30), [], cfg))
        assert not np.shares_memory(first.params, second.params)
        first.params[:] = 0.0
        first.loss_history.clear()
        assert_same_bits(distill_student(data, [], cfg), second)

    @pytest.mark.parametrize(
        "change",
        [
            lambda cfg: replace(cfg, student_train=replace(cfg.student_train, rng=RngStream(0, 2))),
            lambda cfg: replace(cfg, student_train=replace(cfg.student_train, epochs=41)),
            lambda cfg: replace(cfg, student_arch=Arch.mlp(3)),
        ],
        ids=["rng", "epochs", "arch"],
    )
    def test_another_student_setting_trains(self, monkeypatch, change):
        data, cfg = toy_dataset(n=30), small_cfg(imitation=0.0)
        distill_student(data, [], cfg)
        calls = recorded(monkeypatch, "train")
        teacher = replace(cfg.teacher_train, epochs=7)
        distill_student(data, [], replace(cfg, teacher_arch=Arch.mlp(3), teacher_train=teacher))
        assert calls == []  # the teacher's settings are not part of the key
        other = distill_student(data, [], change(cfg))
        assert len(calls) == 1
        assert_same_bits(other, distill_student(toy_dataset(n=30), [], change(cfg)))

    def test_a_diverging_student_is_kept_as_its_error(self, monkeypatch):
        data, cfg = toy_dataset(n=30), small_cfg(imitation=0.0)
        cfg = replace(cfg, student_train=replace(cfg.student_train, learning_rate=1e12))
        calls = recorded(monkeypatch, "train")
        for _ in range(2):
            with pytest.raises(TrainingDivergence):
                distill_student(data, [], cfg)
        assert len(calls) == 1

    def test_each_lookup_of_a_failed_student_raises_a_fresh_error(self, monkeypatch):
        data, cfg = toy_dataset(n=30), small_cfg(imitation=0.0)
        cfg = replace(cfg, student_train=replace(cfg.student_train, learning_rate=1e12))
        calls, raised = recorded(monkeypatch, "train"), []
        for _ in range(3):
            with pytest.raises(TrainingDivergence) as error:
                distill_student(data, [], cfg)
            raised.append(error.value)
        assert len(calls) == 1 and len({id(e) for e in raised}) == 3
        kept = [*data._students.values()]
        assert len(kept) == 1 and all(e is not kept[0] for e in raised)
        assert len({(type(e), str(e), e.epoch) for e in raised}) == 1
        # raising one object again would grow its traceback at each raise
        assert len({len(traceback.extract_tb(e.__traceback__)) for e in raised}) == 1


class TestStudentGroups:
    """`distill_students` trains the students of many requests in as few
    `train` calls as it can; each equals the lone `distill_student`."""

    @staticmethod
    def requests(data, cfg):
        teacher = train_teacher(data, cfg)
        soft = {T: soft_labels(teacher, data, T) for T in (1.0, 4.0)}
        cells = [
            (soft[T], replace(cfg, imitation=lam, unlabeled_weight=uw))
            for T in (1.0, 4.0) for lam in (0.0, 0.5, 1.0) for uw in (1.0, 0.0)
        ]
        return [([], replace(cfg, imitation=0.0)), *cells]

    def test_one_train_call_per_row_set(self, monkeypatch):
        data, cfg = toy_dataset(n=40, unlabeled_from=24), small_cfg()
        requests = self.requests(data, cfg)
        calls = recorded(monkeypatch, "train")
        students = distill_students(data, requests)
        # labeled rows (lambda = 0, unlabeled_weight = 0) and every row: two
        # calls, which may start in either order on two threads
        assert sorted((len(c[1]), c[1].lead) for c in calls) == [(24, (5,)), (40, (4,))]
        for (soft, c), student in zip(requests, students):
            fresh = toy_dataset(n=40, unlabeled_from=24)
            assert_same_bits(student, distill_student(fresh, soft, c))
            assert_same_bits(distill_student(data, soft, c), student)
        assert len(calls) == 2 + len(requests)  # the lone calls above; `data` trains no more

    def test_a_group_beyond_group_bytes_trains_in_chunks(self, monkeypatch):
        data, cfg = toy_dataset(n=40, unlabeled_from=24), small_cfg()
        requests = self.requests(data, cfg)
        grouped = distill_students(toy_dataset(n=40, unlabeled_from=24), requests)
        # two students' soft targets on 24 rows of c = 2 per chunk
        monkeypatch.setattr(distill, "GROUP_BYTES", 2 * 8 * 24 * 2)
        calls = recorded(monkeypatch, "train")
        chunked = distill_students(data, requests)
        chunks = sorted((len(c[1]), c[1].lead) for c in calls)
        assert chunks == [(24, (1,)), (24, (2,)), (24, (2,)), *[(40, (1,))] * 4]
        for a, b in zip(grouped, chunked):
            assert_same_bits(a, b)

    def test_a_request_asked_twice_trains_once_and_each_gets_a_copy(self, monkeypatch):
        data, cfg = toy_dataset(n=30), small_cfg(imitation=0.5)
        soft = soft_labels(train_teacher(data, cfg), data, 2.0)
        calls = recorded(monkeypatch, "train")
        first, second = distill_students(data, [(soft, cfg), (soft.copy(), cfg)])
        assert len(calls) == 1 and calls[0][1].lead == (1,)
        assert_same_bits(first, second)
        assert not np.shares_memory(first.params, second.params)
        other = soft.copy()
        other[0] = other[0][::-1]  # another soft column is another student
        distill_students(data, [(other, cfg)])
        assert len(calls) == 2

    def test_a_diverging_student_fails_alone_and_is_kept_as_its_error(self, monkeypatch):
        # huge soft targets make the lambda = 1 student diverge; the plain
        # student trains on the same rows in the same call
        header, cols = toy_columns(30)
        header = DatasetHeader(4, 2, 2, "regression")
        data = Dataset.from_arrays(header, **cols)
        cfg = small_cfg()
        soft = np.full((30, 2), 1e200)
        requests = [([], replace(cfg, imitation=0.0)), (soft, cfg)]
        calls = recorded(monkeypatch, "train")
        plain, failed = distill_students(data, requests)
        assert len(calls) == 1 and isinstance(failed, TrainingDivergence)
        assert_same_bits(plain, distill_student(Dataset.from_arrays(header, **cols), *requests[0]))
        with pytest.raises(TrainingDivergence) as alone:
            distill_student(data, soft, cfg)
        assert (alone.value.epoch, str(alone.value)) == (failed.epoch, str(failed))
        assert len(calls) == 2  # the lone plain student above; neither student trains again

    def test_a_request_without_usable_rows_fails_alone(self):
        data = toy_dataset(n=30, unlabeled_from=0)  # no labels
        cfg = small_cfg(imitation=0.0)
        [failed] = distill_students(data, [([], cfg)])
        assert isinstance(failed, ValueError)
        assert str(failed) == "no usable examples to distill into the student"
        with pytest.raises(ValueError, match="^no usable examples to distill into the student$"):
            distill_student(data, [], cfg)


def outcome(result):
    """A `distill_students` result as comparable values: a model's bits and
    loss_history, or an error's type, text and epoch."""
    if isinstance(result, Exception):
        return type(result), str(result), getattr(result, "epoch", None)
    return [w.tobytes() for w in params(result)], result.loss_history


@pytest.fixture
def short_switches():
    # switch threads often, so that an order the results depend on would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.usefixtures("short_switches")
class TestConcurrentGroups:
    """`distill_students` runs its `train` calls on up to `_workers()` threads;
    what it returns, keeps and raises does not depend on their number."""

    @staticmethod
    def trained(monkeypatch, workers):
        """(results, memo items, thread counts of the pools built) of 8 train
        calls: the 24-row group in chunks of 2, 2 and 1 and the 40-row group
        one student per call, the last of them diverging."""
        monkeypatch.setattr(distill, "_workers", lambda: workers)
        monkeypatch.setattr(distill, "GROUP_BYTES", 2 * 8 * 24 * 2)
        pools = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda n: pools.append(n) or ThreadPoolExecutor(n))
        data, cfg = toy_dataset(n=40, unlabeled_from=24), small_cfg()
        requests = TestStudentGroups.requests(data, cfg)
        requests.append((requests[1][0], replace(cfg, unlabeled_weight=1e300)))
        calls = recorded(monkeypatch, "train")
        results = [outcome(r) for r in distill_students(data, requests)]
        assert len(calls) == 8 and results[-1][0] is TrainingDivergence
        return results, [(k, outcome(m)) for k, m in data._students.items()], pools

    @pytest.mark.parametrize("workers", [2, 4])
    def test_results_and_memo_do_not_depend_on_the_worker_count(self, monkeypatch, workers):
        *alone, serial = self.trained(monkeypatch, 1)
        *threaded, pools = self.trained(monkeypatch, workers)
        assert serial == [] and pools == [workers]
        assert threaded == alone

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_the_first_failing_call_in_order_raises(self, monkeypatch, workers):
        # three groups: 5 labeled rows at batch size 2 (trains), 8 rows with
        # x_star and 5 labeled rows at batch size 10 (both fail)
        monkeypatch.setattr(distill, "_workers", lambda: workers)
        header, cols = toy_columns(40)
        present = {"y": np.arange(40) < 5, "x_star": np.arange(40) < 8}
        data = Dataset.from_arrays(header, **cols, present=present)
        cfg = small_cfg()
        small_batch = replace(cfg.student_train, batch_size=2)
        requests = [
            ([], replace(cfg, imitation=0.0, student_train=small_batch)),
            (np.full((40, 2), 0.5), replace(cfg, imitation=0.5)),
            ([], replace(cfg, imitation=0.0)),
        ]
        with pytest.raises(ValueError, match="^batch_size 10 exceeds data size 8$"):
            distill_students(data, requests)
        assert list(data._students) == [(cfg.student_arch, small_batch)]
