import numpy as np
import pytest
from scipy.special import ndtr

from distillery.core import RngStream
from distillery.distill import Dataset
from distillery.synthetic import (
    Hyperplane,
    SyntheticSpec,
    draw_hyperplane,
    gen_exp1,
    gen_exp2,
    gen_exp3,
    gen_exp4,
    generate,
    replay_labels,
)


def spec_for(exp, **kw):
    return SyntheticSpec(experiment=exp, **kw)


def stored_classes(ds):
    return np.array([int(np.argmax(t.y)) for t in ds.examples])


class TestNoisyLabels:
    def test_header(self):
        spec = spec_for(1, n_train=50)
        ds = gen_exp1(spec, draw_hyperplane(spec, RngStream(1)))
        assert (ds.header.d, ds.header.d_star, ds.header.c) == (50, 1, 2)

    def test_noiseless_oracle_mode(self):
        spec = spec_for(1, n_train=500)
        ds = gen_exp1(spec, draw_hyperplane(spec, RngStream(2)), noiseless=True)
        margins = np.array([t.x_star[0] for t in ds.examples])
        np.testing.assert_array_equal(stored_classes(ds), (margins > 0).astype(int))

    def test_privileged_is_exact_margin(self):
        spec = spec_for(1, n_train=100)
        hp = draw_hyperplane(spec, RngStream(3))
        ds = gen_exp1(spec, hp)
        for t in ds.examples:
            # row-of-matrix vs single-vector dot may differ in the last ulp
            assert t.x_star[0] == pytest.approx(t.x @ hp.alpha, rel=1e-12)

    def test_flip_rate_matches_gaussian_cdf_oracle(self):
        # P(flip | x) = Phi(-|<alpha, x>|); Monte-Carlo over 1e5 samples
        spec = spec_for(1, n_train=100_000)
        hp = draw_hyperplane(spec, RngStream(4))
        ds = gen_exp1(spec, hp)
        margins = np.array([t.x_star[0] for t in ds.examples])
        flips = np.mean(stored_classes(ds) != (margins > 0))
        oracle = np.mean(ndtr(-np.abs(margins)))
        assert abs(flips - oracle) < 0.01


class TestNoisyFeatures:
    def test_dimensions(self):
        spec = spec_for(2, n_train=30)
        ds = gen_exp2(spec, draw_hyperplane(spec, RngStream(5)))
        assert ds.header.d_star == ds.header.d == 50

    def test_feature_variance_doubles(self):
        spec = spec_for(2, n_train=100_000, d=10)
        ds = gen_exp2(spec, draw_hyperplane(spec, RngStream(6)))
        X = np.array([t.x for t in ds.examples])
        np.testing.assert_allclose(X.var(axis=0), 2.0, atol=0.05)

    def test_labels_replay_from_clean_view(self):
        spec = spec_for(2, n_train=2000)
        ds = gen_exp2(spec, draw_hyperplane(spec, RngStream(7)))
        np.testing.assert_array_equal(replay_labels(ds), stored_classes(ds))

    def test_noise_independent_of_clean_view(self):
        spec = spec_for(2, n_train=100_000, d=10)
        ds = gen_exp2(spec, draw_hyperplane(spec, RngStream(8)))
        X = np.array([t.x for t in ds.examples])
        Xs = np.array([t.x_star for t in ds.examples])
        eps = X - Xs
        corr = np.corrcoef(eps.ravel(), Xs.ravel())[0, 1]
        assert abs(corr) < 0.01


class TestSharedRelevantSubset:
    def test_relevant_set_common_and_small(self):
        spec = spec_for(3, n_train=40)
        hp = draw_hyperplane(spec, RngStream(9))
        ds = gen_exp3(spec, hp)
        assert ds.header.d_star == 3
        assert len(hp.relevant) == 3
        for t in ds.examples:
            np.testing.assert_array_equal(t.x_star, t.x[hp.relevant])

    def test_labels_replay(self):
        spec = spec_for(3, n_train=2000)
        ds = gen_exp3(spec, draw_hyperplane(spec, RngStream(10)))
        np.testing.assert_array_equal(replay_labels(ds), stored_classes(ds))

    def test_labels_ignore_irrelevant_coordinates(self):
        spec = spec_for(3, n_train=200)
        hp = draw_hyperplane(spec, RngStream(11))
        ds = gen_exp3(spec, hp)
        outside = np.setdiff1d(np.arange(spec.d), hp.relevant)
        X = ds.column("x").copy()
        X[:, outside] = 123.0  # mutate unused coordinates
        ds = Dataset.from_arrays(ds.header, X, ds.column("x_star"), ds.column("y"), ds.meta)
        np.testing.assert_array_equal(replay_labels(ds), stored_classes(ds))

    def test_missing_relevant_set_rejected(self):
        spec = spec_for(3, n_train=10)
        with pytest.raises(ValueError):
            gen_exp3(spec, Hyperplane(np.ones(50)))


class TestPerSampleRelevantSubset:
    def test_subsets_vary_across_samples(self):
        spec = spec_for(4, n_train=100)
        ds = gen_exp4(spec, draw_hyperplane(spec, RngStream(12)))
        J = ds.meta["relevant_sets"]
        assert len({tuple(row) for row in J}) >= 2

    def test_privileged_view_holds_signed_contributions(self):
        spec = spec_for(4, n_train=50)
        hp = draw_hyperplane(spec, RngStream(13))
        ds = gen_exp4(spec, hp)
        J = ds.meta["relevant_sets"]
        assert ds.header.d_star == 3
        for i, t in enumerate(ds.examples):
            np.testing.assert_array_equal(t.x_star, t.x[J[i]] * hp.alpha[J[i]])
            # the label is the sign of the privileged entries' sum
            assert int(np.argmax(t.y)) == int(np.sum(t.x_star) > 0)

    def test_labels_replay_per_example(self):
        spec = spec_for(4, n_train=2000)
        ds = gen_exp4(spec, draw_hyperplane(spec, RngStream(14)))
        np.testing.assert_array_equal(replay_labels(ds), stored_classes(ds))

    def test_class_balance(self):
        spec = spec_for(4, n_train=100_000)
        ds = gen_exp4(spec, draw_hyperplane(spec, RngStream(15)))
        frac = stored_classes(ds).mean()
        assert 0.48 < frac < 0.52


class TestDeterminism:
    @pytest.mark.parametrize("exp", [1, 2, 3, 4])
    def test_bitwise_regeneration(self, exp):
        spec = spec_for(exp, n_train=64)
        hp = draw_hyperplane(spec, RngStream(20, exp))
        a = generate(spec, hp, rng=RngStream(21, exp))
        b = generate(spec, hp, rng=RngStream(21, exp))
        for ta, tb in zip(a.examples, b.examples):
            assert np.array_equal(ta.x, tb.x)
            assert np.array_equal(ta.x_star, tb.x_star)
            assert np.array_equal(ta.y, tb.y)

    @pytest.mark.parametrize("exp,gen",
                             [(1, gen_exp1), (2, gen_exp2), (3, gen_exp3), (4, gen_exp4)])
    def test_generate_dispatches_to_the_setup_of_the_spec(self, exp, gen):
        spec = spec_for(exp, d=6, n_train=9)
        hp = draw_hyperplane(spec, RngStream(30, exp))
        a, b = generate(spec, hp, rng=RngStream(31)), gen(spec, hp, rng=RngStream(31))
        for view in ("x", "x_star", "y"):
            assert a.column(view).tobytes() == b.column(view).tobytes()

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("exp", [1, 2, 3, 4])
    def test_n_overrides_the_spec_size_and_the_labels_replay(self, exp, n):
        spec = spec_for(exp, d=5, n_train=40)
        ds = generate(spec, draw_hyperplane(spec, RngStream(32, exp)), n=n, rng=RngStream(33))
        assert len(ds) == n and ds.column("x").shape == (n, 5)
        assert replay_labels(ds).tolist() == stored_classes(ds).tolist()

    @pytest.mark.parametrize("exp,d_star", [(1, 1), (2, 6), (3, 3), (4, 3)])
    def test_header_meta_and_one_hot_labels(self, exp, d_star):
        spec = spec_for(exp, d=6, n_train=20)
        hp = draw_hyperplane(spec, RngStream(34, exp))
        ds = generate(spec, hp, rng=RngStream(35))
        h = ds.header
        assert (h.d, h.d_star, h.c, h.task) == (6, d_star, 2, "classification")
        assert ds.meta["experiment"] == exp and ds.meta["alpha"] is hp.alpha
        y = ds.column("y")
        assert set(y.ravel().tolist()) <= {0.0, 1.0} and np.all(y.sum(axis=1) == 1.0)

    def test_replay_of_an_unknown_experiment_rejected(self):
        spec = spec_for(2, d=3, n_train=4)
        ds = generate(spec, draw_hyperplane(spec, RngStream(36)), rng=RngStream(37))
        ds.meta["experiment"] = 5
        with pytest.raises(ValueError, match="^unknown experiment 5$"):
            replay_labels(ds)

    def test_train_test_share_problem_instance(self):
        spec = spec_for(3, n_train=50, n_test=70)
        hp = draw_hyperplane(spec, RngStream(22))
        train = generate(spec, hp, n=spec.n_train, rng=RngStream(23, 0))
        test = generate(spec, hp, n=spec.n_test, rng=RngStream(23, 1))
        np.testing.assert_array_equal(train.meta["relevant"], test.meta["relevant"])
        assert len(train) == 50 and len(test) == 70


class TestSpecValidation:
    def test_experiment_range(self):
        with pytest.raises(ValueError):
            SyntheticSpec(experiment=5)
        for experiment in (True, 1.0):  # equal to 1, but not an integer
            with pytest.raises(ValueError, match=r"^experiment must be an integer in \[1, 4\]"):
                SyntheticSpec(experiment=experiment)

    def test_relevant_size_bounds(self):
        with pytest.raises(ValueError):
            SyntheticSpec(experiment=3, d=2, relevant_size=3)

    @pytest.mark.parametrize("experiment", [3, 4])
    def test_a_subset_may_be_every_coordinate(self, experiment):
        spec = SyntheticSpec(experiment, d=3, n_train=6, relevant_size=3)
        ds = generate(spec, draw_hyperplane(spec, RngStream(3)), rng=RngStream(4))
        assert ds.column("x_star").shape == (6, 3)
        assert replay_labels(ds).tolist() == stored_classes(ds).tolist()

    @pytest.mark.parametrize("experiment", [1, 2])
    def test_relevant_size_unbounded_where_no_subset_is_drawn(self, experiment):
        spec = SyntheticSpec(experiment, d=2, n_train=5)
        ds = generate(spec, draw_hyperplane(spec, RngStream(1)), rng=RngStream(2))
        assert ds.column("x").shape == (5, 2)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
    @pytest.mark.parametrize("field", ["d", "n_train", "n_test", "relevant_size"])
    def test_size_must_be_an_integer_at_least_one(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
            SyntheticSpec(experiment=3, **{field: bad})
