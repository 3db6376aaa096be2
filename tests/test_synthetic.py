import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from distillery.core import RngStream
from distillery.distill import Dataset, DatasetHeader, Triplet
from distillery.synthetic import (
    Hyperplane,
    SyntheticSpec,
    draw_hyperplane,
    dump_dataset,
    gen_exp1,
    gen_exp2,
    gen_exp3,
    gen_exp4,
    generate,
    load_dataset,
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

    def test_train_test_share_problem_instance(self):
        spec = spec_for(3, n_train=50, n_test=70)
        hp = draw_hyperplane(spec, RngStream(22))
        train = generate(spec, hp, n=spec.n_train, rng=RngStream(23, 0))
        test = generate(spec, hp, n=spec.n_test, rng=RngStream(23, 1))
        np.testing.assert_array_equal(train.meta["relevant"], test.meta["relevant"])
        assert len(train) == 50 and len(test) == 70


class TestDump:
    def test_round_trip(self, tmp_path):
        spec = spec_for(1, n_train=20)
        ds = gen_exp1(spec, draw_hyperplane(spec, RngStream(30)))
        labeled = {"y": np.arange(len(ds)) != 3}  # exercise the missing-field token
        columns = [ds.column(v) for v in ("x", "x_star", "y")]
        ds = Dataset.from_arrays(ds.header, *columns, present=labeled)
        path = tmp_path / "dump.txt"
        dump_dataset(ds, path)
        back = load_dataset(path)
        assert back.header == ds.header and len(back) == len(ds)
        for ta, tb in zip(ds.examples, back.examples):
            np.testing.assert_array_equal(ta.x, tb.x)
            np.testing.assert_array_equal(ta.x_star, tb.x_star)
            assert (ta.y is None) == (tb.y is None)
            if ta.y is not None:
                np.testing.assert_array_equal(ta.y, tb.y)

    def test_header_line(self, tmp_path):
        spec = spec_for(3, n_train=4)
        ds = gen_exp3(spec, draw_hyperplane(spec, RngStream(31)))
        path = tmp_path / "dump.txt"
        dump_dataset(ds, path)
        assert path.read_text().splitlines()[0] == "50,3,2,4"


@st.composite
def datasets(draw):
    """Regression datasets (any finite features and y) with d, d_star in
    0..3, c in 1..3 and random missing fields."""
    sizes = [draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    examples = []
    for _ in range(draw(st.integers(0, 5))):
        present = draw(st.lists(st.booleans(), min_size=3, max_size=3).filter(any))
        examples.append(Triplet(*(
            np.array(draw(st.lists(finite, min_size=k, max_size=k)), float) if p else None
            for k, p in zip(sizes, present)
        )))
    return Dataset(DatasetHeader(*sizes, "regression"), examples)


def same_bits(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.shape == b.shape and a.tobytes() == b.tobytes()
    )


# any ASCII text that shares no character with a line end, the missing-group
# marker or a written number
DELIMITERS = st.text(
    st.characters(max_codepoint=127, exclude_characters="\n\r_0123456789.+-e"), min_size=1, max_size=3
)

FUZZ_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestDumpFormat:
    def test_zero_width_group_round_trips(self, tmp_path):
        # a present x_star of width 0 is written as an empty field
        header = DatasetHeader(2, 0, 2)
        ds = Dataset(header, [
            Triplet(np.array([1.0, 2.0]), np.empty(0), np.array([0.0, 1.0])),
            Triplet(np.array([3.0, 4.0]), None, np.array([1.0, 0.0])),
        ])
        path = tmp_path / "dump.txt"
        dump_dataset(ds, path)
        assert path.read_text().splitlines()[1:] == ["1.0,2.0,,0.0,1.0", "3.0,4.0,_,1.0,0.0"]
        back = load_dataset(path)
        assert back.header == header
        for ta, tb in zip(ds.examples, back.examples):
            assert all(same_bits(getattr(ta, f), getattr(tb, f)) for f in ("x", "x_star", "y"))

    @pytest.mark.parametrize(
        "body,message",
        [
            ("1,x,,0,1\n", "record 1: could not convert string to float: 'x'"),
            ("1,2,,0,1_0\n", "record 1: token 5: '1_0' is not a number"),
            ("1,2,,0,1\n1,2,,0\n", "record 2: short record"),
            ("1,2,,0,1\n1,2,,0,1,7\n", "record 2: expected 5 tokens, got 6"),
            ("1,2,7,0,1\n", "record 1: token 3: a width-0 group is '' \\(present\\) or '_'"),
            ("1,2,,0,1\n", "record 2: missing"),
            ("1,2,,0,1\n1,2,,0,1\n1,2,,0,1\n", "more than the header's 2 records"),
            ("_,_,_\n1,2,,0,1\n", "record 1: a triplet needs"),
            ("1,2,,0,1\n1,2,,0,\xe9\n", "record 2: not ASCII text"),
        ],
    )
    def test_bad_record_is_named(self, tmp_path, body, message):
        path = tmp_path / "dump.txt"
        path.write_text("2,0,2,2\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{message}"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "first", ["2,0,2", "2,0,2,x", "2,0,2,1,1", "2,-1,2,1", "", "2,0,0,1", "2,0,2,-1"]
    )
    def test_bad_header_line(self, tmp_path, first):
        path = tmp_path / "dump.txt"
        path.write_text(first + "\n1,2,,0,1\n")
        with pytest.raises(ValueError, match="^line 1: "):
            load_dataset(path)

    @pytest.mark.parametrize("first", ["1_0,0,2,0", " 1,0,2,0", "1,0,2,0 ", "1,0 ,2,0"])
    def test_header_number_with_a_separator_or_whitespace_is_named(self, tmp_path, first):
        path = tmp_path / "dump.txt"
        path.write_text(first + "\n")
        bad = next(v for v in first.split(",") if "_" in v or v != v.strip())
        with pytest.raises(ValueError) as e:
            load_dataset(path)
        assert str(e.value) == f"line 1: expected d, d_star, c, n: {bad!r} is not a number"

    @pytest.mark.parametrize("token", [" 1.5", "1.5 ", "1_5", " "])
    def test_record_number_with_whitespace_or_a_separator_is_named(self, tmp_path, token):
        path = tmp_path / "dump.txt"
        path.write_text(f"2,0,2,1\n1,{token},,0,1\n")
        with pytest.raises(ValueError) as e:
            load_dataset(path)
        assert str(e.value) == f"record 1: token 2: {token!r} is not a number"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_feature_is_named(self, tmp_path, token):
        path = tmp_path / "dump.txt"
        path.write_text(f"2,1,2,2\n1,2,3,0,1\n1,2,{token},0,1\n")
        with pytest.raises(ValueError, match="^example 1: features are not finite in x_star$"):
            load_dataset(path)

    def test_non_ascii_header_is_named(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("2,0,2,\xe9\n1,2,,0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 1: not ASCII text"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "delimiter",
        ["", "-", ".", "+", "e", "0", "7", "_", "\n", "\r", ";-", ",\n", "\xe9", None, 0],
    )
    def test_a_delimiter_a_record_can_hold_is_refused_before_any_file_access(self, tmp_path,
                                                                             delimiter):
        spec = spec_for(2, n_train=3)
        ds = gen_exp2(spec, draw_hyperplane(spec, RngStream(32)))
        path = tmp_path / "dump.txt"
        with pytest.raises(ValueError, match="^delimiter "):
            dump_dataset(ds, path, delimiter)
        assert not path.exists()
        with pytest.raises(ValueError, match="^delimiter "):  # not FileNotFoundError
            load_dataset(path, delimiter)

    @given(datasets(), st.sampled_from([",", ";", " ", "\t"]) | DELIMITERS)
    @FUZZ_SETTINGS
    def test_round_trip(self, tmp_path, ds, delimiter):
        path = tmp_path / "dump.txt"
        dump_dataset(ds, path, delimiter)
        back = load_dataset(path, delimiter, task="regression")
        assert back.header == ds.header and len(back) == len(ds)
        for ta, tb in zip(ds.examples, back.examples):
            assert all(same_bits(getattr(ta, f), getattr(tb, f)) for f in ("x", "x_star", "y"))

    @given(st.one_of(
        st.text(max_size=120),
        st.builds(
            lambda sizes, body: ",".join(map(str, sizes)) + "\n" + body,
            st.lists(st.integers(-1, 3), min_size=4, max_size=4),
            st.text(alphabet="0123456789.,_-e\n", max_size=120),
        ),
    ))
    @FUZZ_SETTINGS
    def test_arbitrary_text_loads_or_raises_value_error(self, tmp_path, text):
        path = tmp_path / "dump.txt"
        path.write_text(text, encoding="utf-8")
        for task in ("classification", "regression"):
            try:
                ds = load_dataset(path, task=task)
            except ValueError:
                continue
            assert ds.header.task == task

    @given(datasets(), st.data())
    @FUZZ_SETTINGS
    def test_edited_dump_loads_or_raises_value_error(self, tmp_path, ds, data):
        path = tmp_path / "dump.txt"
        dump_dataset(ds, path)
        text = path.read_text()
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 3))
        edit = data.draw(st.sampled_from(["", ",", "_", "\n", "x", "1"]))
        path.write_text(text[:at] + edit + text[at + cut :])
        try:
            load_dataset(path, task="regression")
        except ValueError:
            pass


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
