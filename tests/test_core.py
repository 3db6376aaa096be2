import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from distillery.core import (
    RngStream,
    check_count,
    check_real,
    check_simplex,
    cross_entropy,
    finite_rows,
    log_softmax,
    log_sum_exp,
    one_hot,
    parse_number,
    sample_standard_normal,
    softmax,
)

finite_logits = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=8,
).map(np.array)


class TestLogSumExp:
    def test_single_zero(self):
        assert log_sum_exp([0.0]) == 0.0

    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_shift_invariance_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000 + math.log(2), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_hand_value(self):
        # exp(ln 2) = 2, exp(0) = 1  ->  (2/3, 1/3)
        np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3], atol=1e-12)

    def test_infinite_temperature_limit(self):
        np.testing.assert_allclose(softmax([5.0, -3.0, 1.0], T=1e6), [1 / 3] * 3, atol=1e-5)

    def test_temperature_is_logit_rescaling(self):
        z = np.array([3.0, -1.0, 0.5, 2.0])
        for T in (0.5, 1.0, 7.0, 50.0):
            assert np.array_equal(softmax(z, T), softmax(z / T, 1.0))

    @given(finite_logits, st.floats(min_value=-100, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, z, c):
        np.testing.assert_allclose(softmax(z + c), softmax(z), atol=1e-12)

    @given(finite_logits)
    @settings(max_examples=200, deadline=None)
    def test_valid_simplex_output(self, z):
        p = softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p > 0)

    def test_monotone_sharpening(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.normal(size=rng.integers(2, 9)) * 10
            temps = [0.1, 0.5, 1.0, 2.0, 10.0, 100.0]
            peaks = [softmax(z, T).max() for T in temps]
            assert all(a >= b - 1e-15 for a, b in zip(peaks, peaks[1:]))

    def test_argmax_preserved_across_temperatures(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.normal(size=5) * 3
            for T in (0.01, 1.0, 250.0):
                assert np.argmax(softmax(z, T)) == np.argmax(z)

    def test_tied_logits_break_to_lowest_index(self):
        assert np.argmax(softmax([1.0, 1.0, 0.0])) == 0

    def test_bad_temperature(self):
        for T in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                softmax([1.0, 2.0], T)

    def test_nonfinite_logits(self):
        with pytest.raises(ValueError):
            softmax([1.0, math.inf])
        with pytest.raises(ValueError):
            softmax([math.nan, 0.0])


class TestCrossEntropy:
    def test_confident_correct_prediction(self):
        assert cross_entropy([1.0, 0.0], [1000.0, -1000.0]) <= 1e-9

    def test_uniform_vs_uniform(self):
        assert cross_entropy([0.5, 0.5], [0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_matching_distribution_gives_entropy(self):
        # oracle: -sum y log y computed directly
        y = np.array([0.3, 0.7])
        oracle = -sum(v * math.log(v) for v in y)
        assert cross_entropy(y, np.log(y)) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.61086, abs=5e-6)

    def test_finite_for_extreme_logits(self):
        # log of a stored probability would give -inf here
        v = cross_entropy([0.0, 1.0], [800.0, -800.0])
        assert math.isfinite(v) and v == pytest.approx(1600.0, rel=1e-12)

    def test_invalid_simplex_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy([0.4, 0.4], [0.0, 0.0])
        with pytest.raises(ValueError):
            cross_entropy([-0.2, 1.2], [0.0, 0.0])

    def test_gibbs_inequality(self):
        # cross_entropy(y, z) >= entropy(y), 10^4 random cases
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            c = rng.integers(2, 6)
            y = rng.dirichlet(np.ones(c))
            z = rng.normal(size=c) * rng.uniform(0.1, 30)
            with np.errstate(divide="ignore", invalid="ignore"):
                ent = float(-np.sum(np.where(y > 0, y * np.log(y), 0.0)))
            assert cross_entropy(y, z) >= ent - 1e-9


class TestCheckSimplex:
    def test_one_hot_passes(self):
        check_simplex(one_hot(2, 4))

    def test_one_hot_bounds(self):
        with pytest.raises(ValueError):
            one_hot(4, 4)

    @pytest.mark.parametrize("index", [4, -1, True, 1.5, np.float64(1.0), "1"])
    def test_one_hot_index_must_be_a_class(self, index):
        # True would set v[True] = v[1] and 1.5 would raise IndexError
        with pytest.raises(ValueError, match=r"^class index must be an integer in \[0, 3\], got "):
            one_hot(index, 4)
        assert one_hot(np.int64(3), np.uint8(4)).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_tolerance(self):
        check_simplex(np.array([0.5, 0.5 + 5e-10]))
        with pytest.raises(ValueError):
            check_simplex(np.array([0.5, 0.51]))


class TestLogSoftmax:
    def test_agrees_with_softmax(self):
        z = np.array([0.3, -2.0, 5.5])
        np.testing.assert_allclose(np.exp(log_softmax(z, 2.0)), softmax(z, 2.0), rtol=1e-12)


class TestRngStream:
    def test_repeatable(self):
        a = sample_standard_normal(RngStream(42, 7), 1000)
        b = sample_standard_normal(RngStream(42, 7), 1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_standard_normal(RngStream(42, 0), 100)
        b = sample_standard_normal(RngStream(42, 1), 100)
        assert not np.array_equal(a, b)

    def test_fork_is_deterministic(self):
        s = RngStream(9)
        assert s.fork("train", 3) == s.fork("train", 3)
        assert s.fork("train", 3) != s.fork("train", 4)
        assert s.fork("train") != s.fork("test")

    def test_fork_key_types(self):
        s = RngStream(1)
        s.fork(0)
        s.fork(1.5, "x", 2)
        with pytest.raises(ValueError):
            s.fork()
        with pytest.raises(TypeError):
            s.fork(object())

    def test_value_semantics(self):
        s = RngStream(5, 2)
        g1 = s.generator()
        g1.standard_normal(10)  # consuming one generator does not advance the stream
        g2 = s.generator()
        assert np.array_equal(g2.standard_normal(3), RngStream(5, 2).generator().standard_normal(3))

    @pytest.mark.parametrize("seed", [1.5, True, -1, 2**53 + 1, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, {2**53}\], got "):
            RngStream(seed)

    @pytest.mark.parametrize("stream", [0.5, False, -1, 2**64])
    def test_bad_stream_rejected(self, stream):
        message = rf"^stream must be an integer in \[0, {2**64 - 1}\], got "
        with pytest.raises(ValueError, match=message):
            RngStream(0, stream)

    def test_numpy_integers_become_python_ints(self):
        s = RngStream(np.int64(5), np.int64(2))
        assert type(s.seed) is int and type(s.stream) is int
        assert s.fork("x") == RngStream(5, 2).fork("x")
        assert RngStream(2**53, 2**64 - 1).fork("x").seed == 2**53


class TestCheckCount:
    def test_messages(self):
        with pytest.raises(ValueError, match=r"^reps must be an integer >= 0, got -2$"):
            check_count("reps", -2, 0)
        with pytest.raises(ValueError, match=r"^n_train must be an integer in \[1, 80\], got 81$"):
            check_count("n_train", 81, 1, 80)

    def test_bounds_are_inclusive(self):
        for value in (0, 3, np.int64(2), np.uint8(3)):
            check_count("k", value, 0, 3)

    def test_the_value_comes_back_a_python_int(self):
        for value in (0, 3, np.int64(2), np.uint8(3), 2**70):
            n = check_count("k", value, 0)
            assert type(n) is int and n == value

    @pytest.mark.parametrize("value", [True, False, 1.0, np.float64(1.0), "1", None, 0])
    def test_non_integers_and_values_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="^k must be an integer >= 1, got "):
            check_count("k", value)


class TestCheckReal:
    @pytest.mark.parametrize(
        "args,message",
        [
            (("T", 0.0, 0.0, None, True), "T must be a finite real number > 0, got 0.0"),
            (("l2", -1), "l2 must be a finite real number >= 0, got -1"),
            (("lam", True, 0.0, 1.0), "lam must be a finite real number in [0, 1], got True"),
            (("T", 0, 0.0, 1.0, True), "T must be a finite real number in (0, 1], got 0"),
        ],
    )
    def test_messages(self, args, message):
        with pytest.raises(ValueError) as e:
            check_real(*args)
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "value",
        [0, 1, 0.25, np.int64(1), np.uint8(0), np.float32(0.1), np.float64(1.0), Fraction(1, 3)],
    )
    def test_reals_in_range_come_back_python_floats(self, value):
        x = check_real("k", value, 0.0, 1.0)
        assert type(x) is float and x == float(value)

    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), "0.5", None, [0.5], 1j, math.nan, math.inf, -math.inf,
         np.float32(np.inf), -0.5, 1.5, np.float64(1.0000001), 10**400, -(10**400)],
    )
    def test_everything_else_rejected(self, value):
        with pytest.raises(ValueError, match=r"^k must be a finite real number in \[0, 1\], got "):
            check_real("k", value, 0.0, 1.0)

    def test_open_and_unbounded(self):
        assert check_real("k", 1e300) == 1e300 and check_real("k", 0.0) == 0.0
        assert check_real("k", 5e-324, low_open=True) == 5e-324
        with pytest.raises(ValueError, match="^k must be a finite real number > 0, got -0.0$"):
            check_real("k", -0.0, low_open=True)


class TestParseNumber:
    @pytest.mark.parametrize("text", ["1_0", "\u0662", "\u0661.\u0665", " 1", "1 ", "1\n"])
    def test_what_float_and_int_take_beyond_ascii_numbers_is_rejected(self, text):
        for parse in (float, int):
            with pytest.raises(ValueError) as e:
                parse_number(text, parse)
            assert str(e.value) == f"{text!r} is not a number"

    def test_ascii_numbers_parse(self):
        assert parse_number("-1.5e3") == -1500.0 and math.isnan(parse_number("nan"))
        assert parse_number("12", int) == 12 and type(parse_number("12", int)) is int
        with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
            parse_number("x")


class TestFiniteRows:
    @given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 4))))
    @settings(max_examples=200, deadline=None)
    def test_equals_isfinite_all(self, A):
        with np.errstate(over="raise", invalid="raise"):  # finite_rows warns of nothing
            ok = finite_rows(A)
        assert ok.dtype == bool and np.array_equal(ok, np.isfinite(A).all(axis=1))

    def test_a_sum_that_overflows_is_not_a_bad_row(self):
        A = np.array([[1e308, 1e308], [-1e308, -1e308], [np.inf, -np.inf], [1.0, np.nan]])
        assert finite_rows(A).tolist() == [True, True, False, False]


class TestSampleStandardNormal:
    def test_moments(self):
        x = sample_standard_normal(RngStream(123, 1), 1_000_000)
        assert abs(x.mean()) < 0.01  # 4 sigma / sqrt(n) = 0.004
        assert abs(x.var() - 1.0) < 0.01

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_standard_normal(RngStream(0), 0)

    @pytest.mark.parametrize("n", [0, 2.5, True, "3"])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got "):
            sample_standard_normal(RngStream(0), n)
