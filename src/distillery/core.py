"""Probability-simplex primitives and seeded randomness.

All softmax/cross-entropy computations go through log-sum-exp so that
results stay finite for any finite logits.  Randomness is built on the
Philox 4x64-10 counter-based generator, keyed by a (seed, stream) pair:
the same pair always reproduces the same sequence on every platform, and
distinct streams are statistically independent by construction.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "softmax",
    "cross_entropy",
    "one_hot",
    "check_simplex",
    "simplex_rows",
    "check_rows",
    "finite_rows",
    "check_simplex_rows",
    "check_count",
    "check_real",
    "parse_number",
]

# check_simplex_rows explains a row simplex_rows fails by check_simplex: both use this tolerance
_SIMPLEX_TOL = 1e-9


def _mix_key(parts) -> int:
    """Stable 64-bit hash of a tuple of ints/floats/strings (blake2b based)."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, bool):
            h.update(b"b" + bytes([p]))
        elif isinstance(p, int):
            h.update(b"i" + p.to_bytes(16, "little", signed=True))
        elif isinstance(p, float):
            h.update(b"f" + np.float64(p).tobytes())
        elif isinstance(p, str):
            h.update(b"s" + p.encode("utf-8") + b"\x00")
        else:
            raise TypeError(f"unsupported fork key component: {p!r}")
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class RngStream:
    """Value-type handle on a reproducible random stream.

    `seed` names the run, `stream` names the substream within it.  The
    object carries no mutable state: `generator()` always starts the
    stream from its beginning, so functions taking an RngStream are pure.
    Forking with distinct keys yields independent streams.

    `seed` is an integer in [0, 2**53] and `stream` one in [0, 2**64 - 1]:
    `generator()` keys Philox with a float64 when the stream id is
    >= 2**63, and a float64 holds every integer only up to 2**53.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        # Python ints, not numpy scalars: `fork` hashes them with `_mix_key`
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0, 2**53))
        object.__setattr__(self, "stream", check_count("stream", self.stream, 0, 2**64 - 1))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    def fork(self, *key) -> "RngStream":
        """Derive an independent child stream named by `key`.

        Keys may mix ints, floats and strings; the same key always gives
        the same child.
        """
        if not key:
            raise ValueError("fork requires at least one key component")
        return RngStream(self.seed, _mix_key((self.stream, *key)))


def _check_logits(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty logit vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    return z


def softmax(z, T: float = 1.0) -> np.ndarray:
    """Temperature-softened softmax over the last axis.

    Computes sigma(z / T) with max-subtraction, so no overflow occurs for
    |z_k / T| up to ~700.  Larger T flattens the output toward uniform;
    T = 1 is the plain softmax.  The argmax of the output equals the
    argmax of z for every T.
    """
    T = check_real("temperature", T, 0.0, low_open=True)
    z = _check_logits(z)
    zt = z / T
    e = np.exp(zt - np.max(zt, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(z, T: float = 1.0) -> np.ndarray:
    """Log of softmax(z, T), kept in log space (finite for finite logits)."""
    T = check_real("temperature", T, 0.0, low_open=True)
    z = _check_logits(z)
    zt = z / T
    m = np.max(zt, axis=-1, keepdims=True)
    return zt - m - np.log(np.sum(np.exp(zt - m), axis=-1, keepdims=True))


def check_simplex(p) -> np.ndarray:
    """Validate a probability vector: entries >= 0, sum == 1 within _SIMPLEX_TOL."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be 1-d and non-empty")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("probability vector entries must be finite and >= 0")
    with np.errstate(over="ignore"):  # a sum past 1.8e308 is inf, and fails below
        s = float(np.sum(p))
    if abs(s - 1.0) > _SIMPLEX_TOL:
        raise ValueError(f"probability vector sums to {s!r}, not 1")
    return p


def simplex_rows(P) -> np.ndarray:
    """check_simplex's test on every row of an (n, c) array at once: a mask
    of the rows with entries >= 0 summing to 1 within _SIMPLEX_TOL (NaN and +-inf
    fail it)."""
    P = np.asarray(P, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf, or a sum past 1.8e308
        sums = P.sum(axis=1)
    return np.all(P >= 0, axis=1) & (np.abs(sums - 1.0) <= _SIMPLEX_TOL)


def check_count(name: str, value, low: int = 1, high: int | None = None) -> int:
    """`value` as a Python int if it is an integer (an `operator.index` type,
    not a bool) in [low, high], open above when `high` is None, else ValueError
    naming `name`: `n_train must be an integer in [1, 80], got 81`."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool) or n < low or high is not None and n > high:
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return n


def check_real(name: str, value, low=0.0, high=None, low_open=False) -> float:
    """check_count's rule for reals: `value` as a Python float if it is a finite
    `numbers.Real` (not a bool) in [low, high], or (low, high] when `low_open`,
    else ValueError `temperature must be a finite real number > 0, got 0.0`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int or a Fraction beyond the float range
        x = math.nan
    above_low = low < x if low_open else low <= x
    if not (above_low and math.isfinite(x) and (high is None or x <= high)):
        op, bracket = (">", "(") if low_open else (">=", "[")
        bounds = f"{op} {low:g}" if high is None else f"in {bracket}{low:g}, {high:g}]"
        raise ValueError(f"{name} must be a finite real number {bounds}, got {value!r}")
    return x


def parse_number(text: str, parse=float):
    """`parse(text)` (float or int) if `text` is ASCII with no digit separator
    and no surrounding whitespace, all of which float() and int() accept (as
    in `1_0`, a non-ASCII digit or ` 1`); else ValueError `'1_0' is not a number`."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"{text!r} is not a number")
    return parse(text)


def check_rows(ok, names, what: str) -> None:
    """Raise ValueError `example {names[i]}: {what}` for the first row i
    where the boolean (n,) array `ok` is False."""
    if not ok.all():
        raise ValueError(f"example {names[int(np.argmin(ok))]}: {what}")


def finite_rows(A) -> np.ndarray:
    """(n,) mask of the rows of an (n, d) array whose every entry is finite,
    made with no (n, d) temporary.  A row whose sum is finite is; the sums
    are one product with a ones vector, the fastest single pass numpy has
    (a cold 10,000 x 3,072 array: 27 ms, against 45 ms for `sum(axis=1)`).
    When some sum is not finite (a non-finite entry, or overflow), a row is
    exactly when its max and its min are."""
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.isfinite(A @ np.ones(A.shape[1]))
    return ok if ok.all() else np.isfinite(A.max(axis=1)) & np.isfinite(A.min(axis=1))


def check_simplex_rows(P, present, names, what: str = "") -> None:
    """check_simplex on every present row of an (n, c) array, as one array
    test; for the first failing row i, raises ValueError
    `example {names[i]}: {what}{check_simplex's reason}`."""
    ok = simplex_rows(P) | ~present
    if not ok.all():
        i = int(np.argmin(ok))
        try:
            check_simplex(P[i])
        except ValueError as e:
            raise ValueError(f"example {names[i]}: {what}{e}") from None


def cross_entropy(y, z, T: float = 1.0) -> float:
    """Cross-entropy -sum_k y_k log sigma(z / T)_k from logits.

    The log-probabilities come straight from log-sum-exp, never from a
    stored probability, so the result is finite for all finite logits.
    """
    y = check_simplex(y)
    lp = log_softmax(z, T)
    if y.shape != lp.shape:
        raise ValueError(f"label/logit shape mismatch: {y.shape} vs {lp.shape}")
    return float(-np.dot(y, lp))


def one_hot(index: int, c: int) -> np.ndarray:
    """Hard label as a c-dimensional probability vector."""
    v = np.zeros(check_count("c", c))
    v[check_count("class index", index, 0, c - 1)] = 1.0
    return v

