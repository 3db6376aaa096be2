"""Probability-simplex primitives and seeded randomness.

All softmax/cross-entropy computations go through log-sum-exp so that
results stay finite for any finite logits.  Randomness is built on the
Philox 4x64-10 counter-based generator, keyed by a (seed, stream) pair:
the same pair always reproduces the same sequence on every platform, and
distinct streams are statistically independent by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF

__all__ = [
    "RngStream",
    "log_sum_exp",
    "softmax",
    "cross_entropy",
    "sample_standard_normal",
    "one_hot",
    "check_simplex",
    "simplex_rows",
    "check_rows",
    "check_simplex_rows",
]


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
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _U64)
        object.__setattr__(self, "stream", int(self.stream) & _U64)

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


def log_sum_exp(z) -> float:
    """log(sum(exp(z))) computed as m + log(sum(exp(z - m))), m = max(z)."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("log_sum_exp of an empty vector")
    m = np.max(z)
    return float(m + np.log(np.sum(np.exp(z - m))))


def _check_logits(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty logit vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    return z


def _check_temperature(T) -> float:
    T = float(T)
    if not (T > 0.0) or not np.isfinite(T):
        raise ValueError(f"temperature must be positive and finite, got {T}")
    return T


def softmax(z, T: float = 1.0) -> np.ndarray:
    """Temperature-softened softmax over the last axis.

    Computes sigma(z / T) with max-subtraction, so no overflow occurs for
    |z_k / T| up to ~700.  Larger T flattens the output toward uniform;
    T = 1 is the plain softmax.  The argmax of the output equals the
    argmax of z for every T.
    """
    T = _check_temperature(T)
    z = _check_logits(z)
    zt = z / T
    e = np.exp(zt - np.max(zt, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(z, T: float = 1.0) -> np.ndarray:
    """Log of softmax(z, T), kept in log space (finite for finite logits)."""
    T = _check_temperature(T)
    z = _check_logits(z)
    zt = z / T
    m = np.max(zt, axis=-1, keepdims=True)
    return zt - m - np.log(np.sum(np.exp(zt - m), axis=-1, keepdims=True))


def check_simplex(p, tol: float = 1e-9) -> np.ndarray:
    """Validate a probability vector: entries >= 0, sum == 1 within tol."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be 1-d and non-empty")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("probability vector entries must be finite and >= 0")
    s = float(np.sum(p))
    if abs(s - 1.0) > tol:
        raise ValueError(f"probability vector sums to {s!r}, not 1")
    return p


def simplex_rows(P, tol: float = 1e-9) -> np.ndarray:
    """check_simplex's test on every row of an (n, c) array at once: a mask
    of the rows with entries >= 0 summing to 1 within tol (NaN and +-inf
    fail it)."""
    P = np.asarray(P, dtype=np.float64)
    return np.all(P >= 0, axis=1) & (np.abs(P.sum(axis=1) - 1.0) <= tol)


def check_rows(ok, names, what: str) -> None:
    """Raise ValueError `example {names[i]}: {what}` for the first row i
    where the boolean (n,) array `ok` is False."""
    if not ok.all():
        raise ValueError(f"example {names[int(np.argmin(ok))]}: {what}")


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
    if not 0 <= index < c:
        raise ValueError(f"class index {index} out of range for {c} classes")
    v = np.zeros(c)
    v[index] = 1.0
    return v


def sample_standard_normal(rng: RngStream, n: int) -> np.ndarray:
    """n i.i.d. N(0, 1) draws, fully determined by (rng.seed, rng.stream)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.generator().standard_normal(n)
