"""Generative models for the four synthetic privileged-information setups.

All four share the same skeleton: a separating hyperplane alpha drawn
from N(0, I_d) defines the labels, and the privileged view exposes a
cleaner or more compact description of the decision than the regular
features do.

  1. noisy labels    -- x ~ N(0, I_d); x_star = <alpha, x> (the exact
                        margin); y flips near the boundary via unit noise.
  2. noisy features  -- x_star ~ N(0, I_d) clean; x = x_star + noise;
                        y = 1[<alpha, x_star> > 0].
  3. relevant subset -- one index set J (|J| = 3) shared by all samples;
                        x_star = x_J; y depends on the J coordinates only.
  4. per-sample subset -- J_i redrawn for every sample; the privileged
                        view is the three signed contributions
                        alpha_j * x_j for j in J_i, so a linear teacher
                        on it can realize the labels even though the
                        subset varies.

Per-sample draws come from the dataset's RngStream; the hyperplane (and
the shared J of setup 3) belong to the problem instance and are drawn
separately, so train and test sets of one repetition share them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import RngStream, check_count, parse_number
from .distill import Dataset, DatasetHeader, Triplet
from .models import CLASSIFICATION

__all__ = [
    "SyntheticSpec",
    "Hyperplane",
    "draw_hyperplane",
    "gen_exp1",
    "gen_exp2",
    "gen_exp3",
    "gen_exp4",
    "generate",
    "replay_labels",
    "dump_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class SyntheticSpec:
    experiment: int
    d: int = 50
    n_train: int = 200
    n_test: int = 10_000
    relevant_size: int = 3

    def __post_init__(self):
        object.__setattr__(self, "experiment", check_count("experiment", self.experiment, 1, 4))
        for name in ("d", "n_train", "n_test", "relevant_size"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if self.experiment in (3, 4) and self.relevant_size > self.d:  # 1 and 2 draw no subset
            raise ValueError("need d >= relevant_size >= 1")


@dataclass(frozen=True)
class Hyperplane:
    """Problem instance: the labeling direction, plus the shared relevant
    index set when the experiment uses one (setup 3)."""

    alpha: np.ndarray
    relevant: np.ndarray | None = None


def draw_hyperplane(spec: SyntheticSpec, rng: RngStream) -> Hyperplane:
    """alpha ~ N(0, I_d); setup 3 also draws its shared index set J."""
    g = rng.generator()
    alpha = g.standard_normal(spec.d)
    relevant = None
    if spec.experiment == 3:
        relevant = np.sort(g.choice(spec.d, size=spec.relevant_size, replace=False))
    return Hyperplane(alpha, relevant)


def _generated(spec: SyntheticSpec, n: int | None, rng: RngStream, draw) -> Dataset:
    """The skeleton of every setup: the two-class Dataset that `draw(g, n)`
    gives as (x, x_star, class-1 mask, meta) for n rows (spec.n_train by
    default) drawn from the generator of `rng`; its header takes the widths
    of the two views."""
    n = spec.n_train if n is None else n
    X, Xs, positive, meta = draw(rng.generator(), n)
    header = DatasetHeader(X.shape[1], Xs.shape[1], 2, CLASSIFICATION)
    return Dataset.from_arrays(header, x=X, x_star=Xs, y=np.eye(2)[positive.astype(int)], meta=meta)


def gen_exp1(spec: SyntheticSpec, hp: Hyperplane, n: int | None = None,
             rng: RngStream = RngStream(0), noiseless: bool = False) -> Dataset:
    """Noisy labels: x_star is the exact margin, y flips near the boundary.

    With noiseless=True the label noise is forced to zero (oracle mode).
    """
    def draw(g, n):
        X = g.standard_normal((n, spec.d))
        margin = X @ hp.alpha
        eps = np.zeros(n) if noiseless else g.standard_normal(n)
        meta = {"experiment": 1, "alpha": hp.alpha, "label_noise": eps, "noiseless": noiseless}
        return X, margin[:, None], margin + eps > 0, meta

    return _generated(spec, n, rng, draw)


def gen_exp2(spec: SyntheticSpec, hp: Hyperplane, n: int | None = None,
             rng: RngStream = RngStream(0)) -> Dataset:
    """Noisy features: the label comes from the clean view x_star."""
    def draw(g, n):
        Xs = g.standard_normal((n, spec.d))
        X = Xs + g.standard_normal((n, spec.d))
        return X, Xs, Xs @ hp.alpha > 0, {"experiment": 2, "alpha": hp.alpha}

    return _generated(spec, n, rng, draw)


def gen_exp3(spec: SyntheticSpec, hp: Hyperplane, n: int | None = None,
             rng: RngStream = RngStream(0)) -> Dataset:
    """Shared relevant subset: x_star = x_J for one J common to all samples."""
    if hp.relevant is None:
        raise ValueError("setup 3 needs a hyperplane with a relevant index set")
    J = np.asarray(hp.relevant)

    def draw(g, n):
        X = g.standard_normal((n, spec.d))
        Xs = X[:, J]
        return X, Xs, Xs @ hp.alpha[J] > 0, {"experiment": 3, "alpha": hp.alpha, "relevant": J}

    return _generated(spec, n, rng, draw)


def gen_exp4(spec: SyntheticSpec, hp: Hyperplane, n: int | None = None,
             rng: RngStream = RngStream(0)) -> Dataset:
    """Per-sample relevant subset, J_i redrawn for each sample.

    The privileged view reports each relevant variable's signed
    contribution alpha_j * x_j (ascending j).  Because J_i varies per
    sample, the raw values x_{J_i} alone would not determine the label
    (the same three values mean different things under different J_i);
    the contributions are what the teacher's explanation singles out,
    and they make the label linearly realizable from x_star: the label
    is simply the sign of their sum.
    """
    def draw(g, n):
        k = spec.relevant_size
        X = g.standard_normal((n, spec.d))
        # uniform k-subsets per row, without replacement
        J = np.argpartition(g.random((n, spec.d)), k - 1, axis=1)[:, :k]
        J.sort(axis=1)
        Xs = np.take_along_axis(X, J, axis=1) * hp.alpha[J]
        meta = {"experiment": 4, "alpha": hp.alpha, "relevant_sets": J}
        return X, Xs, np.sum(Xs, axis=1) > 0, meta

    return _generated(spec, n, rng, draw)


_GENERATORS = {1: gen_exp1, 2: gen_exp2, 3: gen_exp3, 4: gen_exp4}


def generate(spec: SyntheticSpec, hp: Hyperplane, n: int | None = None,
             rng: RngStream = RngStream(0)) -> Dataset:
    """Dispatch to the generator named by spec.experiment."""
    return _GENERATORS[spec.experiment](spec, hp, n=n, rng=rng)


def replay_labels(ds: Dataset) -> np.ndarray:
    """Recompute class indices from stored features and generation meta.

    For setup 1 the stored label noise is replayed, so the result matches
    the stored labels exactly in all four setups.
    """
    meta = ds.meta
    alpha = meta["alpha"]
    exp = meta["experiment"]
    if exp == 1:
        margin = ds.column("x") @ alpha
        return (margin + meta["label_noise"] > 0).astype(int)
    if exp == 2:
        Xs = ds.column("x_star")
        return (Xs @ alpha > 0).astype(int)
    if exp == 3:
        J = meta["relevant"]
        X = ds.column("x")
        return (X[:, J] @ alpha[J] > 0).astype(int)
    if exp == 4:
        J = meta["relevant_sets"]
        X = ds.column("x")
        contrib = np.take_along_axis(X, J, axis=1) * alpha[J]
        return (np.sum(contrib, axis=1) > 0).astype(int)
    raise ValueError(f"unknown experiment {exp}")


# --- text dump -------------------------------------------------------------
#
# Line 1: d <sep> d_star <sep> c <sep> n.  Then one record per example:
# the x group, the x_star group, the y group, in that order; a present
# group is its values, a missing group is the single token "_", and a
# present group of width 0 (e.g. d_star = 0) is one empty token.  The
# delimiter must be ASCII and share no character with a line end, the
# marker "_" or a written number, so that the records split back.


def _check_delimiter(delimiter) -> None:
    if not (isinstance(delimiter, str) and delimiter.isascii() and delimiter):
        raise ValueError(f"delimiter must be a non-empty ASCII string, got {delimiter!r}")
    for c in delimiter:
        if c in "\n\r_0123456789.+-e":
            raise ValueError(f"delimiter {delimiter!r} holds {c!r}, which a record can hold")


def dump_dataset(ds: Dataset, path, delimiter: str = ",") -> None:
    _check_delimiter(delimiter)
    h = ds.header
    with open(path, "w", encoding="ascii") as f:
        f.write(delimiter.join(str(v) for v in (h.d, h.d_star, h.c, len(ds))) + "\n")
        for t in ds.examples:
            groups = []
            for v in (t.x, t.x_star, t.y):
                groups.append("_" if v is None else delimiter.join(repr(float(u)) for u in v))
            f.write(delimiter.join(groups) + "\n")


def _parse_record(line: str, sizes, delimiter: str):
    """(x, x_star, y) of one record line; a missing group is None."""
    if not line.isascii():
        raise ValueError("not ASCII text")
    tokens = line.split(delimiter)
    groups, pos = [], 0
    for size in sizes:
        token = tokens[pos] if pos < len(tokens) else None
        if token == "_":
            groups.append(None)
            pos += 1
        elif size == 0:
            if token != "":
                raise ValueError(f"token {pos + 1}: a width-0 group is '' (present) or '_'")
            groups.append(np.empty(0))
            pos += 1
        else:
            values = tokens[pos : pos + size]
            if len(values) < size:
                raise ValueError(f"short record: {len(tokens)} tokens")
            for k, v in enumerate(values, pos + 1):
                try:
                    parse_number(v, str)  # float() also takes ' 1' and '1_0'
                except ValueError as e:
                    raise ValueError(f"token {k}: {e}") from None
            groups.append(np.array([float(v) for v in values]))
            pos += size
    if pos != len(tokens):
        raise ValueError(f"expected {pos} tokens, got {len(tokens)}")
    return groups


def load_dataset(path, delimiter: str = ",", task: str = CLASSIFICATION) -> Dataset:
    """Read a `dump_dataset` file.

    Raises ValueError naming the header line or the record (1-based) for
    a non-ASCII or non-numeric token, a header size out of range (`c` >= 1,
    the others >= 0), a record that is too short or too long or has no
    present group, or a record count that differs from the header's n;
    the Dataset's own checks name the example (0-based).  A delimiter that
    `dump_dataset` refuses raises ValueError before the file is opened.
    """
    _check_delimiter(delimiter)
    # a byte that is not ASCII reads as a lone surrogate, so that its line can be named
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        first = f.readline()
        if not first.isascii():
            raise ValueError("line 1: not ASCII text")
        try:
            d, d_star, c, n = (parse_number(v, int) for v in first.rstrip("\n").split(delimiter))
            sizes, n = DatasetHeader(d, d_star, c), check_count("n", n, 0)
        except ValueError as e:
            raise ValueError(f"line 1: expected d, d_star, c, n: {e}") from None
        header = replace(sizes, task=task)  # a bad task is the caller's, not line 1's
        examples = []
        for k in range(1, n + 1):
            line = f.readline()
            if not line:
                raise ValueError(f"record {k}: missing, the header says {n} records")
            try:
                groups = _parse_record(line.rstrip("\n"), (d, d_star, c), delimiter)
                examples.append(Triplet(*groups))
            except ValueError as e:
                raise ValueError(f"record {k}: {e}") from None
        if f.read().strip():
            raise ValueError(f"more than the header's {n} records")
    return Dataset(header, examples)
