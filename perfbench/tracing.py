"""Spans and counts around distillery's public functions, from outside.

`Tracer.installed(ex)` replaces the public functions named in the
benchmark's per-layer table at the sites where the experiment code looks
them up (module globals and class attributes), records one span per call
and a few counts taken from the call's arguments or result, and puts
every original object back on exit.  Nothing under `src/` changes and no
argument or result is touched, so a traced run computes the same bits as
an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_SPAN = "experiments.run"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    sample: int  # spans of one benchmark sample share this id


def _train_counts(args, result) -> dict:
    """SGD steps and matmul FLOPs of one `models.train` call.

    Per batch of b rows and layer (fan_in, fan_out): the forward product
    and the weight gradient cost 2*b*fan_in*fan_out each; every layer but
    the first also propagates the gradient back (another 2*b*fan_in*fan_out).
    """
    cfg, n = args["cfg"], len(args["data"])
    batches = math.ceil(n / cfg.batch_size)
    layer_flop = sum(
        2 * w.shape[0] * w.shape[1] * (2 if i == 0 else 3) for i, w in enumerate(args["m0"].weights)
    )
    return {
        "models.train.steps": cfg.epochs * batches,
        "models.train.gflop": cfg.epochs * n * layer_flop / 1e9,
    }


def _student_counts(args, result) -> dict:
    # a lambda = 0 student given soft labels trains exactly the regular arm again
    redundant = args["cfg"].imitation == 0.0 and len(args["soft"]) > 0
    return {"distill.students_trained": 1, "distill.students_redundant": int(redundant)}


def _load_counts(args, result) -> dict:
    paths = args["batch_paths"] if "batch_paths" in args else (args["images_path"], args["labels_path"])
    return {"datasets.load.mb": sum(os.path.getsize(p) for p in paths) / 1e6}


def _dataset_rows(args, result) -> dict:
    return {"distill.dataset_build.rows": len(args["examples"])}


class Tracer:
    """In-memory spans and counts for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.sample = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.sample))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrapped(self, func, name, counts):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counts is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.counts.update(counts(bound, result))
            return result

        return wrapper

    def _counted(self, func, name):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, ex):
        """Trace the experiment module `ex` and the modules it calls into."""
        distill = sys.modules["distillery.distill"]
        models = sys.modules["distillery.models"]
        datasets = sys.modules["distillery.datasets"]
        sites = [
            (ex, "accuracy", "experiments.accuracy", lambda a, r: {"experiments.accuracy.rows": len(a["ds"])}),
            (ex, "train_teacher", "distill.train_teacher", None),
            (ex, "distill_student", "distill.distill_student", _student_counts),
            (ex, "soft_labels", "distill.soft_labels", lambda a, r: {"distill.soft_labels.rows": len(r)}),
            (distill, "train", "models.train", _train_counts),
            (ex, "generate", "synthetic.generate", None),
            (ex, "load_idx", "datasets.load", _load_counts),
            (ex, "load_cifar", "datasets.load", _load_counts),
            (ex, "downscale", "datasets.transform", None),
            (ex, "pollute", "datasets.transform", None),
            (datasets.ImageSet, "to_features", "datasets.transform", None),
            (distill.Dataset, "__init__", "distill.dataset_build", _dataset_rows),
            (distill.Dataset, "from_arrays", "distill.dataset_build", None),
        ]
        originals = []
        try:
            for owner, attr, name, counts in sites:
                orig = owner.__dict__[attr]
                originals.append((owner, attr, orig))
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(self._wrapped(orig.__func__, name, counts)))
                else:
                    setattr(owner, attr, self._wrapped(orig, name, counts))
            for owner in (distill, models):
                orig = owner.__dict__["check_simplex"]
                originals.append((owner, "check_simplex", orig))
                owner.check_simplex = self._counted(orig, "core.check_simplex.calls")
            yield self
        finally:
            for owner, attr, orig in reversed(originals):
                setattr(owner, attr, orig)

    # --- aggregation ---------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict]:
        """(total, self) seconds per span name.

        A span nested inside a span of the same name is not counted twice
        in the total.  Self time is a span's duration minus its direct
        children's durations.
        """
        total, self_time, children = Counter(), Counter(), Counter()
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            d = s.end - s.start
            self_time[s.name] += d - children[i]
            if not self._inside_same_name(s):
                total[s.name] += d
        return dict(total), dict(self_time)

    def _inside_same_name(self, s: Span) -> bool:
        p = s.parent
        while p is not None:
            if self.spans[p].name == s.name:
                return True
            p = self.spans[p].parent
        return False

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)
