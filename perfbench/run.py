#!/usr/bin/env python3
"""Benchmark of distillery's three-step pipeline, one workload per process.

    python3 perfbench/run.py --workload {synthetic-paper,mnist-grid,cifar-semisup,all} \
        --seed N --seconds S --trace {0,1}

Each sample re-imports distillery, runs the workload's `run_*` entry
point once with `reps=0` (set-up only) and once with `reps=1`, checks
the reports and digests every numeric result.  Samples repeat until
`--seconds` have passed; the medians are reported.

--trace 0 prints the end-to-end metrics (rep_s, setup_s, peak_rss_mb,
and failed_frac as a line).  --trace 1 runs every sample both plain and
traced, asserts that both give the same digest, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; a fuller record, with the spans of a traced
run, goes to perfbench/out/.  The exit code is 0 only when every check
passed and no training failed.  `--workload all` runs the three
workloads one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ROOT_SPAN, Tracer
from workloads import WORKLOADS, check, digest, run_sample, trainings_done

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DATA = HERE / ".data"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (within the nproc cap): every matrix here is small enough
# that a second thread made cifar-semisup slower and its runs noisier on a
# shared 2-CPU machine.
BLAS_THREADS = 1

END_TO_END = {"rep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Layers that some workload never calls are timed in the record and the text
# output only; in the result line their seconds are summed into data.prepare.s,
# which every workload exercises.
DATA_LAYERS = ("synthetic.generate", "datasets.load", "datasets.transform")
PER_LAYER = {
    "models.train.s": "s",
    "models.train.steps": "count",
    "models.step_us": "us",
    "models.train.gflop": "GFLOP",
    "models.train.gflop_s": "GFLOP/s",
    "distill.students_trained": "count",
    "distill.students_redundant": "count",
    "distill.dataset_build.s": "s",
    "distill.dataset_build.rows": "count",
    "core.check_simplex.calls": "count",
    "experiments.accuracy.s": "s",
    "experiments.accuracy.calls": "count",
    "experiments.accuracy.rows": "count",
    "distill.soft_labels.s": "s",
    "distill.soft_labels.rows": "count",
    "distill.train_teacher.s": "s",
    "distill.distill_student.s": "s",
    "data.prepare.s": "s",
    "datasets.load.mb": "MB",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
}


def set_blas_threads() -> None:
    """Size every BLAS/OpenMP thread pool; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def machine_record(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
    }


def fresh_import():
    """Import distillery from the checkout's sources, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "distillery" or m.startswith("distillery.")]:
        del sys.modules[name]
    ex = importlib.import_module("distillery.experiments")
    if Path(ex.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"distillery imported from {ex.__file__}, not from {SRC}")
    return ex


class Bench:
    """Samples of one workload; keeps every figure for the summary."""

    def __init__(self, wl, seed: int, data_dir, report_path: Path):
        self.wl, self.seed, self.data_dir, self.report_path = wl, seed, data_dir, report_path
        self.samples: list[dict] = []
        self.attempted = self.failed = 0
        self.tracer = Tracer()

    def _setup(self, seed: int):
        t0 = time.perf_counter()
        ex = fresh_import()
        t1 = time.perf_counter()
        run_sample(ex, self.wl, seed, 0, self.data_dir)
        t2 = time.perf_counter()
        return ex, t1 - t0, t2 - t1

    def _rep(self, ex, seed: int, traced: bool):
        """One reps=1 call: (seconds, digest, problems)."""
        problems, reports = [], []
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.installed(ex), self.tracer.span(ROOT_SPAN):
                    reports = run_sample(ex, self.wl, seed, 1, self.data_dir)
            else:
                reports = run_sample(ex, self.wl, seed, 1, self.data_dir)
        except Exception as e:  # a failed sample is counted, the run goes on
            problems.append(f"{type(e).__name__}: {e}")
        seconds = time.perf_counter() - t0
        if reports:
            problems += check(ex, reports, self.report_path)
        trainings = self.wl.trainings()
        done = trainings_done(reports)
        self.attempted += trainings
        self.failed += trainings - done if done < trainings else (trainings if problems else 0)
        return seconds, digest(reports), problems

    def sample(self, index: int, trace: bool) -> dict:
        seed = (self.seed << 20) + index
        ex, import_s, setup_call_s = self._setup(seed)
        per_rep = len(self.wl.setups) or 1
        s = {"seed": seed, "setup_s": import_s + setup_call_s, "problems": []}
        order = [False] if not trace else ([False, True] if index % 2 == 0 else [True, False])
        for traced in order:
            if traced:
                self.tracer.sample = index
            seconds, dig, problems = self._rep(ex, seed, traced)
            key = "traced" if traced else "plain"
            s[f"{key}_rep_s"] = (seconds - setup_call_s) / per_rep
            s[f"{key}_digest"] = dig
            s["problems"] += problems
        if trace and s["plain_digest"] != s["traced_digest"]:
            s["problems"].append("traced digest differs from the untraced digest")
            self.failed += self.wl.trainings()
        self.samples.append(s)
        return s

    def run(self, seconds: float, trace: bool) -> None:
        """Take samples for about `seconds`: a sample starts only while it
        is expected to end less than half a sample past the deadline."""
        start, took = time.perf_counter(), 0.0
        while not self.samples or time.perf_counter() + took / 2 - start < seconds:
            t = time.perf_counter()
            s = self.sample(len(self.samples), trace)
            took = time.perf_counter() - t
            line = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in s.items() if k != "problems")
            print(f"sample {len(self.samples) - 1}: {line}", flush=True)
            for p in s["problems"]:
                print(f"  check failed: {p}", flush=True)

    def end_to_end(self) -> dict:
        return {
            "rep_s": statistics.median(s["plain_rep_s"] for s in self.samples),
            "setup_s": statistics.median(s["setup_s"] for s in self.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> tuple[dict, dict]:
        """Per-layer metrics, each per traced sample, and self seconds per layer."""
        n = len(self.samples)
        total, self_s = self.tracer.layer_times()
        c = self.tracer.counts
        train_s = total.get("models.train", 0.0)
        m = {
            "models.train.s": train_s / n,
            "models.train.steps": c["models.train.steps"] / n,
            "models.step_us": 1e6 * train_s / c["models.train.steps"],
            "models.train.gflop": c["models.train.gflop"] / n,
            "models.train.gflop_s": c["models.train.gflop"] / train_s,
            "distill.students_trained": c["distill.students_trained"] / n,
            "distill.students_redundant": c["distill.students_redundant"] / n,
            "distill.dataset_build.rows": c["distill.dataset_build.rows"] / n,
            "core.check_simplex.calls": c["core.check_simplex.calls"] / n,
            "experiments.accuracy.calls": self.tracer.calls("experiments.accuracy") / n,
            "experiments.accuracy.rows": c["experiments.accuracy.rows"] / n,
            "distill.soft_labels.rows": c["distill.soft_labels.rows"] / n,
            "datasets.load.mb": c["datasets.load.mb"] / n,
            "experiments.self_s": self_s[ROOT_SPAN] / n,
            "trace.overhead_s": statistics.median(s["traced_rep_s"] for s in self.samples)
            - statistics.median(s["plain_rep_s"] for s in self.samples),
        }
        for layer in ("distill.dataset_build", "experiments.accuracy", "distill.soft_labels",
                      "distill.train_teacher", "distill.distill_student", *DATA_LAYERS):
            m[f"{layer}.s"] = total.get(layer, 0.0) / n
        m["data.prepare.s"] = sum(m[f"{layer}.s"] for layer in DATA_LAYERS)
        return m, {k: v / n for k, v in sorted(self_s.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    set_blas_threads()
    if not (SRC / "distillery" / "__init__.py").is_file():
        print(f"error: no distillery sources at {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    data_dir = None
    if wl.data is not None:
        data_dir = DATA / wl.data
        gen = subprocess.run([sys.executable, str(HERE / "standin.py"), wl.data, str(args.seed), str(data_dir)],
                             stdout=sys.stderr)
        if gen.returncode != 0:
            print(f"error: stand-in data generation failed ({gen.returncode})", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    machine = machine_record(len(os.sched_getaffinity(0)))
    print("machine " + json.dumps(machine), flush=True)
    OUT.mkdir(exist_ok=True)

    bench = Bench(wl, args.seed, data_dir, OUT / f"report-{wl.name}.json")
    bench.run(args.seconds, bool(args.trace))
    correct = bench.failed == 0 and not any(s["problems"] for s in bench.samples)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": machine,
              "samples": bench.samples, "attempted": bench.attempted, "failed": bench.failed}

    n = len(bench.samples)
    run_digest = hashlib.sha256("".join(s["plain_digest"] for s in bench.samples).encode()).hexdigest()
    print(f"digest {run_digest} over {n} samples (per-sample digests above)")
    print(f"failed_frac {bench.failed / bench.attempted:.6g} fraction ({bench.failed} of {bench.attempted} trainings)")
    if args.trace:
        shown, self_s = bench.per_layer()
        metrics = {k: shown[k] for k in PER_LAYER}
        units = dict(PER_LAYER, **{f"{layer}.s": "s" for layer in DATA_LAYERS})
        record.update(per_layer=shown, self_s=self_s,
                      spans=[vars(s) for s in bench.tracer.spans])
        plain = statistics.median(s["plain_rep_s"] for s in bench.samples)
        print(f"tracing overhead {metrics['trace.overhead_s']:.6g} s per repetition "
              f"(traced minus untraced rep_s; untraced {plain:.6g} s, median of {n})")
        for layer, v in self_s.items():
            print(f"self {layer} {v:.6g} s")
    else:
        metrics = shown = bench.end_to_end()
        units = END_TO_END
        record.update(end_to_end=metrics)
    for name, v in shown.items():
        spread = ""
        if name in ("rep_s", "setup_s"):
            values = [s["plain_rep_s" if name == "rep_s" else name] for s in bench.samples]
            spread = f" (median of {n}; min {min(values):.6g}, max {max(values):.6g})"
        print(f"{name} {v:.6g} {units[name]}{spread}")
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another, and
    print their metrics side by side; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)],
                               stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result (exit {child.returncode})", file=sys.stderr)
            return 2
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        merged["correct"] &= result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}:{k}": v for k, v in result["metrics"].items()})
    for key, m in merged["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {merged['failed'] / max(merged['attempted'], 1):.6g} fraction "
          f"({merged['failed']} of {merged['attempted']} trainings)")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
