"""The benchmark's own tests: tiny runs of every workload path, wrapper
restoration after tracing, output checks, stand-in reuse, and the CLI.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import standin  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from distillery.models import TrainConfig  # noqa: E402

TINY_TRAIN = TrainConfig(learning_rate=0.05, epochs=3, batch_size=10)


def tiny(name: str) -> workloads.Workload:
    wl = workloads.WORKLOADS[name]
    if wl.data is None:
        kw = dict(wl.kwargs, teacher_train=TINY_TRAIN, student_train=TINY_TRAIN)
        return replace(wl, kwargs=kw, n_train=40, n_test=100)
    if wl.data == "mnist":
        kw = dict(wl.kwargs, n_train=30, T_grid=(1.0, 2.0), lambda_grid=(0.0, 1.0))
    else:
        kw = dict(wl.kwargs, n_labeled=20, max_unlabeled=20)
    return replace(wl, kwargs=dict(kw, train_config=TINY_TRAIN))


def write_tiny_data(kind: str, root: Path) -> Path:
    """Small files in the same containers as the stand-in data."""
    rng = np.random.default_rng(0)
    if kind == "mnist":
        for prefix, n in (("train", 80), ("t10k", 40)):
            (root / f"{prefix}-images-idx3-ubyte").write_bytes(
                struct.pack(">iiii", 0x803, n, 28, 28) + rng.integers(0, 256, n * 784, dtype=np.uint8).tobytes()
            )
            (root / f"{prefix}-labels-idx1-ubyte").write_bytes(
                struct.pack(">ii", 0x801, n) + (np.arange(n) % 10).astype(np.uint8).tobytes()
            )
    else:
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            records = rng.integers(0, 256, size=(20, standin.CIFAR_RECORD_BYTES), dtype=np.uint8)
            records[:, 0] = np.arange(20) % 10
            (root / name).write_bytes(records.tobytes())
    return root


@pytest.fixture
def bench(tmp_path, request):
    wl = tiny(request.param)
    data_dir = write_tiny_data(wl.data, tmp_path) if wl.data else None
    return run.Bench(wl, 3, data_dir, tmp_path / "report.json")


@pytest.mark.parametrize("bench", sorted(workloads.WORKLOADS), indirect=True)
def test_tiny_traced_sample_of_each_workload(bench):
    s = bench.sample(0, trace=True)
    assert s["problems"] == []
    assert s["plain_digest"] == s["traced_digest"]
    assert bench.failed == 0 and bench.attempted == 2 * bench.wl.trainings()
    shown, self_s = bench.per_layer()
    assert shown["distill.students_trained"] == bench.wl.trainings() - len(bench.wl.setups or [0])
    assert shown["models.train.steps"] > 0 and shown["experiments.accuracy.calls"] > 0
    assert (shown["datasets.load.mb"] > 0) == (bench.wl.data is not None)
    kw = bench.wl.kwargs
    redundant = 0 if bench.wl.data is None else len(kw["T_grid"]) * kw["lambda_grid"].count(0.0)
    assert shown["distill.students_redundant"] == redundant * (2 if bench.wl.data == "cifar" else 1)
    assert self_s[run.ROOT_SPAN] > 0 and shown["data.prepare.s"] > 0


def _sites(ex):
    distill = sys.modules["distillery.distill"]
    models = sys.modules["distillery.models"]
    datasets = sys.modules["distillery.datasets"]
    owners = [ex, distill, models, distill.Dataset, datasets.ImageSet]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


@pytest.mark.parametrize("bench", ["mnist-grid"], indirect=True)
def test_wrappers_restored_after_traced_run(bench):
    ex = run.fresh_import()
    before = _sites(ex)
    with pytest.raises(RuntimeError):
        with bench.tracer.installed(ex):
            assert ex.accuracy is not before[(id(ex), "accuracy")]
            raise RuntimeError("interrupted traced call")
    after = _sites(ex)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    bench.sample(0, trace=True)  # a completed traced sample leaves no wrapper behind either
    left = _sites(sys.modules["distillery.experiments"]).values()
    assert not any(_is_tracing_wrapper(v) for v in left)


def _is_tracing_wrapper(v) -> bool:
    code = getattr(getattr(v, "__func__", v), "__code__", None)
    return code is not None and code.co_filename == tracing.__file__


def _tiny_reports(tmp_path):
    wl = tiny("mnist-grid")
    ex = run.fresh_import()
    return ex, workloads.run_sample(ex, wl, 5, 1, write_tiny_data("mnist", tmp_path))


def test_checks_pass_on_clean_output(tmp_path):
    ex, reports = _tiny_reports(tmp_path)
    assert workloads.check(ex, reports, tmp_path / "r.json") == []


@pytest.mark.parametrize("corruption", ["lambda0", "status", "nan"])
def test_corrupted_result_is_caught(tmp_path, corruption):
    ex, reports = _tiny_reports(tmp_path)
    before = workloads.digest(reports)
    rep = reports[0]
    cell = rep.arm("distilled", 1.0, 0.0)
    if corruption == "lambda0":
        cell.values[0] = np.nextafter(cell.values[0], 2.0)
    elif corruption == "status":
        rep.errors.append("rep 0: non-finite training loss nan at epoch 3")
    else:
        cell.mean = float("nan")  # does not survive the JSON round trip as an equal value
    assert workloads.check(ex, reports, tmp_path / "r.json") != []
    assert workloads.digest(reports) != before or corruption == "status"


def test_failed_check_counts_against_failed_frac(tmp_path, monkeypatch):
    wl = tiny("synthetic-paper")
    b = run.Bench(wl, 1, None, tmp_path / "r.json")
    monkeypatch.setattr(run, "check", lambda ex, reports, path: ["forced"])
    s = b.sample(0, trace=False)
    assert s["problems"] == ["forced"] and b.failed == b.attempted == wl.trainings()


def test_standin_reused_only_when_digests_match(tmp_path):
    root = tmp_path / "mnist"
    assert standin.ensure("mnist", 4, root) is True
    assert standin.ensure("mnist", 4, root) is False
    first = (root / "t10k-labels-idx1-ubyte").read_bytes()
    with open(root / "t10k-labels-idx1-ubyte", "r+b") as f:
        f.seek(100)
        f.write(bytes([first[100] ^ 1]))
    assert standin.ensure("mnist", 4, root) is True
    assert (root / "t10k-labels-idx1-ubyte").read_bytes() == first
    assert standin.ensure("mnist", 5, root) is True
    assert (root / "t10k-labels-idx1-ubyte").read_bytes() != first


def test_cli_prints_result_last(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "synthetic-paper", tiny("synthetic-paper"))
    assert run.main(["--workload", "synthetic-paper", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert any(line.startswith("failed_frac 0 ") for line in lines)


def test_cli_without_sources_fails_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "synthetic-paper", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
