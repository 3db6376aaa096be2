import argparse
import concurrent.futures
import dataclasses
import functools
import gc
import importlib
import inspect
import json
import math
import os
import re
import struct
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distillery import __version__, distill, experiments
from distillery.cli import _dispatch, _grid, build_parser
from distillery.cli import main as cli_main
from distillery.datasets import ParseError
from distillery.experiments import (
    RUNNERS,
    ArmResult,
    ExperimentReport,
    emit_report,
    load_report_csv,
    load_report_json,
    run_cifar_semisup,
    run_from_config,
    run_mnist,
    run_multitask,
    run_synthetic,
)
from distillery.models import Arch, TrainConfig, TrainingDivergence, forward
from distillery.synthetic import SyntheticSpec

TINY_TRAIN = TrainConfig(learning_rate=0.05, epochs=3, batch_size=10, l2=1e-4)


def tiny_synthetic(reps=2, seed=7, **kw):
    spec = SyntheticSpec(1, n_train=40, n_test=100)
    fast = TrainConfig(learning_rate=0.1, epochs=5, batch_size=20)
    return run_synthetic(1, reps=reps, spec=spec, seed=seed,
                         teacher_train=fast, student_train=fast, **kw)


@pytest.fixture
def mnist_dir(tmp_path):
    rng = np.random.default_rng(0)

    def write(prefix, n):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = (np.arange(n) % 10).astype(np.uint8)
        (tmp_path / f"{prefix}-images-idx3-ubyte").write_bytes(
            struct.pack(">iiii", 0x803, n, 28, 28) + images.tobytes()
        )
        (tmp_path / f"{prefix}-labels-idx1-ubyte").write_bytes(
            struct.pack(">ii", 0x801, n) + labels.tobytes()
        )

    write("train", 80)
    write("t10k", 40)
    return tmp_path


@pytest.fixture
def cifar_dir(tmp_path):
    rng = np.random.default_rng(1)
    for name, n in [(f"data_batch_{i}.bin", 10) for i in range(1, 6)] + [("test_batch.bin", 10)]:
        records = b"".join(
            bytes([i % 10]) + rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
            for i in range(n)
        )
        (tmp_path / name).write_bytes(records)
    return tmp_path


@pytest.fixture
def multitask_path(tmp_path):
    rng = np.random.default_rng(2)
    n = 60
    X = rng.normal(size=(n, 21))
    latent = X[:, :2] @ rng.normal(size=(2, 1))
    Y = latent * rng.normal(size=7) + 0.1 * rng.normal(size=(n, 7))
    rows = np.hstack([X, Y])
    path = tmp_path / "table.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    return path


def diverge_on(monkeypatch, name, when):
    """Make experiments.<name> raise TrainingDivergence on the calls where
    `when(call_index, *args)` holds; every other call runs as usual."""
    real, calls = getattr(experiments, name), []

    def patched(*args):
        calls.append(args)
        if when(len(calls) - 1, *args):
            raise TrainingDivergence(3, math.nan)
        return real(*args)

    monkeypatch.setattr(experiments, name, patched)


DIVERGED = "non-finite training loss nan at epoch 3"


def recorded(monkeypatch, name):
    """Calls of experiments.<name> as (args, result); results unchanged."""
    real, calls = getattr(experiments, name), []

    def patched(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(experiments, name, patched)
    return calls


def problems_of(monkeypatch, run):
    """The (label, train set, test set, config) problems that `run()` hands `_repeat`."""
    seen = []

    def repeat(problems, *args, **kwargs):
        seen.extend(problems)
        return [], []

    monkeypatch.setattr(experiments, "_repeat", repeat)
    run()
    return seen


def rows_by_x_star(ds):
    """Row index of each x_star row of `ds`, keyed by its bytes."""
    return {row.tobytes(): i for i, row in enumerate(ds.column("x_star"))}


def stacked(ds, view):
    return np.asarray([getattr(t, view) for t in ds.examples])


def mnist_kwargs(mnist_dir, **over):
    kw = dict(
        n_train=30,
        T_grid=(1.0, 2.0),
        lambda_grid=(0.0, 1.0),
        data_dir=mnist_dir,
        reps=2,
        seed=3,
        train_config=TINY_TRAIN,
        arch=Arch.mlp(4),
    )
    kw.update(over)
    return kw


def edit_cell(line, k, text):
    """CSV `line` with its k-th field (0-based) replaced by `text`."""
    cells = line.split(",")
    cells[k] = text
    return ",".join(cells)


class TestReportSerialization:
    def test_csv_contract(self, tmp_path):
        report = tiny_synthetic()
        path = tmp_path / "r.csv"
        emit_report(report, "csv", path)
        text = path.read_text()
        assert text.startswith("experiment,arm,T,lambda,mean,std,reps")
        rows = load_report_csv(path)
        assert [r["arm"] for r in rows] == ["privileged", "regular", "distilled"]
        assert rows[2]["T"] == 1.0 and rows[2]["lambda"] == 1.0
        assert all(r["status"] == "complete" for r in rows)

    def test_json_round_trip(self, tmp_path):
        report = tiny_synthetic()
        path = tmp_path / "r.json"
        emit_report(report, "json", path)
        assert load_report_json(path) == report

    def test_partial_report_marks_rows(self, tmp_path):
        report = ExperimentReport(
            "demo", 0, "0.1.0", {"kind": "demo"},
            [ArmResult("regular", "accuracy", 0.5, 0.0, 1, values=[0.5], status="incomplete")],
            errors=["rep 1: diverged"],
        )
        assert report.status == "incomplete"
        path = tmp_path / "partial.csv"
        emit_report(report, "csv", path)
        assert load_report_csv(path)[0]["status"] == "incomplete"

    def test_arm_without_values_round_trips(self, tmp_path):
        report = ExperimentReport(
            "demo", 0, "0.1.0", {"kind": "demo"},
            [
                ArmResult("regular", "accuracy", 0.5, 0.0, 1, values=[0.5]),
                ArmResult("distilled", "accuracy", math.nan, math.nan, 0, 1.0, 1.0, [], "incomplete"),
            ],
            errors=["rep 0 cell T=1.0 lambda=1.0: diverged"],
        )
        path = tmp_path / "empty-arm.json"
        emit_report(report, "json", path)
        assert load_report_json(path) == report

    def test_nan_next_to_values_never_equal(self):
        arm = ArmResult("regular", "accuracy", math.nan, 0.0, 1, values=[0.5])
        assert arm != ArmResult("regular", "accuracy", math.nan, 0.0, 1, values=[0.5])

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        def write_part_then_fail(payload, f, **kwargs):
            f.write('{"experiment_id": ')
            raise OSError("no space left on device")

        monkeypatch.setattr(experiments.json, "dump", write_part_then_fail)
        report = tiny_synthetic(reps=0)
        path = tmp_path / "r.json"
        path.write_bytes(b"an earlier report\n")
        with pytest.raises(OSError, match="no space left on device"):
            emit_report(report, "json", path)
        assert path.read_bytes() == b"an earlier report\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_target_that_is_not_a_regular_file_rejected(self, tmp_path, format):
        (tmp_path / "r").mkdir()
        with pytest.raises(ValueError, match="is not a regular file"):
            emit_report(tiny_synthetic(reps=0), format, tmp_path / "r")
        assert [p.name for p in tmp_path.rglob("*")] == ["r"]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(tiny_synthetic(), "xml", tmp_path / "r.xml")

    def test_malformed_csv_names_the_line(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(tiny_synthetic(), "csv", path)
        lines = path.read_text().splitlines()
        for k, line, message in [
            (2, "demo,regular", "expected 8 fields, got 2"),
            (3, lines[2].replace("complete", "complete,x"), "expected 8 fields, got 9"),
            (4, lines[3].replace(",1.0,", ",one,", 1), "could not convert string to float: 'one'"),
            (1, lines[0].replace("lambda", "lam"), "expected the CSV header"),
            (4, edit_cell(lines[3], 2, "1_0"), "'1_0' is not a number"),
            (4, edit_cell(lines[3], 3, " 0.5 "), "' 0.5 ' is not a number"),
            (3, edit_cell(lines[2], 4, "0.5 "), "'0.5 ' is not a number"),
            (2, edit_cell(lines[1], 5, "0_0"), "'0_0' is not a number"),
            (3, edit_cell(lines[2], 6, "1_2"), "'1_2' is not a number"),
            (3, edit_cell(lines[2], 6, " 2"), "' 2' is not a number"),
            (2, edit_cell(lines[1], 6, "\u0663"), "'\u0663' is not a number"),
            (4, edit_cell(lines[3], 2, "\u0661.\u0665"), "'\u0661.\u0665' is not a number"),
            (3, edit_cell(lines[2], 3, "\u0660"), "'\u0660' is not a number"),
            (4, edit_cell(lines[3], 4, "\uff10.5"), "'\uff10.5' is not a number"),
        ]:
            path.write_text("\n".join(lines[: k - 1] + [line] + lines[k:]) + "\n")
            with pytest.raises(ValueError, match=f"^line {k}: {message}"):
                load_report_csv(path)
        spelled = edit_cell(edit_cell(edit_cell(lines[3], 2, "inf"), 4, "nan"), 5, "-inf")
        path.write_text("\n".join(lines[:3] + [spelled]) + "\n")
        row = load_report_csv(path)[2]
        assert row["T"] == math.inf and math.isnan(row["mean"]) and row["std"] == -math.inf

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda p: p["results"][1].update(reps=7), r"^results\[1\]: key 'reps' is 7, but its"),
            (lambda p: p["results"][1].update(mean=0.9), r"^results\[1\]: key 'mean' is 0.9, but"),
            (lambda p: p["results"][1].update(std=0.5), r"^results\[1\]: key 'std' is 0.5, but"),
            (lambda p: p["results"][1].update(values=[]), r"^results\[1\]: key 'reps' is 2, but"),
            (lambda p: p["results"][1].update(values=[10**400]), r"^results\[1\]: key 'values' hold"),
            (lambda p: p.update(status="incomplete"), "^report: key 'status' is 'incomplete', but"),
            (lambda p: p.update(status=None), "^report: key 'status' is None, but"),
        ],
        ids=["reps", "mean", "std", "no-values", "huge-value", "status", "null-status"],
    )
    def test_json_aggregates_must_match_their_values(self, tmp_path, edit, message):
        path = tmp_path / "r.json"
        emit_report(tiny_synthetic(), "json", path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_report_json(path)

    def test_json_aggregates_within_rounding_or_nan_load(self, tmp_path):
        report = tiny_synthetic()
        path = tmp_path / "r.json"
        emit_report(report, "json", path)
        payload = json.loads(path.read_text())
        payload["results"][0]["mean"] = np.nextafter(payload["results"][0]["mean"], 2.0)
        payload["results"][1]["std"] = math.nan
        path.write_text(json.dumps(payload))
        loaded = load_report_json(path)
        assert loaded.results[0].mean == payload["results"][0]["mean"]
        assert loaded.results[2] == report.results[2] and loaded != report

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda p: p.pop("results"), "^report: missing key 'results'"),
            (lambda p: p.update(results={}), "^report: key 'results' holds a malformed value"),
            (lambda p: p.update(extra=1), "^report: unknown key 'extra'"),
            (lambda p: p["results"][1].pop("mean"), r"^results\[1\]: missing key 'mean'"),
            (lambda p: p["results"][2].update(reps="2"), r"^results\[2\]: key 'reps' holds"),
            (lambda p: p["results"].append([]), r"^results\[3\]: expected a JSON object, got list"),
        ],
        ids=["no-results", "results-not-a-list", "unknown-key", "result-without-mean",
             "reps-a-string", "result-a-list"],
    )
    def test_malformed_json_names_the_key(self, tmp_path, edit, message):
        path = tmp_path / "r.json"
        emit_report(tiny_synthetic(), "json", path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_report_json(path)
        path.write_text("[]")
        with pytest.raises(ValueError, match="^report: expected a JSON object, got list"):
            load_report_json(path)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
VALUES = st.floats(-1e6, 1e6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | VALUES | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def reports(draw):
    """Reports of aggregated arms, grid cells and per-task rows, some without values."""
    metric = draw(st.sampled_from(["accuracy", "mse"]))
    results = []
    for _ in range(draw(st.integers(0, 5))):
        names = st.sampled_from(["privileged", "regular", "distilled", "regular/task3"])
        arm = draw(names | st.text())
        T, lam = draw(st.sampled_from([(None, None), (draw(VALUES), draw(VALUES))]))
        values = draw(st.lists(VALUES, max_size=3))
        results.append(experiments._aggregate(arm, metric, values, draw(st.integers(0, 3)), T, lam))
    return ExperimentReport(
        draw(st.text()), draw(st.integers(0, 2**64)), draw(st.text(max_size=8)),
        draw(st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4)),
        results, draw(st.lists(st.text(), max_size=2)),
    )


def same_float(a, b):
    return a == b or (a is not None and b is not None and math.isnan(a) and math.isnan(b))


class TestReportFuzz:
    @given(reports())
    @FUZZ
    def test_round_trips_in_both_formats(self, tmp_path, report):
        emit_report(report, "json", tmp_path / "r.json")
        assert load_report_json(tmp_path / "r.json") == report
        emit_report(report, "csv", tmp_path / "r.csv")
        rows = load_report_csv(tmp_path / "r.csv")
        assert len(rows) == len(report.results)
        for row, r in zip(rows, report.results):
            assert (row["experiment"], row["arm"], row["reps"], row["status"]) == (
                report.experiment_id, r.arm, r.reps, r.status)
            pairs = zip(("T", "lambda", "mean", "std"), (r.temperature, r.imitation, r.mean, r.std))
            assert all(same_float(row[k], v) for k, v in pairs)

    @given(reports(), st.data())
    @FUZZ
    def test_edited_json_loads_or_names_the_key(self, tmp_path, report, data):
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        target = payload
        if payload["results"] and data.draw(st.booleans()):
            target = payload["results"][data.draw(st.integers(0, len(payload["results"]) - 1))]
        key = data.draw(st.sampled_from(sorted(target)))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(JSON_VALUES)
        (tmp_path / "r.json").write_text(json.dumps(payload))
        try:
            load_report_json(tmp_path / "r.json")
        except ValueError as e:
            assert str(e).startswith(("report: ", "results["))

    @given(st.one_of(
        st.text(max_size=200),
        st.builds(",".join, st.lists(st.text("0123456789.,\"\nx-_", max_size=6))),
        st.builds(json.dumps, JSON_VALUES),
    ))
    @FUZZ
    def test_arbitrary_text_loads_or_raises_value_error(self, tmp_path, text):
        path = tmp_path / "r.txt"
        path.write_text(text, encoding="utf-8")
        for load in (load_report_json, load_report_csv):
            try:
                load(path)
            except ValueError:
                pass


class TestSyntheticRun:
    def test_bitwise_determinism(self):
        assert tiny_synthetic() == tiny_synthetic()

    def test_replay_from_config_snapshot(self):
        report = tiny_synthetic()
        assert run_from_config(report.config) == report

    def test_imitation_zero_computes_no_soft_label(self, monkeypatch):
        calls = recorded(monkeypatch, "soft_labels")
        report = tiny_synthetic(imitation=0.0)
        assert calls == []
        assert report.arm("distilled", 1.0, 0.0).values == report.arm("regular").values
        tiny_synthetic(imitation=0.5)
        assert len(calls) == 2  # one per repetition

    def test_largest_seed_reloads_and_replays_equal(self, tmp_path):
        report = tiny_synthetic(reps=1, seed=2**53)
        emit_report(report, "json", tmp_path / "r.json")
        assert load_report_json(tmp_path / "r.json") == report
        assert run_from_config(report.config) == report

    def test_numpy_integer_arguments_reload_and_replay_equal(self, tmp_path):
        fast = TrainConfig(learning_rate=0.1, epochs=np.int32(5), batch_size=20)
        spec = SyntheticSpec(1, n_train=np.int64(40), n_test=np.uint16(100))
        report = run_synthetic(1, reps=np.int64(1), spec=spec, seed=np.int64(5),
                               teacher_train=fast, student_train=fast)
        assert type(report.master_seed) is int
        emit_report(report, "json", tmp_path / "r.json")
        loaded = load_report_json(tmp_path / "r.json")
        assert loaded == report
        assert run_from_config(loaded.config) == report

    @pytest.mark.parametrize(
        "edit,message",
        [
            (dict(sed=5), "config: unknown key 'sed'"),
            (dict(teacher_train={"bogus": 1}), "config['teacher_train']: unknown key 'bogus'"),
            (dict(student_train="fast"), "config['student_train']: expected an object, got str"),
            (dict(spec=5), "config['spec']: expected an object, got int"),
            (dict(spec={"experiment": 2}), "config['spec']: unknown key 'experiment'"),
        ],
    )
    def test_snapshot_edit_rejected_naming_the_key(self, monkeypatch, edit, message):
        trained = []
        monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
        for reps in (0, 1):
            config = {**tiny_synthetic(reps=0).config, "reps": reps, **edit}
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_from_config(config)
        assert trained == []

    def test_spec_of_another_setup_rejected_before_training(self, monkeypatch):
        trained = []
        monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
        spec = SyntheticSpec(2, n_train=40, n_test=50)
        for reps in (0, 1):
            with pytest.raises(ValueError, match="^spec.experiment 2 differs from experiment 1"):
                run_synthetic(1, reps=reps, spec=spec)
        assert trained == []

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_bad_temperature_rejected_at_reps_0(self, T):
        # the temperature acts only in soft_labels; the run checks it before any training
        with pytest.raises(ValueError, match="^temperature must be a finite real number > 0, got "):
            tiny_synthetic(reps=0, temperature=T)

    def test_arm_lookup(self):
        report = tiny_synthetic()
        assert report.arm("regular").reps == 2
        cell = report.arm("distilled", temperature=1.0, imitation=1.0)
        assert cell.metric == "accuracy" and len(cell.values) == 2

    def test_config_snapshot_format(self):
        train = {"learning_rate": 0.1, "epochs": 5, "batch_size": 20, "l2": 1e-4}
        assert tiny_synthetic().config == {
            "kind": "synthetic",
            "experiment": 1,
            "seed": 7,
            "reps": 2,
            "temperature": 1.0,
            "imitation": 1.0,
            "spec": {"d": 50, "n_train": 40, "n_test": 100, "relevant_size": 3},
            "teacher_arch": "linear",
            "student_arch": "linear",
            "teacher_train": train,
            "student_train": train,
            "alpha_policy": "fresh hyperplane per repetition",
            "version": __version__,
        }

    def test_diverged_distilled_student_drops_only_its_cell(self, monkeypatch):
        clean = tiny_synthetic()
        # distill_student calls per rep: regular, then distilled; fail rep 1's distilled
        diverge_on(monkeypatch, "distill_student", lambda k, *args: k == 3)
        report = tiny_synthetic()
        assert report.errors == [f"rep 1 cell T=1.0 lambda=1.0: {DIVERGED}"]
        assert report.status == "incomplete"
        for arm in ("privileged", "regular"):
            assert report.arm(arm) == clean.arm(arm)
        cell = report.arm("distilled", 1.0, 1.0)
        assert cell.values == clean.arm("distilled", 1.0, 1.0).values[:1]
        assert cell.status == "incomplete"

    def test_diverged_regular_student_drops_the_repetition(self, monkeypatch):
        # distill_student calls per rep: regular, then distilled; rep 1's regular
        # student fails, so its teacher's score is dropped and its cell not tried
        clean = tiny_synthetic()
        diverge_on(monkeypatch, "distill_student", lambda k, *args: k == 2)
        report = tiny_synthetic()
        assert report.errors == [f"rep 1: {DIVERGED}"]
        assert report.status == "incomplete"
        for r, c in zip(report.results, clean.results):
            assert r.values == c.values[:1] and r.status == "incomplete"

    def test_diverged_teacher_drops_the_repetition(self, monkeypatch):
        clean = tiny_synthetic()
        diverge_on(monkeypatch, "train_teacher", lambda k, *args: k == 0)
        report = tiny_synthetic()
        assert report.errors == [f"rep 0: {DIVERGED}"]
        assert report.status == "incomplete"
        for r, c in zip(report.results, clean.results):
            assert r.values == c.values[1:] and r.status == "incomplete"


class WholeFile:
    """A training set held in memory whole: the reference for one whose
    records are read from disk."""

    def __init__(self, images, labels):
        self.images, self.labels = images, labels.astype(np.int64)
        self.n, self.shape = len(images), images.shape[1:]

    def take(self, indices):
        return self.images[indices]


def resident_at_repeat(monkeypatch, kind, run):
    """At `_repeat` entry of `run()`: whether each image set the runner of
    `kind` parsed whole is alive, and per training set it opened, the
    arrays it holds that are as large as one image."""
    load, open_ = {"mnist": ("load_idx", "open_idx"), "cifar": ("load_cifar", "open_cifar")}[kind]
    real_load, real_open, real_repeat = (getattr(experiments, n) for n in (load, open_, "_repeat"))
    loaded, opened, seen = [], [], []

    def parse(*args):
        images = real_load(*args)
        loaded.append(weakref.ref(images))
        return images

    def open_records(*args):
        opened.append(real_open(*args))
        return opened[-1]

    def repeat(*args, **kwargs):
        gc.collect()
        image_bytes = [np.prod(records.shape) for records in opened]
        held = [[a for a in vars(records).values() if isinstance(a, np.ndarray) and a.nbytes >= size]
                for records, size in zip(opened, image_bytes)]
        seen.append(([ref() is not None for ref in loaded], held))
        return real_repeat(*args, **kwargs)

    monkeypatch.setattr(experiments, load, parse)
    monkeypatch.setattr(experiments, open_, open_records)
    monkeypatch.setattr(experiments, "_repeat", repeat)
    run()
    (result,) = seen
    return result


class TestMnistMachinery:
    def test_missing_files_error_before_training(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_mnist(data_dir=tmp_path)

    def test_lambda_zero_cells_match_regular_baseline(self, mnist_dir):
        report = run_mnist(**mnist_kwargs(mnist_dir))
        regular = report.arm("regular")
        for T in (1.0, 2.0):
            cell = report.arm("distilled", temperature=T, imitation=0.0)
            assert cell.values == regular.values

    @pytest.mark.parametrize("grid", [dict(T_grid=(1.0, 0.0)), dict(lambda_grid=(0.5, 2.0))])
    def test_bad_grid_value_rejected_before_training(self, mnist_dir, monkeypatch, grid):
        with pytest.raises(ValueError):
            run_mnist(**mnist_kwargs(mnist_dir, reps=0, **grid))
        trained = []
        monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
        with pytest.raises(ValueError):
            run_mnist(**mnist_kwargs(mnist_dir, reps=1, **grid))
        assert trained == []

    @pytest.mark.parametrize("n_train", [0, -1, 81, 30.5, True, "3"])
    def test_bad_n_train_rejected_before_training(self, mnist_dir, monkeypatch, n_train):
        # the fixture has 80 training images
        with pytest.raises(ValueError, match="n_train"):
            run_mnist(**mnist_kwargs(mnist_dir, reps=0, n_train=n_train))
        trained = []
        monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
        with pytest.raises(ValueError, match="n_train"):
            run_mnist(**mnist_kwargs(mnist_dir, reps=1, n_train=n_train))
        assert trained == []

    def test_every_training_image_may_be_drawn(self, mnist_dir):
        assert run_mnist(**mnist_kwargs(mnist_dir, reps=0, n_train=80)).status == "complete"

    def test_parsed_test_images_are_not_held_through_the_repetitions(self, mnist_dir,
                                                                      monkeypatch):
        run = lambda: run_mnist(**mnist_kwargs(mnist_dir, reps=0))  # noqa: E731
        # the test images go; the training images stay on disk
        assert resident_at_repeat(monkeypatch, "mnist", run) == ([False], [[]])

    def test_a_bad_label_no_repetition_draws_is_rejected_at_set_up(self, mnist_dir):
        path = mnist_dir / "train-labels-idx1-ubyte"
        labels = bytearray(path.read_bytes())
        labels[8 + 79] = 200  # the label of the last record
        path.write_bytes(labels)
        message = f"{path}: record 79: label 200 out of range for 10 classes"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            run_mnist(**mnist_kwargs(mnist_dir, reps=0))

    @pytest.mark.parametrize("prefix", ["train", "t10k"])
    def test_images_not_28x28_rejected_at_set_up_naming_the_file(self, mnist_dir, monkeypatch,
                                                                 prefix):
        path = mnist_dir / f"{prefix}-images-idx3-ubyte"
        (n,) = struct.unpack(">i", path.read_bytes()[4:8])
        path.write_bytes(struct.pack(">iiii", 0x803, n, 14, 14) + bytes(n * 14 * 14))
        message = f"{path}: expected 28x28 images, got 14x14"
        trained = []
        monkeypatch.setattr(distill, "train", lambda *args: trained.append(args))
        for reps in (0, 1):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_mnist(**mnist_kwargs(mnist_dir, reps=reps))
        assert trained == []

    def test_report_equals_a_run_on_whole_files(self, mnist_dir, monkeypatch):
        report = run_mnist(**mnist_kwargs(mnist_dir, reps=2))
        images = (mnist_dir / "train-images-idx3-ubyte").read_bytes()
        labels = (mnist_dir / "train-labels-idx1-ubyte").read_bytes()
        whole = WholeFile(np.frombuffer(images, np.uint8, offset=16).reshape(-1, 28, 28, 1),
                          np.frombuffer(labels, np.uint8, offset=8))
        monkeypatch.setattr(experiments, "open_idx", lambda *paths: whole)
        assert run_mnist(**mnist_kwargs(mnist_dir, reps=2)) == report

    def test_accuracy_equals_stacked_rows(self, mnist_dir, monkeypatch):
        calls = recorded(monkeypatch, "accuracy")
        run_mnist(**mnist_kwargs(mnist_dir, reps=1))
        assert len(calls) == 2 + 2  # the two lambda=0 cells reuse the regular student's score
        for (model, ds, view), value in calls:
            predicted = np.argmax(forward(model, stacked(ds, view)), axis=1)
            assert value == np.mean(predicted == np.argmax(stacked(ds, "y"), axis=1))

    def test_a_lambda_zero_student_that_differs_is_scored(self, mnist_dir, monkeypatch):
        # a cell reuses the regular score by model, not by lambda, so a wrong lambda=0 cell shows
        real = experiments.distill_student

        def zeroed_cells(data, soft, cfg):
            student = real(data, soft, cfg)
            if cfg.imitation == 0.0 and len(soft) > 0:
                student.params[:] = 0.0
            return student

        monkeypatch.setattr(experiments, "distill_student", zeroed_cells)
        calls = recorded(monkeypatch, "accuracy")
        run_mnist(**mnist_kwargs(mnist_dir, reps=1))
        # the two zeroed cells equal each other, not the regular student: each is scored
        assert len(calls) == 2 + 2 + 2
        # teacher, regular, then per T the lambda=0 and the lambda=1 cell
        assert [not model.params.any() for (model, *_), _ in calls] == [0, 0, 1, 0, 1, 0]

    def test_single_cell_equals_full_grid(self, mnist_dir):
        full = run_mnist(**mnist_kwargs(mnist_dir))
        single = run_mnist(**mnist_kwargs(mnist_dir, T_grid=(2.0,), lambda_grid=(1.0,)))
        assert (
            single.arm("distilled", temperature=2.0, imitation=1.0).values
            == full.arm("distilled", temperature=2.0, imitation=1.0).values
        )

    def test_lambda_zero_alone_equals_full_grid(self, mnist_dir):
        full = run_mnist(**mnist_kwargs(mnist_dir))
        alone = run_mnist(**mnist_kwargs(mnist_dir, T_grid=(2.0,), lambda_grid=(0.0,)))
        assert alone.arm("distilled", 2.0, 0.0).values == full.arm("distilled", 2.0, 0.0).values

    def test_training_and_test_rows_share_one_builder(self, mnist_dir, monkeypatch):
        # the test files are the training files, so every drawn record is also a test row
        for kind in ("images-idx3", "labels-idx1"):
            train_file = mnist_dir / f"train-{kind}-ubyte"
            (mnist_dir / f"t10k-{kind}-ubyte").write_bytes(train_file.read_bytes())
        run = lambda: run_mnist(**mnist_kwargs(mnist_dir, reps=1))
        [(_, train, test, _)] = problems_of(monkeypatch, run)
        at = rows_by_x_star(test)
        idx = [at[row.tobytes()] for row in train.column("x_star")]
        assert len(set(idx)) == len(train) == 30
        for view in ("x", "x_star", "y"):
            assert train.column(view).tobytes() == test.column(view)[idx].tobytes()

    def test_replay_from_config(self, mnist_dir):
        report = run_mnist(**mnist_kwargs(mnist_dir))
        assert run_from_config(report.config) == report

    def test_a_grid_of_lambda_zero_computes_no_soft_label(self, mnist_dir, monkeypatch):
        full = run_mnist(**mnist_kwargs(mnist_dir))
        calls = recorded(monkeypatch, "soft_labels")
        alone = run_mnist(**mnist_kwargs(mnist_dir, lambda_grid=(0.0,)))
        assert calls == []
        for T in (1.0, 2.0):
            cell = alone.arm("distilled", T, 0.0)
            assert cell.values == alone.arm("regular").values == full.arm("distilled", T, 0.0).values
        run_mnist(**mnist_kwargs(mnist_dir, reps=1))
        assert len(calls) == 2  # one per T once a lambda is not 0

    @pytest.mark.parametrize(
        "arch,message",
        [
            ("mlp:0", "hidden size must be an integer >= 1, got 0"),
            (5, "config['arch']: expected a string, got int"),
            ("mlp:3_0", "config['arch']: expected kind or kind:h1,h2,..., got 'mlp:3_0'"),
            ("mlp: 3", "config['arch']: expected kind or kind:h1,h2,..., got 'mlp: 3'"),
            ("mlp:+3", "config['arch']: expected kind or kind:h1,h2,..., got 'mlp:+3'"),
        ],
        ids=["zero", "int", "underscore", "space", "plus"],
    )
    def test_snapshot_with_a_bad_arch_rejected(self, mnist_dir, tmp_path, arch, message):
        # nothing exists at `nowhere`, so reading it first would raise FileNotFoundError
        config = run_mnist(**mnist_kwargs(mnist_dir, reps=0)).config
        config.update(arch=arch, data_dir=str(tmp_path / "nowhere"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_from_config(config)

    def test_snapshot_with_an_unknown_train_key_rejected_before_reading(self, mnist_dir, tmp_path):
        config = run_mnist(**mnist_kwargs(mnist_dir, reps=0)).config
        config.update(train={"bogus": 1}, data_dir=str(tmp_path / "nowhere"))
        with pytest.raises(ValueError, match=r"^config\['train'\]: unknown key 'bogus'$"):
            run_from_config(config)


@pytest.mark.parametrize("reps", [0, 1])
@pytest.mark.parametrize("runner", ["synthetic", "mnist", "cifar", "multitask"])
def test_sample_smaller_than_batch_rejected_before_training(
    runner, reps, mnist_dir, cifar_dir, multitask_path, monkeypatch
):
    # each runner's smallest training sample, one row short of the batch
    small = TrainConfig(learning_rate=0.05, epochs=2, batch_size=6)
    calls = {
        "synthetic": (lambda: run_synthetic(1, reps, SyntheticSpec(1, n_train=10, n_test=20)),
                      "spec.n_train 10 is smaller than batch_size 32"),
        "mnist": (lambda: run_mnist(**mnist_kwargs(mnist_dir, reps=reps, n_train=9)),
                  "n_train 9 is smaller than batch_size 10"),
        "cifar": (lambda: run_cifar_semisup(5, cifar_dir, reps=reps, train_config=small),
                  "n_labeled 5 is smaller than batch_size 6"),
        "multitask": (lambda: run_multitask(multitask_path, n_train=5, train_config=small),
                      "n_train 5 is smaller than batch_size 6"),
    }
    call, message = calls[runner]
    trained = []
    monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert trained == []


@pytest.mark.parametrize("reps", [-2, 2.5, "3", None, True])
@pytest.mark.parametrize("runner", ["synthetic", "mnist", "cifar"])
def test_bad_reps_rejected_before_reading_or_training(runner, reps, tmp_path, monkeypatch):
    # the data directory does not exist, so reading it first would raise FileNotFoundError
    nowhere = tmp_path / "nowhere"
    calls = {
        "synthetic": lambda: run_synthetic(1, reps, SyntheticSpec(1, n_train=40, n_test=20)),
        "mnist": lambda: run_mnist(data_dir=nowhere, reps=reps),
        "cifar": lambda: run_cifar_semisup(data_dir=nowhere, reps=reps),
    }
    touched = []
    for name in ("generate", "open_idx", "load_idx", "open_cifar", "load_cifar", "train_teacher"):
        monkeypatch.setattr(experiments, name, lambda *args, **kw: touched.append(args))
    with pytest.raises(ValueError, match="^reps must be"):
        calls[runner]()
    assert touched == []


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**53 + 1])
@pytest.mark.parametrize("runner", ["synthetic", "mnist", "cifar", "multitask"])
def test_bad_seed_rejected_before_reading_or_training(runner, seed, tmp_path, monkeypatch):
    # nothing exists at `nowhere`, so reading it first would raise FileNotFoundError
    nowhere = tmp_path / "nowhere"
    calls = {
        "synthetic": lambda reps: run_synthetic(1, reps, SyntheticSpec(1, n_train=40), seed=seed),
        "mnist": lambda reps: run_mnist(data_dir=nowhere, reps=reps, seed=seed),
        "cifar": lambda reps: run_cifar_semisup(data_dir=nowhere, reps=reps, seed=seed),
        "multitask": lambda reps: run_multitask(nowhere, seed=seed),
    }
    touched = []
    for name in ("generate", "open_idx", "load_idx", "open_cifar", "load_cifar", "load_multitask_csv",
                 "train_teacher"):
        monkeypatch.setattr(experiments, name, lambda *args, **kw: touched.append(args))
    for reps in (0, 1):
        with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, {2**53}\], got "):
            calls[runner](reps)
    assert touched == []


@pytest.mark.parametrize("runner, argument, value, message", [
    ("mnist", "n_train", 81, "n_train must be an integer in [1, 80], got 81"),
    ("mnist", "n_train", 9, "n_train 9 is smaller than batch_size 10"),
    ("mnist, no data", "n_train", 0, "n_train must be an integer >= 1, got 0"),
    ("mnist, no data", "n_train", 5, "n_train 5 is smaller than batch_size 10"),
    ("cifar", "n_labeled", 0, "n_labeled must be an integer >= 1, got 0"),
    ("cifar", "n_labeled", 5, "n_labeled 5 is smaller than batch_size 32"),
    ("cifar", "max_unlabeled", -1, "max_unlabeled must be an integer >= 0, got -1"),
    ("cifar", "max_unlabeled", 2.5, "max_unlabeled must be an integer >= 0, got 2.5"),
    ("multitask", "n_train", 0, "n_train must be an integer >= 1, got 0"),
    ("multitask", "n_train", 5, "n_train 5 is smaller than batch_size 32"),
    ("multitask", "test_cap", 0, "test_cap must be an integer >= 1, got 0"),
])
def test_size_argument_rejected_before_reading(runner, argument, value, message, mnist_dir,
                                               tmp_path, monkeypatch):
    # mnist's upper bound on n_train needs the opened training labels (the fixture's 80);
    # every other check needs no file, and nothing exists at `nowhere`
    nowhere = tmp_path / "nowhere"
    calls = {
        "mnist": lambda **kw: run_mnist(**mnist_kwargs(mnist_dir, **kw)),
        "mnist, no data": lambda **kw: run_mnist(**mnist_kwargs(nowhere, **kw)),
        "cifar": lambda **kw: run_cifar_semisup(data_dir=nowhere, **kw),
        "multitask": lambda **kw: run_multitask(nowhere, **kw),
    }
    touched = []
    for name in ("load_idx", "open_cifar", "load_cifar", "load_multitask_csv", "train_teacher"):
        monkeypatch.setattr(experiments, name, lambda *args, **kw: touched.append(args))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        calls[runner](**{argument: value})
    assert touched == []


@pytest.mark.parametrize("runner", ["mnist", "cifar"])
def test_an_empty_data_dir_is_no_data_dir(runner, mnist_dir, cifar_dir, tmp_path, monkeypatch):
    # an empty path would name the working directory, here one without the data
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    small = TrainConfig(learning_rate=0.05, epochs=2, batch_size=6)
    call = {
        "mnist": lambda data_dir: run_mnist(**mnist_kwargs(mnist_dir, data_dir=data_dir, reps=0)),
        "cifar": lambda data_dir: run_cifar_semisup(12, data_dir, reps=0, train_config=small),
    }[runner]
    message = "no data directory: pass data_dir or set DISTILLERY_DATA_DIR"
    monkeypatch.delenv("DISTILLERY_DATA_DIR", raising=False)
    with pytest.raises(FileNotFoundError, match=f"^{message}$"):
        call("")
    monkeypatch.setenv("DISTILLERY_DATA_DIR", "")
    for data_dir in (None, ""):
        with pytest.raises(FileNotFoundError, match=f"^{message}$"):
            call(data_dir)
    monkeypatch.setenv("DISTILLERY_DATA_DIR", str(tmp_path))  # the fixtures' data
    assert call("").config["data_dir"] == str(tmp_path)


# --- the number rule: every numeric argument is checked where it enters ------

# values of every kind a numeric argument may be given as: Python and numpy
# integers and floats (float32 too), bools, numpy bools, strings, NaN, +-inf,
# an int beyond the float range, and values out of any argument's range
NUMBERS = st.one_of(
    st.integers(-2, 90), st.integers(0, 90).map(np.uint8), st.integers(-2, 90).map(np.int64),
    st.floats(0, 1), st.floats(-2, 90), st.floats(-2, 90, width=32).map(np.float32),
    st.floats(-2, 90).map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float32(math.nan), 10**400, 2**53 + 1]),
    st.booleans(), st.booleans().map(np.bool_), st.sampled_from(["1", "0.5", "x", None]),
)
# reps stays 0 whenever it is accepted, so no call trains
ZERO_REPS = st.sampled_from([0, np.int64(0), np.uint8(0), 0.0, np.float32(0), False,
                             np.bool_(False), "0", -1, None])


def integer_in(low, high=math.inf):
    return lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool) and (
        low <= v <= high)


def real_in(low, high=math.inf, low_open=False):
    def ok(v):
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            return False
        try:
            x = float(v)
        except OverflowError:
            return False
        return math.isfinite(x) and (low < x if low_open else low <= x) and x <= high
    return ok


def a_path(v) -> bool:
    return isinstance(v, (str, os.PathLike))


def grid_of(rule):
    # a grid is drawn as a tuple, or as one value of NUMBERS, which is never a grid;
    # its values must be distinct
    return lambda grid: (isinstance(grid, tuple) and all(map(rule, grid))
                         and len(set(map(float, grid))) == len(grid))


TEMPERATURE, IMITATION = real_in(0.0, low_open=True), real_in(0.0, 1.0)
GRIDS = {"T_grid": grid_of(TEMPERATURE), "lambda_grid": grid_of(IMITATION)}
NUMBER_RULES = {
    "synthetic": {
        "experiment": integer_in(1, 4), "reps": integer_in(0), "seed": integer_in(0, 2**53),
        "temperature": TEMPERATURE, "imitation": IMITATION,
        "learning_rate": real_in(0.0, low_open=True), "l2": real_in(0.0), "epochs": integer_in(1),
        "spec": lambda v: v is None,  # no other value of NUMBERS is a SyntheticSpec
    },
    # the fixtures hold 80 and 50 training images, and the batch sizes are 10 and 6
    "mnist": {"n_train": integer_in(10, 80), "reps": integer_in(0),
              "seed": integer_in(0, 2**53), "data_dir": a_path, **GRIDS},
    "cifar": {
        "n_labeled": integer_in(6, 50), "sigma": real_in(0.0),
        "max_unlabeled": lambda v: v is None or integer_in(0)(v),
        "unlabeled_weight": real_in(0.0), "reps": integer_in(0), "seed": integer_in(0, 2**53),
        "data_dir": a_path, **GRIDS,
    },
}
# a string names a directory that is not there and None reads the environment, so
# data_dir is drawn from the other values
DRAWS = {
    "reps": ZERO_REPS,
    "data_dir": NUMBERS.filter(lambda v: v is not None and not isinstance(v, str)),
    **dict.fromkeys(GRIDS, st.lists(NUMBERS, max_size=3).map(tuple) | NUMBERS),
}


def synthetic_call(learning_rate, l2, epochs, **kw):
    train = TrainConfig(learning_rate=learning_rate, epochs=epochs, batch_size=20, l2=l2)
    return run_synthetic(teacher_train=train, student_train=train, **kw)


def plain(value) -> bool:
    """Whether `value` is built of Python str, int, float, None, lists and dicts only."""
    if isinstance(value, (list, dict)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return all(plain(k) and plain(v) for k, v in items)
    return type(value) in (str, int, float, type(None))


@pytest.mark.parametrize("runner", ["synthetic", "mnist", "cifar"])
@given(data=st.data())
@FUZZ
def test_number_rule_holds_for_every_runner_argument(runner, mnist_dir, cifar_dir, tmp_path,
                                                     data):
    valid = {
        "synthetic": dict(experiment=1, reps=0, seed=7, temperature=2.0, imitation=0.5,
                          learning_rate=0.1, l2=1e-4, epochs=5, spec=None),
        "mnist": mnist_kwargs(mnist_dir, reps=0),
        "cifar": dict(n_labeled=12, data_dir=cifar_dir, sigma=0.3, T_grid=(1.0, 5.0),
                      lambda_grid=(0.0, 0.5), max_unlabeled=20, unlabeled_weight=1.0, seed=5,
                      reps=0, train_config=TrainConfig(learning_rate=0.05, epochs=2, batch_size=6),
                      arch=Arch.mlp(4)),
    }[runner]
    call = {"synthetic": synthetic_call, "mnist": run_mnist, "cifar": run_cifar_semisup}[runner]
    rules = NUMBER_RULES[runner]
    for name in data.draw(st.sets(st.sampled_from(sorted(rules)), max_size=2)):
        valid[name] = data.draw(DRAWS.get(name, NUMBERS))
    rejected = tuple(name for name, ok in rules.items() if not ok(valid[name]))
    if rejected:
        with pytest.raises(ValueError) as e:
            call(**valid)
        assert str(e.value).startswith(rejected)
        return
    report = call(**valid)
    assert plain(dataclasses.asdict(report))
    emit_report(report, "json", tmp_path / "r.json")
    loaded = load_report_json(tmp_path / "r.json")
    assert loaded == report
    assert run_from_config(loaded.config) == report


@pytest.mark.parametrize("temperature", ["x", [1.0], True])
def test_bad_snapshot_temperature_fails_on_replay_as_in_the_call(temperature):
    config = json.loads(json.dumps({**tiny_synthetic(reps=0).config, "temperature": temperature}))
    with pytest.raises(ValueError) as direct:
        tiny_synthetic(reps=0, temperature=temperature)
    with pytest.raises(ValueError) as replayed:
        run_from_config(config)
    assert str(replayed.value) == str(direct.value)
    assert str(direct.value).startswith("temperature must be a finite real number > 0, got ")


@pytest.mark.parametrize("config, message", [
    ({"kind": "synthetic", "spec": {"d": 5}}, "config: missing key 'experiment'"),
    ({"kind": "synthetic"}, "config: missing key 'experiment'"),
    ({"kind": "multitask"}, "config: missing key 'path'"),
    ([], "config: expected an object, got list"),
    ("synthetic", "config: expected an object, got str"),
    (None, "config: expected an object, got NoneType"),
    ({"kind": ["synthetic"]}, "config['kind']: unknown experiment kind ['synthetic']"),
    ({"experiment": 1}, "config['kind']: unknown experiment kind None"),
    ({"kind": "synthetic", "experiment": 1, 1: 2, "x": 3}, "config: unknown key 1"),
    ({"kind": "synthetic", "experiment": 1, "spec": {"d": 5, 1: 2}}, "config['spec']: unknown key 1"),
], ids=["spec-without-experiment", "no-experiment", "no-path", "list", "str", "none",
        "unhashable-kind", "no-kind", "keys-of-two-types", "spec-keys-of-two-types"])
def test_malformed_config_rejected_naming_the_key(config, message, monkeypatch):
    trained = []
    monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_from_config(config)
    assert trained == []


def test_snapshot_records_every_config_field_but_the_stream():
    # a field added to TrainConfig or SyntheticSpec reaches the snapshot, and so the replay
    config = tiny_synthetic(reps=0).config
    train = [f.name for f in dataclasses.fields(TrainConfig) if f.name != "rng"]
    spec = [f.name for f in dataclasses.fields(SyntheticSpec) if f.name not in ("experiment", "rng")]
    assert list(config["teacher_train"]) == list(config["student_train"]) == train
    assert list(config["spec"]) == spec


@pytest.mark.parametrize("runner", ["mnist", "cifar", "multitask"])
def test_bad_grid_value_rejected_naming_the_grid(runner, mnist_dir, cifar_dir, multitask_path):
    # _snapshot writes the grids as they are, so a grid must be checked before it
    calls = {
        "mnist": lambda **grid: run_mnist(data_dir=mnist_dir, reps=0, **grid),
        "cifar": lambda **grid: run_cifar_semisup(data_dir=cifar_dir, reps=0, **grid),
        "multitask": lambda **grid: run_multitask(multitask_path, n_train=40, **grid),
    }
    for grid, message in [
        (dict(T_grid=("x",)), "T_grid[0] must be a finite real number > 0, got 'x'"),
        (dict(T_grid=(1.0, 0.0)), "T_grid[1] must be a finite real number > 0, got 0.0"),
        (dict(lambda_grid=(0.5, True)), "lambda_grid[1] must be a finite real number in [0, 1], got True"),
        (dict(T_grid=5), "T_grid must be a sequence of numbers, got 5"),
        (dict(lambda_grid="0,1"), "lambda_grid must be a sequence of numbers, got '0,1'"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calls[runner](**grid)


@pytest.mark.parametrize("runner", ["mnist", "cifar", "multitask"])
def test_repeated_grid_value_rejected_naming_both_indices(runner, mnist_dir, cifar_dir,
                                                          multitask_path, monkeypatch):
    # a cell is keyed by its (T, lambda), so a repeated value would double it
    small = TrainConfig(learning_rate=0.05, epochs=2, batch_size=6)
    calls = {
        "mnist": lambda **grid: run_mnist(**mnist_kwargs(mnist_dir, reps=0, **grid)),
        "cifar": lambda **grid: run_cifar_semisup(12, cifar_dir, reps=0, train_config=small, **grid),
        "multitask": lambda **grid: run_multitask(multitask_path, n_train=40, **grid),
    }
    trained = []
    monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
    with monkeypatch.context() as m:  # the snapshot of a run that trains nothing
        m.setattr(experiments, "_repeat", lambda *args, **kw: ([], []))
        config = calls[runner]().config
    for grid, message in [
        (dict(lambda_grid=(0.5, 0.0, 0.5)), "lambda_grid[2] repeats lambda_grid[0] (0.5)"),
        (dict(T_grid=(1, 2.0, 1.0)), "T_grid[2] repeats T_grid[0] (1.0)"),
        (dict(lambda_grid=(0.0, -0.0)), "lambda_grid[1] repeats lambda_grid[0] (-0.0)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calls[runner](**grid)
        replayed = {**config, **{key: list(values) for key, values in grid.items()}}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_from_config(replayed)
    assert trained == []


@pytest.mark.parametrize("argument, value, message", [
    ("path", 5, "path must be a str or os.PathLike, got 5"),
    ("delimiter", 5, "delimiter must be a non-empty string or None, got 5"),
    ("delimiter", "", "delimiter must be a non-empty string or None, got ''"),
])
def test_multitask_argument_of_wrong_kind_rejected_naming_it(multitask_path, argument, value,
                                                             message):
    # a path of 5 would otherwise be opened as file descriptor 5
    kwargs = {"path": multitask_path, "n_train": 40, argument: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_multitask(**kwargs)


@pytest.mark.parametrize("runner,argument", [
    ("synthetic", "teacher_train"), ("synthetic", "student_train"),
    ("mnist", "train_config"), ("mnist", "arch"),
    ("cifar", "train_config"), ("cifar", "arch"),
    ("multitask", "train_config"), ("multitask", "arch"),
])
def test_config_argument_of_wrong_kind_rejected_before_reading(runner, argument, tmp_path,
                                                               monkeypatch):
    # nothing exists at `nowhere`, so reading it first would raise FileNotFoundError
    nowhere = tmp_path / "nowhere"
    calls = {
        "synthetic": lambda **kw: run_synthetic(1, 0, SyntheticSpec(1, n_train=40), **kw),
        "mnist": lambda **kw: run_mnist(data_dir=nowhere, reps=0, **kw),
        "cifar": lambda **kw: run_cifar_semisup(data_dir=nowhere, reps=0, **kw),
        "multitask": lambda **kw: run_multitask(nowhere, **kw),
    }
    kind, other = ("an Arch", TrainConfig()) if argument == "arch" else ("a TrainConfig", Arch())
    touched = []
    for name in ("generate", "open_idx", "load_idx", "open_cifar", "load_cifar", "load_multitask_csv",
                 "train_teacher"):
        monkeypatch.setattr(experiments, name, lambda *args, **kw: touched.append(args))
    for value in (5, None, "mlp:4", other):
        message = f"{argument} must be {kind}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calls[runner](**{argument: value})
    assert touched == []


def test_configs_of_an_earlier_import_accepted(mnist_dir, monkeypatch):
    # a caller may build its configs from one import of distillery and run another
    for name in [m for m in sys.modules if m.split(".")[0] == "distillery"]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("distillery.experiments")
    assert fresh.TrainConfig is not TrainConfig and fresh.Arch is not Arch
    a, b = (run(**mnist_kwargs(mnist_dir, reps=1)) for run in (fresh.run_mnist, run_mnist))
    assert list(map(dataclasses.astuple, a.results)) == list(map(dataclasses.astuple, b.results))


@pytest.mark.parametrize("runner", ["synthetic", "mnist"])
def test_one_train_call_per_problem_builds_no_thread_pool(runner, mnist_dir, monkeypatch):
    # a synthetic problem's students, and a grid on one row set, train in one call
    def refuse(n):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(distill, "_workers", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    calls = {"synthetic": tiny_synthetic,
             "mnist": lambda: run_mnist(**mnist_kwargs(mnist_dir, lambda_grid=(0.0, 0.5, 1.0)))}
    assert calls[runner]().status == "complete"


class TestCifarMachinery:
    def cifar_kwargs(self, cifar_dir, **over):
        kw = dict(
            n_labeled=12,
            data_dir=cifar_dir,
            sigma=0.3,
            T_grid=(1.0, 5.0),
            lambda_grid=(0.0, 0.5, 1.0),
            max_unlabeled=20,
            seed=5,
            train_config=TrainConfig(learning_rate=0.05, epochs=2, batch_size=6),
            arch=Arch.mlp(4),
        )
        kw.update(over)
        return kw

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_labeled=0), dict(n_labeled=51), dict(max_unlabeled=-1),
            dict(n_labeled=30.5), dict(n_labeled=True), dict(n_labeled="3"),
            dict(max_unlabeled=30.5), dict(max_unlabeled=True), dict(max_unlabeled="3"),
        ],
    )
    def test_bad_sample_size_rejected_before_training(self, cifar_dir, monkeypatch, bad):
        # the fixture has 50 training images
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            run_cifar_semisup(**self.cifar_kwargs(cifar_dir, reps=0, **bad))
        trained = []
        monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
        with pytest.raises(ValueError, match=name):
            run_cifar_semisup(**self.cifar_kwargs(cifar_dir, reps=1, **bad))
        assert trained == []

    def test_parsed_test_images_are_not_held_through_the_repetitions(self, cifar_dir,
                                                                      monkeypatch):
        run = lambda: run_cifar_semisup(**self.cifar_kwargs(cifar_dir, reps=0))  # noqa: E731
        # the test batch goes; the training batches stay on disk
        assert resident_at_repeat(monkeypatch, "cifar", run) == ([False], [[]])

    def test_a_bad_label_no_repetition_draws_is_rejected_at_set_up(self, cifar_dir):
        path = cifar_dir / "data_batch_5.bin"
        records = bytearray(path.read_bytes())
        records[9 * 3073] = 10  # the label of the last record
        path.write_bytes(records)
        message = f"{path}: record 9: label 10 out of range for 10 classes"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            run_cifar_semisup(**self.cifar_kwargs(cifar_dir, reps=0))

    def test_report_equals_a_run_on_whole_files(self, cifar_dir, monkeypatch):
        report = run_cifar_semisup(**self.cifar_kwargs(cifar_dir, reps=2))
        records = np.frombuffer(b"".join(p.read_bytes() for p in sorted(cifar_dir.glob("data_*"))),
                                dtype=np.uint8).reshape(-1, 3073)
        whole = WholeFile(records[:, 1:].reshape(-1, 3, 32, 32), records[:, 0])
        monkeypatch.setattr(experiments, "open_cifar", lambda paths: whole)
        assert run_cifar_semisup(**self.cifar_kwargs(cifar_dir, reps=2)) == report

    def test_bad_sigma_rejected_before_training(self, cifar_dir, monkeypatch):
        trained = []
        monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
        with pytest.raises(ValueError, match="sigma"):
            run_cifar_semisup(**self.cifar_kwargs(cifar_dir, sigma=math.nan))
        assert trained == []

    def test_zero_unlabeled_weight_reduces_to_labeled_only(self, cifar_dir):
        report = run_cifar_semisup(**self.cifar_kwargs(cifar_dir, unlabeled_weight=0.0))
        for cell in report.cells("distilled"):
            twin = report.arm("distilled-labeled", cell.temperature, cell.imitation)
            assert cell.values == twin.values

    def test_lambda_zero_matches_supervised_baseline(self, cifar_dir):
        report = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))
        regular = report.arm("regular")
        for T in (1.0, 5.0):
            assert report.arm("distilled", T, 0.0).values == regular.values
            assert report.arm("distilled-labeled", T, 0.0).values == regular.values

    def test_lambda_zero_alone_equals_full_grid(self, cifar_dir):
        full = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))
        alone = run_cifar_semisup(**self.cifar_kwargs(cifar_dir, T_grid=(5.0,), lambda_grid=(0.0,)))
        for arm in ("distilled", "distilled-labeled"):
            assert alone.arm(arm, 5.0, 0.0).values == full.arm(arm, 5.0, 0.0).values

    def test_lambda_one_alone_equals_full_grid(self, cifar_dir):
        # alone, the lambda = 1 students train in other groups than in the full grid
        full = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))
        alone = run_cifar_semisup(**self.cifar_kwargs(cifar_dir, lambda_grid=(1.0,)))
        for arm in ("distilled", "distilled-labeled"):
            for T in (1.0, 5.0):
                assert alone.arm(arm, T, 1.0).values == full.arm(arm, T, 1.0).values
        assert alone.arm("regular") == full.arm("regular")

    def test_report_does_not_depend_on_the_worker_count(self, cifar_dir, monkeypatch):
        # two train calls per repetition: the labeled rows and the whole pool
        pools = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda n: pools.append(n) or ThreadPoolExecutor(n))
        reports = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(distill, "_workers", lambda: workers)
            reports.append(run_cifar_semisup(**self.cifar_kwargs(cifar_dir, reps=2)))
        assert reports[0] == reports[1] == reports[2]
        assert pools == [2] * 4

    def test_deterministic(self, cifar_dir):
        a = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))
        b = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))
        assert a == b

    def test_training_and_test_rows_share_one_builder(self, cifar_dir, monkeypatch):
        # the test batch is training batch 3, so its ten records are also training rows;
        # the noise differs (another stream), the clean pixels and labels may not
        (cifar_dir / "test_batch.bin").write_bytes((cifar_dir / "data_batch_3.bin").read_bytes())
        kw = self.cifar_kwargs(cifar_dir, n_labeled=50, max_unlabeled=None, reps=1)
        [(_, train, test, _)] = problems_of(monkeypatch, lambda: run_cifar_semisup(**kw))
        at = rows_by_x_star(test)
        rows = [(i, at[r.tobytes()]) for i, r in enumerate(train.column("x_star")) if r.tobytes() in at]
        i, j = np.array(rows).T
        assert sorted(j) == list(range(10))
        for view in ("x_star", "y"):
            assert train.column(view)[i].tobytes() == test.column(view)[j].tobytes()

    def test_replay_from_config(self, cifar_dir):
        report = run_cifar_semisup(**self.cifar_kwargs(cifar_dir, unlabeled_weight=0.5, reps=2))
        assert run_from_config(report.config) == report

    def test_a_diverged_student_trains_once(self, cifar_dir, monkeypatch):
        # the distilled arm's lambda = 1 students diverge under their huge soft
        # weight; per repetition the teacher, the labeled rows' students and
        # the pool's students train in one call each, and no student again
        real, calls = distill.train, []
        monkeypatch.setattr(distill, "train", lambda *args: calls.append(args) or real(*args))
        report = run_cifar_semisup(**self.cifar_kwargs(
            cifar_dir, unlabeled_weight=1e300, T_grid=(1.0, 2.0), lambda_grid=(0.0, 1.0), reps=2))
        assert len(calls) == 3 * 2
        diverged = "non-finite training loss inf at epoch 0"
        assert report.errors == [f"rep {r} cell T={T} lambda=1.0: {diverged}"
                                 for r in (0, 1) for T in (1.0, 2.0)]
        for r in report.results:
            empty = r.imitation == 1.0
            assert (r.status, len(r.values)) == (("incomplete", 0) if empty else ("complete", 2))

    def test_diverged_cell_drops_both_distilled_arms(self, cifar_dir, tmp_path, monkeypatch):
        clean = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))

        def labeled_only_student(k, data, soft, cfg):
            # call 0 trains the regular student; calls 1-6 are T = 1 and 7-12 are T = 5
            return k >= 7 and (cfg.imitation, cfg.unlabeled_weight) == (1.0, 0.0)

        diverge_on(monkeypatch, "distill_student", labeled_only_student)
        report = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))
        assert report.errors == [f"rep 0 cell T=5.0 lambda=1.0: {DIVERGED}"]
        assert report.status == "incomplete"
        for r, c in zip(report.results, clean.results):
            if (r.temperature, r.imitation) == (5.0, 1.0):
                assert r.values == [] and r.status == "incomplete" and math.isnan(r.mean)
            else:
                assert r == c
        path = tmp_path / "diverged.json"
        emit_report(report, "json", path)
        assert load_report_json(path) == report


class TestMultitaskMachinery:
    def mt_kwargs(self, path, **over):
        kw = dict(
            n_train=25,
            T_grid=(1.0,),
            lambda_grid=(0.0, 1.0),
            seed=11,
            test_cap=20,
            train_config=TrainConfig(learning_rate=0.02, epochs=5, batch_size=5),
            arch=Arch.mlp(4),
        )
        kw.update(over)
        return kw

    def test_reports_per_task_and_aggregate(self, multitask_path):
        report = run_multitask(multitask_path, **self.mt_kwargs(multitask_path))
        agg = report.arm("privileged")
        assert agg.metric == "mse" and agg.reps == 7
        per_task = [r for r in report.results if r.arm.startswith("privileged/task")]
        assert len(per_task) == 7
        np.testing.assert_allclose(agg.mean, np.mean([r.mean for r in per_task]), rtol=1e-12)

    def test_diverged_task_keeps_other_task_ids(self, multitask_path, monkeypatch):
        clean = run_multitask(multitask_path, **self.mt_kwargs(multitask_path))
        diverge_on(monkeypatch, "train_teacher", lambda k, *args: k == 2)
        report = run_multitask(multitask_path, **self.mt_kwargs(multitask_path))
        assert report.errors == [f"task 2: {DIVERGED}"]
        assert report.status == "incomplete" and report.arm("regular").reps == 6
        names = {r.arm for r in report.results}
        assert "regular/task2" not in names and "distilled/task2" not in names
        kept = [("privileged/task3", ()), ("regular/task6", ()), ("distilled/task3", (1.0, 1.0))]
        for arm, cell in kept:
            assert report.arm(arm, *cell) == clean.arm(arm, *cell)

    def test_mse_equals_stacked_rows(self, multitask_path, monkeypatch):
        calls = recorded(monkeypatch, "mse")
        run_multitask(multitask_path, **self.mt_kwargs(multitask_path))
        assert len(calls) == 7 * (2 + 1)  # the lambda=0 cell reuses the regular student's score
        for (model, ds, view), value in calls:
            assert value == np.mean((forward(model, stacked(ds, view)) - stacked(ds, "y")) ** 2)

    def test_lambda_zero_cell_equals_regular(self, multitask_path):
        report = run_multitask(multitask_path, **self.mt_kwargs(multitask_path))
        assert report.arm("distilled", 1.0, 0.0).values == report.arm("regular").values

    def test_one_cell_alone_equals_full_grid_on_every_task(self, multitask_path):
        full = run_multitask(multitask_path, **self.mt_kwargs(multitask_path,
                                                                 lambda_grid=(0.0, 0.5, 1.0)))
        alone = run_multitask(multitask_path, **self.mt_kwargs(multitask_path, lambda_grid=(0.5,)))
        cells = [r for r in alone.results if r.temperature is not None]
        assert len(cells) == 1 + 7  # the aggregate and one row per task
        for r in cells:
            assert r == full.arm(r.arm, 1.0, 0.5)
        for j in range(7):
            regular = full.arm(f"regular/task{j}")
            assert full.arm(f"distilled/task{j}", 1.0, 0.0).values == regular.values

    def test_replay_from_config(self, multitask_path):
        report = run_multitask(multitask_path, **self.mt_kwargs(multitask_path))
        assert run_from_config(report.config) == report

    def test_needs_enough_rows(self, multitask_path):
        with pytest.raises(ValueError):
            run_multitask(multitask_path, n_train=60)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_train=0), dict(n_train=-1), dict(test_cap=0), dict(test_cap=-5),
            dict(n_train=30.5), dict(n_train=True), dict(n_train="3"),
            dict(test_cap=30.5), dict(test_cap=True), dict(test_cap="3"),
        ],
    )
    def test_bad_sample_size_rejected_before_training(self, multitask_path, monkeypatch, bad):
        (name,) = bad
        trained = []
        monkeypatch.setattr(experiments, "train_teacher", lambda *args: trained.append(args))
        with pytest.raises(ValueError, match=name):
            run_multitask(multitask_path, **self.mt_kwargs(multitask_path, **bad))
        assert trained == []


class TestCli:
    def test_synthetic_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli_main([
            "synthetic", "--experiment", "1", "--reps", "1",
            "--n-train", "40", "--n-test", "50", "--out", str(out),
        ])
        assert code == 0 and load_report_csv(out)[0]["arm"] == "privileged"  # csv by default
        assert "privileged" in capsys.readouterr().out

    def test_format_without_out_exits_2_before_running(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(RUNNERS, "synthetic", lambda **kw: ran.append(kw))
        with pytest.raises(SystemExit) as e:
            cli_main(["synthetic", "--experiment", "1", "--reps", "1", "--format", "json"])
        assert e.value.code == 2 and ran == []
        assert "argument --format: not allowed without argument --out" in capsys.readouterr().err

    def test_report_errors_warn_and_per_task_rows_stay_out_of_the_summary(
            self, multitask_path, capsys, monkeypatch):
        diverge_on(monkeypatch, "train_teacher", lambda k, *args: k in (2, 5))
        code = cli_main(["multitask", "--path", str(multitask_path), "--n-train", "40",
                         "--test-cap", "20", "--T", "1", "--lambda", "0,1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == f"warning: task 2: {DIVERGED}\nwarning: task 5: {DIVERGED}\n"
        summary = [line.split(":")[0] for line in captured.out.splitlines()]
        assert summary == ["multitask", "  privileged", "  regular",
                           "  distilled T=1 lambda=0", "  distilled T=1 lambda=1"]

    def test_missing_data_is_single_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DISTILLERY_DATA_DIR", raising=False)
        code = cli_main(["mnist", "--data-dir", str(tmp_path / "nowhere")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_empty_data_dir_is_no_data_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("DISTILLERY_DATA_DIR", raising=False)
        assert cli_main(["mnist", "--data-dir", ""]) == 2
        message = "no data directory: pass data_dir or set DISTILLERY_DATA_DIR"
        assert capsys.readouterr().err == f"error: FileNotFoundError: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["mnist", "--reps", "0", "--T", "1", "--lambda", "0,0"],
         "lambda_grid[1] repeats lambda_grid[0] (0.0)"),
        (["multitask", "--T", "2,1,2", "--lambda", "0"], "T_grid[2] repeats T_grid[0] (2.0)"),
    ])
    def test_repeated_grid_value_exits_2(self, mnist_dir, multitask_path, capsys, argv, message):
        data = {"mnist": ["--data-dir", str(mnist_dir)], "multitask": ["--path", str(multitask_path)]}
        code, captured = cli_main(argv + data[argv[0]]), capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: ValueError: {message}\n"

    def test_env_var_supplies_data_dir(self, mnist_dir, monkeypatch, tmp_path):
        monkeypatch.setenv("DISTILLERY_DATA_DIR", str(mnist_dir))
        out = tmp_path / "m.json"
        code = cli_main([
            "mnist", "--n-train", "40", "--reps", "1", "--T", "1", "--lambda", "0,1",
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        assert load_report_json(out).experiment_id == "mnist-40"

    def test_options_are_named_after_runner_parameters(self):
        # _dispatch passes an option only if its dest is a runner parameter;
        # a misspelt dest would silently fall back to the runner's default
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command, p in sub.choices.items():
            dests = {a.dest for a in p._actions} - {"help", "out", "format"}
            if command == "synthetic":
                dests -= {"n_train", "n_test"}  # they build the SyntheticSpec
            assert dests <= set(inspect.signature(RUNNERS[command]).parameters), command

    def test_report_equals_the_runner_call(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main([
            "synthetic", "--experiment", "1", "--reps", "1",
            "--n-train", "40", "--n-test", "50", "--out", str(out), "--format", "json",
        ])
        assert code == 0
        spec = SyntheticSpec(1, n_train=40, n_test=50)
        assert load_report_json(out) == run_synthetic(1, reps=1, spec=spec)

    @pytest.mark.parametrize(
        "argv,passed",
        [
            (["synthetic", "--experiment", "2"], dict(experiment=2, spec=SyntheticSpec(2))),
            (
                ["synthetic", "--experiment", "1", "--n-test", "50", "--T", "2"],
                dict(experiment=1, spec=SyntheticSpec(1, n_test=50), temperature=2.0),
            ),
            (["mnist", "--reps", "0"], dict(reps=0)),
            (["cifar"], {}),
            (["multitask", "--path", "t.csv", "--seed", "4"], dict(path="t.csv", seed=4)),
        ],
    )
    def test_options_left_out_are_not_passed(self, monkeypatch, argv, passed):
        # a runner parameter whose option is left out keeps the runner's default
        runner, received = RUNNERS[argv[0]], []

        @functools.wraps(runner)
        def record(**kwargs):
            received.append(kwargs)

        monkeypatch.setitem(RUNNERS, argv[0], record)
        _dispatch(build_parser().parse_args(argv))
        assert received == [passed]

    def test_bad_reps_exits_2(self, capsys):
        code = cli_main(["synthetic", "--experiment", "1", "--reps", "-2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: ValueError: reps must be an integer >= 0, got -2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthetic", "--experiment", "1", "--reps", "\u0660"],
            ["synthetic", "--experiment", "\u0663"],
            ["synthetic", "--experiment", "1", "--n-train", "4_0"],
            ["synthetic", "--experiment", "1", "--T", " 1"],
            ["synthetic", "--experiment", "1", "--lambda", "0.5 "],
            ["mnist", "--seed", "1_000"],
            ["cifar", "--sigma", "0_5"],
            ["cifar", "--max-unlabeled", "\u0661\u0660"],
            ["multitask", "--path", "t.csv", "--test-cap", " 5"],
        ],
    )
    def test_number_with_a_separator_non_ascii_or_whitespace_is_refused(self, capsys, argv):
        option, text = argv[-2:]
        kind = "float" if option in ("--T", "--lambda", "--sigma") else "int"
        with pytest.raises(SystemExit) as e:
            cli_main(argv)
        assert e.value.code == 2
        assert f"argument {option}: invalid {kind} value: {text!r}" in capsys.readouterr().err

    def test_bad_grid_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["mnist", "--T", "1,x"])

    @pytest.mark.parametrize("text", ["1_0,\u0662", "1_0", "1,\u0662", "1, 2", " 1", "1.5\t"])
    def test_grid_number_with_a_separator_non_ascii_or_whitespace_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError) as e:
            _grid(text)
        assert str(e.value) == f"not a comma-separated float list: {text!r}"

    @pytest.mark.parametrize("text", ["", ",", " "])
    def test_empty_grid_is_not_a_float_list(self, text):
        with pytest.raises(argparse.ArgumentTypeError) as e:
            _grid(text)
        assert str(e.value) == f"not a comma-separated float list: {text!r}"
