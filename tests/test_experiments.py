import argparse
import dataclasses
import inspect
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distillery import __version__, experiments
from distillery.cli import build_parser
from distillery.cli import main as cli_main
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


def tiny_synthetic(reps=2, **kw):
    spec = SyntheticSpec(1, n_train=40, n_test=100)
    fast = TrainConfig(learning_rate=0.1, epochs=5, batch_size=20)
    return run_synthetic(1, reps=reps, spec=spec, seed=7,
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
        ]:
            path.write_text("\n".join(lines[: k - 1] + [line] + lines[k:]) + "\n")
            with pytest.raises(ValueError, match=f"^line {k}: {message}"):
                load_report_csv(path)

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

    def test_arm_lookup(self):
        report = tiny_synthetic()
        assert report.arm("regular").reps == 2
        cell = report.arm("distilled", temperature=1.0, imitation=1.0)
        assert cell.metric == "accuracy" and len(cell.values) == 2

    def test_config_snapshot_format(self):
        train = {"learning_rate": 0.1, "epochs": 5, "batch_size": 20, "l2": 1e-4,
                 "init_scale": "fan_in_normal"}
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

    def test_diverged_teacher_drops_the_repetition(self, monkeypatch):
        clean = tiny_synthetic()
        diverge_on(monkeypatch, "train_teacher", lambda k, *args: k == 0)
        report = tiny_synthetic()
        assert report.errors == [f"rep 0: {DIVERGED}"]
        assert report.status == "incomplete"
        for r, c in zip(report.results, clean.results):
            assert r.values == c.values[1:] and r.status == "incomplete"


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

    @pytest.mark.parametrize("n_train", [0, -1, 81])
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

    def test_accuracy_equals_stacked_rows(self, mnist_dir, monkeypatch):
        calls = recorded(monkeypatch, "accuracy")
        run_mnist(**mnist_kwargs(mnist_dir, reps=1))
        assert len(calls) == 2 + 4
        for (model, ds, view), value in calls:
            predicted = np.argmax(forward(model, stacked(ds, view)), axis=1)
            assert value == np.mean(predicted == np.argmax(stacked(ds, "y"), axis=1))

    def test_single_cell_equals_full_grid(self, mnist_dir):
        full = run_mnist(**mnist_kwargs(mnist_dir))
        single = run_mnist(**mnist_kwargs(mnist_dir, T_grid=(2.0,), lambda_grid=(1.0,)))
        assert (
            single.arm("distilled", temperature=2.0, imitation=1.0).values
            == full.arm("distilled", temperature=2.0, imitation=1.0).values
        )

    def test_replay_from_config(self, mnist_dir):
        report = run_mnist(**mnist_kwargs(mnist_dir))
        assert run_from_config(report.config) == report


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
        "bad", [dict(n_labeled=0), dict(n_labeled=51), dict(max_unlabeled=-1)]
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

    def test_deterministic(self, cifar_dir):
        a = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))
        b = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))
        assert a == b

    def test_replay_from_config(self, cifar_dir):
        report = run_cifar_semisup(**self.cifar_kwargs(cifar_dir, unlabeled_weight=0.5, reps=2))
        assert run_from_config(report.config) == report

    def test_diverged_cell_drops_both_distilled_arms(self, cifar_dir, tmp_path, monkeypatch):
        clean = run_cifar_semisup(**self.cifar_kwargs(cifar_dir))

        def labeled_only_student(k, data, soft, cfg):
            return (cfg.temperature, cfg.imitation) == (5.0, 1.0) and len(soft) == 12

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
        assert len(calls) == 7 * (2 + 2)
        for (model, ds, view), value in calls:
            assert value == np.mean((forward(model, stacked(ds, view)) - stacked(ds, "y")) ** 2)

    def test_lambda_zero_cell_equals_regular(self, multitask_path):
        report = run_multitask(multitask_path, **self.mt_kwargs(multitask_path))
        assert report.arm("distilled", 1.0, 0.0).values == report.arm("regular").values

    def test_replay_from_config(self, multitask_path):
        report = run_multitask(multitask_path, **self.mt_kwargs(multitask_path))
        assert run_from_config(report.config) == report

    def test_needs_enough_rows(self, multitask_path):
        with pytest.raises(ValueError):
            run_multitask(multitask_path, n_train=60)

    @pytest.mark.parametrize(
        "bad", [dict(n_train=0), dict(n_train=-1), dict(test_cap=0), dict(test_cap=-5)]
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
        assert code == 0 and out.exists()
        assert "privileged" in capsys.readouterr().out

    def test_missing_data_is_single_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DISTILLERY_DATA_DIR", raising=False)
        code = cli_main(["mnist", "--data-dir", str(tmp_path / "nowhere")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")

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

    def test_bad_grid_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["mnist", "--T", "1,x"])
