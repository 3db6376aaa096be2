"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (run with
`pytest -s` to see them stream).  Criteria on real datasets skip when
the files are not present under DISTILLERY_DATA_DIR; the CIFAR
criterion additionally carries the `slow` marker (select with
`pytest -m slow`).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from distillery.core import RngStream, cross_entropy, one_hot, softmax
from distillery.distill import Triplet, clean_subset
from distillery.experiments import (
    MNIST_FILES,
    CIFAR_TRAIN_FILES,
    CIFAR_TEST_FILE,
    run_mnist,
    run_cifar_semisup,
    run_multitask,
    run_synthetic,
)
from distillery.models import (
    Arch,
    Packed,
    TrainConfig,
    gradient,
    init_model,
    loss,
    train,
)
from distillery.synthetic import SyntheticSpec, draw_hyperplane, generate, replay_labels

_cache = {}


def synthetic_report(exp):
    if exp not in _cache:
        t0 = time.time()
        _cache[exp] = run_synthetic(exp)
        _cache[f"time-{exp}"] = time.time() - t0
    return _cache[exp]


def check(num, name, checks):
    ok = all(passed for _, passed in checks)
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    for label, passed in checks:
        print(f"    [{'ok' if passed else 'FAILED'}] {label}")
    assert ok, f"criterion {num} ({name}) failed"


def arm_means(report):
    p = report.arm("privileged").mean * 100
    r = report.arm("regular").mean * 100
    d = report.arm("distilled", 1.0, 1.0).mean * 100
    return p, r, d


def data_root():
    p = os.environ.get("DISTILLERY_DATA_DIR")
    return Path(p) if p else None


def have_files(names, subdir):
    root = data_root()
    if root is None:
        return False
    return any(all((base / n).exists() for n in names) for base in (root, root / subdir))


needs_mnist = pytest.mark.skipif(
    not have_files(MNIST_FILES, "mnist"),
    reason="MNIST IDX files not available under DISTILLERY_DATA_DIR",
)
needs_cifar = pytest.mark.skipif(
    not have_files(CIFAR_TRAIN_FILES + (CIFAR_TEST_FILE,), "cifar-10-batches-bin"),
    reason="CIFAR-10 binary batches not available under DISTILLERY_DATA_DIR",
)


def sarcos_path():
    root = data_root()
    if root is None:
        return None
    for candidate in (root / "sarcos" / "sarcos_inv.csv", root / "sarcos_inv.csv"):
        if candidate.exists():
            return candidate
    return None


needs_sarcos = pytest.mark.skipif(
    sarcos_path() is None,
    reason="SARCOS csv export not available under DISTILLERY_DATA_DIR",
)


class TestSyntheticCriteria:
    def test_criterion_1_noisy_labels(self):
        report = synthetic_report(1)
        p, r, d = arm_means(report)
        elapsed = _cache["time-1"]
        check(1, "synthetic setup 1", [
            (f"privileged {p:.1f} within 96+-3", abs(p - 96) <= 3),
            (f"regular {r:.1f} within 88+-3", abs(r - 88) <= 3),
            (f"distilled {d:.1f} within 95+-3", abs(d - 95) <= 3),
            (f"distilled-regular {d - r:+.1f} >= +4", d - r >= 4),
            (f"runtime {elapsed:.0f}s <= 300s", elapsed <= 300),
        ])

    def test_criterion_2_noisy_features(self):
        p, r, d = arm_means(synthetic_report(2))
        check(2, "synthetic setup 2", [
            (f"privileged {p:.1f} within 90+-3", abs(p - 90) <= 3),
            (f"regular {r:.1f} within 68+-3", abs(r - 68) <= 3),
            (f"distilled {d:.1f} within 70+-3", abs(d - 70) <= 3),
            (f"|distilled-regular| {abs(d - r):.1f} <= 3", abs(d - r) <= 3),
        ])

    def test_criterion_3_relevant_subset(self):
        p, r, d = arm_means(synthetic_report(3))
        check(3, "synthetic setup 3", [
            (f"privileged {p:.1f} within 98+-3", abs(p - 98) <= 3),
            (f"regular {r:.1f} within 89+-3", abs(r - 89) <= 3),
            (f"distilled {d:.1f} within 97+-3", abs(d - 97) <= 3),
            (f"distilled-regular {d - r:+.1f} >= +5", d - r >= 5),
        ])

    def test_criterion_4_per_sample_subset(self):
        p, r, d = arm_means(synthetic_report(4))
        check(4, "synthetic setup 4", [
            (f"privileged {p:.1f} within 96+-3", abs(p - 96) <= 3),
            (f"regular {r:.1f} within 55+-6", abs(r - 55) <= 6),
            (f"distilled {d:.1f} within 56+-6", abs(d - 56) <= 6),
            (f"|distilled-regular| {abs(d - r):.1f} <= 5", abs(d - r) <= 5),
        ])


@needs_mnist
class TestMnistCriterion:
    def test_criterion_5_downscaled_student(self):
        t0 = time.time()
        r300 = run_mnist(n_train=300, data_dir=data_root())
        r500 = run_mnist(n_train=500, data_dir=data_root())
        elapsed = time.time() - t0
        gain300 = (r300.best_cell().mean - r300.arm("regular").mean) * 100
        gain500 = (r500.best_cell().mean - r500.arm("regular").mean) * 100
        check(5, "downscaled image student", [
            (f"n=300 best-cell gain {gain300:+.2f} >= 1 point", gain300 >= 1.0),
            (f"n=500 gain {gain500:+.2f} <= n=300 gain {gain300:+.2f}", gain500 <= gain300),
            (f"runtime {elapsed:.0f}s <= 900s", elapsed <= 900),
        ])


@needs_cifar
@pytest.mark.slow
class TestCifarCriterion:
    def test_criterion_6_semi_supervised(self):
        t0 = time.time()
        report = run_cifar_semisup(max_unlabeled=10_000, data_dir=data_root())
        elapsed = time.time() - t0
        base = report.arm("regular").mean * 100
        semi = report.best_cell("distilled").mean * 100
        lab = report.best_cell("distilled-labeled").mean * 100
        check(6, "semi-supervised noisy images", [
            (f"semisup best {semi:.2f} beats baseline {base:.2f} by >= 2", semi - base >= 2.0),
            (f"labeled-only best {lab:.2f} improves < 1", lab - base < 1.0),
            (f"runtime {elapsed:.0f}s <= 7200s", elapsed <= 7200),
        ])


@needs_sarcos
class TestMultitaskCriterion:
    def test_criterion_7_torque_regression(self):
        report = run_multitask(sarcos_path())
        teacher = report.arm("privileged").mean
        regular = report.arm("regular").mean
        best = report.best_cell().mean
        check(7, "multitask torque regression", [
            (
                f"best distilled MSE {best:.4f} within 10% of teacher {teacher:.4f} "
                f"or below regular {regular:.4f}",
                best <= 1.1 * teacher or best < regular,
            ),
        ])


class TestPropertySuite:
    def test_criterion_8_properties(self):
        checks = []
        rng = np.random.default_rng(8)

        # softmax normalization / shift / temperature identities
        ok_norm = ok_shift = ok_temp = ok_sharp = ok_argmax = True
        for _ in range(300):
            z = rng.normal(size=rng.integers(2, 9)) * rng.uniform(0.1, 30)
            T = rng.uniform(0.2, 60)
            p = softmax(z, T)
            ok_norm &= abs(p.sum() - 1) <= 1e-9 and np.all(p > 0)
            c = rng.uniform(-100, 100)
            ok_shift &= np.max(np.abs(softmax(z + c, T) - p)) <= 1e-12
            ok_temp &= np.array_equal(p, softmax(z / T, 1.0))
            ok_sharp &= softmax(z, 0.5 * T).max() >= p.max() - 1e-15
            ok_argmax &= np.argmax(p) == np.argmax(z)
        checks += [
            ("softmax normalization within 1e-9, strictly positive", ok_norm),
            ("softmax shift invariance within 1e-12", ok_shift),
            ("softmax(z, T) == softmax(z/T, 1) exactly", ok_temp),
            ("monotone sharpening in T", ok_sharp),
            ("argmax preserved for every T", ok_argmax),
        ]

        # Gibbs inequality, 1e4 random cases, slack 1e-9
        ok_gibbs = True
        for _ in range(10_000):
            c = rng.integers(2, 6)
            y = rng.dirichlet(np.ones(c))
            z = rng.normal(size=c) * rng.uniform(0.1, 25)
            ent = float(-np.sum(np.where(y > 0, y * np.log(y), 0.0)))
            ok_gibbs &= cross_entropy(y, z) >= ent - 1e-9
        checks.append(("Gibbs inequality on 1e4 cases", ok_gibbs))

        checks.append(("analytic gradient vs finite differences <= 1e-4", self._gradcheck()))
        checks.append(("loss linear in the imitation weight", self._lambda_linearity()))
        checks.append(("clean_subset definitional behavior", self._clean_subset()))
        checks.append(("generator label replay, zero mismatches", self._replay()))
        checks.append(("run_synthetic bitwise deterministic", self._determinism()))
        check(8, "property suite", checks)

    @staticmethod
    def _gradcheck():
        rng = np.random.default_rng(88)
        for k in range(100):
            lam = [0.0, 1.0, 0.4][k % 3]
            arch = [Arch("linear"), Arch.mlp(4), Arch.mlp(4, 3)][k % 3]
            task = "regression" if k % 5 == 4 else "classification"
            for attempt in range(50):
                m = init_model(arch, 3, 2, task=task, rng=RngStream(4000 + k, attempt))
                rows = []
                for _ in range(5):
                    x = rng.normal(size=3)
                    if task == "classification":
                        hard, soft = one_hot(rng.integers(2), 2), rng.dirichlet(np.ones(2))
                    else:
                        hard, soft = rng.normal(size=2), rng.normal(size=2)
                    rows.append((x, hard, soft))
                batch = _mixed(rows, task, 1 - lam, lam)
                if _kink_distance(m, batch) > 1e-3:
                    break
            T = 1.0 if task == "regression" else [1.0, 2.0][k % 2]
            l2 = [0.0, 0.1][k % 2]
            g = gradient(m, batch, T, l2)
            ga = np.concatenate([a.ravel() for a in g.weights + g.biases])
            gf = _fd_grad(m, batch, T, l2)
            err = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-8)
            if err > 1e-4:
                return False
        return True

    @staticmethod
    def _lambda_linearity():
        rng = np.random.default_rng(9)
        m = init_model(Arch.mlp(5), 4, 3, rng=RngStream(9))
        base = []
        for _ in range(8):
            base.append((rng.normal(size=4), one_hot(rng.integers(3), 3), rng.dirichlet(np.ones(3))))

        def at(lam):
            return loss(m, _mixed(base, "classification", 1 - lam, lam), l2=0.01)

        l0, l1 = at(0.0), at(1.0)
        return all(
            math.isclose(at(lam), (1 - lam) * l0 + lam * l1, rel_tol=1e-12)
            for lam in (0.25, 0.5, 0.75)
        )

    @staticmethod
    def _clean_subset():
        a = Triplet(x=np.zeros(2), y=one_hot(0, 2))
        b = Triplet(x=np.zeros(2), x_star=np.zeros(1), y=one_hot(1, 2))
        full = clean_subset([a, b], ("x", "x_star", "y"))
        return (
            full == [b]
            and clean_subset([b, b], ("x", "x_star", "y")) == [b, b]
            and clean_subset([a], ("x_star",)) == []
        )

    @staticmethod
    def _replay():
        for exp in (1, 2, 3, 4):
            spec = SyntheticSpec(exp, n_train=2000)
            hp = draw_hyperplane(spec, RngStream(80, exp))
            ds = generate(spec, hp, rng=RngStream(81, exp))
            stored = np.array([int(np.argmax(t.y)) for t in ds.examples])
            if np.any(replay_labels(ds) != stored):
                return False
        return True

    @staticmethod
    def _determinism():
        spec = SyntheticSpec(1, n_train=40, n_test=400)
        fast = TrainConfig(learning_rate=0.1, epochs=5, batch_size=20)
        a = run_synthetic(1, reps=3, spec=spec, seed=42, teacher_train=fast, student_train=fast)
        b = run_synthetic(1, reps=3, spec=spec, seed=42, teacher_train=fast, student_train=fast)
        return a == b


class TestOracleEquivalence:
    def test_criterion_9_convex_logistic(self):
        rng = np.random.default_rng(20)
        rows = [(rng.normal(size=2), one_hot(rng.integers(2), 2)) for _ in range(20)]
        X = np.array([x for x, _ in rows])
        Y = np.array([y for _, y in rows])
        hard = (Y, np.ones(20), np.ones(20, bool))
        no_soft = (np.zeros_like(Y), np.zeros(20), np.zeros(20, bool))
        data = Packed(X, "classification", hard, no_soft, range(20))

        def objective(theta):
            W = theta[:4].reshape(2, 2)
            b = theta[4:]
            Z = X @ W + b
            return float(np.mean(logsumexp(Z, axis=1) - np.sum(Y * Z, axis=1)) + 0.05 * np.sum(W * W))

        oracle = minimize(objective, np.zeros(6), method="BFGS", options={"gtol": 1e-10})
        cfg = TrainConfig(learning_rate=0.5, epochs=4000, batch_size=20, l2=0.1, rng=RngStream(2))
        m = train(init_model("linear", 2, 2, rng=RngStream(3)), data, cfg)
        gnorm = gradient(m, data, l2=0.1).norm()
        final = loss(m, data, l2=0.1)
        check(9, "convex logistic oracle", [
            (f"final gradient norm {gnorm:.2e} <= 1e-3", gnorm <= 1e-3),
            (f"loss {final:.6f} matches oracle optimum {oracle.fun:.6f} within 1e-4",
             abs(final - oracle.fun) <= 1e-4),
        ])


def _mixed(rows, task, hard_weight, soft_weight):
    """Packed of (x, hard, soft) rows, both targets present at the given weights."""
    X, H, S = (np.array(col) for col in zip(*rows))
    n = len(rows)
    present = np.ones(n, dtype=bool)
    hard, soft = (H, np.full(n, hard_weight), present), (S, np.full(n, soft_weight), present)
    return Packed(X, task, hard, soft, range(n))


def _kink_distance(m, batch):
    a = batch.X
    dist = np.inf
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w + b
        if i < len(m.weights) - 1:
            dist = min(dist, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        else:
            a = z
    return dist


def _fd_grad(m, batch, T, l2, step=1e-5):
    grads = []
    for arr_list in (m.weights, m.biases):
        for arr in arr_list:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                up = loss(m, batch, T, l2)
                arr[ix] = orig - step
                down = loss(m, batch, T, l2)
                arr[ix] = orig
                g[ix] = (up - down) / (2 * step)
                it.iternext()
            grads.append(g)
    return np.concatenate([a.ravel() for a in grads])
