"""Target construction, gradient correctness and dataset ingestion."""

import numpy as np
import pytest

from ulmc import (
    Dataset,
    DatasetFormatError,
    InvalidTargetError,
    UlmcError,
    estimate_smoothness,
    load_libsvm,
    logistic_target,
    quadratic_target,
)
from ulmc.cli import main
from ulmc.targets import GradientCounter, SmoothnessEstimate, _minimize_gradient_descent


def central_difference(value, x, step):
    """Finite-difference gradient of a scalar potential."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (value(x + e) - value(x - e)) / (2.0 * step)
    return grad


def random_logistic_data(rng, n=30, d=4):
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = np.where(x @ w + 0.2 * rng.standard_normal(n) > 0.0, 1.0, -1.0)
    return Dataset(features=x, labels=y)


class TestQuadraticTarget:
    def test_gradient_vanishes_at_minimizer(self):
        target = quadratic_target([1.0, 1.0], [0.0, 0.0])
        np.testing.assert_array_equal(target.gradient(np.zeros(2)), np.zeros(2))

    def test_componentwise_product(self):
        target = quadratic_target([2.0, 5.0], [0.0, 0.0])
        np.testing.assert_array_equal(
            target.gradient(np.array([1.0, 1.0])), np.array([2.0, 5.0])
        )
        assert target.smoothness == 5.0
        assert target.strong_convexity == 2.0
        assert target.kappa == 2.5

    def test_gradient_matches_finite_differences(self):
        # oracle: central differences of the potential itself
        target = quadratic_target([1.0, 100.0], [3.0, -1.0])
        x = np.array([4.0, 0.0])
        np.testing.assert_array_equal(target.gradient(x), np.array([1.0, 100.0]))
        fd = central_difference(target.value, x, 1e-6)
        np.testing.assert_allclose(target.gradient(x), fd, rtol=1e-6)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(InvalidTargetError):
            quadratic_target([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(InvalidTargetError):
            quadratic_target([1.0, -2.0], [0.0, 0.0])


class TestLogisticTarget:
    def test_gradient_at_zero_is_half_label_mean(self):
        rng = np.random.default_rng(0)
        data = random_logistic_data(rng)
        target = logistic_target(data, 0.01)
        expected = -np.mean(data.labels[:, None] * data.features, axis=0) / 2.0
        np.testing.assert_allclose(
            target.gradient(np.zeros(data.dim)), expected, rtol=1e-12
        )

    def test_single_sample_at_zero(self):
        data = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        target = logistic_target(data, 0.01)
        np.testing.assert_allclose(
            target.gradient(np.zeros(2)), np.array([-0.5, 0.0]), rtol=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 3))
        y = np.where(rng.standard_normal(5) > 0.0, 1.0, -1.0)
        target = logistic_target(Dataset(features=x, labels=y), 0.01)
        theta = rng.standard_normal(3)
        fd = central_difference(target.value, theta, 1e-6)
        grad = target.gradient(theta)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-10)

    def test_batched_gradient_matches_rows(self):
        rng = np.random.default_rng(11)
        target = logistic_target(random_logistic_data(rng), 0.01)
        thetas = rng.standard_normal((6, 4))
        batched = target.gradient(thetas)
        rows = np.stack([target.gradient(t) for t in thetas])
        np.testing.assert_allclose(batched, rows, rtol=1e-13)

    def test_sigmoid_stable_for_huge_margins(self):
        data = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        target = logistic_target(data, 0.01)
        grad = target.gradient(np.array([1e3]))
        assert np.all(np.isfinite(grad))
        grad = target.gradient(np.array([-1e3]))
        assert np.all(np.isfinite(grad))

    def test_minimizer_is_stationary(self):
        rng = np.random.default_rng(3)
        target = logistic_target(random_logistic_data(rng), 0.01)
        assert np.linalg.norm(target.gradient(target.minimizer)) <= 1e-8

    def test_unconverged_smoothness_estimate_raises(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "ulmc.targets.estimate_smoothness",
            lambda data, lam: SmoothnessEstimate(1.0, lam, converged=False),
        )
        with pytest.raises(UlmcError, match="did not converge"):
            logistic_target(random_logistic_data(np.random.default_rng(2)), 0.01)
        path = tmp_path / "d.txt"
        path.write_text("+1 1:1\n-1 1:-1\n")
        code = main(["sample", "--target", "logistic", "--dataset", str(path),
                     "--h", "0.05", "--n-steps", "1"])
        assert code == 3

    def test_unconverged_minimizer_raises(self):
        target = quadratic_target([1.0, 10.0], [1.0, -2.0])
        with pytest.raises(UlmcError, match="gradient descent stopped"):
            _minimize_gradient_descent(target.gradient, 2, 10.0, 1.0, max_iter=3)
        x = _minimize_gradient_descent(target.gradient, 2, 10.0, 1.0)
        np.testing.assert_allclose(x, target.minimizer, atol=1e-8)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(1)
        data = random_logistic_data(rng)
        with pytest.raises(InvalidTargetError):
            logistic_target(data, 0.0)
        with pytest.raises(InvalidTargetError):
            logistic_target(data, -1.0)
        with pytest.raises(DatasetFormatError):
            Dataset(features=np.zeros((0, 3)), labels=np.zeros(0))


class TestEstimateSmoothness:
    def test_single_unit_sample(self):
        data = Dataset(features=np.array([[1.0, 0.0, 0.0]]), labels=np.array([1.0]))
        est = estimate_smoothness(data, 0.01)
        assert est.converged
        np.testing.assert_allclose(est.smoothness, 0.26, rtol=1e-6)
        assert est.strong_convexity == 0.01

    def test_two_orthogonal_samples_no_ridge(self):
        data = Dataset(
            features=np.array([[1.0, 0.0], [0.0, 1.0]]), labels=np.array([1.0, -1.0])
        )
        est = estimate_smoothness(data, 0.0)
        np.testing.assert_allclose(est.smoothness, 0.125, rtol=1e-6)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 4))
        y = np.where(rng.standard_normal(20) > 0.0, 1.0, -1.0)
        est = estimate_smoothness(Dataset(features=x, labels=y), 0.01)
        gram = x.T @ x / 20.0
        expected = 0.01 + 0.25 * np.linalg.eigvalsh(gram)[-1]
        np.testing.assert_allclose(est.smoothness, expected, rtol=1e-5)

    @pytest.mark.parametrize(
        "n, d, spectrum",
        [(400, 30, [1.0, 0.999]), (40, 90, [1.3, 1.2, 0.4]), (50, 6, [0.0])],
        ids=["near-tie", "wide", "zero-features"],
    )
    def test_exact_against_analytic_top_eigenvalue(self, n, d, spectrum):
        # X = U diag(s) V^T sqrt(n) has lambda_max(X^T X / n) = s_1^2, and an
        # estimate must not fall below it: L bounds the gradient's Lipschitz
        # constant from above
        rng = np.random.default_rng(8)
        k = len(spectrum)
        u, _ = np.linalg.qr(rng.standard_normal((n, k)))
        v, _ = np.linalg.qr(rng.standard_normal((d, k)))
        x = u @ np.diag(spectrum) @ v.T * np.sqrt(n)
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        est = estimate_smoothness(Dataset(features=x, labels=y), 0.01)
        assert est.converged
        np.testing.assert_allclose(est.smoothness, 0.01 + spectrum[0] ** 2 / 4, rtol=1e-12)


class TestLoadLibsvm:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:0.5 3:-2\n-1 2:1\n")
        data = load_libsvm(path)
        assert data.n_samples == 2
        assert data.dim == 3
        np.testing.assert_array_equal(
            data.features, np.array([[0.5, 0.0, -2.0], [0.0, 1.0, 0.0]])
        )
        np.testing.assert_array_equal(data.labels, np.array([1.0, -1.0]))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DatasetFormatError):
            load_libsvm(path)

    def test_zero_one_labels_mapped(self, tmp_path):
        path = tmp_path / "01.txt"
        path.write_text("0 1:1\n1 1:2\n")
        data = load_libsvm(path)
        np.testing.assert_array_equal(data.labels, np.array([-1.0, 1.0]))

    def test_one_two_labels_mapped(self, tmp_path):
        path = tmp_path / "12.txt"
        path.write_text("1 1:1\n2 1:2\n")
        data = load_libsvm(path)
        np.testing.assert_array_equal(data.labels, np.array([-1.0, 1.0]))

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:0.5\n-1 oops\n")
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_libsvm(path)

    def test_three_labels_rejected(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1:1\n1 1:1\n2 1:1\n")
        with pytest.raises(DatasetFormatError):
            load_libsvm(path)

    def test_column_scaling(self, tmp_path):
        path = tmp_path / "scale.txt"
        path.write_text("+1 1:2 2:5\n-1 1:4 2:5\n+1 1:6 2:5\n")
        data = load_libsvm(path, scale_features=True)
        np.testing.assert_allclose(data.features[:, 0], [-1.0, 0.0, 1.0])
        # constant column maps to zero
        np.testing.assert_allclose(data.features[:, 1], [0.0, 0.0, 0.0])


class TestTargetInvariants:
    def _random_targets(self, rng):
        targets = []
        for _ in range(4):
            d = int(rng.integers(2, 6))
            targets.append(
                quadratic_target(rng.uniform(0.5, 8.0, d), rng.standard_normal(d))
            )
        for _ in range(2):
            targets.append(logistic_target(random_logistic_data(rng), 0.05))
        return targets

    def test_gradient_finite_difference_agreement(self):
        rng = np.random.default_rng(21)
        targets = self._random_targets(rng)
        checked = 0
        while checked < 100:
            target = targets[checked % len(targets)]
            x = rng.standard_normal(target.dim)
            step = 1e-6 * (1.0 + np.linalg.norm(x))
            fd = central_difference(target.value, x, step)
            grad = target.gradient(x)
            scale = np.linalg.norm(grad) + 1e-12
            assert np.linalg.norm(grad - fd) / scale <= 1e-5
            checked += 1

    def test_monotonicity_lipschitz_sandwich(self):
        rng = np.random.default_rng(22)
        targets = self._random_targets(rng)
        for trial in range(1000):
            target = targets[trial % len(targets)]
            x = rng.standard_normal(target.dim)
            y = rng.standard_normal(target.dim)
            gap = np.sum((x - y) ** 2)
            inner = float((target.gradient(x) - target.gradient(y)) @ (x - y))
            assert inner >= target.strong_convexity * gap - 1e-9 * gap
            assert inner <= target.smoothness * gap + 1e-9 * gap

    def test_estimated_smoothness_bounds_gradient_ratios(self):
        rng = np.random.default_rng(23)
        data = random_logistic_data(rng, n=40, d=5)
        target = logistic_target(data, 0.01)
        for _ in range(200):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            ratio = np.linalg.norm(target.gradient(x) - target.gradient(y))
            ratio /= np.linalg.norm(x - y)
            assert ratio <= target.smoothness * (1.0 + 1e-9)


class TestGradientCounter:
    def test_counts_points_not_calls(self):
        target = quadratic_target([1.0, 2.0], [0.0, 0.0])
        counter = GradientCounter(target)
        wrapped = counter.wrapped()
        wrapped.gradient(np.zeros(2))
        assert counter.count == 1
        wrapped.gradient(np.zeros((7, 2)))
        assert counter.count == 8
