"""Target construction, gradient correctness and dataset ingestion."""

import dataclasses
import sys
import threading
import types

import mpmath as mp
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
from ulmc import targets
from ulmc.targets import GradientCounter, TargetSpec, _minimize_gradient_descent


def central_difference(value, x, step):
    """Finite-difference gradient of a scalar potential."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (value(x + e) - value(x - e)) / (2.0 * step)
    return grad


def mpmath_logistic_gradient(data, lam, theta):
    """lam*theta - (1/n) sum_i sigma(-m_i) y_i x_i in 50-digit arithmetic."""
    with mp.workdps(50):
        weights = []
        for x, y in zip(data.features, data.labels):
            margin = mp.mpf(y) * mp.fsum(mp.mpf(a) * mp.mpf(b) for a, b in zip(x, theta))
            weights.append(mp.mpf(y) / (1 + mp.exp(margin)))
        return np.array([
            float(mp.mpf(lam) * mp.mpf(theta[j])
                  - mp.fsum(w * mp.mpf(x[j]) for w, x in zip(weights, data.features))
                  / data.n_samples)
            for j in range(data.dim)
        ])


def random_logistic_data(rng, n=30, d=4):
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = np.where(x @ w + 0.2 * rng.standard_normal(n) > 0.0, 1.0, -1.0)
    return Dataset(features=x, labels=y)


def split_rows(data):
    """An odd row count whose smaller half just reaches the split threshold,
    so the logistic gradient splits such a batch between two threads."""
    return 2 * -(-targets._SPLIT_WORK // (data.n_samples * data.dim)) + 1


def blocks_of(rows):
    """The block count of a split batch: at most _BLOCK_ROWS rows each, and
    at least two blocks."""
    return max(2, -(-rows // targets._BLOCK_ROWS))


@pytest.fixture
def block_threads(monkeypatch):
    """(thread, products) of each `_margin_products` call of a logistic
    gradient, in order: one call per row block of a split batch, whose
    products are a view of the call's whole (k, d) array, kept here.  The
    blocks of one gradient call must differ in size by at most one row."""
    seen, sizes = [], {}
    inner = targets._margin_products

    def recorded(scaled, yx, t, s):
        products = s if s.base is None else s.base
        seen.append((threading.current_thread(), products))
        # products is kept with its sizes, so its id names one call
        call_sizes = sizes.setdefault(id(products), (products, set()))[1]
        call_sizes.add(len(s))
        assert max(call_sizes) - min(call_sizes) <= 1
        inner(scaled, yx, t, s)

    monkeypatch.setattr(targets, "_margin_products", recorded)
    return seen


def lanes_per_call(seen):
    """The threads that computed blocks of each gradient call in `seen`."""
    lanes = {}
    for thread, products in seen:
        lanes.setdefault(id(products), set()).add(thread)
    return list(lanes.values())


def is_helper(thread):
    return thread.name == "ulmc-gradient" and thread is not threading.current_thread()


class HelperFirst(threading.Thread):
    """A helper that runs to its end inside start(), so it takes every block."""

    def start(self):
        super().start()
        super().join()


class HelperLast(threading.Thread):
    """A helper that starts in join(), so the calling thread takes every block."""

    def start(self):
        pass

    def join(self, timeout=None):
        super().start()
        super().join(timeout)


@pytest.fixture(params=[HelperFirst, HelperLast], ids=["helper", "caller"])
def one_lane(request, monkeypatch):
    """Forces every block of a split gradient onto one lane: "helper" or
    "caller", the lane's name."""
    monkeypatch.setattr(targets, "threading",
                        types.SimpleNamespace(Thread=request.param))
    return "helper" if request.param is HelperFirst else "caller"


def spec(**fields):
    """A TargetSpec of the identity gradient, with the given fields changed."""
    base = dict(dim=2, gradient=lambda x: x, smoothness=1.0, strong_convexity=1.0)
    return TargetSpec(**{**base, **fields})


class TestTargetSpec:
    @pytest.mark.parametrize("dim", [0, -1, 2.5, True, np.float64(2.0)])
    def test_dimension_must_be_a_count_of_at_least_one(self, dim):
        with pytest.raises(InvalidTargetError, match="dimension"):
            spec(dim=dim)
        assert spec(dim=np.int64(2)).dim == 2

    @pytest.mark.parametrize("m, L", [(2.0, 1.0), (1.0, np.inf), (np.inf, np.inf),
                                      (0.0, 1.0), (np.nan, 1.0), (1.0, np.nan)])
    def test_constants_need_0_below_m_up_to_finite_L(self, m, L):
        # with L = inf every stepper would read u = 1/L = 0 and stand still
        with pytest.raises(InvalidTargetError, match="0 < m <= L < inf"):
            spec(smoothness=L, strong_convexity=m)


class TestDataset:
    @pytest.mark.parametrize("features, labels, message", [
        ([[1.0], [2.0]], [1.0], "one entry per feature row"),
        ([[1.0], [np.inf]], [1.0, -1.0], "non-finite"),
        ([[1.0], [2.0]], [1.0, 0.0], "-1 or \\+1"),
    ], ids=["label count", "non-finite feature", "label 0"])
    def test_rejects_inconsistent_data(self, features, labels, message):
        with pytest.raises(DatasetFormatError, match=message):
            Dataset(features=np.array(features), labels=np.array(labels))


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

    @pytest.mark.parametrize("x", [[0.25, -3.0, 7.5], np.arange(12.0).reshape(4, 3) / 7.0],
                             ids=["point as a list", "batch"])
    def test_gradient_is_bitwise_the_product_form_in_a_fresh_array(self, x):
        diag, center = np.array([1.5, 4.0, 0.3]), np.array([0.1, -0.7, 2.0])
        grad = quadratic_target(diag, center).gradient(x)
        np.testing.assert_array_equal(grad, diag * (np.asarray(x) - center))
        assert not np.shares_memory(grad, x)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(InvalidTargetError):
            quadratic_target([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(InvalidTargetError):
            quadratic_target([1.0, -2.0], [0.0, 0.0])
        with pytest.raises(InvalidTargetError):
            quadratic_target([], [])
        with pytest.raises(InvalidTargetError):
            quadratic_target([1.0, 4.0], [np.nan, 0.0])
        with pytest.raises(InvalidTargetError):
            quadratic_target([np.inf, 4.0], [0.0, 0.0])


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

    def test_batched_gradient_matches_rows(self, block_threads):
        # a split batch runs other BLAS kernels than one point does, so its
        # entries near 0 may differ in the last bits of the gradient's scale
        rng = np.random.default_rng(11)
        for n, d, k, atol in ((30, 4, 6, 0.0), (300, 20, None, 1e-15)):
            data = random_logistic_data(rng, n=n, d=d)
            target = logistic_target(data, 0.01)
            block_threads.clear()  # the minimizer's single points do not split
            thetas = rng.standard_normal((k or split_rows(data), d))
            batched = target.gradient(thetas)
            # an unsplit batch is one call here, a split one a call per block,
            # on this thread and at most one helper
            assert len(block_threads) == (1 if k else blocks_of(len(thetas)))
            (lanes,) = lanes_per_call(block_threads)
            helpers = {t for t in lanes if t is not threading.current_thread()}
            assert len(helpers) <= (0 if k else 1) and all(map(is_helper, helpers))
            rows = np.stack([target.gradient(t) for t in thetas])
            np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=atol)

    @pytest.mark.parametrize("k", [1000, 1024, 45])
    def test_split_gradient_is_bitwise_the_same_on_either_lane(self, k, one_lane,
                                                                block_threads):
        # the bench's shape; k = 1000 splits in eight blocks of 125 rows,
        # 1024 in eight of 128, and 45 in two blocks of 22 and 23
        rng = np.random.default_rng(15)
        data = random_logistic_data(rng, n=1000, d=50)
        target = logistic_target(data, 0.01)
        thetas = rng.standard_normal((k, 50))
        block_threads.clear()
        either = target.gradient(thetas)
        assert len(block_threads) == blocks_of(k)
        (lanes,) = lanes_per_call(block_threads)
        assert len(lanes) == 1 and is_helper(*lanes) == (one_lane == "helper")
        block_threads.clear()
        with pytest.MonkeyPatch.context() as both_lanes:
            both_lanes.setattr(targets, "threading", threading)
            np.testing.assert_array_equal(target.gradient(thetas), either)
        assert len(block_threads) == blocks_of(k)

    def test_gradient_matches_mpmath(self):
        # overlapping classes, and separable ones whose margins at 20 w give
        # sigma(-m) below 1e-10 for every row; absolute error per coordinate
        rng = np.random.default_rng(12)
        fill_rng = np.random.default_rng(120)  # leaves rng's draws as they were
        overlapping = random_logistic_data(rng, n=40, d=5)
        w = np.array([1.0, -2.0, 0.5])
        y = np.where(rng.uniform(size=30) < 0.5, 1.0, -1.0)
        x = rng.standard_normal((30, 3))
        x += np.outer(y * (2.0 + rng.uniform(size=30)) - x @ w, w) / (w @ w)
        separable = Dataset(features=x, labels=y)
        for data, extra in ((overlapping, []), (separable, [20.0 * w])):
            target = logistic_target(data, 0.01)
            yx = data.labels[:, None] * data.features
            atol = 1e-14 * (1.0 + np.abs(yx).sum(axis=0) / data.n_samples)
            thetas = np.array(
                [np.zeros(data.dim), target.minimizer]
                + [target.minimizer + s * rng.standard_normal(data.dim)
                   for s in (1e-3, 1.0, 10.0, 100.0)]
                + extra
            )
            if extra:
                margins = data.labels * (data.features @ extra[0])
                assert np.all(1.0 / (1.0 + np.exp(margins)) < 1e-10)
            # the same points again at both ends of a batch that splits
            filler = fill_rng.standard_normal((split_rows(data) - 2 * len(thetas), data.dim))
            split = np.concatenate([thetas, filler, thetas])
            before = thetas.copy(), split.copy()
            batched = target.gradient(thetas)
            split_batched = target.gradient(split)
            ends = zip(thetas, batched, split_batched[:len(thetas)],
                       split_batched[-len(thetas):])
            for theta, row, first_half, second_half in ends:
                oracle = mpmath_logistic_gradient(data, 0.01, theta)
                for got in (row, target.gradient(theta), first_half, second_half):
                    assert np.all(np.abs(got - oracle) <= atol)
            # the oracle writes only to its own temporaries
            np.testing.assert_array_equal(thetas, before[0])
            np.testing.assert_array_equal(split, before[1])

    def test_split_gradient_raises_either_half_and_joins(self, one_lane, monkeypatch):
        # the forced lane takes the first block, which raises
        rng = np.random.default_rng(13)
        data = random_logistic_data(rng, n=200, d=10)
        target = logistic_target(data, 0.01)
        boom = RuntimeError(f"{one_lane} lane failed")
        inner = targets._margin_products
        blocks = []

        def failing(*args):
            blocks.append(threading.current_thread())
            if len(blocks) == 1:
                raise boom
            inner(*args)

        monkeypatch.setattr(targets, "_margin_products", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            target.gradient(rng.standard_normal((split_rows(data), data.dim)))
        assert raised.value is boom
        assert is_helper(blocks[0]) == (one_lane == "helper")
        assert len(blocks) == 1  # neither lane takes a block after the raise
        assert threading.active_count() == threads
        assert targets._split_gradients._count == 0  # the gate is released

    def test_concurrent_split_gradients_match_one_thread(self, monkeypatch, block_threads):
        rng = np.random.default_rng(14)
        data = random_logistic_data(rng, n=200, d=10)
        target = logistic_target(data, 0.01)
        batches = [rng.standard_normal((split_rows(data), data.dim)) for _ in range(4)]
        with monkeypatch.context() as one_thread:
            one_thread.setattr(targets, "_SPLIT_WORK", np.inf)
            expected = [target.gradient(batch) for batch in batches]
        block_threads.clear()
        results = [None] * len(batches)
        start = threading.Barrier(len(batches))
        # each call's first block waits for the other calls' first blocks, so
        # the calls fail unless all four are in flight at once
        in_flight = threading.Barrier(len(batches), timeout=30)
        first_blocks = set()
        lock = threading.Lock()
        recorded = targets._margin_products

        def together(scaled, yx, t, s):
            with lock:
                first = id(s.base) not in first_blocks
                first_blocks.add(id(s.base))
            if first:
                in_flight.wait()
            recorded(scaled, yx, t, s)

        monkeypatch.setattr(targets, "_margin_products", together)

        def call(i):
            start.wait()
            results[i] = target.gradient(batches[i])

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert targets._split_gradients._count == 0  # no update of the gate was lost
        assert len(block_threads) == len(batches) * blocks_of(split_rows(data))
        lanes = lanes_per_call(block_threads)
        assert len(lanes) == len(batches)
        helpers = [{t for t in call_lanes if t not in callers} for call_lanes in lanes]
        assert all(len(h) <= 1 and all(t.name == "ulmc-gradient" for t in h) for h in helpers)
        assert len(set().union(*helpers)) == sum(map(len, helpers))  # one helper per call
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)

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

    def test_unconverged_minimizer_raises(self):
        target = quadratic_target([1.0, 10.0], [1.0, -2.0])
        with pytest.raises(UlmcError, match="gradient descent stopped"):
            _minimize_gradient_descent(target.gradient, 2, 10.0, 1.0, max_iter=3)
        x = _minimize_gradient_descent(target.gradient, 2, 10.0, 1.0)
        np.testing.assert_allclose(x, target.minimizer, atol=1e-8)
        # with L = m the one step lands on the minimizer as the iterations run out
        exact = quadratic_target([2.0, 2.0], [1.0, -2.0])
        x = _minimize_gradient_descent(exact.gradient, 2, 2.0, 2.0, max_iter=1)
        np.testing.assert_array_equal(x, exact.minimizer)

    def test_nonfinite_gradient_raises(self):
        # a nan gradient stops the descent at once, not after max_iter
        calls = []

        def nan_gradient(x):
            calls.append(1)
            return np.full_like(x, np.nan)

        with pytest.raises(UlmcError, match="non-finite gradient at iteration 0"):
            _minimize_gradient_descent(nan_gradient, 2, 10.0, 1.0)
        assert len(calls) == 1

        # finite through the loop, nan at the final residual check
        calls.clear()

        def late_nan_gradient(x):
            calls.append(1)
            return np.ones_like(x) if len(calls) <= 3 else np.full_like(x, np.nan)

        with pytest.raises(UlmcError, match="gradient descent stopped"):
            _minimize_gradient_descent(late_nan_gradient, 2, 10.0, 1.0, max_iter=3)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(1)
        data = random_logistic_data(rng)
        with pytest.raises(InvalidTargetError):
            logistic_target(data, 0.0)
        with pytest.raises(InvalidTargetError):
            logistic_target(data, -1.0)
        for lam in (np.inf, np.nan):
            with pytest.raises(InvalidTargetError, match="finite and positive"):
                logistic_target(data, lam)
        with pytest.raises(DatasetFormatError):
            Dataset(features=np.zeros((0, 3)), labels=np.zeros(0))


class TestEstimateSmoothness:
    def test_single_unit_sample(self):
        data = Dataset(features=np.array([[1.0, 0.0, 0.0]]), labels=np.array([1.0]))
        est = estimate_smoothness(data, 0.01)
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

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "commented.txt"
        path.write_text("# label idx:val\n+1 1:0.5\n  # indented\n-1 1:2\n")
        data = load_libsvm(path)
        np.testing.assert_array_equal(data.features, [[0.5], [2.0]])
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    @pytest.mark.parametrize("text, message", [
        ("+1 1:1\nyes 1:2\n", ":2: bad label field 'yes'"),
        ("+1 0:1\n", ":1: indices are 1-based, got 0"),
        ("5 1:1\n7 1:2\n", "unrecognized label alphabet \\[5.0, 7.0\\]"),
        ("-1 1:1\n0 1:2\n1 1:3\n", "unrecognized label alphabet \\[-1.0, 0.0, 1.0\\]"),
        # {1} fits {-1,+1}, {0,1} and {1,2}: its rows would be +1 or -1 by the pick
        ("1 1:0.5\n1 1:0.2\n", "unrecognized label alphabet \\[1.0\\]"),
    ], ids=["label field", "index 0", "alphabet {5, 7}", "three labels", "alphabet {1}"])
    def test_rejects_bad_fields(self, text, message, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=message):
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

    def test_wrapped_target_keeps_every_field(self):
        @dataclasses.dataclass(frozen=True)
        class TaggedTarget(TargetSpec):
            tag: str = "untagged"

        base = quadratic_target([1.0, 2.0], [0.5, 0.0])
        target = TaggedTarget(**{f.name: getattr(base, f.name)
                                 for f in dataclasses.fields(base)}, tag="kept")
        wrapped = GradientCounter(target).wrapped()
        assert type(wrapped) is TaggedTarget and wrapped.tag == "kept"
        for f in dataclasses.fields(base):
            if f.name != "gradient":
                assert getattr(wrapped, f.name) is getattr(target, f.name)
