"""Correlated Gaussian increments: analytic covariances, composition of
intervals (the tests' reference `compose`), conditional splitting and the
fixed-grid path store.

Monte Carlo checks exploit that coordinates are iid: one call with dim=10^5
yields 10^5 independent scalar draws.
"""

import copy
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import ulmc
from ulmc import ScheduleError, UlmcError
from ulmc.analysis import w_covariance
from ulmc.brownian import (
    BrownianPathStore,
    _exp_tail,
    _gain_residual,
    exp_euler_increments,
    exp_euler_increments_batch,
    gh_covariance,
    step_increments_batch,
)

MC_DIM = 100_000
MC_RTOL = 0.02


def empirical_cov(*rows):
    return np.cov(np.stack(rows))


def compose(left, right):
    """Concatenate adjacent intervals: H adds, G re-anchors the right part."""
    return ulmc.IntervalStats(
        length=left.length + right.length,
        H=left.H + right.H,
        G=left.G + np.exp(2.0 * left.length) * right.G,
    )


def mp_gh_covariance(t):
    """Cov of (H, G) over length t as an mpmath matrix (call under workdps)."""
    cov = mp.expm1(2 * t) / 2
    return mp.matrix([[t, cov], [cov, mp.expm1(4 * t) / 4]])


def mp_w_covariance(h, alphas):
    """Cov of (W1_1..W1_R, W2, W3) for a step of length h with midpoints
    alpha_i h, as an mpmath matrix (call under workdps)."""
    h = mp.mpf(h)
    ends = [mp.mpf(a) * h for a in alphas] + [h]  # W1_i, then W2

    def inner(a, b):  # int_0^min(a, b) (1 - e^{-2(a-s)}) (1 - e^{-2(b-s)}) ds
        m = min(a, b)
        return (m - (mp.exp(-2 * a) + mp.exp(-2 * b)) * mp.expm1(2 * m) / 2
                + mp.exp(-2 * (a + b)) * mp.expm1(4 * m) / 4)

    # W3 = B_h - W2, and Cov(W1_i, B_h) = int_0^a (1 - e^{-2(a-s)}) ds
    with_b = lambda a: a + mp.expm1(-2 * a) / 2
    n = len(ends)
    cov = mp.matrix(n + 1, n + 1)
    for i, a in enumerate(ends):
        for j, b in enumerate(ends):
            cov[i, j] = inner(a, b)
        cov[i, n] = cov[n, i] = with_b(a) - inner(a, h)
    cov[n, n] = h - 2 * with_b(h) + inner(h, h)
    return cov


def mp_w1_residual_var(h, alpha):
    """Var(W1 | H, G) = Var(W1 | W2, W3) of a one-midpoint step, as a float
    (call under workdps)."""
    cov = mp_w_covariance(h, [alpha])
    det = cov[1, 1] * cov[2, 2] - cov[1, 2] ** 2
    explained = (cov[0, 1] ** 2 * cov[2, 2] + cov[0, 2] ** 2 * cov[1, 1]
                 - 2 * cov[0, 1] * cov[0, 2] * cov[1, 2]) / det
    return float(cov[0, 0] - explained)


class UnitNormals:
    """Stands in for a Generator: in every (k, chains, dim) block, normal k
    is 1 in coordinate k and 0 elsewhere, so with dim = k coordinate j of
    each output reads that output's coefficient on normal j."""

    def standard_normal(self, shape):
        k, chains, dim = shape
        return np.tile(np.eye(k, dim)[:, None, :], (1, chains, 1))


class TestIntervalCovariance:
    @pytest.mark.parametrize("t", [0.01, 0.05, 0.2, 1.0])
    def test_analytic_formulas(self, t):
        var_h, cov, var_g = gh_covariance(t)
        assert var_h == t
        np.testing.assert_allclose(var_g, (np.exp(4 * t) - 1) / 4, rtol=1e-12)
        np.testing.assert_allclose(cov, (np.exp(2 * t) - 1) / 2, rtol=1e-12)

    def test_short_intervals_fully_correlated(self):
        var_h, cov, var_g = gh_covariance(1e-9)
        assert var_g / var_h == pytest.approx(1.0, rel=1e-6)
        assert cov / np.sqrt(var_h * var_g) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("t", [0.01, 0.05, 0.2])
    def test_monte_carlo_covariance(self, t):
        rng = np.random.default_rng(100)
        iv = ulmc.sample_interval(t, MC_DIM, rng)
        emp = empirical_cov(iv.H, iv.G)
        var_h, cov, var_g = gh_covariance(t)
        np.testing.assert_allclose(emp[0, 0], var_h, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[1, 1], var_g, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[0, 1], cov, rtol=MC_RTOL)

    def test_tiny_interval_no_cancellation(self):
        # the conditional variance of G given H is ~t^3/3 and must stay
        # positive and accurate at lengths where the closed form cancels
        rng = np.random.default_rng(4)
        iv = ulmc.sample_interval(1e-8, MC_DIM, rng)
        resid = iv.G - iv.H  # G - H has variance ~ t^3/3 * 4 at leading order
        assert np.all(np.isfinite(resid))
        emp = np.var(resid)
        oracle = quad(lambda s: (np.exp(2 * s) - 1) ** 2, 0, 1e-8)[0]
        np.testing.assert_allclose(emp, oracle, rtol=0.05)

    def test_covariance_positive_definite_for_all_lengths(self):
        lengths = np.concatenate([np.logspace(-12, 1, 60), [0.05]])
        var_h, cov, var_g = gh_covariance(lengths)
        assert np.all(var_h > 0) and np.all(var_g > 0)
        residual = _gain_residual(lengths)[1]
        assert np.all(residual > 0)
        # residual agrees with the cubic leading order at small lengths
        tiny = lengths[lengths < 1e-4]
        np.testing.assert_allclose(_gain_residual(tiny)[1], tiny**3 / 3, rtol=1e-3)

    def test_residual_var_matches_mpmath(self):
        lengths = np.logspace(-8, 0, 33)
        with mp.workdps(60):
            oracle = []
            for t in map(mp.mpf, lengths):
                cov = mp_gh_covariance(t)
                oracle.append(float(cov[1, 1] - cov[0, 1] ** 2 / t))
        np.testing.assert_allclose(_gain_residual(lengths)[1], oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_exp_tail_matches_mpmath(self, k):
        # series below |x| = 0.5 to a few ulp of E_k; above it expm1 minus
        # the low terms, to a few ulp of the largest term it sums
        def oracle(x):
            with mp.workdps(50):
                x = mp.mpf(x)
                return float(mp.fsum(x**j / mp.factorial(j) for j in range(k, k + 200)))

        def within_ulps(x, got):
            x = float(x)
            terms = [abs(math.expm1(x))] + [abs(x) ** j / math.factorial(j) for j in range(1, k)]
            scale = abs(oracle(x)) if abs(x) < 0.5 else max(terms)
            return abs(got - oracle(x)) <= 4 * np.spacing(scale)

        mixed = np.array([-20.0, -3.0, -0.5, -0.4999, -0.1, -1e-9, 0.0, 1e-12, 0.05,
                          0.4999, 0.5, 0.7, 2.0, 20.0])
        got = _exp_tail(mixed, k)
        assert got.shape == mixed.shape
        assert all(within_ulps(x, g) for x, g in zip(mixed, got))
        grid = mixed.reshape(2, 7)  # both branches in every row
        np.testing.assert_array_equal(_exp_tail(grid, k), got.reshape(2, 7))
        for x in (-0.7, -0.3, 1e-6, 0.25, 0.6, 5.0):
            for scalar in (x, np.float64(x)):
                got = _exp_tail(scalar, k)
                assert np.ndim(got) == 0 and within_ulps(x, got)
        small = np.linspace(-0.2, 0.0, 9)  # every entry takes the series
        assert all(within_ulps(x, g) for x, g in zip(small, _exp_tail(small, k)))

    def test_rejects_bad_lengths(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(UlmcError):
                ulmc.sample_interval(bad, 3, rng)

    def test_rejects_lengths_whose_law_overflows(self):
        # Var(G) = (e^{4t} - 1)/4 passes the largest double near t = 177.4
        rng = np.random.default_rng(0)
        assert np.all(np.isfinite(ulmc.sample_interval(170.0, 3, rng).G))
        with pytest.raises(UlmcError, match="overflows"):
            ulmc.sample_interval(200.0, 3, rng)
        with pytest.raises(UlmcError, match="overflows"):
            exp_euler_increments(200.0, 3, rng)

    def test_cell_law_is_computed_once_per_length(self):
        law = ulmc.brownian._cell_law(0.0375)
        assert ulmc.brownian._cell_law(0.0375) is law
        # an overflow is raised again on every call, never cached
        cached = ulmc.brownian._cell_law.cache_info().currsize
        for _ in range(2):
            with pytest.raises(UlmcError, match="overflows"):
                ulmc.brownian._cell_law(200.0)
        assert ulmc.brownian._cell_law.cache_info().currsize == cached


class TestCompose:
    @pytest.mark.parametrize("length", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_length_that_is_negative_or_not_finite(self, length):
        with pytest.raises(UlmcError, match="interval length must be positive and finite"):
            ulmc.IntervalStats(length=length, H=np.zeros(2), G=np.zeros(2))

    def test_composed_covariance_matches_single_interval(self):
        rng = np.random.default_rng(2)
        left = ulmc.sample_interval(0.3, MC_DIM, rng)
        right = ulmc.sample_interval(0.7, MC_DIM, rng)
        total = compose(left, right)
        emp = empirical_cov(total.H, total.G)
        var_h, cov, var_g = gh_covariance(1.0)
        np.testing.assert_allclose(emp[0, 0], var_h, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[1, 1], var_g, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[0, 1], cov, rtol=MC_RTOL)


class TestSplit:
    def test_roundtrip_reproduces_parent(self):
        rng = np.random.default_rng(4)
        parent = ulmc.sample_interval(1.2, 64, rng)
        left, right = ulmc.split(parent, 0.37, rng)
        rebuilt = compose(left, right)
        scale_h = np.sqrt(gh_covariance(1.2)[0])
        scale_g = np.sqrt(gh_covariance(1.2)[2])
        np.testing.assert_allclose(
            rebuilt.H, parent.H, rtol=1e-12, atol=1e-12 * scale_h
        )
        np.testing.assert_allclose(
            rebuilt.G, parent.G, rtol=1e-12, atol=1e-12 * scale_g
        )

    def test_left_marginal_matches_direct_sampling(self):
        rng = np.random.default_rng(5)
        parent = ulmc.sample_interval(1.0, MC_DIM, rng)
        left, right = ulmc.split(parent, 0.3, rng)
        var_h, cov, var_g = gh_covariance(0.3)
        emp = empirical_cov(left.H, left.G)
        np.testing.assert_allclose(emp[0, 0], var_h, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[1, 1], var_g, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[0, 1], cov, rtol=MC_RTOL)
        var_h, cov, var_g = gh_covariance(0.7)
        emp = empirical_cov(right.H, right.G)
        np.testing.assert_allclose(emp[0, 0], var_h, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[1, 1], var_g, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[0, 1], cov, rtol=MC_RTOL)

    @pytest.mark.parametrize("t", [1e-3, 0.05, 1.0])
    @pytest.mark.parametrize("fraction", [1e-3, 0.5, 1.0 - 1e-3])
    def test_children_have_fresh_interval_law(self, t, fraction):
        rng = np.random.default_rng(15)
        parent = ulmc.sample_interval(t, 2 * MC_DIM, rng)
        for child in ulmc.split(parent, fraction * t, rng):
            var_h, cov, var_g = gh_covariance(child.length)
            emp = empirical_cov(child.H, child.G)
            np.testing.assert_allclose(
                [emp[0, 0], emp[0, 1], emp[1, 1]], [var_h, cov, var_g], rtol=MC_RTOL
            )

    def test_vanishing_left_interval(self):
        rng = np.random.default_rng(6)
        parent = ulmc.sample_interval(1.0, MC_DIM, rng)
        left, _ = ulmc.split(parent, 1e-8, rng)
        # sd of H over the sliver is 1e-4; events beyond 6 sd are negligible
        assert np.std(left.H) == pytest.approx(1e-4, rel=0.05)
        assert np.max(np.abs(left.H)) < 1e-3

    @pytest.mark.parametrize("t", np.logspace(-8, 0, 9))
    @pytest.mark.parametrize("fraction", [1e-6, 0.3, 0.5, 1 - 1e-6])
    def test_conditional_law_matches_mpmath(self, t, fraction):
        # The left child is mean + L z for the (2, dim) normals split draws,
        # with mean 0 for a zero parent: recover L from a cloned generator
        # and compare L L^T with the 60-digit conditional covariance.
        dim, at = 4, fraction * t
        with mp.workdps(60):
            sig_l = mp_gh_covariance(mp.mpf(at))
            gain = sig_l * mp.inverse(mp_gh_covariance(mp.mpf(t)))
            cond = np.array((sig_l - gain * sig_l).tolist(), dtype=float)
            gain = np.array(gain.tolist(), dtype=float)
        rng = np.random.default_rng(11)
        z = copy.deepcopy(rng).standard_normal((2, dim))
        zero = ulmc.IntervalStats(t, np.zeros(dim), np.zeros(dim))
        noise, _ = ulmc.split(zero, at, copy.deepcopy(rng))
        factor = np.linalg.lstsq(z.T, np.stack([noise.H, noise.G]).T, rcond=None)[0].T
        np.testing.assert_allclose(factor @ factor.T, cond, rtol=1e-12, atol=0)
        # conditional mean of a drawn parent, in units of the conditional sd
        parent = ulmc.sample_interval(t, dim, np.random.default_rng(12))
        left, _ = ulmc.split(parent, at, rng)
        mean = np.stack([left.H - noise.H, left.G - noise.G])
        oracle = gain @ np.stack([parent.H, parent.G])
        assert np.all(np.abs(mean - oracle) < 1e-6 * np.sqrt(np.diag(cond))[:, None])

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        length=st.floats(1e-8, 1.0),
        fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(length=1e-8, fraction=1e-300, seed=0)
    @example(length=1.0, fraction=1.0 - 2.0**-53, seed=0)
    def test_compose_of_split_reproduces_parent(self, length, fraction, seed):
        at = fraction * length
        assume(0.0 < at < length)
        rng = np.random.default_rng(seed)
        parent = ulmc.sample_interval(length, 8, rng)
        rebuilt = compose(*ulmc.split(parent, at, rng))
        assert rebuilt.length == pytest.approx(length, rel=1e-15)
        scale = 1e-14 * np.sqrt(length)
        np.testing.assert_allclose(rebuilt.H, parent.H, rtol=0, atol=scale)
        np.testing.assert_allclose(rebuilt.G, parent.G, rtol=0, atol=scale)

    def test_rejects_split_outside_interval(self):
        rng = np.random.default_rng(7)
        parent = ulmc.sample_interval(0.5, 4, rng)
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(UlmcError):
                ulmc.split(parent, bad, rng)


class TestStepIncrements:
    def test_zero_midpoint_gives_zero_w1(self):
        rng = np.random.default_rng(8)
        inc = ulmc.step_increments(0.05, 0.0, 5, rng)
        np.testing.assert_array_equal(inc.W1, np.zeros(5))

    def test_w3_variance(self):
        h = 0.05
        oracle = quad(lambda s: np.exp(-4 * (h - s)), 0, h)[0]
        np.testing.assert_allclose(oracle, (1 - np.exp(-4 * h)) / 4, rtol=1e-12)
        rng = np.random.default_rng(9)
        inc = ulmc.step_increments(h, 0.4, MC_DIM, rng)
        np.testing.assert_allclose(np.var(inc.W3), oracle, rtol=MC_RTOL)

    def test_w1_variance_cubic_at_small_midpoint(self):
        ah = 1e-3
        oracle = quad(lambda s: (1 - np.exp(-2 * (ah - s))) ** 2, 0, ah)[0]
        assert 0.95 <= oracle / ((4.0 / 3.0) * ah**3) <= 1.05
        rng = np.random.default_rng(10)
        inc = ulmc.step_increments(0.01, 0.1, MC_DIM, rng)  # alpha*h = 1e-3
        np.testing.assert_allclose(np.var(inc.W1), oracle, rtol=0.03)

    def test_full_covariance_against_quadrature(self):
        h, alpha = 0.05, 0.37
        ah = alpha * h
        rng = np.random.default_rng(11)
        inc = ulmc.step_increments(h, alpha, 2 * MC_DIM, rng)
        emp = empirical_cov(inc.W1, inc.W2, inc.W3)
        w1w = lambda s: 1 - np.exp(-2 * (ah - s))
        w2w = lambda s: 1 - np.exp(-2 * (h - s))
        w3w = lambda s: np.exp(-2 * (h - s))
        oracle = np.array(
            [
                [quad(lambda s: w1w(s) ** 2, 0, ah)[0],
                 quad(lambda s: w1w(s) * w2w(s), 0, ah)[0],
                 quad(lambda s: w1w(s) * w3w(s), 0, ah)[0]],
                [0.0,
                 quad(lambda s: w2w(s) ** 2, 0, h)[0],
                 quad(lambda s: w2w(s) * w3w(s), 0, h)[0]],
                [0.0, 0.0, quad(lambda s: w3w(s) ** 2, 0, h)[0]],
            ]
        )
        oracle = oracle + np.triu(oracle, 1).T
        np.testing.assert_allclose(emp, oracle, rtol=MC_RTOL)

    def test_batch_matches_scalar_law(self):
        rng = np.random.default_rng(12)
        alphas = np.full(MC_DIM, 0.37)
        inc = step_increments_batch(0.05, alphas, 1, rng)
        oracle = quad(lambda s: (1 - np.exp(-2 * (0.0185 - s))) ** 2, 0, 0.0185)[0]
        np.testing.assert_allclose(np.var(inc.W1[:, 0]), oracle, rtol=MC_RTOL)

    def test_batch_with_per_row_midpoints_matches_closed_form(self):
        # rows of one call carry different midpoints; each group must follow
        # the (W1, W2, W3) law of its own alpha
        alphas = (1e-3, 0.37, 0.999)
        rng = np.random.default_rng(14)
        inc = step_increments_batch(0.05, np.repeat(alphas, MC_DIM), 1, rng)
        for g, alpha in enumerate(alphas):
            rows = slice(g * MC_DIM, (g + 1) * MC_DIM)
            emp = empirical_cov(inc.W1[rows, 0], inc.W2[rows, 0], inc.W3[rows, 0])
            oracle = w_covariance(0.05, alpha)
            np.testing.assert_allclose(np.diag(emp), np.diag(oracle), rtol=0.03)
            corr = lambda c: c / np.sqrt(np.outer(np.diag(c), np.diag(c)))
            np.testing.assert_allclose(corr(emp), corr(oracle), atol=0.01)

    @pytest.mark.parametrize("bad", [1.5, np.nan, -0.1])
    def test_batch_rejects_fraction_outside_unit_interval(self, bad):
        with pytest.raises(UlmcError, match=r"midpoint fraction must be in \[0, 1\]"):
            step_increments_batch(0.05, [0.5, bad], 2, np.random.default_rng(0))

    def test_exp_euler_increments_covariance(self):
        h = 0.05
        rng = np.random.default_rng(13)
        inc = exp_euler_increments(h, MC_DIM, rng)
        np.testing.assert_allclose(
            np.var(inc.W3), (1 - np.exp(-4 * h)) / 4, rtol=MC_RTOL
        )
        oracle = quad(lambda s: (1 - np.exp(-2 * (h - s))) ** 2, 0, h)[0]
        np.testing.assert_allclose(np.var(inc.W2), oracle, rtol=MC_RTOL)


class TestWholeStepDraw:
    STEPS = (1e-4, 1e-3, 0.05, 1.0)
    ALPHAS = np.array([1e-6, 1e-3, 0.3, 0.9, 0.999, 1 - 1e-4, 1 - 1e-6])

    @pytest.mark.parametrize("h", STEPS)
    def test_law_matches_mpmath(self, h):
        inc = step_increments_batch(h, self.ALPHAS, 3, UnitNormals())
        for row, alpha in enumerate(self.ALPHAS):
            coef = np.stack([inc.W1[row], inc.W2[row], inc.W3[row]])
            assert np.all(coef[1:, 2] == 0.0)  # W2, W3 read only the whole step
            with mp.workdps(50):
                oracle = np.array(mp_w_covariance(h, [alpha]).tolist(), dtype=float)
                s2 = mp_w1_residual_var(h, alpha)
            scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
            assert np.all(np.abs(coef @ coef.T - oracle) <= 1e-12 * scale), alpha
            # s^2 is not a difference: no cancellation as alpha -> 1
            np.testing.assert_allclose(coef[0, 2] ** 2, s2, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("h", STEPS)
    def test_endpoint_midpoints_are_exact(self, h):
        alphas = np.array([0.0, 1.0, 0.4, 1.0, 0.0])
        inc = step_increments_batch(h, alphas, 6, np.random.default_rng(23))
        assert np.all(inc.W1[alphas == 0.0] == 0.0)
        assert inc.W1[alphas == 1.0].tobytes() == inc.W2[alphas == 1.0].tobytes()
        assert np.all(inc.W1[2] != 0.0)

    def test_steps_whose_law_underflows_raise(self):
        alphas = np.array([2.0**-53, 0.5, 1 - 2.0**-53])
        inc = step_increments_batch(1e-60, alphas, 2, np.random.default_rng(25))
        assert all(np.all(np.isfinite(w)) for w in inc)
        with pytest.raises(UlmcError, match="underflows"):
            step_increments_batch(1e-90, alphas, 2, np.random.default_rng(25))

    @pytest.mark.parametrize(
        "k, draw",
        [
            (3, lambda rng: step_increments_batch(0.05, np.full(5, 0.3), 4, rng)),
            (3, lambda rng: ulmc.parallel_step_increments(0.05, 1, np.full((5, 1), 0.3), 4, rng)),
            (6, lambda rng: ulmc.parallel_step_increments(0.05, 2, np.full((5, 2), 0.5), 4, rng)),
            (9, lambda rng: ulmc.parallel_step_increments(
                0.05, 3, np.tile([0.1, 0.5, 0.9], (5, 1)), 4, rng)),
            (2, lambda rng: exp_euler_increments_batch(0.05, 5, 4, rng)),
        ],
        ids=["step_increments_batch", "parallel_r1", "parallel_r2", "parallel_r3",
             "exp_euler_increments_batch"],
    )
    def test_draw_budget(self, k, draw):
        # counted at the generator: k normals per chain and coordinate
        rng = np.random.default_rng(24)
        clone = copy.deepcopy(rng)
        draw(rng)
        clone.standard_normal((k, 5, 4))
        assert rng.bit_generator.state == clone.bit_generator.state


class TestEqualCellDraw:
    """R > 1 midpoints: R equal cells, midpoint i in cell i."""

    FRACTIONS = (1e-6, 0.3, 0.5, 1 - 1e-6)  # of a cell

    @pytest.mark.parametrize("h", [1e-3, 0.05, 1.0])
    @pytest.mark.parametrize("R", [2, 3, 8])
    def test_law_matches_mpmath(self, R, h):
        # one chain per fraction, shared by all of its midpoints, and one
        # chain that mixes them
        fractions = np.array([np.full(R, f) for f in self.FRACTIONS]
                             + [np.resize(self.FRACTIONS, R)])
        alphas = (np.arange(R) + fractions) / R
        inc = ulmc.parallel_step_increments(h, R, alphas, 3 * R, UnitNormals())
        # every weight of the cells' prefix sums lies in [0, 1], so no term
        # of order cell^(1/2) cancels to W1's order cell^(3/2)
        tol = 2e-15
        for row, alpha in enumerate(alphas):
            coef = np.vstack([inc.W1[row], inc.W2[row], inc.W3[row]])  # (R + 2, 3R)
            assert np.all(coef[R:, 2 * R:] == 0.0)  # W2, W3 read only the cells
            # each W1 reads its own fresh normal and no other
            own = np.diag(coef[:R, 2 * R:])
            assert np.all(coef[:R, 2 * R:] == np.diag(own))
            with mp.workdps(50):
                oracle = np.array(mp_w_covariance(h, alpha).tolist(), dtype=float)
                # the fresh normal completes W1_i given its cell's (H, G)
                s2 = [mp_w1_residual_var(h / R, f) for f in alpha * R - np.arange(R)]
            scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
            assert np.all(np.abs(coef @ coef.T - oracle) <= tol * scale), alpha
            np.testing.assert_allclose(own**2, s2, rtol=1e-12, atol=0)


class TestCellSumsAgainstMpmath:
    """W2 and W3 of one step of k cells, pathwise, against a 50-digit sum
    over the same cells' normals: every weight in the builder's prefix sums
    lies in [0, 1], so no term of order sqrt(h) cancels to W2's h^(3/2)."""

    DRAWS = 200

    @staticmethod
    def mp_weights(h, k):
        """Per cell j, the weights of (z0_j, z1_j) in W2 and in W3, for H_j =
        sqrt(c) z0_j and G_j = gamma H_j + sqrt(rho) z1_j, c = h/k:
        W2 = sum_j H_j - e^{-2(h - jc)} G_j and W3 = sum_j e^{-2(h - jc)} G_j."""
        with mp.workdps(50):
            h = mp.mpf(h)
            c = h / k
            gamma = mp.expm1(2 * c) / (2 * c)
            root_rho = mp.sqrt(mp.expm1(4 * c) / 4 - gamma**2 * c)
            decay = [mp.exp(-2 * (h - j * c)) for j in range(k)]
            w2 = [(mp.sqrt(c) * (1 - d * gamma), -d * root_rho) for d in decay]
            w3 = [(d * gamma * mp.sqrt(c), d * root_rho) for d in decay]
        return w2, w3

    def assert_matches_mpmath(self, h, z0, z1, w2, w3):
        """z0, z1 (k, draws) normals; w2, w3 (draws,) the builder's output."""
        weights = self.mp_weights(h, len(z0))
        with mp.workdps(50):
            sd = np.sqrt(np.diag(np.array(mp_w_covariance(h, []).tolist(), dtype=float)))
            for built, weight, scale in zip((w2, w3), weights, sd):
                exact = [float(mp.fsum(a * mp.mpf(x0) + b * mp.mpf(x1)
                                       for (a, b), x0, x1 in zip(weight, z0[:, i], z1[:, i])))
                         for i in range(len(built))]
                assert np.max(np.abs(built - exact)) <= 5e-15 * scale

    @pytest.mark.parametrize("h", [0.025, 0.2])
    @pytest.mark.parametrize("R", [2, 3, 8])
    def test_parallel_step(self, R, h):
        alphas = np.tile((np.arange(R) + 0.5) / R, (self.DRAWS, 1))
        inc = ulmc.parallel_step_increments(h, R, alphas, 1, np.random.default_rng(31))
        z = np.random.default_rng(31).standard_normal((2 * R, self.DRAWS))  # per cell z0, z1
        self.assert_matches_mpmath(h, z[0::2], z[1::2], inc.W2[:, 0], inc.W3[:, 0])

    @pytest.mark.parametrize("h", [0.025, 0.2])
    def test_path_store_step(self, h):
        store = BrownianPathStore(h, 32, self.DRAWS, 1, np.random.default_rng(32))
        inc = store.increments(1)
        z = np.random.default_rng(32).standard_normal((32, 2, self.DRAWS))
        self.assert_matches_mpmath(h, z[:, 0], z[:, 1], inc.W2[0, :, 0], inc.W3[0, :, 0])


class TestParallelIncrements:
    def test_r1_is_step_increments_batch_bitwise(self):
        alphas = np.concatenate([[0.0, 1.0], np.random.default_rng(76).uniform(size=7)])
        one = step_increments_batch(0.05, alphas, 4, np.random.default_rng(77))
        par = ulmc.parallel_step_increments(0.05, 1, alphas[:, None], 4,
                                            np.random.default_rng(77))
        assert par.W1.shape == (9, 1, 4)
        for a, b in zip(par, one):
            assert a.reshape(b.shape).tobytes() == b.tobytes()

    def test_r1_reproduces_serial_draws(self):
        alpha = 0.42
        one = ulmc.step_increments(0.05, alpha, 6, np.random.default_rng(77))
        par = ulmc.parallel_step_increments(
            0.05, 1, [alpha], 6, np.random.default_rng(77)
        )
        np.testing.assert_allclose(par.W1[0], one.W1, rtol=1e-12, atol=1e-16)
        np.testing.assert_allclose(par.W2, one.W2, rtol=1e-12, atol=1e-16)
        np.testing.assert_allclose(par.W3, one.W3, rtol=1e-12, atol=1e-16)

    def test_w2_variance_independent_of_r(self):
        h, r = 0.05, 4
        oracle = quad(lambda s: (1 - np.exp(-2 * (h - s))) ** 2, 0, h)[0]
        rng = np.random.default_rng(14)
        alphas = (np.arange(r) + rng.uniform(size=r)) / r
        inc = ulmc.parallel_step_increments(h, r, alphas, MC_DIM, rng)
        np.testing.assert_allclose(np.var(inc.W2), oracle, rtol=MC_RTOL)

    def test_cross_covariance_of_first_midpoint_with_w2(self):
        h, r = 0.05, 4
        rng = np.random.default_rng(15)
        alphas = np.array([0.13, 0.30, 0.62, 0.85])
        inc = ulmc.parallel_step_increments(h, r, alphas, MC_DIM, rng)
        a1h = alphas[0] * h
        oracle = quad(
            lambda s: (1 - np.exp(-2 * (a1h - s))) * (1 - np.exp(-2 * (h - s))),
            0,
            a1h,
        )[0]
        emp = np.cov(np.stack([inc.W1[0], inc.W2]))[0, 1]
        np.testing.assert_allclose(emp, oracle, rtol=MC_RTOL)

    def test_rejects_alphas_of_three_axes(self):
        alphas = np.full((2, 3, 2), 0.25) + [0.0, 0.5]
        with pytest.raises(UlmcError, match=r"expected 2 midpoints, got shape \(2, 3, 2\)"):
            ulmc.parallel_step_increments(0.05, 2, alphas, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("R", [0, -1, 2.0, True])
    def test_midpoint_count_follows_the_samplers_rule(self, R):
        # one rule, one error class and one message for R wherever it is read
        with pytest.raises(ScheduleError) as by_increments:
            ulmc.parallel_step_increments(0.05, R, [0.5], 3, np.random.default_rng(0))
        with pytest.raises(ScheduleError) as by_schedule:
            ulmc.Schedule(h=0.05, N=1, u=1.0, R=R)
        assert str(by_increments.value) == str(by_schedule.value)
        assert str(by_increments.value) == f"midpoint count must be an integer >= 1, got {R!r}"

    def test_rejects_midpoint_outside_cell(self):
        rng = np.random.default_rng(16)
        # nan lies in no cell
        for R, alphas in ((2, [0.6, 0.7]), (1, [np.nan]), (3, [0.1, np.nan, 0.9])):
            with pytest.raises(UlmcError, match=r"must lie in \[\(i-1\)/"):
                ulmc.parallel_step_increments(0.05, R, alphas, 3, rng)


class TestPathStore:
    def test_step_law_matches_closed_form(self):
        # one step of four cells; chains carry alpha = 0, interior points in
        # the first and the third cell, a cell edge, 0.999 and 1, and
        # coordinates are the Monte Carlo draws.  At 0.075 the fresh normal
        # carries a third of Var(W1).
        alphas = np.array([[0.0, 0.075, 0.6, 0.5, 0.999, 1.0]])
        store = BrownianPathStore(0.2, 4, alphas.shape[1], MC_DIM, np.random.default_rng(22))
        inc = store.increments(1, alphas)
        for c, alpha in enumerate(alphas[0]):
            emp = empirical_cov(inc.W1[0, c], inc.W2[0, c], inc.W3[0, c])
            oracle = w_covariance(0.2, alpha)
            scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
            seen = scale > 0.0  # W1 is identically 0 at alpha = 0
            np.testing.assert_allclose(emp[seen] / scale[seen], oracle[seen] / scale[seen],
                                       atol=0.02)

    def test_coarse_steps_compose_their_cells(self):
        store = BrownianPathStore(1.2, 6, 2, 3, np.random.default_rng(18))
        inc = store.increments(2)
        for j in range(2):
            cells = [ulmc.IntervalStats(store.cell, store.H[i], store.G[i])
                     for i in range(3 * j, 3 * j + 3)]
            step = functools.reduce(compose, cells)
            w3 = np.exp(-2.0 * step.length) * step.G
            np.testing.assert_allclose(inc.W3[j], w3, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(inc.W2[j], step.H - w3, rtol=1e-12, atol=1e-15)

    def test_endpoint_midpoints(self):
        store = BrownianPathStore(1.0, 8, 3, 2, np.random.default_rng(23))
        w1, _, _ = store.increments(2, np.zeros((2, 3)))
        assert np.all(w1 == 0.0)
        w1, w2, _ = store.increments(2, np.ones((2, 3)))
        np.testing.assert_allclose(w1, w2, rtol=1e-12, atol=1e-15)

    def test_midpoint_increment_consistency(self):
        # a midpoint on a cell edge ends W1 where a step of the finer grid ends
        store = BrownianPathStore(1.0, 8, 2, 2, np.random.default_rng(19))
        w1, _, _ = store.increments(2, np.tile([0.25, 0.5], (2, 1)))
        np.testing.assert_allclose(w1[:, 0], store.increments(8).W2[::4, 0],
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(w1[:, 1], store.increments(4).W2[::2, 1],
                                   rtol=1e-12, atol=1e-15)

    def test_long_paths_stay_finite(self):
        # a 10,000-long path of unit cells, one step per cell, a midpoint
        # inside the last cell as well as every other
        store = BrownianPathStore(10_000.0, 10_000, 2, 2, np.random.default_rng(17))
        assert np.all(np.isfinite(store.H))
        assert np.all(np.isfinite(store.G))
        alphas = np.full((10_000, 2), 0.33)
        for arr in store.increments(10_000, alphas):
            assert np.all(np.isfinite(arr))

    def test_long_spans_stay_finite(self):
        # unit cells, steps spanning 500 of them: every G weight is <= 1
        store = BrownianPathStore(1000.0, 1000, 2, 2, np.random.default_rng(17))
        for inc in (store.increments(2, np.array([[0.999, 1.0], [0.3, 0.0]])),
                    store.increments(1000, np.full((1000, 2), 0.5))):
            for arr in inc:
                assert np.all(np.isfinite(arr))

    def test_rejects_steps_that_do_not_divide_the_cells(self):
        store = BrownianPathStore(1.0, 8, 1, 2, np.random.default_rng(21))
        with pytest.raises(UlmcError, match="step count 3 does not divide the path's 8"):
            store.increments(3)

    @pytest.mark.parametrize("n_steps", [4.0, np.float64(4.0), True, 0, -4],
                             ids=["4.0", "float64 4.0", "bool", "0", "-4"])
    def test_rejects_a_step_count_that_is_not_a_positive_integer(self, n_steps):
        store = BrownianPathStore(1.0, 8, 3, 2, np.random.default_rng(21))
        with pytest.raises(UlmcError, match="step count must be an integer >= 1"):
            store.increments(n_steps)
        np.testing.assert_array_equal(store.increments(np.int64(4)).W2,
                                      store.increments(4).W2)

    @pytest.mark.parametrize("shape", [(4, 2), (2, 3), (4,), (4, 3, 1)],
                             ids=["too few chains", "too few steps", "one per step", "3-d"])
    def test_rejects_fractions_of_another_shape(self, shape):
        store = BrownianPathStore(1.0, 8, 3, 2, np.random.default_rng(21))
        with pytest.raises(UlmcError, match=r"expected \(4, 3\) midpoint fractions"):
            store.increments(4, np.full(shape, 0.5))

    @pytest.mark.parametrize("n_cells", [0, -8, 2.7, 8.0, True])
    def test_rejects_a_cell_count_that_is_not_a_positive_integer(self, n_cells):
        with pytest.raises(UlmcError, match="cell count must be an integer >= 1"):
            BrownianPathStore(1.0, n_cells, 3, 2, np.random.default_rng(21))

    def test_deterministic_given_seed(self):
        def build():
            rng = np.random.default_rng(20)
            store = BrownianPathStore(3.0, 12, 3, 2, rng)
            return store.increments(4, rng.uniform(size=(4, 3)))

        first = build()
        second = build()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
