"""Correlated Gaussian increments: analytic covariances, composition algebra,
conditional splitting and the refinable path store.

Monte Carlo checks exploit that coordinates are iid: one call with dim=10^5
yields 10^5 independent scalar draws.
"""

import copy

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import ulmc
from ulmc import UlmcError
from ulmc.analysis import w_covariance
from ulmc.brownian import (
    BrownianPathStore,
    _residual_var,
    exp_euler_increments,
    gh_covariance,
    step_increments_batch,
)

MC_DIM = 100_000
MC_RTOL = 0.02


def empirical_cov(*rows):
    return np.cov(np.stack(rows))


def mp_gh_covariance(t):
    """Cov of (H, G) over length t as an mpmath matrix (call under workdps)."""
    cov = mp.expm1(2 * t) / 2
    return mp.matrix([[t, cov], [cov, mp.expm1(4 * t) / 4]])


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
        from ulmc.brownian import _residual_var

        lengths = np.concatenate([np.logspace(-12, 1, 60), [0.05]])
        var_h, cov, var_g = gh_covariance(lengths)
        assert np.all(var_h > 0) and np.all(var_g > 0)
        residual = _residual_var(lengths)
        assert np.all(residual > 0)
        # residual agrees with the cubic leading order at small lengths
        tiny = lengths[lengths < 1e-4]
        np.testing.assert_allclose(_residual_var(tiny), tiny**3 / 3, rtol=1e-3)

    def test_residual_var_matches_mpmath(self):
        lengths = np.logspace(-8, 0, 33)
        with mp.workdps(60):
            oracle = []
            for t in map(mp.mpf, lengths):
                cov = mp_gh_covariance(t)
                oracle.append(float(cov[1, 1] - cov[0, 1] ** 2 / t))
        np.testing.assert_allclose(_residual_var(lengths), oracle, rtol=1e-12, atol=0)

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


class TestCompose:
    def test_zero_length_identity(self):
        rng = np.random.default_rng(1)
        iv = ulmc.sample_interval(0.4, 8, rng)
        unit = ulmc.IntervalStats(length=0.0, H=np.zeros(8), G=np.zeros(8))
        for combined in (ulmc.compose(iv, unit), ulmc.compose(unit, iv)):
            assert combined.length == iv.length
            np.testing.assert_array_equal(combined.H, iv.H)
            np.testing.assert_array_equal(combined.G, iv.G)

    def test_composed_covariance_matches_single_interval(self):
        rng = np.random.default_rng(2)
        left = ulmc.sample_interval(0.3, MC_DIM, rng)
        right = ulmc.sample_interval(0.7, MC_DIM, rng)
        total = ulmc.compose(left, right)
        emp = empirical_cov(total.H, total.G)
        var_h, cov, var_g = gh_covariance(1.0)
        np.testing.assert_allclose(emp[0, 0], var_h, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[1, 1], var_g, rtol=MC_RTOL)
        np.testing.assert_allclose(emp[0, 1], cov, rtol=MC_RTOL)

    def test_associativity_exact(self):
        rng = np.random.default_rng(3)
        a = ulmc.sample_interval(0.2, 16, rng)
        b = ulmc.sample_interval(0.5, 16, rng)
        c = ulmc.sample_interval(0.9, 16, rng)
        lhs = ulmc.compose(ulmc.compose(a, b), c)
        rhs = ulmc.compose(a, ulmc.compose(b, c))
        np.testing.assert_allclose(lhs.H, rhs.H, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(lhs.G, rhs.G, rtol=1e-12, atol=1e-15)
        assert lhs.length == pytest.approx(rhs.length, rel=1e-15)


class TestSplit:
    def test_roundtrip_reproduces_parent(self):
        rng = np.random.default_rng(4)
        parent = ulmc.sample_interval(1.2, 64, rng)
        left, right = ulmc.split(parent, 0.37, rng)
        rebuilt = ulmc.compose(left, right)
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
        rebuilt = ulmc.compose(*ulmc.split(parent, at, rng))
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

    def test_exp_euler_increments_covariance(self):
        h = 0.05
        rng = np.random.default_rng(13)
        inc = exp_euler_increments(h, MC_DIM, rng)
        np.testing.assert_allclose(
            np.var(inc.W3), (1 - np.exp(-4 * h)) / 4, rtol=MC_RTOL
        )
        oracle = quad(lambda s: (1 - np.exp(-2 * (h - s))) ** 2, 0, h)[0]
        np.testing.assert_allclose(np.var(inc.W2), oracle, rtol=MC_RTOL)


class TestParallelIncrements:
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

    def test_rejects_midpoint_outside_cell(self):
        rng = np.random.default_rng(16)
        with pytest.raises(UlmcError):
            ulmc.parallel_step_increments(0.05, 2, [0.6, 0.7], 3, rng)


class TestPathStore:
    def test_long_paths_stay_finite(self):
        rng = np.random.default_rng(17)
        store = BrownianPathStore(10_000.0, 2, rng)
        for cell in store._cells:
            assert np.all(np.isfinite(cell.H))
            assert np.all(np.isfinite(cell.G))
        w1, w2, w3 = store.increments(9_999.3, 9_999.4, 9_999.33)
        for arr in (w1, w2, w3):
            assert np.all(np.isfinite(arr))

    def test_long_spans_stay_finite(self):
        rng = np.random.default_rng(19)
        store = BrownianPathStore(1000.0, 2, rng)
        w1, w2, w3 = store.increments(0.0, 400.0, 399.5)
        for arr in (w1, w2, w3):
            assert np.all(np.isfinite(arr))
        # W1 up to the midpoint is W2 of the step that ends there, and W3
        # restarts at any breakpoint s with the decay e^{-2(t1 - s)}
        _, w2_mid, w3_mid = store.increments(0.0, 399.5)
        _, _, w3_tail = store.increments(399.5, 400.0)
        np.testing.assert_allclose(w1, w2_mid, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w3, np.exp(-1.0) * w3_mid + w3_tail, rtol=1e-12, atol=1e-12)

    def test_refinement_preserves_increments(self):
        rng = np.random.default_rng(18)
        store = BrownianPathStore(2.0, 3, rng)
        _, w2_before, w3_before = store.increments(0.25, 0.75)
        for t in (0.3, 0.4, 0.5, 0.6):
            store.ensure(t)
        _, w2_after, w3_after = store.increments(0.25, 0.75)
        np.testing.assert_allclose(w2_after, w2_before, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(w3_after, w3_before, rtol=1e-12, atol=1e-13)

    def test_midpoint_increment_consistency(self):
        # W1 over [t0, mid] must equal the W2-type functional of the substep
        rng = np.random.default_rng(19)
        store = BrownianPathStore(1.0, 2, rng)
        w1, _, _ = store.increments(0.2, 0.4, 0.3)
        _, w2_sub, _ = store.increments(0.2, 0.3)
        np.testing.assert_allclose(w1, w2_sub, rtol=1e-12, atol=1e-14)

    def test_deterministic_given_seed(self):
        def build():
            rng = np.random.default_rng(20)
            store = BrownianPathStore(3.0, 2, rng)
            return store.increments(0.1, 0.9, 0.55)

        first = build()
        second = build()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_rejects_out_of_range_times(self):
        rng = np.random.default_rng(21)
        store = BrownianPathStore(1.0, 2, rng)
        with pytest.raises(UlmcError):
            store.ensure(1.5)
        with pytest.raises(UlmcError):
            store.increments(0.5, 0.25)
