"""Steppers, chain drivers, gradient accounting and the step-size rules."""

import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import ulmc
from ulmc import ConfigError, SamplerState, Schedule, ScheduleError
from ulmc.brownian import StepIncrements
from ulmc.samplers import (
    exp_euler_coefficients,
    midpoint_coefficient,
    run_chain,
)
from ulmc.targets import GradientCounter, TargetSpec


def zero_gradient_target(d):
    """Free-dynamics stand-in: gradient identically zero."""
    return TargetSpec(
        dim=d,
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        smoothness=1.0,
        strong_convexity=1.0,
        minimizer=np.zeros(d),
    )


def zero_increments(d):
    return StepIncrements(W1=np.zeros(d), W2=np.zeros(d), W3=np.zeros(d))


class FixedRng:
    """Deterministic stand-in drawing zeros, for noiseless stepper checks."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestRmmStep:
    def test_free_dynamics(self):
        target = zero_gradient_target(3)
        x = np.array([1.0, -2.0, 0.5])
        v = np.array([0.3, 0.0, -1.0])
        h = 0.04
        out = ulmc.rmm_step(SamplerState(x, v), target, h, 0.7, zero_increments(3))
        np.testing.assert_allclose(out.x, x + 0.5 * (1 - np.exp(-2 * h)) * v, rtol=1e-15)
        np.testing.assert_allclose(out.v, v * np.exp(-2 * h), rtol=1e-15)
        assert out.step == 1

    def test_matches_high_precision_evaluation(self):
        # oracle: the three update lines evaluated in 50-digit arithmetic
        mp.mp.dps = 50
        h = mp.mpf("0.05")
        alpha = mp.mpf("0.5")
        ah = alpha * h
        x = mp.mpf(1)
        x_mid = x + mp.mpf(0) - mp.mpf("0.5") * (ah - (1 - mp.e ** (-2 * ah)) / 2) * x
        x_new = (
            x
            + mp.mpf(0)
            - mp.mpf("0.5") * h * (1 - mp.e ** (-2 * (h - ah))) * x_mid
        )
        v_new = -h * mp.e ** (-2 * (h - ah)) * x_mid

        target = ulmc.quadratic_target([1.0], [0.0])
        out = ulmc.rmm_step(
            SamplerState(np.array([1.0]), np.array([0.0])),
            target,
            0.05,
            0.5,
            zero_increments(1),
        )
        np.testing.assert_allclose(out.x[0], float(x_new), rtol=1e-14)
        np.testing.assert_allclose(out.v[0], float(v_new), rtol=1e-14)

    def test_midpoint_estimator_unbiased(self):
        # alpha-average of the one-point rule vs the integral it estimates
        h = 0.05
        g = lambda s: np.sin(3 * s) + s**2
        rng = np.random.default_rng(30)
        alphas = rng.uniform(size=200_000)
        values = h * (1 - np.exp(-2 * (h - alphas * h))) * g(alphas * h)
        oracle = quad(lambda s: (1 - np.exp(-2 * (h - s))) * g(s), 0, h)[0]
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - oracle) <= 3 * se

    def test_rejects_bad_step_sizes(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        state = SamplerState(np.zeros(1), np.zeros(1))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ScheduleError):
                ulmc.rmm_step(state, target, bad, 0.5, zero_increments(1))

    def test_rejects_dimension_mismatch(self):
        target = ulmc.quadratic_target([1.0, 2.0], [0.0, 0.0])
        state = SamplerState(np.zeros(3), np.zeros(3))
        with pytest.raises(ulmc.UlmcError):
            ulmc.rmm_step(state, target, 0.05, 0.5, zero_increments(3))

    @pytest.mark.parametrize("step, w1, w23", [
        ("rmm", (3, 2), (2,)), ("rmm", None, (2,)), ("rmm", (2,), (3, 2)),
        ("exp_euler_uld", None, (3, 2)),
    ], ids=["rmm W1 of R = 3", "rmm W1 None", "rmm W2 of 3 chains", "exp_euler W2 of 3 chains"])
    def test_rejects_increments_of_another_step(self, step, w1, w23):
        # a (3, d) array would otherwise broadcast one chain into three
        target = ulmc.quadratic_target([1.0, 2.0], [0.0, 0.0])
        state = SamplerState(np.zeros(2), np.zeros(2))
        inc = StepIncrements(None if w1 is None else np.zeros(w1), np.zeros(w23),
                             np.zeros(w23))
        with pytest.raises(ulmc.UlmcError, match="different R"):
            if step == "rmm":
                ulmc.rmm_step(state, target, 0.05, 0.5, inc)
            else:
                ulmc.exponential_euler_uld_step(state, target, 0.05, inc)


class TestRmmRun:
    def test_zero_steps_returns_start(self):
        target = ulmc.quadratic_target([1.0, 4.0], [0.5, -0.5])
        sched = Schedule(h=0.05, N=0, u=1.0 / target.smoothness)
        result = ulmc.rmm_run(target, sched, seed=0)
        np.testing.assert_array_equal(result.final.x, target.minimizer)
        np.testing.assert_array_equal(result.final.v, np.zeros(2))
        assert result.grad_evals == 0

    def test_deterministic_given_seed(self):
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        sched = Schedule(h=0.05, N=50, u=1.0 / target.smoothness)
        a = ulmc.rmm_run(target, sched, seed=42)
        b = ulmc.rmm_run(target, sched, seed=42)
        np.testing.assert_array_equal(a.final.x, b.final.x)
        np.testing.assert_array_equal(a.final.v, b.final.v)

    def test_missing_start_point(self):
        target = zero_gradient_target(2)
        object.__setattr__(target, "minimizer", None)
        sched = Schedule(h=0.05, N=1, u=1.0)
        with pytest.raises(ConfigError):
            ulmc.rmm_run(target, sched, seed=0)

    def test_schedule_u_must_be_one_over_l(self):
        target = ulmc.quadratic_target([1.0, 2.0], [0.0, 0.0])
        sched = Schedule(h=0.05, N=5, u=123.0)
        runs = (
            lambda: ulmc.rmm_run(target, sched, 0),
            lambda: ulmc.parallel_rmm_run(target, sched, 0),
            lambda: ulmc.rmm_run_ensemble(target, sched, 3, 0),
            lambda: ulmc.stationary_error_study(target, sched, 3, 0),
        )
        for run in runs:
            with pytest.raises(ConfigError, match="1/L"):
                run()
        # 1/L up to rounding is the same u
        rounded = Schedule(h=0.05, N=5, u=0.5 * (1.0 + 4e-16))
        assert ulmc.rmm_run(target, rounded, 0).grad_evals == 10

    def test_two_gradient_evaluations_per_step(self):
        target = ulmc.quadratic_target([1.0, 2.0], [0.0, 0.0])
        sched = Schedule(h=0.05, N=37, u=1.0 / target.smoothness)
        result = ulmc.rmm_run(target, sched, seed=5)
        assert result.grad_evals == 2 * 37

    def test_ensemble_matches_moment_oracle(self):
        diag = np.array([1.0, 4.0])
        target = ulmc.quadratic_target(diag, np.zeros(2))
        sched = Schedule(h=0.05, N=60, u=1.0 / target.smoothness)
        chains = 30_000
        ens = ulmc.rmm_run_ensemble(target, sched, chains, seed=9, record_every=30)
        trace = ulmc.rmm_moment_oracle(target, 0.05, 60, record_every=30)
        oracle = {s: (m, c) for s, m, c in zip(trace.steps, trace.means, trace.covs)}
        for step, mean_e, cov_e in ens.checkpoints:
            mean_o, cov_o = oracle[step]
            se_mean = np.sqrt(np.diag(cov_e) / chains)
            assert np.max(np.abs(mean_e - mean_o) / se_mean) < 5.0
            se_cov = np.sqrt(
                (np.outer(np.diag(cov_e), np.diag(cov_e)) + cov_e**2) / (chains - 1)
            )
            assert np.max(np.abs(cov_e - cov_o) / se_cov) < 5.0


class TestParallelStep:
    def test_reduces_to_serial_step(self):
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(1, 6))
            target = ulmc.quadratic_target(
                rng.uniform(0.5, 5.0, d), rng.standard_normal(d)
            )
            x = rng.standard_normal(d)
            v = rng.standard_normal(d)
            h = float(rng.uniform(0.01, 0.05))
            seed = int(rng.integers(2**31))
            r_serial = np.random.default_rng(seed)
            alpha = r_serial.uniform()
            inc = ulmc.step_increments(h, alpha, d, r_serial)
            serial = ulmc.rmm_step(SamplerState(x, v), target, h, alpha, inc)
            r_par = np.random.default_rng(seed)
            alphas = r_par.uniform(size=1)
            incs = ulmc.parallel_step_increments(h, 1, alphas, d, r_par)
            par = ulmc.parallel_rmm_step(
                SamplerState(x, v), target, h, 1, 2, alphas, incs
            )
            scale = max(np.max(np.abs(serial.x)), np.max(np.abs(serial.v)), 1.0)
            worst = max(
                worst,
                np.max(np.abs(serial.x - par.x)) / scale,
                np.max(np.abs(serial.v - par.v)) / scale,
            )
        assert worst <= 1e-12

    def test_free_dynamics_any_r_k(self):
        target = zero_gradient_target(2)
        x = np.array([0.7, -0.1])
        v = np.array([-0.4, 1.2])
        h, r, k = 0.05, 3, 4
        alphas = (np.arange(r) + 0.5) / r
        incs = ulmc.StepIncrements(
            W1=np.zeros((r, 2)), W2=np.zeros(2), W3=np.zeros(2)
        )
        out = ulmc.parallel_rmm_step(SamplerState(x, v), target, h, r, k, alphas, incs)
        np.testing.assert_allclose(out.x, x + 0.5 * (1 - np.exp(-2 * h)) * v, rtol=1e-15)
        np.testing.assert_allclose(out.v, v * np.exp(-2 * h), rtol=1e-15)

    def test_update_weight_matches_quadrature(self):
        # closed-form integral of the midpoint weight over one cell
        h, r = 0.08, 4
        delta = h / r
        for i in range(1, r + 1):
            theta = (i - 0.5) * delta
            a = (i - 1) * delta
            closed = midpoint_coefficient(theta, a, i * delta)
            reference = delta / 2 - 0.5 * (1 - np.exp(-delta))
            np.testing.assert_allclose(closed, reference, rtol=1e-12)
            oracle = quad(lambda s: 1 - np.exp(-2 * (theta - s)), a, theta)[0]
            assert abs(closed - oracle) < 1e-10

    def test_rejects_shallow_fixed_point(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        state = SamplerState(np.zeros(1), np.zeros(1))
        incs = ulmc.StepIncrements(
            W1=np.zeros((1, 1)), W2=np.zeros(1), W3=np.zeros(1)
        )
        with pytest.raises(ScheduleError):
            ulmc.parallel_rmm_step(state, target, 0.05, 1, 1, [0.5], incs)

    @pytest.mark.parametrize("alphas", [[np.nan, 0.75], [0.25, np.inf], [0.75, 0.25]])
    def test_rejects_fractions_outside_their_cells(self, alphas):
        # a nan fraction would otherwise step to a nan state without an error
        target = ulmc.quadratic_target([1.0], [0.0])
        state = SamplerState(np.zeros(1), np.zeros(1))
        incs = ulmc.StepIncrements(W1=np.zeros((2, 1)), W2=np.zeros(1), W3=np.zeros(1))
        with pytest.raises(ulmc.UlmcError, match="must lie in"):
            ulmc.parallel_rmm_step(state, target, 0.05, 2, 2, alphas, incs)

    def test_gradient_count_per_step(self):
        target = ulmc.quadratic_target([1.0, 3.0], [0.0, 0.0])
        counter = GradientCounter(target)
        counted = counter.wrapped()
        r, k = 3, 4
        alphas = (np.arange(r) + 0.5) / r
        rng = np.random.default_rng(2)
        incs = ulmc.parallel_step_increments(0.05, r, alphas, 2, rng)
        state = SamplerState(np.zeros(2), np.zeros(2))
        ulmc.parallel_rmm_step(state, counted, 0.05, r, k, alphas, incs)
        assert counter.count == r * k


class TestBaselines:
    def test_euler_free_dynamics(self):
        target = zero_gradient_target(2)
        x = np.array([1.0, 2.0])
        v = np.array([0.5, -0.5])
        out = ulmc.euler_uld_step(SamplerState(x, v), target, 0.03, FixedRng())
        np.testing.assert_array_equal(out.x, x + 0.03 * v)
        np.testing.assert_array_equal(out.v, (1 - 2 * 0.03) * v)

    def test_euler_direct_substitution(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        out = ulmc.euler_uld_step(
            SamplerState(np.array([1.0]), np.array([0.0])), target, 0.01, FixedRng()
        )
        np.testing.assert_allclose(out.v, [-0.01], rtol=1e-15)
        np.testing.assert_array_equal(out.x, [1.0])

    def test_euler_stationary_bias_shrinks_with_h(self):
        # oracle: fixed point of the affine second-moment recursion
        a, u = 1.0, 1.0

        def stationary(h):
            m_mat = np.array([[1.0, h], [-u * h * a, 1.0 - 2.0 * h]])
            q = np.array([[0.0, 0.0], [0.0, 4.0 * u * h]])
            sigma = np.zeros((2, 2))
            for _ in range(200_000):
                new = m_mat @ sigma @ m_mat.T + q
                if np.max(np.abs(new - sigma)) < 1e-14:
                    sigma = new
                    break
                sigma = new
            return sigma

        bias_big = abs(stationary(0.02)[0, 0] - 1.0 / a)
        bias_small = abs(stationary(0.01)[0, 0] - 1.0 / a)
        assert bias_small < bias_big

        # empirical moments agree with the recursion
        target = ulmc.quadratic_target([a], [0.0])
        rng = np.random.default_rng(31)
        chains, steps, h = 20_000, 600, 0.02
        x = np.zeros((chains, 1))
        v = np.zeros((chains, 1))
        for _ in range(steps):
            zeta = rng.standard_normal((chains, 1))
            v_new = (1 - 2 * h) * v - u * h * target.gradient(x) + 2 * math.sqrt(u * h) * zeta
            x = x + h * v
            v = v_new
        sigma = np.zeros((2, 2))
        m_mat = np.array([[1.0, h], [-u * h * a, 1.0 - 2.0 * h]])
        q = np.array([[0.0, 0.0], [0.0, 4.0 * u * h]])
        for _ in range(steps):
            sigma = m_mat @ sigma @ m_mat.T + q
        se = math.sqrt(2.0 / chains) * sigma[0, 0]
        assert abs(np.var(x) - sigma[0, 0]) < 4 * se

    def test_exponential_euler_coefficients(self):
        h = 0.05
        w_x, w_v = exp_euler_coefficients(h)
        np.testing.assert_allclose(
            w_x, quad(lambda s: 1 - np.exp(-2 * (h - s)), 0, h)[0], atol=1e-12
        )
        np.testing.assert_allclose(
            w_v, quad(lambda s: np.exp(-2 * (h - s)), 0, h)[0], atol=1e-12
        )

    def test_exponential_euler_free_dynamics_matches_rmm(self):
        target = zero_gradient_target(2)
        x = np.array([0.2, -0.9])
        v = np.array([1.1, 0.1])
        h = 0.05
        ee = ulmc.exponential_euler_uld_step(
            SamplerState(x, v),
            target,
            h,
            StepIncrements(W1=None, W2=np.zeros(2), W3=np.zeros(2)),
        )
        rm = ulmc.rmm_step(SamplerState(x, v), target, h, 0.3, zero_increments(2))
        np.testing.assert_allclose(ee.x, rm.x, rtol=1e-15)
        np.testing.assert_allclose(ee.v, rm.v, rtol=1e-15)

    def test_exponential_euler_single_gradient(self):
        target = ulmc.quadratic_target([1.0, 2.0], [0.0, 0.0])
        counter = GradientCounter(target)
        ulmc.exponential_euler_uld_step(
            SamplerState(np.zeros(2), np.zeros(2)),
            counter.wrapped(),
            0.05,
            StepIncrements(W1=None, W2=np.zeros(2), W3=np.zeros(2)),
        )
        assert counter.count == 1

    def test_lmc_step(self):
        target = zero_gradient_target(2)
        state = SamplerState(np.array([1.0, -1.0]), np.zeros(2))
        out = ulmc.overdamped_lmc_step(state, target, 0.1, FixedRng())
        np.testing.assert_array_equal(out.x, state.x)

        target = ulmc.quadratic_target([1.0], [0.0])
        out = ulmc.overdamped_lmc_step(
            SamplerState(np.array([2.0]), np.zeros(1)), target, 0.1, FixedRng()
        )
        np.testing.assert_allclose(out.x, [1.8], rtol=1e-15)

    def test_lmc_stationary_variance_matches_ar1(self):
        a, h = 1.0, 0.1
        # x' = (1 - h a) x + sqrt(2h) z: fixed-point variance of the recursion
        oracle = 2 * h / (1 - (1 - h * a) ** 2)
        np.testing.assert_allclose(oracle, 2 * h / (2 * a * h - a**2 * h**2), rtol=1e-12)
        target = ulmc.quadratic_target([a], [0.0])
        rng = np.random.default_rng(55)
        chains, steps = 20_000, 400
        x = np.zeros((chains, 1))
        state_rng = np.random.default_rng(56)
        for _ in range(steps):
            zeta = state_rng.standard_normal((chains, 1))
            x = x - h * target.gradient(x) + math.sqrt(2 * h) * zeta
        se = math.sqrt(2.0 / chains) * oracle
        assert abs(np.var(x) - oracle) < 4 * se

    def test_free_dynamics_identical_across_uld_steppers(self):
        target = zero_gradient_target(2)
        x = np.array([0.4, -0.6])
        v = np.array([-0.2, 0.9])
        h = 0.05
        rm = ulmc.rmm_step(SamplerState(x, v), target, h, 0.8, zero_increments(2))
        ee = ulmc.exponential_euler_uld_step(
            SamplerState(x, v), target, h,
            StepIncrements(W1=None, W2=np.zeros(2), W3=np.zeros(2)),
        )
        alphas = np.array([0.05, 0.5, 0.95])
        incs = ulmc.StepIncrements(W1=np.zeros((3, 2)), W2=np.zeros(2), W3=np.zeros(2))
        par = ulmc.parallel_rmm_step(SamplerState(x, v), target, h, 3, 3, alphas, incs)
        for out in (ee, par):
            np.testing.assert_allclose(out.x, rm.x, rtol=1e-14)
            np.testing.assert_allclose(out.v, rm.v, rtol=1e-14)


class TestSchedules:
    def test_step_rule_arithmetic(self):
        eps, kappa = 0.5, 1.0
        sched = ulmc.schedule(eps, kappa, C=1.0, L=1.0)
        log_term = math.log(1 / eps**2)
        unclipped = min(
            eps ** (1 / 3) * kappa ** (-1 / 6) * log_term ** (-1 / 6),
            eps ** (2 / 3) * log_term ** (-1 / 3),
        )
        assert unclipped > 0.05
        assert sched.h == 0.05
        assert sched.N == math.ceil((2 * kappa / 0.05) * math.log(20 / eps**2))
        assert sched.N == 176
        assert sched.u == 1.0
        assert (sched.R, sched.K) == (1, 2)

    def test_boundary_epsilon_stays_finite(self):
        sched = ulmc.schedule(0.999, 2.0, C=0.5, L=1.0)
        assert sched.N >= 1
        assert 0.0 < sched.h <= 0.05

    def test_halving_epsilon_in_kappa_dominated_branch(self):
        kappa, c = 1e6, 1e-3
        eps1, eps2 = 0.01, 0.005
        n1 = ulmc.schedule(eps1, kappa, C=c).N
        n2 = ulmc.schedule(eps2, kappa, C=c).N

        def closed_form(eps):
            log_term = math.log(1 / eps**2)
            h = c * eps ** (1 / 3) * kappa ** (-1 / 6) * log_term ** (-1 / 6)
            return 2 * kappa / h * math.log(20 / eps**2)

        assert n2 / n1 == pytest.approx(closed_form(eps2) / closed_form(eps1), rel=1e-3)
        # the cube-root growth carries slowly decaying log factors
        assert n2 / n1 == pytest.approx(2 ** (1 / 3), rel=0.15)

    def test_parallel_rule_arithmetic(self):
        sched = ulmc.schedule_parallel(0.5, 1.0, c_R=1.0)
        assert sched.R == math.ceil(2 * math.log(2)) == 2
        assert sched.h <= (0.25) ** 0.25
        assert sched.K == max(2, math.ceil(3.0 * math.log(1.0 / sched.delta**4)))

    def test_parallel_rule_degenerates_to_single_midpoint(self):
        sched = ulmc.schedule_parallel(0.9, 1.0, c_R=1.0)
        assert sched.R == 1
        assert sched.K >= 2

    def test_rejects_bad_inputs(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ScheduleError):
                ulmc.schedule(eps, 2.0)
        with pytest.raises(ScheduleError):
            ulmc.schedule(0.5, 0.5)
        for rule in (ulmc.schedule, ulmc.schedule_parallel):
            for bad in (math.nan, math.inf):
                for kwargs in ({"kappa": bad}, {"kappa": 2.0, "C": bad},
                               {"kappa": 2.0, "L": bad}):
                    with pytest.raises(ScheduleError, match="finite"):
                        rule(0.5, **kwargs)
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ScheduleError, match="finite"):
                ulmc.schedule_parallel(0.5, 2.0, c_R=bad)
            with pytest.raises(ScheduleError, match="finite"):
                ulmc.schedule_parallel(0.5, 2.0, c_K=bad)
        with pytest.raises(ScheduleError):
            Schedule(h=0.2, N=1, u=1.0)

    def test_clipping_invariants_hold_everywhere(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            eps = float(rng.uniform(1e-4, 0.999))
            kappa = float(np.exp(rng.uniform(0.0, 8.0)))
            big_c = float(rng.uniform(0.1, 5.0))
            ser = ulmc.schedule(eps, kappa, C=big_c, L=kappa)
            assert 0.0 < ser.h <= 0.05
            assert ser.u == pytest.approx(1.0 / kappa)
            par = ulmc.schedule_parallel(eps, kappa, C=big_c, L=kappa)
            assert 0.0 < par.h <= 0.05
            assert par.R >= 1 and par.K >= 2
            assert (par.R * par.delta) ** 4 <= 0.25 + 1e-12


class TestRunChain:
    def test_rejects_unknown_method(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        with pytest.raises(ConfigError):
            run_chain(target, "nuts", 0.05, 10, seed=0)

    @pytest.mark.parametrize(
        "method,expected",
        [("rmm", 2 * 25), ("exp_euler_uld", 25), ("euler_uld", 25), ("lmc", 25)],
    )
    def test_gradient_budget(self, method, expected):
        target = ulmc.quadratic_target([1.0, 2.0], [0.0, 0.0])
        result = run_chain(target, method, 0.05, 25, seed=1)
        assert result.grad_evals == expected

    def test_parallel_budget(self):
        target = ulmc.quadratic_target([1.0, 2.0], [0.0, 0.0])
        result = run_chain(target, "rmm_parallel", 0.05, 25, seed=1, R=3, K=4)
        assert result.grad_evals == 3 * 4 * 25

    def test_recording(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        result = run_chain(target, "rmm", 0.05, 10, seed=3, record_every=5)
        assert [s for s, _, _ in result.history] == [0, 5, 10]


def hand_loop(target, method, h, n_steps, seed, R, K):
    """One chain stepped by the public steppers and increment samplers."""
    rng = np.random.default_rng(seed)
    x = np.asarray(target.minimizer, dtype=float)
    state = SamplerState(x, np.zeros_like(x))
    for _ in range(n_steps):
        if method == "rmm":
            alpha = rng.uniform()
            inc = ulmc.step_increments(h, alpha, target.dim, rng)
            state = ulmc.rmm_step(state, target, h, alpha, inc)
        elif method == "rmm_parallel":
            alphas = (np.arange(R) + rng.uniform(size=R)) / R
            incs = ulmc.parallel_step_increments(h, R, alphas, target.dim, rng)
            state = ulmc.parallel_rmm_step(state, target, h, R, K, alphas, incs)
        elif method == "euler_uld":
            state = ulmc.euler_uld_step(state, target, h, rng)
        elif method == "exp_euler_uld":
            inc = ulmc.brownian.exp_euler_increments(h, target.dim, rng)
            state = ulmc.exponential_euler_uld_step(state, target, h, inc)
        else:
            state = ulmc.overdamped_lmc_step(state, target, h, rng)
    return state


def batch_hand_loop(target, method, h, n_steps, seed, R, K, x0):
    """hand_loop for a (chains, d) batch: the public batched steppers and
    increment samplers, serially, on the seed's Generator."""
    rng = np.random.default_rng(seed)
    state = SamplerState(x0, np.zeros_like(x0))
    chains, d = x0.shape
    for _ in range(n_steps):
        if method == "rmm":
            alphas = rng.uniform(size=chains)
            inc = ulmc.brownian.step_increments_batch(h, alphas, d, rng)
            state = ulmc.rmm_step(state, target, h, alphas, inc)
        elif method == "rmm_parallel":
            alphas = (np.arange(R) + rng.uniform(size=(chains, R))) / R
            incs = ulmc.parallel_step_increments(h, R, alphas, d, rng)
            state = ulmc.parallel_rmm_step(state, target, h, R, K, alphas, incs)
        elif method == "euler_uld":
            state = ulmc.euler_uld_step(state, target, h, rng)
        elif method == "exp_euler_uld":
            inc = ulmc.brownian.exp_euler_increments_batch(h, chains, d, rng)
            state = ulmc.exponential_euler_uld_step(state, target, h, inc)
        else:
            state = ulmc.overdamped_lmc_step(state, target, h, rng)
    return state


class TestOneDriver:
    @pytest.mark.parametrize("method", ulmc.samplers.METHODS)
    def test_run_chain_equals_hand_loop(self, method):
        target = ulmc.quadratic_target([1.0, 4.0, 9.0], [0.3, -0.2, 0.1])
        result = run_chain(target, method, 0.05, 120, seed=31, R=3, K=3)
        expected = hand_loop(target, method, 0.05, 120, 31, R=3, K=3)
        assert result.final.x.shape == (3,)
        np.testing.assert_allclose(result.final.x, expected.x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(result.final.v, expected.v, rtol=1e-12, atol=1e-12)
        assert result.final.step == expected.step == 120

    @pytest.mark.parametrize("method", ulmc.samplers.METHODS)
    def test_batch_start_runs_a_batch(self, method):
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        x0 = np.tile([0.5, -0.5], (6, 1))
        result = run_chain(target, method, 0.05, 10, seed=2, R=2, K=3, x0=x0,
                           record_every=5)
        assert result.final.x.shape == result.final.v.shape == (6, 2)
        assert [s for s, _, _ in result.history] == [0, 5, 10]
        assert all(x.shape == (6, 2) for _, x, _ in result.history)
        # chains draw different noise from the one stream
        assert len(np.unique(result.final.x[:, 0])) == 6

    def test_batched_parallel_audits_rk_gradients_per_chain_step(self):
        target = ulmc.quadratic_target([1.0, 3.0], [0.0, 0.0])
        shapes = []

        def gradient(x):
            shapes.append(np.shape(x))
            return target.gradient(x)

        spy = TargetSpec(dim=2, gradient=gradient, smoothness=target.smoothness,
                         strong_convexity=target.strong_convexity,
                         minimizer=target.minimizer)
        chains, r, k, n = 5, 3, 4, 7
        result = run_chain(spy, "rmm_parallel", 0.05, n, seed=0, R=r, K=k,
                           x0=np.zeros((chains, 2)))
        assert result.grad_evals == chains * r * k * n
        assert set(shapes) == {(chains * r, 2)}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_raises_naming_method_and_step(self):
        target = ulmc.quadratic_target([1.0, 40.0], [0.0, 0.0])
        with pytest.raises(ulmc.UlmcError, match=r"lmc .* not finite after step \d+"):
            run_chain(target, "lmc", 0.9, 400, seed=0, x0=np.zeros((2, 2)))

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("method", ulmc.samplers.METHODS)
    @pytest.mark.parametrize("length", ["none", "one", "slot and a half", "40 one-step slots"])
    def test_batch_run_equals_serial_loop_bitwise(self, method, R, length, monkeypatch):
        target = ulmc.quadratic_target([1.0, 4.0, 9.0], [0.3, -0.2, 0.1])
        x0 = np.linspace(-1.0, 1.0, 21).reshape(7, 3)
        per_slot = ulmc.samplers._steps_per_slot(*ulmc.samplers._draw_plan(method, 7, 3, R))
        n_steps = {"none": 0, "one": 1, "slot and a half": per_slot + per_slot // 2,
                   "40 one-step slots": 40}[length]
        if length == "40 one-step slots":  # the ring changes hands at every step
            monkeypatch.setattr(ulmc.samplers, "_SLOT_DOUBLES", 1)
        result = run_chain(target, method, 0.05, n_steps, seed=8, R=R, K=3, x0=x0)
        expected = batch_hand_loop(target, method, 0.05, n_steps, 8, R, 3, x0)
        np.testing.assert_array_equal(result.final.x, expected.x)
        np.testing.assert_array_equal(result.final.v, expected.v)
        assert result.final.step == n_steps

    @pytest.mark.parametrize("method", ["rmm", "rmm_parallel", "exp_euler_uld"])
    def test_exact_steppers_share_one_update(self, method, monkeypatch):
        flows = []
        flow = ulmc.samplers._flow
        monkeypatch.setattr(ulmc.samplers, "_flow", lambda *a: flows.append(a) or flow(*a))
        target = ulmc.quadratic_target([1.0, 4.0], [0.3, -0.2])
        rng = np.random.default_rng(12)
        state = SamplerState(x=rng.standard_normal((4, 2)), v=rng.standard_normal((4, 2)))
        h, R, K = 0.05, 3, 3
        if method == "rmm":
            alphas = rng.uniform(size=4)
            inc = ulmc.brownian.step_increments_batch(h, alphas, 2, rng)
            new = ulmc.rmm_step(state, target, h, alphas, inc)
        elif method == "rmm_parallel":
            alphas = (np.arange(R) + rng.uniform(size=(4, R))) / R
            incs = ulmc.parallel_step_increments(h, R, alphas, 2, rng)
            new = ulmc.parallel_rmm_step(state, target, h, R, K, alphas, incs)
        else:
            inc = ulmc.brownian.exp_euler_increments_batch(h, 4, 2, rng)
            new = ulmc.exponential_euler_uld_step(state, target, h, inc)
        assert len(flows) == 1
        assert new.step == 1 and new.x.shape == new.v.shape == (4, 2)


def test_concurrent_runs_under_fast_thread_switching(monkeypatch):
    # four runs, each with its own draw thread, on one-step slots: the ring
    # changes hands at every step while threads switch every microsecond
    monkeypatch.setattr(ulmc.samplers, "_SLOT_DOUBLES", 1)
    target = ulmc.quadratic_target([1.0, 4.0, 9.0], [0.3, -0.2, 0.1])
    x0 = np.linspace(-1.0, 1.0, 21).reshape(7, 3)
    methods = ("rmm", "rmm_parallel", "exp_euler_uld", "lmc")
    results = {}

    def run(method):
        results[method] = run_chain(target, method, 0.05, 60, seed=5, R=3, K=3, x0=x0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(m,)) for m in methods]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for method in methods:
        expected = batch_hand_loop(target, method, 0.05, 60, 5, 3, 3, x0)
        np.testing.assert_array_equal(results[method].final.x, expected.x)
        np.testing.assert_array_equal(results[method].final.v, expected.v)


class TestDrawThread:
    """Every failing run stops and joins its draw thread and raises its own
    error."""

    @pytest.fixture(autouse=True)
    def one_step_per_slot(self, monkeypatch):
        # the thread then waits for a free slot when the run fails
        monkeypatch.setattr(ulmc.samplers, "_SLOT_DOUBLES", 1)

    @staticmethod
    def run_and_catch(run):
        threads = threading.active_count()
        with pytest.raises(BaseException) as caught:
            run()
        assert threading.active_count() == threads
        return caught.value

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence(self):
        target = ulmc.quadratic_target([1.0, 40.0], [0.0, 0.0])
        err = self.run_and_catch(
            lambda: run_chain(target, "lmc", 0.9, 400, seed=0, x0=np.zeros((2, 2))))
        assert isinstance(err, ulmc.UlmcError) and "not finite" in str(err)

    @pytest.mark.parametrize("R, K", [(0, 2), (2.5, 2), (True, 2), (2, 1), (2, 2.7)])
    def test_bad_counts_raise_before_any_draw(self, R, K, monkeypatch):
        def no_draws(*args):
            raise AssertionError("the draw thread was set up")

        monkeypatch.setattr(ulmc.samplers, "_DrawAhead", no_draws)
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        err = self.run_and_catch(
            lambda: run_chain(target, "rmm_parallel", 0.05, 3, seed=0, R=R, K=K))
        assert isinstance(err, ScheduleError)

    @pytest.mark.parametrize("method", ulmc.samplers.METHODS)
    def test_gradient_error(self, method):
        quad = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        boom = RuntimeError("gradient failed")
        calls = []

        def gradient(x):
            calls.append(1)
            if len(calls) == 5:
                raise boom
            return quad.gradient(x)

        target = TargetSpec(dim=2, gradient=gradient, smoothness=quad.smoothness,
                            strong_convexity=quad.strong_convexity, minimizer=np.zeros(2))
        err = self.run_and_catch(
            lambda: run_chain(target, method, 0.05, 50, seed=0, R=2, K=2,
                              x0=np.zeros((3, 2))))
        assert err is boom

    @pytest.mark.parametrize("extra", [1, -1, "shape"])
    def test_draw_plan_mismatch(self, monkeypatch, extra):
        lmc_step = ulmc.samplers.overdamped_lmc_step

        def step(state, target, h, rng):
            if extra == "shape":  # one block, a row longer than the plan's
                chains, d = state.x.shape
                rng.standard_normal((chains + 1, d))
                return lmc_step(state, target, h, FixedRng())
            if extra > 0:  # one draw more than the plan holds
                rng.standard_normal(state.x.shape)
                return lmc_step(state, target, h, rng)
            return lmc_step(state, target, h, FixedRng())  # one fewer

        monkeypatch.setattr(ulmc.samplers, "overdamped_lmc_step", step)
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        err = self.run_and_catch(
            lambda: run_chain(target, "lmc", 0.05, 20, seed=0, x0=np.zeros((3, 2))))
        assert isinstance(err, ulmc.UlmcError) and "draw plan" in str(err)

    def test_draw_error_reaches_the_caller(self, monkeypatch):
        boom = MemoryError("no room for draws")

        def fill(slot, rng, count):
            raise boom

        monkeypatch.setattr(ulmc.samplers._Slot, "fill", fill)
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        err = self.run_and_catch(lambda: run_chain(target, "rmm", 0.05, 20, seed=0))
        assert err is boom
