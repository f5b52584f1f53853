"""Moment oracles, Gaussian W2, contraction and the coupled experiments."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import ulmc
from ulmc import Schedule, UlmcError, UnsupportedTargetError
from ulmc.analysis import _weight_sq_integral, w_covariance


class TestGaussianW2:
    def test_identical_gaussians(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        res = ulmc.gaussian_w2(np.ones(2), cov, np.ones(2), cov)
        assert res.distance == pytest.approx(0.0, abs=1e-12)

    def test_pure_mean_shift(self):
        eye = np.eye(3)
        res = ulmc.gaussian_w2(np.zeros(3), eye, np.array([1.0, 0, 0]), eye)
        assert res.distance == pytest.approx(1.0, rel=1e-12)

    def test_scalar_spread_difference(self):
        res = ulmc.gaussian_w2([0.0], [[4.0]], [0.0], [[1.0]])
        assert res.distance == pytest.approx(1.0, rel=1e-12)

    def test_normalization_uses_effective_diameter(self):
        eye = np.eye(4)
        res = ulmc.gaussian_w2(np.zeros(4), eye, np.zeros(4), eye, m=0.25)
        assert res.normalized == pytest.approx(0.0, abs=1e-12)
        res = ulmc.gaussian_w2(np.zeros(4), eye, 2 * np.ones(4), eye, m=0.25)
        assert res.normalized == pytest.approx(4.0 / math.sqrt(16.0), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            cov1 = a @ a.T + 0.1 * np.eye(3)
            cov2 = b @ b.T + 0.1 * np.eye(3)
            m1 = rng.standard_normal(3)
            m2 = rng.standard_normal(3)
            d12 = ulmc.gaussian_w2(m1, cov1, m2, cov2).distance
            d21 = ulmc.gaussian_w2(m2, cov2, m1, cov1).distance
            assert d12 == pytest.approx(d21, rel=1e-10, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            covs, means = [], []
            for _ in range(3):
                a = rng.standard_normal((3, 3))
                covs.append(a @ a.T + 0.1 * np.eye(3))
                means.append(rng.standard_normal(3))
            d01 = ulmc.gaussian_w2(means[0], covs[0], means[1], covs[1]).distance
            d12 = ulmc.gaussian_w2(means[1], covs[1], means[2], covs[2]).distance
            d02 = ulmc.gaussian_w2(means[0], covs[0], means[2], covs[2]).distance
            assert d02 <= d01 + d12 + 1e-10

    def test_rejects_asymmetric_covariance(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(UlmcError):
            ulmc.gaussian_w2(np.zeros(2), bad, np.zeros(2), np.eye(2))


class TestWCovariance:
    @pytest.mark.parametrize("alpha", [0.05, 0.37, 0.81, 1.0])
    def test_matches_quadrature(self, alpha):
        h = 0.05
        ah = alpha * h
        w1w = lambda s: 1 - np.exp(-2 * (ah - s))
        w2w = lambda s: 1 - np.exp(-2 * (h - s))
        w3w = lambda s: np.exp(-2 * (h - s))
        oracle = np.array(
            [
                [quad(lambda s: w1w(s) ** 2, 0, ah)[0],
                 quad(lambda s: w1w(s) * w2w(s), 0, ah)[0],
                 quad(lambda s: w1w(s) * w3w(s), 0, ah)[0]],
                [0, quad(lambda s: w2w(s) ** 2, 0, h)[0],
                 quad(lambda s: w2w(s) * w3w(s), 0, h)[0]],
                [0, 0, quad(lambda s: w3w(s) ** 2, 0, h)[0]],
            ]
        )
        oracle = oracle + np.triu(oracle, 1).T
        np.testing.assert_allclose(w_covariance(h, alpha), oracle, rtol=1e-10, atol=1e-18)

    @pytest.mark.parametrize("alpha", [1e-7, 1e-3, 0.3, 0.9])
    def test_matches_mpmath(self, alpha):
        # 60-digit quadrature of the kernel products; every entry to 1e-12
        with mp.workdps(60):
            h = mp.mpf(0.05)
            ah = mp.mpf(alpha) * mp.mpf(0.05)
            kernels = (
                (lambda s: -mp.expm1(-2 * (ah - s)), ah),
                (lambda s: -mp.expm1(-2 * (h - s)), h),
                (lambda s: mp.exp(-2 * (h - s)), h),
            )
            oracle = np.array(
                [
                    [
                        float(mp.quad(lambda s: ki(s) * kj(s), [0, min(ei, ej)]))
                        for kj, ej in kernels
                    ]
                    for ki, ei in kernels
                ]
            )
        np.testing.assert_allclose(w_covariance(0.05, alpha), oracle, rtol=1e-12, atol=0)

    def test_weight_sq_integral_matches_mpmath(self):
        thetas = np.logspace(-8, 0, 33)
        with mp.workdps(60):
            oracle = [
                float(th + mp.expm1(-2 * th) - mp.expm1(-4 * th) / 4)
                for th in map(mp.mpf, thetas)
            ]
        np.testing.assert_allclose(_weight_sq_integral(thetas), oracle, rtol=1e-12, atol=0)

    def test_positive_semidefinite_across_alphas(self):
        cov = w_covariance(0.05, np.linspace(0.0, 1.0, 101))
        for mat in cov:
            assert np.linalg.eigvalsh(mat)[0] >= -1e-18


class TestExactMoments:
    def test_time_zero(self):
        target = ulmc.quadratic_target([1.0, 2.0], [0.3, -0.3])
        mean, cov = ulmc.exact_uld_moments(target, 0.0, np.array([1.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(mean, [1.0, 1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cov, np.zeros((4, 4)), atol=1e-14)

    def test_long_time_stationary_law(self):
        diag = np.array([0.5, 2.0])
        target = ulmc.quadratic_target(diag, np.array([1.0, -1.0]))
        # slowest mode decays at rate 1 - sqrt(1 - 1/kappa) ~ 0.134
        mean, cov = ulmc.exact_uld_moments(target, 300.0, np.array([4.0, 4.0]), np.ones(2))
        u = 1.0 / target.smoothness
        np.testing.assert_allclose(mean[:2], target.minimizer, atol=1e-8)
        np.testing.assert_allclose(mean[2:], np.zeros(2), atol=1e-8)
        np.testing.assert_allclose(np.diag(cov)[:2], 1.0 / diag, rtol=1e-8)
        np.testing.assert_allclose(np.diag(cov)[2:], u * np.ones(2), rtol=1e-8)
        np.testing.assert_allclose(cov[0, 2], 0.0, atol=1e-9)

    def test_matches_fine_step_moment_integration(self):
        # oracle: Euler integration of the mean/covariance flow at dt=1e-5
        a, u, t_end = 1.0, 1.0, 0.1
        target = ulmc.quadratic_target([a], [0.0])
        x0, v0 = np.array([1.0]), np.array([0.5])
        amat = np.array([[0.0, 1.0], [-u * a, -2.0]])
        qmat = np.array([[0.0, 0.0], [0.0, 4.0 * u]])
        mean = np.array([1.0, 0.5])
        cov = np.zeros((2, 2))
        dt = 1e-5
        for _ in range(int(round(t_end / dt))):
            mean = mean + dt * amat @ mean
            cov = cov + dt * (amat @ cov + cov @ amat.T + qmat)
        got_mean, got_cov = ulmc.exact_uld_moments(target, t_end, x0, v0)
        np.testing.assert_allclose(got_mean, [mean[0], mean[1]], atol=1e-4)
        oracle_cov = np.array(
            [[cov[0, 0], cov[0, 1]], [cov[1, 0], cov[1, 1]]]
        )
        np.testing.assert_allclose(
            [[got_cov[0, 0], got_cov[0, 1]], [got_cov[1, 0], got_cov[1, 1]]],
            oracle_cov,
            atol=1e-4,
        )

    def test_rejects_nonlinear_gradient(self):
        target = ulmc.TargetSpec(
            dim=1,
            gradient=lambda x: np.asarray(x) ** 3 + np.asarray(x),
            smoothness=4.0,
            strong_convexity=1.0,
        )
        with pytest.raises(UnsupportedTargetError):
            ulmc.exact_uld_moments(target, 1.0, np.ones(1), np.zeros(1))


class TestMomentOracle:
    def test_negligible_gradient_follows_free_dynamics(self):
        target = ulmc.TargetSpec(
            dim=2,
            gradient=lambda x: 1e-12 * np.asarray(x, dtype=float),
            smoothness=1.0,
            strong_convexity=1e-12,
            minimizer=np.zeros(2),
        )
        h, n = 0.05, 40
        x0 = np.array([1.0, -2.0])
        trace = ulmc.rmm_moment_oracle(target, h, n, x0=x0)
        # gradient-free flow: x drifts by the integrated velocity decay only
        np.testing.assert_allclose(trace.means[-1][:2], x0, atol=1e-8)

    def test_monte_carlo_cross_check_one_step(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        h, chains = 0.05, 1_000_000
        sched = Schedule(h=h, N=1, u=1.0)
        ens = ulmc.rmm_run_ensemble(target, sched, chains, seed=17, x0=np.array([1.0]))
        z = np.concatenate([ens.x, ens.v], axis=1)
        emp_mean = z.mean(axis=0)
        emp_cov = np.cov(z, rowvar=False)
        trace = ulmc.rmm_moment_oracle(target, h, 1, x0=np.array([1.0]))
        mean_o, cov_o = trace.means[-1], trace.covs[-1]
        se_mean = np.sqrt(np.diag(emp_cov) / chains)
        assert np.max(np.abs(emp_mean - mean_o) / se_mean) < 4.0
        se_cov = np.sqrt(
            (np.outer(np.diag(emp_cov), np.diag(emp_cov)) + emp_cov**2) / chains
        )
        assert np.max(np.abs(emp_cov - cov_o) / se_cov) < 4.0

    def test_covariance_reaches_fixed_point(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        h = 0.05
        # the critically damped mode decays like e^{-2t}(1+t)^2, so the
        # 1e-10 plateau arrives a small constant factor past 10*kappa/h
        n = int(16 * target.kappa / h)
        trace = ulmc.rmm_moment_oracle(target, h, n, record_every=1)
        tail_diff = np.max(np.abs(np.asarray(trace.covs[-1]) - np.asarray(trace.covs[-2])))
        assert tail_diff < 1e-10
        assert trace.quadrature_error < 1e-10
        for cov in trace.covs[:: len(trace.covs) // 8]:
            assert np.linalg.eigvalsh(cov)[0] >= -1e-12
        # fixed point sits at the discretization's stationary law, h^3-close
        # to the continuous one diag(1/a, u)
        np.testing.assert_allclose(
            np.diag(trace.covs[-1]), [1.0, 1.0], rtol=5e-5
        )

    def test_rejects_too_few_nodes(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        with pytest.raises(UlmcError):
            ulmc.rmm_moment_oracle(target, 0.05, 2, quadrature_nodes=16)


class TestCoordinateLayout:
    """Coordinates of a diagonal quadratic are independent: each 2x2 (x, v)
    block of the oracles equals the 1-d oracle of that coordinate, and every
    cross-coordinate entry is zero."""

    diag = np.array([1.0, 4.0, 9.0])
    center = np.array([0.5, -1.0, 2.0])
    x0 = np.array([2.0, 0.0, -1.5])
    v0 = np.array([0.3, -0.7, 1.1])

    def coordinate_target(self, k):
        a, c = self.diag[k], self.center[k]
        return ulmc.TargetSpec(
            dim=1,
            gradient=lambda x: a * (np.asarray(x) - c),
            smoothness=float(self.diag.max()),  # the same u = 1/L as the joint target
            strong_convexity=a,
            minimizer=np.array([c]),
        )

    def assert_blocks(self, mean, cov, per_coordinate):
        d = self.diag.size
        on_block = np.zeros((2 * d, 2 * d), dtype=bool)
        for k, (mean_k, cov_k) in enumerate(per_coordinate):
            sel = [k, d + k]
            np.testing.assert_array_equal(mean[sel], mean_k)
            np.testing.assert_array_equal(cov[np.ix_(sel, sel)], cov_k)
            on_block[np.ix_(sel, sel)] = True
        assert np.all(cov[~on_block] == 0.0)

    def test_moment_oracle_blocks(self):
        target = ulmc.quadratic_target(self.diag, self.center)
        trace = ulmc.rmm_moment_oracle(target, 0.1, 30, x0=self.x0, record_every=10)
        per_coordinate = [
            ulmc.rmm_moment_oracle(
                self.coordinate_target(k), 0.1, 30, x0=self.x0[[k]], record_every=10
            )
            for k in range(self.diag.size)
        ]
        for i, (mean, cov) in enumerate(zip(trace.means, trace.covs)):
            self.assert_blocks(mean, cov, [(t.means[i], t.covs[i]) for t in per_coordinate])

    def test_exact_moments_blocks(self):
        target = ulmc.quadratic_target(self.diag, self.center)
        mean, cov = ulmc.exact_uld_moments(target, 1.7, self.x0, self.v0)
        per_coordinate = [
            ulmc.exact_uld_moments(
                self.coordinate_target(k), 1.7, self.x0[[k]], self.v0[[k]]
            )
            for k in range(self.diag.size)
        ]
        self.assert_blocks(mean, cov, per_coordinate)


class TestContraction:
    def test_degenerate_zero_difference(self):
        target = ulmc.quadratic_target([1.0, 1.0], [0.0, 0.0])
        res = ulmc.contraction_check(target, 1.0, np.zeros(2), np.zeros(2))
        assert res.degenerate
        assert res.ratio == 0.0

    def test_unit_condition_number(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        res = ulmc.contraction_check(target, 1.0, np.array([1.0]), np.array([0.0]))
        assert not res.degenerate
        assert res.ratio <= math.exp(-1.0) + 1e-9
        assert res.bound == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("t_factor", [0.1, 1.0, 10.0])
    def test_contraction_bound_grid(self, kappa, t_factor):
        d = 3
        diag = np.linspace(1.0 / kappa, 1.0, d)
        target = ulmc.quadratic_target(diag, np.zeros(d))
        t = t_factor * kappa
        rng = np.random.default_rng(int(kappa * 1000 + t_factor * 10))
        for _ in range(25):
            dx = rng.standard_normal(d)
            dv = rng.standard_normal(d)
            res = ulmc.contraction_check(target, t, dx, dv)
            assert res.ratio <= math.exp(-t / kappa) + 1e-9


class TestCoupledExperiment:
    def test_reference_self_consistency(self):
        target = ulmc.quadratic_target([1.0, 3.0], [0.0, 0.0])
        res = ulmc.coupled_error_experiment(
            target, [0.1], 1.0, seed=5, chains=2, check_reference=True
        )
        assert res.reference_self_error <= 1e-10

    def test_quadratic_slopes_and_ordering(self):
        diag = np.linspace(1.0, 10.0, 2)
        target = ulmc.quadratic_target(diag, np.zeros(2))
        res = ulmc.coupled_error_experiment(
            target, [0.05, 0.1, 0.2], 5.0, seed=91, chains=6
        )
        errs = {(h, m): e for h, m, e in res.rows}
        for h in (0.05, 0.1, 0.2):
            assert errs[(h, "rmm")] < errs[(h, "exp_euler_uld")]
        assert res.slopes["rmm"] > res.slopes["exp_euler_uld"]
        assert 1.1 <= res.slopes["rmm"] <= 1.9
        assert 0.6 <= res.slopes["exp_euler_uld"] <= 1.4

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "curvature, total_time, methods, message",
        [
            # the states stay finite, their distance overflows
            (1e6, 2.0, ("rmm", "exp_euler_uld"), "rmm error at h=0.5 is not finite"),
            # the reference state overflows
            (1e6, 4.0, ("rmm", "exp_euler_uld"), "exp_euler_uld chain state is not finite"),
            # the fine reference stays stable, h = 0.5 does not
            (400.0, 80.0, ("rmm",), "rmm chain state is not finite after step 140"),
        ],
    )
    def test_diverging_run_raises(self, curvature, total_time, methods, message):
        target = ulmc.TargetSpec(
            dim=1,
            gradient=lambda x: curvature * np.asarray(x),
            smoothness=1.0,
            strong_convexity=1.0,
            minimizer=np.zeros(1),
        )
        with pytest.raises(UlmcError, match=message):
            ulmc.coupled_error_experiment(
                target, [0.5], total_time, seed=0, chains=1, methods=methods, x0=np.ones(1)
            )

    def test_rejects_incommensurate_grid(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        with pytest.raises(ulmc.ConfigError):
            ulmc.coupled_error_experiment(target, [0.3], 1.0, seed=0, chains=1)

    def test_rejects_low_refinement(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        with pytest.raises(ulmc.ConfigError):
            ulmc.coupled_error_experiment(
                target, [0.1], 1.0, seed=0, chains=1, reference_refinement=4
            )


class TestStationaryStudy:
    def test_zero_steps_isotropic_diameter(self):
        target = ulmc.quadratic_target(np.full(5, 2.0), np.zeros(5))
        sched = Schedule(h=0.05, N=0, u=1.0 / target.smoothness)
        study = ulmc.stationary_error_study(target, sched, 200, seed=3)
        assert study.w2.normalized == pytest.approx(1.0, rel=1e-12)
        assert not study.low_power

    def test_low_power_flag(self):
        target = ulmc.quadratic_target(np.ones(2), np.zeros(2))
        sched = Schedule(h=0.05, N=0, u=1.0)
        study = ulmc.stationary_error_study(target, sched, 50, seed=3)
        assert study.low_power

    def test_converged_schedule_beats_target_accuracy(self):
        diag = np.linspace(1.0, 10.0, 5)
        target = ulmc.quadratic_target(diag, np.zeros(5))
        sched = ulmc.schedule(0.5, target.kappa, C=0.5, L=target.smoothness)
        study = ulmc.stationary_error_study(target, sched, 400, seed=7)
        assert study.normalized_ci_high <= 0.5
