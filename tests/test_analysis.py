"""Moment oracles, Gaussian W2, contraction and the coupled experiments."""

import math
import tracemalloc
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import ulmc
from ulmc import ConfigError, Schedule, ScheduleError, UlmcError, UnsupportedTargetError
from ulmc import analysis
from ulmc.analysis import (
    BOOTSTRAP_RESAMPLES,
    _bootstrap_w2,
    _coordinate_flows,
    _w2_distances,
    _weight_sq_integral,
    w_covariance,
)


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

    def test_rejects_non_square_covariance(self):
        with pytest.raises(UlmcError, match="cov1 must be square"):
            ulmc.gaussian_w2(np.zeros(2), np.ones((2, 3)), np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("mean1, mean2, cov2", [
        ([0.0], [0.0, 0.0], np.eye(2)),
        ([0.0, 0.0, 0.0], [0.0, 0.0], np.eye(2)),
        ([0.0, 0.0], [0.0], np.eye(2)),
        ([0.0, 0.0], [0.0, 0.0], np.eye(3)),
    ], ids=["mean1 of d = 1", "mean1 of d = 3", "mean2 of d = 1", "cov2 of d = 3"])
    def test_rejects_mixed_dimensions(self, mean1, mean2, cov2):
        with pytest.raises(UlmcError, match="one dimension"):
            ulmc.gaussian_w2(mean1, np.eye(2), mean2, cov2)

    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_m_that_is_not_finite_and_positive(self, m):
        with pytest.raises(UlmcError, match="strong convexity"):
            ulmc.gaussian_w2(np.zeros(2), np.eye(2), np.ones(2), np.eye(2), m=m)


def random_spd(rng, k, d, rank=None):
    a = rng.standard_normal((k, d, rank or d))
    return a @ a.transpose(0, 2, 1) + (0.0 if rank else 0.1 * np.eye(d))


def mp_w2_of_fit(xs, cov2):
    """50-digit W2 from the Gaussian fitted to the rows of xs (np.cov's
    normalization), exactly of rank below d when rows <= d, to (0, cov2)."""
    n, d = xs.shape
    with mp.workdps(50):
        rows = [[mp.mpf(v) for v in row] for row in xs]
        mean = [mp.fsum(r[i] for r in rows) / n for i in range(d)]
        cov1 = mp.matrix(d, d)
        for i in range(d):
            for j in range(d):
                cov1[i, j] = mp.fsum((r[i] - mean[i]) * (r[j] - mean[j]) for r in rows) / (n - 1)
        root2 = mp.sqrtm(mp.matrix(cov2.tolist()))
        cross, _ = mp.eigsy(root2 * cov1 * root2)
        w2_sq = (mp.fsum(m * m for m in mean) + mp.fsum(cov1[i, i] for i in range(d))
                 + mp.fsum(mp.mpf(cov2[i, i]) for i in range(d))
                 - 2 * mp.fsum(mp.sqrt(max(v, 0)) for v in cross))
        return float(mp.sqrt(w2_sq))


@pytest.mark.parametrize("chains, d", [(2, 3), (3, 5), (4, 10)])
def test_rank_deficient_fits_match_mpmath(chains, d):
    # a fit of chains <= d rows is singular: the cross term's null
    # eigenvalues are rounding noise, whose roots must not enter the trace
    cov2 = np.diag(np.linspace(0.1, 1.0, d))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((chains, d)) * rng.uniform(0.2, 2.0, d)
        got = ulmc.gaussian_w2(xs.mean(axis=0), np.cov(xs.T), np.zeros(d), cov2).distance
        exact = mp_w2_of_fit(xs, cov2)
        assert abs(got - exact) <= 1e-12 * exact


class TestBatchedW2:
    """`_w2_distances` over a stack equals `gaussian_w2` pair by pair."""

    def check_stack(self, means, covs, mean2, cov2):
        batched = _w2_distances(means, covs, mean2, cov2)
        single = [ulmc.gaussian_w2(mu, cov, mean2, cov2).distance
                  for mu, cov in zip(means, covs)]
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0.0)
        return batched

    def test_random_spd_stack(self):
        rng = np.random.default_rng(11)
        means, covs = rng.standard_normal((9, 4)), random_spd(rng, 9, 4)
        self.check_stack(means, covs, rng.standard_normal(4), random_spd(rng, 1, 4)[0])

    def test_singular_stack_and_target(self):
        rng = np.random.default_rng(12)
        means, covs = rng.standard_normal((9, 5)), random_spd(rng, 9, 5, rank=2)
        self.check_stack(means, covs, rng.standard_normal(5), random_spd(rng, 1, 5, rank=3)[0])
        self.check_stack(means, np.zeros((9, 5, 5)), np.zeros(5), random_spd(rng, 1, 5)[0])

    def test_identical_inputs_are_exactly_zero(self):
        rng = np.random.default_rng(13)
        mean2, cov2 = rng.standard_normal(6), random_spd(rng, 1, 6)[0]
        distances = self.check_stack(np.tile(mean2, (4, 1)), np.tile(cov2, (4, 1, 1)),
                                     mean2, cov2)
        np.testing.assert_array_equal(distances, 0.0)

    def test_one_asymmetric_member_raises(self):
        rng = np.random.default_rng(14)
        covs = random_spd(rng, 5, 3)
        covs[3, 0, 2] += 1e-6
        with pytest.raises(UlmcError, match="cov1 is not symmetric"):
            _w2_distances(np.zeros((5, 3)), covs, np.zeros(3), np.eye(3))


def head_gaussian_w2(mean1, cov1, mean2, cov2):
    """The closed form as gaussian_w2 computed it pair by pair before the
    batched routine: eigh square roots and the trace of the cross root."""

    def psd_sqrt(mat):
        vals, vecs = np.linalg.eigh(mat)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

    root2 = psd_sqrt(cov2)
    cross = psd_sqrt(root2 @ cov1 @ root2)
    gap = float(np.sum((mean1 - mean2) ** 2))
    w2_sq = gap + float(np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(cross))
    if w2_sq <= 1e-13 * (gap + float(np.trace(cov1) + np.trace(cov2))):
        w2_sq = 0.0
    return math.sqrt(max(w2_sq, 0.0))


def reference_bootstrap(xs, seed, center, target_cov):
    """Distances by the per-resample loop the batched bootstrap replaced: a
    fancy-indexed copy, np.cov and the W2 of each resample, drawn in the
    same order from the same stream; the point estimate first.  Also flags
    each fit whose covariance is singular but not zero (2 to d distinct
    chains)."""
    chains, d = xs.shape

    def fitted_w2(sample):
        cov = np.atleast_2d(np.cov(sample, rowvar=False)) if chains > 1 else np.zeros((d, d))
        return head_gaussian_w2(sample.mean(axis=0), cov, center, target_cov)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007)))
    samples = [np.arange(chains)] + [rng.integers(0, chains, size=chains)
                                     for _ in range(BOOTSTRAP_RESAMPLES)]
    distinct = np.array([np.unique(idx).size for idx in samples])
    return np.array([fitted_w2(xs[idx]) for idx in samples]), (distinct > 1) & (distinct <= d)


def stub_chain(monkeypatch, xs):
    """Make the stationary study's chain return final positions xs."""
    monkeypatch.setattr(analysis, "rmm_run_ensemble",
                        lambda target, sched, chains, seed: SimpleNamespace(x=xs))


class TestBootstrap:
    @pytest.mark.parametrize("law", ["far", "near"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("chains", [1, 2, 50, 2000])
    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_distances_match_the_per_resample_loop(self, law, d, chains, seed, monkeypatch):
        diag = np.linspace(1.0, 4.0, d)
        center, target_cov = np.zeros(d), np.diag(1.0 / diag)
        # far: distances of the order of the target's diameter; near: a
        # converged run's, small against the traces, so the cross term cancels
        shift, spread = {"far": (0.3, 0.7), "near": (0.05, 1.0 / math.sqrt(1.05))}[law]
        rng = np.random.default_rng(seed)
        xs = shift + spread * rng.standard_normal((chains, d)) / np.sqrt(diag)
        reference, singular = reference_bootstrap(xs, seed, center, target_cov)
        distances = _bootstrap_w2(xs, seed, center, target_cov)
        if law == "far":
            np.testing.assert_allclose(distances[~singular], reference[~singular],
                                       rtol=1e-12, atol=0.0)
        else:
            # both evaluations round W2^2 at the 1e-13 * scale floor the
            # closed form treats as zero
            np.testing.assert_allclose(distances[~singular] ** 2, reference[~singular] ** 2,
                                       rtol=0.0, atol=1e-13 * 2.0 * np.trace(target_cov))
        # a singular fit's null eigenvalues are rounding noise of either
        # evaluation, and the cross term takes their square roots
        np.testing.assert_allclose(distances[singular], reference[singular],
                                   rtol=1e-7, atol=0.0)

        stub_chain(monkeypatch, xs)
        target = ulmc.quadratic_target(diag, center)
        sched = Schedule(h=0.05, N=0, u=1.0 / target.smoothness)
        study = ulmc.stationary_error_study(target, sched, chains, seed)
        assert study.w2.distance == distances[0]
        assert study.w2.normalized == distances[0] / math.sqrt(d)
        lo, hi = np.quantile(distances[1:], [0.025, 0.975])
        assert (study.ci_low, study.ci_high) == (lo, hi)

    def test_traced_peak_stays_below_four_samples(self, monkeypatch):
        # one (resamples, chains) block of multiplicities alone is 20 samples' worth here
        chains, d = 5000, 10
        diag = np.linspace(1.0, 2.0, d)
        xs = np.random.default_rng(3).standard_normal((chains, d)) / np.sqrt(diag)
        stub_chain(monkeypatch, xs)
        target = ulmc.quadratic_target(diag, np.zeros(d))
        sched = Schedule(h=0.05, N=0, u=1.0 / target.smoothness)
        tracemalloc.start()
        try:
            ulmc.stationary_error_study(target, sched, chains, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * chains * d * 8


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

    def test_rejects_negative_curvature(self):
        # TargetSpec cannot see the gradient's sign; the oracle's probe does
        target = ulmc.TargetSpec(dim=2, gradient=lambda x: -np.asarray(x, dtype=float),
                                 smoothness=1.0, strong_convexity=1.0, minimizer=np.zeros(2))
        with pytest.raises(UnsupportedTargetError, match="positive curvature"):
            ulmc.rmm_moment_oracle(target, 0.05, 3)

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

    def test_quadrature_rule_is_computed_once_and_read_only(self):
        alphas, weights = analysis._gauss_legendre_01(16)
        assert analysis._gauss_legendre_01(16)[0] is alphas
        nodes, raw = np.polynomial.legendre.leggauss(16)
        np.testing.assert_array_equal(alphas, 0.5 * (nodes + 1.0))
        np.testing.assert_array_equal(weights, 0.5 * raw)
        for array in (alphas, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("stepper", ["rmm_step", "parallel_rmm_step"])
    def test_probed_step_matches_the_hand_maps(self, stepper):
        # On a centered diagonal quadratic a step is linear in (x, v, W1, W2,
        # W3) at a fixed fraction: chain k n + j carries the unit input k in
        # every coordinate at node j, so its output is column k of the map.
        diag = np.linspace(1.0, 100.0, 5)
        target = ulmc.quadratic_target(diag, np.zeros(5))
        h, u = 0.1, 1.0 / target.smoothness
        alphas, weights = analysis._gauss_legendre_01(128)
        n = len(alphas)
        unit = np.repeat(np.eye(5), n, axis=0)[:, :, None] * np.ones(5)  # (5 n, 5, d)
        state = ulmc.SamplerState(x=unit[:, 0], v=unit[:, 1])
        inc = ulmc.StepIncrements(*unit[:, 2:].transpose(1, 0, 2))
        fractions = np.tile(alphas, 5)
        if stepper == "rmm_step":
            out = ulmc.rmm_step(state, target, h, fractions, inc)
        else:
            inc = inc._replace(W1=inc.W1[:, None])
            out = ulmc.parallel_rmm_step(state, target, h, 1, 2, fractions[:, None], inc)
        # (d, n, 2 outputs, 5 inputs)
        maps = np.stack([out.x, out.v]).reshape(2, 5, n, 5).transpose(3, 2, 0, 1)
        T, B = maps[..., :2], maps[..., 2:] / math.sqrt(u)
        probed = (
            np.einsum("n,knij->kij", weights, T),
            np.einsum("n,knij,knab->kiajb", weights, T, T).reshape(5, 4, 4),
            u * np.einsum("n,knia,nab,knjb->kij", weights, B, w_covariance(h, alphas), B),
        )
        hand = analysis._rmm_alpha_averaged_maps(diag, h, u, n)
        errors = [float(np.max(np.abs(p - m)) / np.max(np.abs(m)))
                  for p, m in zip(probed, hand)]
        # measured: 4e-17, 3e-17 and 1.2e-15 for both steppers
        assert max(errors[:2]) < 1e-14 and errors[2] < 1e-13, errors


class TestCoordinateFlow:
    """The closed-form e^{At}, A = [[0,1],[-ua,-2]], against 50-digit mpmath
    expm, across damping regimes and horizons."""

    @staticmethod
    def grid(kappa):
        # overdamped ua in [1/kappa, 1), critical ua = 1, underdamped ua > 1
        return np.concatenate([np.linspace(1.0 / kappa, 1.0, 4), [1.0 - 1e-9, 1.0 + 1e-9, 2.0]])

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0])
    def test_matches_mpmath(self, kappa):
        ua = self.grid(kappa)
        assert 1.0 in ua  # critical damping, w = 0 exactly
        with mp.workdps(50):
            for t in (0.0, 1e-8, kappa / 10.0, kappa, 10.0 * kappa, 300.0):
                flows = _coordinate_flows(ua, 1.0, t)
                assert np.all(np.isfinite(flows))
                for a, flow in zip(ua, flows):
                    exact = mp.expm(mp.matrix([[0, 1], [-a, -2]]) * t)
                    norm = mp.mnorm(exact, "f")
                    if norm < 1e-300:  # below the double range of the entries
                        continue
                    err = mp.mnorm(mp.matrix(flow.tolist()) - exact, "f") / norm
                    assert err <= 1e-13, (a, t, float(err))

    def test_identity_at_time_zero(self):
        flows = _coordinate_flows(self.grid(100.0), 1.0, 0.0)
        np.testing.assert_array_equal(flows, np.broadcast_to(np.eye(2), flows.shape))

    def test_long_horizon_stays_finite(self):
        # kappa = 100, t = 1000: cosh(wt) alone overflows there
        diag = np.linspace(1.0, 100.0, 4)
        assert np.all(np.isfinite(_coordinate_flows(diag, 0.01, 1000.0)))
        target = ulmc.quadratic_target(diag, np.zeros(4))
        mean, cov = ulmc.exact_uld_moments(target, 1000.0, np.ones(4), np.ones(4))
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))


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
    def test_quadratic_slopes_and_ordering(self):
        diag = np.linspace(1.0, 10.0, 2)
        target = ulmc.quadratic_target(diag, np.zeros(2))
        res = ulmc.coupled_error_experiment(
            target, [0.05, 0.1, 0.2], 5.0, seed=91, chains=24
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

    @pytest.mark.parametrize("methods, per_step", [(("rmm", "exp_euler_uld"), 3), (("rmm",), 2)])
    def test_grad_evals_audits_every_run(self, methods, per_step):
        # the reference takes one gradient per fine step; rmm two per step
        # and the frozen-gradient integrator one
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        h_values, total_time, refinement, chains = [0.1, 0.2, 0.5], 2.0, 32, 3
        res = ulmc.coupled_error_experiment(target, h_values, total_time, seed=4,
                                            reference_refinement=refinement,
                                            chains=chains, methods=methods)
        n_h = [round(total_time / h) for h in h_values]
        n_ref = max(n_h) * refinement
        assert res.grad_evals == chains * (n_ref + per_step * sum(n_h))

    def test_rejects_a_method_without_a_coupled_run(self):
        target = ulmc.quadratic_target([1.0], [0.0])
        with pytest.raises(ConfigError, match="coupled experiment supports"):
            ulmc.coupled_error_experiment(target, [0.1], 1.0, seed=0, chains=1,
                                          methods=("lmc",))

    def test_one_step_size_has_no_slope(self):
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        res = ulmc.coupled_error_experiment(target, [0.1], 1.0, seed=0, chains=2)
        assert [m for _, m, _ in res.rows] == ["rmm", "exp_euler_uld"]
        assert all(math.isnan(slope) for slope in res.slopes.values())
        assert set(res.slopes) == {"rmm", "exp_euler_uld"}

    @pytest.mark.parametrize("h_values, total_time, x0, error, message", [
        ([1.5], 3.0, None, ScheduleError, "step size must be in (0, 1.0), got 1.5"),
        ([0.5], 1.0, [math.nan, 0.0], UlmcError, "chain start is not finite"),
        ([0.5], 1.0, [0.0, 0.0, 0.0], UlmcError, "start shape (3,) is not (d,)"),
        ([0.5], 1.0, np.zeros((2, 2)), UlmcError, "start shape (2, 2) is not (d,)"),
        ([0.1, 0.1, 0.2], 1.0, None, ConfigError, "step sizes must not repeat"),
        ([0.1, 0.1 * (1 + 1e-12)], 1.0, None, ConfigError, "takes 10 steps"),
    ], ids=["h 1.5", "non-finite start", "start of d = 3", "2-d start", "repeated h",
            "h repeated to rounding"])
    def test_bad_inputs_raise_before_the_path_is_drawn(self, h_values, total_time, x0,
                                                       error, message, monkeypatch):
        stores = []

        def spy(*args):
            stores.append(ulmc.brownian.BrownianPathStore(*args))
            return stores[-1]

        monkeypatch.setattr(analysis, "BrownianPathStore", spy)
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        with pytest.raises(error) as raised:
            ulmc.coupled_error_experiment(target, h_values, total_time, seed=0, chains=2,
                                          x0=x0)
        assert message in str(raised.value) and stores == []
        ulmc.coupled_error_experiment(target, [0.5], 1.0, seed=0, chains=2)
        assert len(stores) == 1  # the spy sees the one store of a good run

    def test_every_run_steps_its_own_copy_of_the_start(self, monkeypatch):
        # each run steps its start in place, so the runs after the reference
        # must not see the reference's (or each other's) end state
        starts = []

        def spy(target, method, h, n_steps, seed, x, *args, **kwargs):
            starts.append((x, x.copy()))
            return drive(target, method, h, n_steps, seed, x, *args, **kwargs)

        drive = analysis._drive
        monkeypatch.setattr(analysis, "_drive", spy)
        target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
        x0 = np.array([0.7, -0.4])
        ulmc.coupled_error_experiment(target, [0.1, 0.2], 1.0, seed=2, chains=3, x0=x0)
        np.testing.assert_array_equal(x0, [0.7, -0.4])
        assert len(starts) == 5  # the reference, then rmm and exp_euler_uld per h
        for i, (x, at_call) in enumerate(starts):
            np.testing.assert_array_equal(at_call, np.tile(x0, (3, 1)))
            assert not np.shares_memory(x, x0)
            assert not any(np.shares_memory(x, other) for other, _ in starts[:i])

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


@pytest.mark.parametrize("call, error", [
    (lambda t: ulmc.rmm_moment_oracle(t, 0.05, -3), ScheduleError),
    (lambda t: ulmc.rmm_moment_oracle(t, 0.0, 3), ScheduleError),
    (lambda t: ulmc.rmm_moment_oracle(t, -0.05, 3), ScheduleError),
    (lambda t: ulmc.rmm_moment_oracle(t, math.nan, 3), ScheduleError),
    (lambda t: ulmc.rmm_moment_oracle(t, 0.05, 3, record_every=-1), ConfigError),
    (lambda t: ulmc.run_chain(t, "rmm", 0.05, 3, 0, record_every=-1), ConfigError),
    (lambda t: ulmc.exact_uld_moments(t, math.nan, [1.0, 0.0], [0.0, 0.0]), UlmcError),
    (lambda t: ulmc.exact_uld_moments(t, math.inf, [1.0, 0.0], [0.0, 0.0]), UlmcError),
    (lambda t: ulmc.contraction_check(t, math.nan, [1.0, 0.0], [0.0, 1.0]), UlmcError),
    (lambda t: ulmc.coupled_error_experiment(t, [0.1], 1.0, 0, methods=()), ConfigError),
    (lambda t: ulmc.run_chain(t, "rmm", 0.05, 10, 0, record_every=2.5), ConfigError),
    (lambda t: ulmc.rmm_moment_oracle(t, 0.05, 10, record_every=2.5), ConfigError),
    (lambda t: ulmc.run_chain(t, "rmm", 0.05, 10, 0, record_every=True), ConfigError),
    (lambda t: ulmc.run_chain(t, "rmm", 0.05, 2.5, 0), ScheduleError),
    (lambda t: ulmc.rmm_moment_oracle(t, 0.05, 2.5), ScheduleError),
    (lambda t: ulmc.rmm_moment_oracle(t, 0.05, np.float64(3.0)), ScheduleError),
    (lambda t: ulmc.run_chain(t, "rmm", 0.05, True, 0), ScheduleError),
    (lambda t: ulmc.exact_uld_moments(t, 1.0, [1.0, 0.0, 3.0], [0.0, 0.0]), UlmcError),
    (lambda t: ulmc.exact_uld_moments(t, 1.0, [1.0, 0.0], [0.0]), UlmcError),
    (lambda t: ulmc.rmm_moment_oracle(t, 0.05, 3, x0=[1.0, 2.0, 3.0]), UlmcError),
    (lambda t: ulmc.rmm_run_ensemble(t, Schedule(0.05, 3, 0.25), 2.5, 0), ConfigError),
    (lambda t: ulmc.rmm_run_ensemble(t, Schedule(0.05, 3, 0.25), True, 0), ConfigError),
    (lambda t: ulmc.stationary_error_study(t, Schedule(0.05, 3, 0.25), 2.5, 0), ConfigError),
    (lambda t: ulmc.coupled_error_experiment(t, [0.1], 1.0, 0, chains=2.5), ConfigError),
    (lambda t: ulmc.coupled_error_experiment(t, [0.1], 1.0, 0, chains=True), ConfigError),
    (lambda t: ulmc.coupled_error_experiment(t, [0.1], 1.0, 0, reference_refinement=32.5),
     ConfigError),
    (lambda t: ulmc.coupled_error_experiment(t, [0.1], 1.0, 0, reference_refinement=40.0),
     ConfigError),
    (lambda t: ulmc.run_chain(t, "rmm_parallel", 0.05, 3, 0, R=2, K=2.7), ScheduleError),
    (lambda t: ulmc.run_chain(t, "rmm_parallel", 0.05, 3, 0, R=2.5), ScheduleError),
    (lambda t: ulmc.run_chain(t, "rmm_parallel", 0.05, 3, 0, R=True), ScheduleError),
    (lambda t: Schedule(0.05, 3, 0.25, K=2.5), ScheduleError),
    (lambda t: Schedule(0.05, 2.5, 0.25), ScheduleError),
    (lambda t: Schedule(0.05, 3, math.nan), ScheduleError),
    (lambda t: ulmc.parallel_step_increments(0.05, 2.7, [0.25, 0.75], 2,
                                             np.random.default_rng(0)), UlmcError),
    (lambda t: ulmc.rmm_run(t, Schedule(0.05, 3, 0.25, R=3, K=4), 0), ConfigError),
    (lambda t: ulmc.rmm_run_ensemble(t, Schedule(0.05, 3, 0.25, R=3, K=4), 2, 0),
     ConfigError),
    (lambda t: ulmc.stationary_error_study(t, Schedule(0.05, 3, 0.25, R=3, K=4), 2, 0),
     ConfigError),
    (lambda t: ulmc.rmm_moment_oracle(t, 0.05, 3, x0=[math.nan, 0.0]), UlmcError),
    (lambda t: ulmc.exact_uld_moments(t, 1.0, [math.nan, 0.0], [0.0, 0.0]), UlmcError),
    (lambda t: ulmc.exact_uld_moments(t, 1.0, [0.0, 0.0], [0.0, math.inf]), UlmcError),
    (lambda t: ulmc.contraction_check(t, 1.0, [math.nan, 0.0], [0.0, 0.0]), UlmcError),
    (lambda t: ulmc.contraction_check(t, 1.0, [1.0, 0.0], [0.0, math.nan]), UlmcError),
    (lambda t: ulmc.gaussian_w2([math.nan, 0.0], np.eye(2), [0.0, 0.0], np.eye(2)),
     UlmcError),
    (lambda t: ulmc.gaussian_w2([0.0, 0.0], np.eye(2), [0.0, math.inf], np.eye(2)),
     UlmcError),
], ids=["oracle n_steps < 0", "oracle h = 0", "oracle h < 0", "oracle h nan",
        "oracle record_every < 0", "run_chain record_every < 0", "moments t nan",
        "moments t inf", "contraction t nan", "coupled no methods",
        "run_chain record_every 2.5", "oracle record_every 2.5", "run_chain record_every bool",
        "run_chain n_steps 2.5", "oracle n_steps 2.5", "oracle n_steps float64",
        "run_chain n_steps bool", "moments x0 of d = 3", "moments v0 of d = 1",
        "oracle x0 of d = 3", "ensemble chains 2.5", "ensemble chains bool",
        "study chains 2.5", "coupled chains 2.5", "coupled chains bool",
        "coupled refinement 32.5", "coupled refinement 40.0", "run_chain K 2.7",
        "run_chain R 2.5", "run_chain R bool", "schedule K 2.5", "schedule N 2.5",
        "schedule u nan", "parallel increments R 2.7", "rmm_run R 3 K 4",
        "ensemble R 3 K 4", "study R 3 K 4", "oracle x0 nan", "moments x0 nan",
        "moments v0 inf", "contraction dx nan", "contraction dv nan", "w2 mean1 nan",
        "w2 mean2 inf"])
def test_oracles_and_runs_reject_what_the_samplers_reject(call, error):
    target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
    with pytest.raises(error):
        call(target)


def test_oracles_name_the_dimension_of_a_wrong_start():
    target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
    with pytest.raises(UlmcError, match=r"x0 shape \(3,\) does not match target d=2"):
        ulmc.exact_uld_moments(target, 1.0, [1.0, 0.0, 3.0], [0.0, 0.0])
    with pytest.raises(UlmcError, match=r"v0 shape \(1,\) does not match target d=2"):
        ulmc.exact_uld_moments(target, 1.0, [1.0, 0.0], [0.0])
    with pytest.raises(UlmcError, match=r"x0 shape \(3,\) does not match target d=2"):
        ulmc.rmm_moment_oracle(target, 0.05, 3, x0=[1.0, 2.0, 3.0])


def test_runs_and_oracles_take_numpy_integer_counts():
    target = ulmc.quadratic_target([1.0, 4.0], [0.0, 0.0])
    trace = ulmc.rmm_moment_oracle(target, 0.05, np.int64(4), record_every=np.int32(2))
    assert trace.steps == [0, 2, 4]
    result = ulmc.run_chain(target, "rmm", 0.05, np.int64(4), 0, record_every=np.int64(2))
    assert [step for step, _, _ in result.history] == [0, 2, 4]
