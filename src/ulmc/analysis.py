"""Verification oracles and experiment harnesses.

For diagonal quadratic targets the chain and the continuous dynamics are
affine-Gaussian, so first/second moments can be propagated exactly; those
oracles back the statistical checks of the samplers.  The coupled error
experiment measures pathwise error against a shared-path fine reference,
which is how the integrators' strong convergence orders are read off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .brownian import BrownianPathStore, ExpEulerIncrements, StepIncrements, _exp_tail
from .errors import ConfigError, UlmcError, UnsupportedTargetError
from .samplers import (
    SamplerState,
    Schedule,
    _resolve_start,
    exponential_euler_uld_step,
    rmm_run_ensemble,
    rmm_step,
)
from .targets import TargetSpec

__all__ = [
    "MomentTrace",
    "W2Result",
    "ContractionResult",
    "CoupledErrorResult",
    "StationaryStudyResult",
    "gaussian_w2",
    "w_covariance",
    "rmm_moment_oracle",
    "exact_uld_moments",
    "contraction_check",
    "coupled_error_experiment",
    "stationary_error_study",
]


@dataclass
class MomentTrace:
    """Mean (2d,) and covariance (2d, 2d) of the stacked (x, v) state per
    recorded iteration."""

    steps: list
    means: list
    covs: list
    quadrature_error: float = 0.0


@dataclass(frozen=True)
class W2Result:
    """Frobenius-coupling optimal transport distance between two Gaussians.

    normalized divides by the effective diameter sqrt(d/m); None when no
    strong convexity constant was supplied.
    """

    distance: float
    normalized: Optional[float] = None


@dataclass(frozen=True)
class ContractionResult:
    ratio: float
    bound: float
    degenerate: bool = False


@dataclass
class CoupledErrorResult:
    """Rows (h, method, mean_error) plus per-method log-log slope fits.

    reference_self_error is the error of the reference discretization re-run
    at its own step size on the same paths (a consistency check; it is kept
    out of the rows so it cannot distort the slope fits).
    """

    rows: list
    slopes: dict
    errors: dict = field(default_factory=dict)  # (h, method) -> per-chain errors
    reference_self_error: Optional[float] = None


@dataclass
class StationaryStudyResult:
    w2: W2Result
    ci_low: float
    ci_high: float
    normalized_ci_low: Optional[float]
    normalized_ci_high: Optional[float]
    chains: int
    low_power: bool


def _check_symmetric(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise UlmcError(f"{name} must be square")
    if not np.allclose(mat, mat.T, atol=1e-10, rtol=0.0):
        raise UlmcError(f"{name} is not symmetric within 1e-10")
    return 0.5 * (mat + mat.T)


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def gaussian_w2(mean1, cov1, mean2, cov2, m: Optional[float] = None) -> W2Result:
    """Closed-form W2 between Gaussians.

    W2^2 = ||mu1 - mu2||^2 + Tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2}),
    with matrix square roots by symmetric eigendecomposition, eigenvalues
    floored at zero.
    """
    mean1 = np.asarray(mean1, dtype=float)
    mean2 = np.asarray(mean2, dtype=float)
    cov1 = _check_symmetric(cov1, "cov1")
    cov2 = _check_symmetric(cov2, "cov2")
    root2 = _psd_sqrt(cov2)
    cross = _psd_sqrt(root2 @ cov1 @ root2)
    gap = float(np.sum((mean1 - mean2) ** 2))
    trace_term = float(np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(cross))
    w2_sq = gap + trace_term
    # the trace term cancels to rounding noise for (near-)identical inputs;
    # anything below working precision of the operands is a true zero
    scale = gap + float(np.trace(cov1) + np.trace(cov2))
    if w2_sq <= 1e-13 * scale:
        w2_sq = 0.0
    distance = math.sqrt(max(w2_sq, 0.0))
    normalized = None
    if m is not None:
        normalized = distance / math.sqrt(mean1.size / m)
    return W2Result(distance=distance, normalized=normalized)


def _weight_sq_integral(theta):
    """int_0^theta (1 - e^{-2(theta-s)})^2 ds = E_3(-2 theta) - E_3(-4 theta)/4.

    The closed form theta - (1-e^{-2 theta}) + (1-e^{-4 theta})/4 cancels two
    leading orders; the tails E_k of `_exp_tail` do not.
    """
    theta = np.asarray(theta, dtype=float)
    return _exp_tail(-2.0 * theta, 3) - 0.25 * _exp_tail(-4.0 * theta, 3)


def w_covariance(h, alpha):
    """Covariance matrix of (W1, W2, W3) for a step of length h, midpoint
    fraction alpha, in closed form (elementwise in alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    theta = alpha * h
    e2g = np.exp(-2.0 * (h - theta))
    ones = np.ones_like(theta)
    cov = np.empty(theta.shape + (3, 3))
    cov[..., 0, 0] = _weight_sq_integral(theta)
    cov[..., 1, 1] = _weight_sq_integral(h) * ones
    cov[..., 2, 2] = 0.25 * -np.expm1(-4.0 * h) * ones
    # (1 - e^{-2x})/2 - (1 - e^{-4x})/4 = E_2(-4x)/4 - E_2(-2x)/2
    cross_theta, cross_h = (
        0.25 * _exp_tail(-4.0 * x, 2) - 0.5 * _exp_tail(-2.0 * x, 2) for x in (theta, h)
    )
    cov13 = e2g * cross_theta
    # theta - (1 - e^{-2 theta})/2 = E_2(-2 theta)/2
    cov[..., 0, 1] = cov[..., 1, 0] = 0.5 * _exp_tail(-2.0 * theta, 2) - cov13
    cov[..., 0, 2] = cov[..., 2, 0] = cov13
    cov[..., 1, 2] = cov[..., 2, 1] = cross_h * ones
    return cov


def _require_quadratic(target: TargetSpec):
    """Recover the diagonal and center of a linear-gradient target.

    Probes the gradient at 0 and at unit vectors; verifies linearity on a
    random point.
    """
    d = target.dim
    g0 = target.gradient(np.zeros(d))
    diag = np.empty(d)
    eye = np.eye(d)
    for i in range(d):
        diag[i] = target.gradient(eye[i])[i] - g0[i]
    rng = np.random.default_rng(12345)
    probe = rng.standard_normal(d)
    predicted = diag * probe + g0
    actual = target.gradient(probe)
    scale = np.max(np.abs(actual)) + np.max(np.abs(diag)) + 1.0
    if not np.allclose(predicted, actual, atol=1e-8 * scale):
        raise UnsupportedTargetError("operation requires a diagonal quadratic target")
    if np.any(diag <= 0.0):
        raise UnsupportedTargetError("quadratic target must have positive curvature")
    center = -g0 / diag
    return diag, center


def _gauss_legendre_01(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _rmm_alpha_averaged_maps(diag, h, u, n_nodes):
    """Per-coordinate mean map and second-moment map averaged over alpha.

    Returns (tbar, tkron, noise) with shapes (d,2,2), (d,4,4), (d,2,2): the
    averaged transition matrix, the averaged Kronecker square propagating
    vec(second moment), and the averaged additive noise covariance.
    """
    alphas, weights = _gauss_legendre_01(n_nodes)
    d = diag.shape[0]
    theta = alphas * h
    p = 0.5 * -np.expm1(-2.0 * theta)  # velocity weight to the midpoint
    q = 0.5 * (theta - p)  # gradient weight to the midpoint
    P = 0.5 * -math.expm1(-2.0 * h)
    E = math.exp(-2.0 * h)
    tail = np.exp(-2.0 * (h - theta))
    Q = 0.5 * h * (1.0 - tail)  # x-update gradient weight
    S = h * tail  # v-update gradient weight

    wcov = w_covariance(h, alphas)  # (n,3,3)

    tbar = np.zeros((d, 2, 2))
    tkron = np.zeros((d, 4, 4))
    noise = np.zeros((d, 2, 2))
    for k in range(d):
        ua = u * diag[k]
        for j, (w, th) in enumerate(zip(weights, theta)):
            shrink = 1.0 - q[j] * ua
            T = np.array(
                [
                    [1.0 - Q[j] * ua * shrink, P - Q[j] * ua * p[j]],
                    [-S[j] * ua * shrink, E - S[j] * ua * p[j]],
                ]
            )
            # noise rows: x gets W2 - Q ua W1, v gets 2 W3 - S ua W1
            B = np.array(
                [
                    [-Q[j] * ua, 1.0, 0.0],
                    [-S[j] * ua, 0.0, 2.0],
                ]
            )
            tbar[k] += w * T
            tkron[k] += w * np.kron(T, T)
            noise[k] += w * u * (B @ wcov[j] @ B.T)
    return tbar, tkron, noise


def _propagate_moments(diag, center, h, n_steps, u, n_nodes, x0, v0, record_every):
    tbar, tkron, noise = _rmm_alpha_averaged_maps(diag, h, u, n_nodes)
    d = diag.shape[0]
    v0 = np.full(d, v0, dtype=float) if np.isscalar(v0) else np.asarray(v0, dtype=float)
    mean = np.stack([np.asarray(x0, dtype=float) - center, v0], axis=1)  # (d, 2)
    second = np.einsum("ki,kj->kij", mean, mean)  # (d,2,2), start deterministic
    steps, means, covs = [], [], []

    def snapshot(step):
        mu = np.concatenate([mean[:, 0] + center, mean[:, 1]])
        cov = np.zeros((2 * d, 2 * d))
        for k in range(d):
            c = second[k] - np.outer(mean[k], mean[k])
            cov[k, k] = c[0, 0]
            cov[k, d + k] = cov[d + k, k] = c[0, 1]
            cov[d + k, d + k] = c[1, 1]
        steps.append(step)
        means.append(mu)
        covs.append(cov)

    if record_every:
        snapshot(0)
    for n in range(n_steps):
        mean = np.einsum("kij,kj->ki", tbar, mean)
        second = (
            np.einsum("kab,kb->ka", tkron, second.reshape(d, 4)).reshape(d, 2, 2)
            + noise
        )
        if record_every and (n + 1) % record_every == 0:
            snapshot(n + 1)
    if not record_every:
        snapshot(n_steps)
    return steps, means, covs


def rmm_moment_oracle(
    target: TargetSpec,
    h: float,
    n_steps: int,
    quadrature_nodes: int = 128,
    x0=None,
    record_every: Optional[int] = None,
) -> MomentTrace:
    """Exact chain moments for the randomized-midpoint sampler on a
    diagonal quadratic target.

    Conditional on the midpoint fraction the update is affine-Gaussian per
    coordinate, so the mean and second moment propagate through maps
    averaged over the fraction with Gauss-Legendre quadrature.  The
    quadrature error is estimated by doubling the node count.
    """
    if quadrature_nodes < 64:
        raise UlmcError("need at least 64 quadrature nodes")
    diag, center = _require_quadratic(target)
    u = 1.0 / target.smoothness
    start = np.asarray(x0, dtype=float) if x0 is not None else center
    steps, means, covs = _propagate_moments(
        diag, center, h, n_steps, u, quadrature_nodes, start, 0.0, record_every
    )
    _, means2, covs2 = _propagate_moments(
        diag, center, h, n_steps, u, 2 * quadrature_nodes, start, 0.0, record_every
    )
    err = max(
        float(np.max(np.abs(np.asarray(means) - np.asarray(means2)))),
        float(np.max(np.abs(np.asarray(covs) - np.asarray(covs2)))),
    )
    return MomentTrace(steps=steps, means=means, covs=covs, quadrature_error=err)


def _coordinate_generator(a, u):
    return np.array([[0.0, 1.0], [-u * a, -2.0]])


def exact_uld_moments(target: TargetSpec, t: float, x0, v0):
    """Exact Gaussian law of the continuous dynamics at time t on a
    diagonal quadratic target.

    Per coordinate the process is linear with generator A = [[0,1],[-ua,-2]]
    and stationary covariance S = diag(1/a, u), so the deterministic-start
    law is mean e^{At} z0 and covariance S - e^{At} S e^{A^T t}, stable for
    any horizon because e^{At} only decays.
    """
    if t < 0.0:
        raise UlmcError(f"time must be >= 0, got {t}")
    diag, center = _require_quadratic(target)
    u = 1.0 / target.smoothness
    d = diag.shape[0]
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    mean = np.zeros(2 * d)
    cov = np.zeros((2 * d, 2 * d))
    for k in range(d):
        A = _coordinate_generator(diag[k], u)
        phi = expm(A * t)
        stat = np.diag([1.0 / diag[k], u])
        sigma = stat - phi @ stat @ phi.T
        z0 = np.array([x0[k] - center[k], v0[k]])
        zt = phi @ z0
        mean[k] = zt[0] + center[k]
        mean[d + k] = zt[1]
        sigma = 0.5 * (sigma + sigma.T)
        cov[k, k] = sigma[0, 0]
        cov[k, d + k] = cov[d + k, k] = sigma[0, 1]
        cov[d + k, d + k] = sigma[1, 1]
    return mean, cov


def contraction_check(target: TargetSpec, t: float, delta_x0, delta_v0) -> ContractionResult:
    """Decay of the coupled difference norm |dx|^2 + |dx + dv|^2 over time t.

    Under a shared Brownian path the difference dynamics are the noiseless
    linear flow, so the ratio is deterministic; it is bounded by e^{-t/kappa}.
    Zero initial difference returns ratio 0 with the degenerate flag.
    """
    if t <= 0.0:
        raise UlmcError(f"time must be positive, got {t}")
    diag, _ = _require_quadratic(target)
    u = 1.0 / target.smoothness
    dx = np.asarray(delta_x0, dtype=float)
    dv = np.asarray(delta_v0, dtype=float)
    bound = math.exp(-t / target.kappa)
    denom = float(np.sum(dx**2) + np.sum((dx + dv) ** 2))
    if denom == 0.0:
        return ContractionResult(ratio=0.0, bound=bound, degenerate=True)
    num = 0.0
    for k in range(diag.shape[0]):
        phi = expm(_coordinate_generator(diag[k], u) * t)
        zk = phi @ np.array([dx[k], dv[k]])
        num += zk[0] ** 2 + (zk[0] + zk[1]) ** 2
    return ContractionResult(ratio=num / denom, bound=bound, degenerate=False)


_COUPLED_METHODS = ("rmm", "exp_euler_uld")


def coupled_error_experiment(
    target: TargetSpec,
    h_values,
    total_time: float,
    seed,
    reference_refinement: int = 32,
    chains: int = 10,
    methods=_COUPLED_METHODS,
    x0=None,
    check_reference: bool = False,
) -> CoupledErrorResult:
    """Strong error at time T of each (h, method) against a shared-path
    fine reference.

    One Brownian path per chain lives in a refinable interval store; the
    reference is the exponential integrator at min(h)/reference_refinement,
    and every method consumes functionals of the same path (midpoints are
    obtained by conditional splitting on demand).  Reports the chain-mean of
    ||x_method(T) - x_ref(T)|| per row and a log-log slope per method.
    With check_reference the reference is re-run at its own step on the same
    paths and the worst discrepancy is reported (it should be ~0).
    """
    h_values = [float(h) for h in h_values]
    if reference_refinement < 32:
        raise ConfigError("reference refinement must be >= 32")
    if chains < 1:
        raise ConfigError(f"chain count must be >= 1, got {chains}")
    for method in methods:
        if method not in _COUPLED_METHODS:
            raise ConfigError(f"coupled experiment supports {_COUPLED_METHODS}, got {method}")
    steps_per_h = {}
    for h in h_values:
        n = total_time / h
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(f"step size {h} does not divide T={total_time}")
        steps_per_h[h] = int(round(n))
    h_min = min(h_values)
    n_ref = steps_per_h[h_min] * reference_refinement

    u = 1.0 / target.smoothness
    start = _resolve_start(target, x0)

    seeds = np.random.SeedSequence(seed).spawn(chains)
    per_chain = {(h, m): [] for h in h_values for m in methods}
    self_errors = []
    for chain_seq in seeds:
        rng = np.random.default_rng(chain_seq)
        store = BrownianPathStore(total_time, target.dim, rng)
        x_ref = _drive_exp_euler_on_path(target, store, n_ref, start)
        if check_reference:
            # identical discretization on the identical path
            x_again = _drive_exp_euler_on_path(target, store, n_ref, start)
            self_errors.append(float(np.linalg.norm(x_again - x_ref)))
        for h in h_values:
            for method in methods:
                if method == "rmm":
                    x_end = _drive_rmm_on_path(
                        target, store, steps_per_h[h], h, start, rng
                    )
                else:
                    x_end = _drive_exp_euler_on_path(
                        target, store, steps_per_h[h], start
                    )
                per_chain[(h, method)].append(
                    float(np.linalg.norm(x_end - x_ref))
                )

    rows = []
    for h in h_values:
        for method in methods:
            rows.append((h, method, float(np.mean(per_chain[(h, method)]))))
    slopes = {}
    for method in methods:
        logs_h = np.log([h for h, m, _ in rows if m == method])
        logs_e = np.log([max(e, 1e-300) for _, m, e in rows if m == method])
        if len(set(logs_h.tolist())) >= 2:
            slopes[method] = float(np.polyfit(logs_h, logs_e, 1)[0])
        else:
            slopes[method] = float("nan")
    return CoupledErrorResult(
        rows=rows,
        slopes=slopes,
        errors={k: np.asarray(vals) for k, vals in per_chain.items()},
        reference_self_error=float(np.max(self_errors)) if self_errors else None,
    )


def _drive_exp_euler_on_path(target, store, n_steps, start):
    total = store.total_time
    state = SamplerState(x=start.copy(), v=np.zeros_like(start), step=0)
    for j in range(n_steps):
        t0 = total * j / n_steps
        t1 = total * (j + 1) / n_steps
        _, w2, w3 = store.increments(t0, t1)
        state = exponential_euler_uld_step(
            state, target, t1 - t0, ExpEulerIncrements(W2=w2, W3=w3)
        )
    return state.x


def _drive_rmm_on_path(target, store, n_steps, h, start, rng):
    total = store.total_time
    state = SamplerState(x=start.copy(), v=np.zeros_like(start), step=0)
    for j in range(n_steps):
        t0 = total * j / n_steps
        t1 = total * (j + 1) / n_steps
        alpha = rng.uniform()
        t_mid = t0 + alpha * (t1 - t0)
        w1, w2, w3 = store.increments(t0, t1, t_mid)
        inc = StepIncrements(W1=w1, W2=w2, W3=w3)
        state = rmm_step(state, target, t1 - t0, alpha, inc)
    return state.x


def stationary_error_study(
    target: TargetSpec,
    sched: Schedule,
    chains: int,
    seed,
    bootstrap: int = 200,
) -> StationaryStudyResult:
    """W2 between the fitted Gaussian of the final chain positions and the
    target Gaussian, with a bootstrap confidence interval over chains.

    Requires a diagonal quadratic target so the target law is Gaussian and
    the distance has a closed form on fitted moments.
    """
    diag, center = _require_quadratic(target)
    m = target.strong_convexity
    target_cov = np.diag(1.0 / diag)
    ens = rmm_run_ensemble(target, sched, chains, seed)
    xs = ens.x

    def fitted_w2(sample):
        mu = sample.mean(axis=0)
        if sample.shape[0] < 2:
            cov = np.zeros((sample.shape[1], sample.shape[1]))
        else:
            cov = np.cov(sample, rowvar=False)
            cov = np.atleast_2d(cov)
        return gaussian_w2(mu, cov, center, target_cov, m=m)

    point = fitted_w2(xs)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007)))
    draws = []
    for _ in range(bootstrap):
        idx = rng.integers(0, chains, size=chains)
        draws.append(fitted_w2(xs[idx]).distance)
    lo, hi = np.quantile(draws, [0.025, 0.975])
    diameter = math.sqrt(target.dim / m)
    return StationaryStudyResult(
        w2=point,
        ci_low=float(lo),
        ci_high=float(hi),
        normalized_ci_low=float(lo) / diameter,
        normalized_ci_high=float(hi) / diameter,
        chains=chains,
        low_power=chains < 100,
    )
