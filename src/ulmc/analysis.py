"""Verification oracles and experiment harnesses.

For diagonal quadratic targets the chain and the continuous dynamics are
affine-Gaussian, so first/second moments can be propagated exactly; those
oracles back the statistical checks of the samplers.  The coupled error
experiment measures pathwise error against a shared-path fine reference,
which is how the integrators' strong convergence orders are read off; its
runs step through the samplers' one loop, `samplers._drive`, on the rows of
the shared path, so they are audited and checked as fresh-draw runs are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import BrownianPathStore, _exp_tail
from .errors import ConfigError, UlmcError, UnsupportedTargetError, _require_count
from .samplers import (  # noqa: F401  (bench/tracing.py patches the two steppers here)
    Schedule,
    _check_run,
    _drive,
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

# Gauss-Legendre nodes over the moment oracle's midpoint fraction.
QUADRATURE_NODES = 128
# Resamples of the chains behind the stationary study's 95% interval.
BOOTSTRAP_RESAMPLES = 200


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
    """Rows (h, method, mean_error) plus per-method log-log slope fits, and
    the audited gradient count of the reference and every (h, method) run."""

    rows: list
    slopes: dict
    grad_evals: int = 0


@dataclass
class StationaryStudyResult:
    w2: W2Result
    ci_low: float
    ci_high: float
    normalized_ci_low: Optional[float]
    normalized_ci_high: Optional[float]
    chains: int
    low_power: bool


def _check_symmetric(mat, name, ndim):
    """mat as a float array of ndim dimensions whose trailing two are a
    square symmetric matrix (within 1e-10), symmetrized."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != ndim or mat.shape[-1] != mat.shape[-2]:
        raise UlmcError(f"{name} must be square")
    mirror = np.swapaxes(mat, -1, -2)
    if not np.allclose(mat, mirror, atol=1e-10, rtol=0.0):
        raise UlmcError(f"{name} is not symmetric within 1e-10")
    return 0.5 * (mat + mirror)


def _w2_distances(means1, covs1, mean2, cov2):
    """W2 from each Gaussian (means1[k], covs1[k]) of a (k, d), (k, d, d)
    stack to the one Gaussian (mean2, cov2), as a (k,) array.

    W2^2 = ||mu1 - mu2||^2 + Tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2}).
    S2^{1/2} is taken once, by symmetric eigendecomposition; the trace of
    the cross term's root is the sum of the square roots of its
    eigenvalues, zero below d eps of the largest.
    """
    covs1 = _check_symmetric(covs1, "cov1", 3)
    cov2 = _check_symmetric(cov2, "cov2", 2)
    means1, mean2 = np.asarray(means1, dtype=float), np.asarray(mean2, dtype=float)
    k, d = covs1.shape[:2]
    if means1.shape != (k, d) or mean2.shape != (d,) or cov2.shape != (d, d):
        raise UlmcError(f"means and covariances must share one dimension, cov1 has d={d}")
    if not (np.isfinite(means1).all() and np.isfinite(mean2).all()):
        raise UlmcError("means must be finite")
    vals, vecs = np.linalg.eigh(cov2)
    root2 = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    cross = np.linalg.eigvalsh(root2 @ covs1 @ root2)  # ascending
    # a singular S1's null eigenvalues are rounding noise, whose roots (about
    # sqrt(eps)) would enter the trace: below d eps of the largest, one is 0
    cross[cross <= d * np.finfo(float).eps * cross[:, -1:]] = 0.0
    gap = np.sum((means1 - mean2) ** 2, axis=-1)
    scale = gap + np.trace(covs1, axis1=1, axis2=2) + np.trace(cov2)
    w2_sq = scale - 2.0 * np.sum(np.sqrt(np.clip(cross, 0.0, None)), axis=-1)
    # the trace term cancels to rounding noise for (near-)identical inputs;
    # anything below working precision of the operands is a true zero
    w2_sq[w2_sq <= 1e-13 * scale] = 0.0
    return np.sqrt(w2_sq)


def gaussian_w2(mean1, cov1, mean2, cov2, m: Optional[float] = None) -> W2Result:
    """Closed-form W2 between Gaussians (one pair of `_w2_distances`).

    With m, the strong convexity constant, normalized divides the distance
    by the effective diameter sqrt(d/m); m must be finite and positive.
    """
    if m is not None and not (math.isfinite(m) and m > 0.0):
        raise UlmcError(f"strong convexity m must be finite and positive, got {m}")
    mean1 = np.asarray(mean1, dtype=float)
    cov1 = np.asarray(cov1, dtype=float)[None]
    distance = float(_w2_distances(mean1[None], cov1, mean2, cov2)[0])
    normalized = None if m is None else distance / math.sqrt(mean1.size / m)
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

    Probes the gradient at 0, at the unit vectors and at a random point in
    one (d + 2, d) batch; the random point verifies linearity.
    """
    d = target.dim
    probe = np.random.default_rng(12345).standard_normal(d)
    grads = target.gradient(np.vstack([np.zeros(d), np.eye(d), probe]))
    g0, actual = grads[0], grads[-1]
    diag = np.diagonal(grads[1:-1]) - g0
    predicted = diag * probe + g0
    scale = np.max(np.abs(actual)) + np.max(np.abs(diag)) + 1.0
    if not np.allclose(predicted, actual, atol=1e-8 * scale):
        raise UnsupportedTargetError("operation requires a diagonal quadratic target")
    if np.any(diag <= 0.0):
        raise UnsupportedTargetError("quadratic target must have positive curvature")
    center = -g0 / diag
    return diag, center


def _require_point(value, target: TargetSpec, name):
    """value as a (d,) float array of finite entries; UlmcError naming d for
    any other shape."""
    point = np.asarray(value, dtype=float)
    if point.shape != (target.dim,):
        raise UlmcError(f"{name} shape {point.shape} does not match target d={target.dim}")
    if not np.isfinite(point).all():
        raise UlmcError(f"{name} must be finite, got {point}")
    return point


@functools.lru_cache(maxsize=8)
def _gauss_legendre_01(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1], computed once per
    n and shared, so read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for array in rule:
        array.flags.writeable = False
    return rule


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

    # (d, n) per coordinate and node: transition T and noise rows B, where
    # x gets W2 - Q ua W1 and v gets 2 W3 - S ua W1
    ua = u * diag[:, None]
    shrink = 1.0 - q * ua
    T = np.empty((d, n_nodes, 2, 2))
    T[..., 0, 0] = 1.0 - Q * ua * shrink
    T[..., 0, 1] = P - Q * ua * p
    T[..., 1, 0] = -S * ua * shrink
    T[..., 1, 1] = E - S * ua * p
    B = np.zeros((d, n_nodes, 2, 3))
    B[..., 0, 0] = -Q * ua
    B[..., 1, 0] = -S * ua
    B[..., 0, 1] = 1.0
    B[..., 1, 2] = 2.0

    tbar = np.einsum("n,knij->kij", weights, T)
    # kron(T, T)[2i + a, 2j + b] = T[i, j] T[a, b]
    tkron = np.einsum("n,knij,knab->kiajb", weights, T, T).reshape(d, 4, 4)
    noise = u * np.einsum("n,knia,nab,knjb->kij", weights, B, w_covariance(h, alphas), B)
    return tbar, tkron, noise


def _stack_coordinates(z, blocks, center):
    """Mean (2d,) and covariance (2d, 2d) of the stacked (x, v) state from
    per-coordinate means z (d, 2) of (x - center, v) and covariance blocks
    (d, 2, 2), symmetrized; coordinates are independent."""
    d = z.shape[0]
    cov = np.zeros((2, d, 2, d))
    k = np.arange(d)
    cov[:, k, :, k] = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    return np.concatenate([z[:, 0] + center, z[:, 1]]), cov.reshape(2 * d, 2 * d)


def _propagate_moments(diag, center, h, n_steps, u, n_nodes, x0, record_every):
    tbar, tkron, noise = _rmm_alpha_averaged_maps(diag, h, u, n_nodes)
    d = diag.shape[0]
    mean = np.stack([np.asarray(x0, dtype=float) - center, np.zeros(d)], axis=1)  # (d, 2)
    second = np.einsum("ki,kj->kij", mean, mean)  # (d,2,2), start deterministic
    steps, means, covs = [], [], []

    def snapshot(step):
        mu, cov = _stack_coordinates(
            mean, second - np.einsum("ki,kj->kij", mean, mean), center
        )
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
    _check_run(h, n_steps, record_every)
    diag, center = _require_quadratic(target)
    u = 1.0 / target.smoothness
    start = _require_point(x0, target, "x0") if x0 is not None else center
    steps, means, covs = _propagate_moments(
        diag, center, h, n_steps, u, QUADRATURE_NODES, start, record_every
    )
    _, means2, covs2 = _propagate_moments(
        diag, center, h, n_steps, u, 2 * QUADRATURE_NODES, start, record_every
    )
    err = max(
        float(np.max(np.abs(np.asarray(means) - np.asarray(means2)))),
        float(np.max(np.abs(np.asarray(covs) - np.asarray(covs2)))),
    )
    return MomentTrace(steps=steps, means=means, covs=covs, quadrature_error=err)


def _coordinate_flows(diag, u, t):
    """e^{At} (d, 2, 2) for every coordinate's generator A = [[0,1],[-ua,-2]].

    A = -I + N with N^2 = (1 - ua) I, so e^{At} = c I + k N with
    c = e^{-t} cosh(wt) and k = e^{-t} sinh(wt)/w, w = sqrt(1 - ua).  Both
    are built from the decaying factors e^{-(1-w)t} = e^{-t ua/(1+w)} and
    1 - e^{-2wt}, so nothing overflows; a complex w covers ua > 1.
    """
    ua = u * diag
    omega = np.sqrt((1.0 - ua).astype(complex))
    slow = np.exp(-t * ua / (1.0 + omega))
    fast = -np.expm1(-2.0 * omega * t)
    # (1 - e^{-2wt}) / 2w tends to t at critical damping, w = 0
    ratio = np.divide(fast, 2.0 * omega, out=np.full_like(fast, t), where=omega != 0)
    c = (slow * (1.0 - 0.5 * fast)).real
    k = (slow * ratio).real
    phi = np.empty(ua.shape + (2, 2))
    phi[:, 0, 0] = c + k
    phi[:, 0, 1] = k
    phi[:, 1, 0] = -ua * k
    phi[:, 1, 1] = c - k
    return phi


def exact_uld_moments(target: TargetSpec, t: float, x0, v0):
    """Exact Gaussian law of the continuous dynamics at time t on a
    diagonal quadratic target.

    Per coordinate the process is linear with generator A = [[0,1],[-ua,-2]]
    and stationary covariance S = diag(1/a, u), so the deterministic-start
    law is mean e^{At} z0 and covariance S - e^{At} S e^{A^T t}.  The flow
    e^{At} is in closed form, written in decaying factors, so the law is
    stable for any horizon.
    """
    if not (0.0 <= t < math.inf):
        raise UlmcError(f"time must be finite and >= 0, got {t}")
    diag, center = _require_quadratic(target)
    u = 1.0 / target.smoothness
    phi = _coordinate_flows(diag, u, t)
    stat = np.stack([1.0 / diag, np.full_like(diag, u)], axis=1)  # diagonal of S
    sigma = stat[:, :, None] * np.eye(2) - (phi * stat[:, None, :]) @ phi.transpose(0, 2, 1)
    z0 = np.stack([_require_point(x0, target, "x0") - center,
                   _require_point(v0, target, "v0")], 1)
    return _stack_coordinates((phi @ z0[:, :, None])[:, :, 0], sigma, center)


def contraction_check(target: TargetSpec, t: float, delta_x0, delta_v0) -> ContractionResult:
    """Decay of the coupled difference norm |dx|^2 + |dx + dv|^2 over time t.

    Under a shared Brownian path the difference dynamics are the noiseless
    linear flow, so the ratio is deterministic; it is bounded by e^{-t/kappa}.
    Zero initial difference returns ratio 0 with the degenerate flag.
    """
    if not (0.0 < t < math.inf):
        raise UlmcError(f"time must be finite and positive, got {t}")
    diag, _ = _require_quadratic(target)
    u = 1.0 / target.smoothness
    dx = _require_point(delta_x0, target, "delta_x0")
    dv = _require_point(delta_v0, target, "delta_v0")
    bound = math.exp(-t / target.kappa)
    denom = float(np.sum(dx**2) + np.sum((dx + dv) ** 2))
    if denom == 0.0:
        return ContractionResult(ratio=0.0, bound=bound, degenerate=True)
    z = (_coordinate_flows(diag, u, t) @ np.stack([dx, dv], axis=1)[:, :, None])[:, :, 0]
    num = float(np.sum(z[:, 0] ** 2 + (z[:, 0] + z[:, 1]) ** 2))
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
) -> CoupledErrorResult:
    """Strong error at time T of each (h, method) against a shared-path
    fine reference.

    Each chain's Brownian path is one fixed grid of cells of length
    min(h)/reference_refinement, which every h divides (`BrownianPathStore`).
    The reference is the exponential integrator stepping cell by cell, and
    every method's increments are exact functionals of the same path.  One
    stream of the seed draws the cells, then for each h in order rmm's
    (n_steps, chains) midpoint fractions and the normal block that
    completes W1.  Every run steps through `samplers._drive`.  Reports the
    chain-mean of ||x_method(T) - x_ref(T)|| per row, a log-log slope per
    method and the runs' summed gradient count.  The counts, the step sizes
    (each dividing T into its own step count and passing `_check_run`) and
    the (d,) start (`_resolve_start`) are checked before the path is drawn;
    a chain whose state or error stops being finite raises UlmcError.
    """
    h_values = [float(h) for h in h_values]
    if not h_values or not all(math.isfinite(h) and h > 0.0 for h in h_values):
        raise ConfigError(f"step sizes must be positive and finite, got {h_values}")
    if not (math.isfinite(total_time) and total_time > 0.0):
        raise ConfigError(f"total time must be positive and finite, got {total_time}")
    _require_count(reference_refinement, "reference refinement", 32, ConfigError)
    _require_count(chains, "chain count", 1, ConfigError)
    if not methods:
        raise ConfigError("coupled experiment needs at least one method")
    for method in methods:
        if method not in _COUPLED_METHODS:
            raise ConfigError(f"coupled experiment supports {_COUPLED_METHODS}, got {method}")
    steps_per_h = {}
    for h in h_values:
        n = total_time / h
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(f"step size {h} does not divide T={total_time}")
        n = round(n)
        if n in steps_per_h.values():
            raise ConfigError(f"step sizes must not repeat: {h} takes {n} steps, "
                              f"as an earlier one does")
        steps_per_h[h] = n
        _check_run(total_time / n)
    n_ref = steps_per_h[min(h_values)] * reference_refinement

    start = _resolve_start(target, x0, chains)
    rng = np.random.default_rng(seed)
    path = BrownianPathStore(total_time, n_ref, chains, target.dim, rng)
    # each run steps its own copy of the start in place
    ref, grad_evals = _drive(target, "exp_euler_uld", total_time / n_ref, n_ref, None,
                             start.copy(), 1, 2, None, None, path=(None, path.increments(n_ref)))
    rows = []
    for h in h_values:
        n = steps_per_h[h]
        alphas = rng.uniform(size=(n, chains)) if "rmm" in methods else None
        inc = path.increments(n, alphas)
        for method in methods:
            state, count = _drive(target, method, total_time / n, n, None, start.copy(), 1, 2,
                                  None, None, path=(alphas, inc))
            grad_evals += count
            error = np.linalg.norm(state.x - ref.x, axis=1)
            if not np.isfinite(error).all():  # finite states can still overflow here
                raise UlmcError(f"{method} error at h={h} is not finite: chains diverged")
            rows.append((h, method, float(np.mean(error))))
    slopes = {}
    for method in methods:
        logs_h = np.log([h for h, m, _ in rows if m == method])
        logs_e = np.log([max(e, 1e-300) for _, m, e in rows if m == method])
        if len(set(logs_h.tolist())) >= 2:
            slopes[method] = float(np.polyfit(logs_h, logs_e, 1)[0])
        else:
            slopes[method] = float("nan")
    return CoupledErrorResult(rows=rows, slopes=slopes, grad_evals=grad_evals)


def _bootstrap_w2(xs, seed, mean, cov):
    """W2 from the fitted Gaussian of the final positions xs (chains, d) to
    the Gaussian (mean, cov), then from that of each bootstrap resample of
    the chains: a (1 + BOOTSTRAP_RESAMPLES,) array.

    Resample r draws its chain indices with rng.integers and enters as
    their multiplicities w; the sample itself enters with unit ones.  The
    positions are centred once, as columns c_j of a (d, chains) array c,
    and each fit takes one product c @ w for its weighted sum and one,
    (c * w) @ c.T through a reused buffer the size of the sample, for its
    second moments.  With dm the w-weighted mean of the c_j, a fit's
    covariance is (sum_j w_j c_j c_j^T - chains dm dm^T) / (chains - 1).
    """
    chains, d = xs.shape
    fits = 1 + BOOTSTRAP_RESAMPLES
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007)))
    centre = xs.mean(axis=0)
    centred = np.subtract(xs.T, centre[:, None], out=np.empty((d, chains)))
    weighted = np.empty((d, chains))
    sums, covs = np.empty((fits, d)), np.empty((fits, d, d))
    w = np.ones(chains)
    for r in range(fits):
        if r:
            w = np.bincount(rng.integers(0, chains, size=chains), minlength=chains)
        np.matmul(centred, w, out=sums[r])
        np.matmul(np.multiply(centred, w, out=weighted), centred.T, out=covs[r])
    offset = sums / chains
    covs -= chains * offset[:, :, None] * offset[:, None, :]
    covs /= max(chains - 1, 1)  # a single chain has covariance zero
    return _w2_distances(centre + offset, covs, mean, cov)


def stationary_error_study(
    target: TargetSpec,
    sched: Schedule,
    chains: int,
    seed,
) -> StationaryStudyResult:
    """W2 between the fitted Gaussian of the final chain positions and the
    target Gaussian, with a bootstrap confidence interval over chains.

    Requires a diagonal quadratic target so the target law is Gaussian and
    the distance has a closed form on fitted moments.  The interval holds
    the 2.5 % and 97.5 % quantiles of the distances of BOOTSTRAP_RESAMPLES
    resamples of the chains (`_bootstrap_w2`).
    """
    diag, center = _require_quadratic(target)
    ens = rmm_run_ensemble(target, sched, chains, seed)
    distances = _bootstrap_w2(ens.x, seed, center, np.diag(1.0 / diag))
    point = float(distances[0])
    lo, hi = np.quantile(distances[1:], [0.025, 0.975])
    diameter = math.sqrt(target.dim / target.strong_convexity)
    return StationaryStudyResult(
        w2=W2Result(distance=point, normalized=point / diameter),
        ci_low=float(lo),
        ci_high=float(hi),
        normalized_ci_low=float(lo) / diameter,
        normalized_ci_high=float(hi) / diameter,
        chains=chains,
        low_power=chains < 100,
    )
