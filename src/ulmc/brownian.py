"""Exact sampling of the correlated Gaussian functionals of Brownian motion
used by the underdamped Langevin steppers, plus a fixed-grid path store for
coupling runs at different step sizes to one path.

For an interval of length t starting at (local time) 0, the stored
functionals are

    H = int_0^t dB_s,          G = int_0^t e^{2s} dB_s,

with the exponential weight anchored at the interval's own origin.  Per
coordinate, (H, G) is a centered bivariate Gaussian with

    Var(H) = t,   Var(G) = (e^{4t}-1)/4,   Cov(H, G) = (e^{2t}-1)/2.

Anchoring the weight locally keeps every stored value finite no matter how
far the interval sits along the path; re-anchoring to another origin a is
the scalar factor e^{2a}.

`split` conditions in the independent coordinates (H, R = G - gamma H),
inverting no matrix.  Closed forms that cancel leading orders are written in
the one series helper, `_exp_tail`.

Every step is k equal cells, joined by one builder, `_increments`, from
each cell's normals z0 (for H) and z1 (for G given H) by prefix sums whose
weights lie in [0, 1].  RNG draw order is fixed: a fresh step of k cells
and m midpoints draws one (2k + m, chains, dim) block, per cell, left to
right, z0 then z1, then one normal per midpoint.  One midpoint makes one
cell; R > 1 midpoints make R cells, midpoint r in cell r.  The path store
draws all its cells up front, then one block per set of midpoint steps.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ScheduleError, UlmcError, _require_count

__all__ = [
    "IntervalStats",
    "StepIncrements",
    "gh_covariance",
    "sample_interval",
    "split",
    "step_increments",
    "step_increments_batch",
    "exp_euler_increments",
    "exp_euler_increments_batch",
    "parallel_step_increments",
    "BrownianPathStore",
]


_INV_FACTORIAL = [1.0 / math.factorial(j) for j in range(32)]


def _exp_tail(x, k):
    """E_k(x) = e^x - sum_{j<k} x^j / j!, to rounding for every x, elementwise.

    Below |x| = 0.5, 13 Taylor terms reach rounding for every k >= 2; above
    it, expm1 minus the low terms cancels by at most about 5 bits.  The
    expm1 branch is evaluated only where it is returned.
    """
    x = np.asarray(x, dtype=float)[()]  # scalars stay numpy scalars, which are fast
    big = np.abs(x) >= 0.5
    if x.ndim == 0 and big:
        return _exp_tail_direct(x, k)
    series = 0.0 * x
    for j in reversed(range(k, k + 13)):
        series *= x
        series += _INV_FACTORIAL[j]
    for _ in range(k):
        series *= x
    if x.ndim and big.any():
        series[big] = _exp_tail_direct(x[big], k)
    return series


def _exp_tail_direct(x, k):
    """E_k(x) as expm1(x) minus its low Taylor terms, for |x| >= 0.5."""
    direct = np.expm1(x)
    for j in range(1, k):
        direct -= x**j / math.factorial(j)
    return direct


def gh_covariance(t):
    """(Var H, Cov HG, Var G) for an interval of length t, elementwise."""
    t = np.asarray(t, dtype=float)
    var_h = t
    cov = 0.5 * np.expm1(2.0 * t)
    var_g = 0.25 * np.expm1(4.0 * t)
    return var_h, cov, var_g


def _gain_residual(t):
    """(gamma - 1, Var(G | H)) for length t, gamma = Cov(H,G)/Var(H), elementwise.

    gamma = 1 + t + eps, eps = E_3(2t)/(2t), and Var(G | H) = Var(G) - gamma^2 t
    = t gamma (t^2 - (1 - t) eps), where t^2 - (1 - t) eps = t^2/3 + O(t^3)
    cancels by less than 2 bits.
    """
    t = np.asarray(t, dtype=float)[()]
    # E_3(0) = 0: the floor only turns 0/0 into 0
    eps = _exp_tail(2.0 * t, 3) / (2.0 * np.maximum(t, np.finfo(float).tiny))
    excess = t + eps
    return excess, t * (1.0 + excess) * (t * t - (1.0 - t) * eps)


_CellLaw = namedtuple("_CellLaw", "t excess rho decay q0 r0 r1")


@functools.lru_cache(maxsize=256)
def _cell_law(t):
    """The builder's constants of one length t: `_gain_residual`'s excess =
    gamma - 1 and rho, decay = e^{-2t}, and W2 = q0 z0 - r1 z1, W3 = r0 z0 +
    r1 z1 in z0 = H / sqrt(t), z1 = (G - gamma H) / sqrt(rho).  Var(G)
    overflows above t of about 177, which raises UlmcError.  Computed once
    per length; a raised error is not cached."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        excess, rho = _gain_residual(t)
    if not np.isfinite(rho):
        raise UlmcError(f"the (H, G) law of an interval of length {t} overflows")
    decay = math.exp(-2.0 * t)
    q0 = 0.5 * _exp_tail(-2.0 * t, 2) / math.sqrt(t)  # Cov(W2, H) / sqrt(t)
    r0 = -0.5 * math.expm1(-2.0 * t) / math.sqrt(t)  # Cov(W3, H) / sqrt(t)
    return _CellLaw(t, excess, rho, decay, q0, r0, decay * math.sqrt(rho))


def _require_length(t):
    if not np.isfinite(t) or t <= 0.0:
        raise UlmcError(f"interval length must be positive and finite, got {t}")


@dataclass(frozen=True)
class IntervalStats:
    """Brownian functionals (H, G) of one interval of positive, finite
    length, weight anchored locally."""

    length: float
    H: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        _require_length(self.length)


class StepIncrements(NamedTuple):
    """The three Gaussian integrals of one step: the one increments record.

    W1 = int_0^{ah} (1 - e^{-2(ah-s)}) dB_s
    W2 = int_0^{h}  (1 - e^{-2(h-s)})  dB_s
    W3 = int_0^{h}  e^{-2(h-s)}        dB_s

    W2 and W3 have shape (..., d), W1 (..., d) for one midpoint, (..., R, d)
    for R midpoints, and None for the exponential integrator.
    """

    W1: Optional[np.ndarray]
    W2: np.ndarray
    W3: np.ndarray


def _sample_gh(law, z):
    """Turn normals z of shape (cells, 2, ..., dim) into the (H, G) of cells
    of the law's length, in place, and return the views H = z[:, 0], G =
    z[:, 1]: per cell, left to right, H's normals come before G's."""
    h, g = z[:, 0], z[:, 1]
    h *= math.sqrt(law.t)
    g *= math.sqrt(law.rho)
    # cell by cell, so the temporary stays one cell in size
    for c in range(len(z)):
        g[c] += (1.0 + law.excess) * h[c]
    return h, g


def sample_interval(length, dim, rng) -> IntervalStats:
    """Draw the (H, G) functionals of a fresh interval of the given length."""
    _require_length(length)
    h, g = _sample_gh(_cell_law(float(length)), rng.standard_normal((1, 2, dim)))
    return IntervalStats(length=float(length), H=h[0], G=g[0])


def _split_terms(t, tau, rest):
    """Terms of the precision form of a length-t interval split at tau, with
    rest = t - tau, elementwise: (gamma_l - 1, rho_l, gamma_r - 1, rho_r, b,
    e^{-4 tau}, q, det), named as in `split`.
    """
    (excess_l, rho_l), (excess_r, rho_r) = _gain_residual(tau), _gain_residual(rest)
    # from gamma - 1, b keeps its leading order, -t
    b = excess_l - excess_r - np.expm1(2.0 * tau) * (1.0 + excess_r)
    decay = np.exp(-4.0 * tau)
    q = rho_r + decay * rho_l
    det = t * q + tau * rest * decay * b * b
    return excess_l, rho_l, excess_r, rho_r, b, decay, q, det


def split(parent: IntervalStats, at, rng):
    """Refine an interval into two, conditioned on the parent functionals.

    Samples the left child from the exact conditional Gaussian given
    (H_parent, G_parent), then completes the right child through the
    constraints H_p = H_l + H_r and G_p = G_l + e^{2 tau} G_r, which the
    children meet up to rounding.  Marginally each child is distributed
    exactly as a fresh interval of its length.

    Per child, R = G - gamma H is independent of H with variance rho.  The
    parent fixes H_r = H_p - H_l and e^{2 tau} R_r = c - b H_l - R_l, with
    c = G_p - e^{2 tau} gamma_r H_p and b = gamma_l - e^{2 tau} gamma_r, so
    (H_l, R_l) has precision diag(1/tau, 1/rho_l) + e1 e1^T/(t - tau)
    + w (b, 1)(b, 1)^T, w = e^{-4 tau}/rho_r.  Times tau (t - tau) rho_l rho_r
    its determinant is t q + tau (t - tau) e^{-4 tau} b^2, q = rho_r +
    e^{-4 tau} rho_l: all terms positive, no variance inverted.
    """
    at = float(at)
    if not (0.0 < at < parent.length):
        raise UlmcError(
            f"split point must lie strictly inside (0, {parent.length}), got {at}"
        )
    t, tau, rest = parent.length, at, parent.length - at
    excess_l, rho_l, excess_r, rho_r, b, decay, q, det = _split_terms(t, tau, rest)

    dim = parent.H.shape[0]
    z = rng.standard_normal((2, dim))  # H draw first, then G
    c = parent.G - np.exp(2.0 * tau) * (1.0 + excess_r) * parent.H
    # conditional mean, plus the Cholesky factor of the covariance times z
    h_left = tau * q / det * parent.H + tau * rest * decay * b / det * c
    h_left += np.sqrt(tau * rest * q / det) * z[0]
    r_left = decay * rho_l / det * (t * c - tau * b * parent.H)
    r_left += np.sqrt(rho_l * rho_r / q) * z[1]
    r_left -= decay * b * rho_l * np.sqrt(tau * rest / (q * det)) * z[0]
    g_left = (1.0 + excess_l) * h_left + r_left
    h_right = parent.H - h_left
    g_right = (parent.G - g_left) * np.exp(-2.0 * tau)
    left = IntervalStats(length=tau, H=h_left, G=g_left)
    right = IntervalStats(length=rest, H=h_right, G=g_right)
    return left, right


def _midpoint_coefficients(law, alphas):
    """(3,) + alphas.shape coefficients (p0, p1, s) of W1 = p0 z0 + p1 z1 + s z2.

    For a step of the law's length h, z0 = H / sqrt(h) and z1 = (G - gamma
    H) / sqrt(rho) are the whole step's normals and z2 is fresh, so p0 =
    Cov(W1, H) / sqrt(h), p1 = Cov(W1, R) / sqrt(rho) and s^2 = Var(W1 | H,
    G).  Over the left cell [0, tau], tau = alpha h, W1 = kappa H_l -
    e^{-2 tau} R_l with kappa = 1 - e^{-2 tau} gamma_l, so s^2 is the sum of
    squares of `split`'s Cholesky factors mapped by (kappa, -e^{-2 tau});
    kappa + e^{-2 tau} b = -(gamma_r - 1) exactly, which takes out their
    cancellation.  rest is (1 - alpha) h, not h - tau, so s^2 stays accurate
    as alpha -> 1.  At alpha = 0 the coefficients are 0, at alpha = 1 (q0,
    -r1, 0), W2's, exactly.  Below h of about 1e-80, O(h^4) terms underflow,
    which raises UlmcError.
    """
    h = law.t
    tau, rest = alphas * h, (1.0 - alphas) * h
    with np.errstate(divide="ignore", invalid="ignore"):  # reported just below
        excess_l, rho_l, excess_r, rho_r, b, decay, q, det = _split_terms(h, tau, rest)
        decay_half = np.exp(-2.0 * tau)
        # terms 2 tau and tau at leading order: one bit lost
        kappa = -np.expm1(-2.0 * tau) - decay_half * excess_l
        x = kappa * rho_r - decay * rho_l * excess_r
        # grouped so that no product of two O(h^3) terms underflows
        s2 = tau * rest * (x / q) * (x / det) + decay * rho_l * (rho_r / q)
        cov_r = kappa * tau * rest * b - decay_half * rho_l * h  # both terms <= 0
        p1 = math.sqrt(law.rho) / det * decay * cov_r
    coef = np.stack([kappa * tau / math.sqrt(h), p1, np.sqrt(s2)])
    if not np.isfinite(coef).all():
        raise UlmcError(f"the W1 law of a step of length {h} underflows")
    coef[:, alphas == 0.0] = 0.0
    coef[:, alphas == 1.0] = np.array([law.q0, -law.r1, 0.0])[:, None]
    return coef


def _increments(law, z, at, fresh):
    """(W1, W2, W3) of steps of k equal cells of the law's length, in place.

    z (k, 2, ..., dim) holds per cell, left to right, z0 = H / sqrt(cell)
    and z1 = (G - gamma H) / sqrt(rho); at (m, ...) m midpoints per step, in
    cells from its start, and fresh (m, ..., dim) one normal z2 each.  Cell
    j gives W2_j = q0 z0 - r1 z1, W3_j = r0 z0 + r1 z1 and, for a midpoint
    at fraction r of it, W1_loc = p0 z0 + p1 z1 + s z2.  With d = e^{-2
    cell}, A2 <- A2 + W2_j + (1 - d) A3 and A3 <- d A3 + W3_j join the
    cells, and W1 = A2 + (1 - e^{-2 r cell}) A3 + W1_loc takes the sums
    before cell j: no weight exceeds 1, so nothing cancels.  W1 overwrites
    fresh, W2 and W3 the last cell's z; one more (m or 1, ..., dim) block
    is held.
    """
    k, m = len(z), len(at)
    z0, z1 = z[:, 0], z[:, 1]
    # each midpoint's cell and fraction of it; one cell is a view that broadcasts
    mid, rest, pick = 0, at, (0,)
    if k > 1:
        mid = np.minimum(at.astype(int), k - 1)
        rest, pick = at - mid, (mid, *np.indices(mid.shape[1:], sparse=True))
    if m:
        p0, p1, s = _midpoint_coefficients(law, rest)[..., None]
        fresh *= s
        work = np.multiply(z0[pick], p0)  # the one work block, after p0's temporaries
        fresh += work
        np.multiply(z1[pick], p1, out=work)
        fresh += work  # where r = 1, p1 = -r1 and s = 0: a one-cell W1 == W2 bitwise
    else:
        work = np.empty((1, *z.shape[2:]))
    part = work[0]
    for c0, c1 in zip(z0, z1):  # W2_j in c0, W3_j in c1
        np.multiply(c0, law.r0, out=part)
        c1 *= law.r1
        part += c1
        c0 *= law.q0
        c0 -= c1
        c1[...] = part
    gain = -math.expm1(-2.0 * law.t)  # 1 - d
    for j in range(1, k):  # cell j becomes the sums through it
        np.multiply(z1[j - 1], gain, out=part)
        z0[j] += part
        z0[j] += z0[j - 1]
        np.multiply(z1[j - 1], law.decay, out=part)
        z1[j] += part
    if m and k > 1:  # the sums before the midpoint's cell, none before the first
        before = (np.maximum(mid - 1, 0), *pick[1:])
        np.multiply(z0[before], (mid > 0)[..., None], out=work)
        fresh += work
        weight = np.where(mid > 0, -np.expm1(-2.0 * law.t * rest), 0.0)
        np.multiply(z1[before], weight[..., None], out=work)
        fresh += work
    return fresh, z0[-1], z1[-1]


def _fresh_step(h, cells, at, dim, rng):
    """`_increments` of fresh steps of length h, `cells` cells each, with
    midpoints at (m, chains), from one (2 cells + m, chains, dim) block of
    normals.  `_cell_law` raises UlmcError for cells above about 177."""
    chains = at.shape[1]
    z = rng.standard_normal((2 * cells + len(at), chains, dim))
    cell_z = z[: 2 * cells].reshape(cells, 2, chains, dim)
    return _increments(_cell_law(h / cells), cell_z, at, z[2 * cells :])


def step_increments(h, alpha, dim, rng) -> StepIncrements:
    """Sample (W1, W2, W3) for one step of length h with midpoint alpha*h.

    Three normals per coordinate: the step's (z0, z1), one cell, then W1
    given them.  For alpha = 0, W1 is exactly 0; for alpha = 1, exactly W2.
    """
    return StepIncrements(*(w[0] for w in step_increments_batch(h, [alpha], dim, rng)))


def step_increments_batch(h, alphas, dim, rng) -> StepIncrements:
    """step_increments for per-chain midpoints.

    alphas has shape (k,); returned arrays have shape (k, dim), drawn as
    one (3, k, dim) block, so k = 1 reproduces step_increments.
    """
    _require_length(h)
    w1, w2, w3 = _fresh_step(h, 1, _require_fractions(alphas)[None], dim, rng)
    return StepIncrements(w1[0], w2, w3)


def exp_euler_increments(h, dim, rng) -> StepIncrements:
    """Sample (None, W2, W3) for one frozen-gradient step of length h."""
    _, w2, w3 = exp_euler_increments_batch(h, 1, dim, rng)
    return StepIncrements(None, w2[0], w3[0])


def exp_euler_increments_batch(h, chains, dim, rng) -> StepIncrements:
    """exp_euler_increments for `chains` chains: W2 and W3 are (chains, dim)
    arrays drawn as one (2, chains, dim) block, W1 is None."""
    _require_length(h)
    _, w2, w3 = _fresh_step(h, 1, np.empty((0, chains)), dim, rng)
    return StepIncrements(None, w2, w3)


def _require_fractions(alphas):
    """Midpoint fractions as a float array, each in [0, 1]; nan is not."""
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((0.0 <= alphas) & (alphas <= 1.0)):
        raise UlmcError(f"midpoint fraction must be in [0, 1], got {alphas}")
    return alphas


def _require_cells(alphas, R):
    """Midpoint fraction i must lie in its cell [(i-1)/R, i/R]; nan does not."""
    low = np.arange(R) / R
    if not np.all((alphas >= low - 1e-12) & (alphas <= low + 1.0 / R + 1e-12)):
        raise UlmcError(f"midpoint i must lie in [(i-1)/{R}, i/{R}], got {alphas}")


def parallel_step_increments(h, R, alphas, dim, rng) -> StepIncrements:
    """Sample (W1_1..W1_R, W2, W3) jointly consistent with one path.

    R is a count >= 1 (`_require_count`, ScheduleError otherwise) and
    alpha_i must lie in its cell [(i-1)/R, i/R].  [0, h] is R equal
    cells; one (3R, chains, dim) block is drawn, per cell its (z0, z1)
    normals, left to right, then one normal per midpoint, which completes
    W1_i given its cell's (H, G) (`_increments`), so R = 1 draws and builds
    as step_increments does.  alphas has shape (R,), when W1 has shape (R,
    dim), or (chains, R) for a batch, when W1 has shape (chains, R, dim).
    """
    _require_length(h)
    _require_count(R, "midpoint count", 1, ScheduleError)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim not in (1, 2) or alphas.shape[-1] != R:
        raise UlmcError(f"expected {R} midpoints, got shape {alphas.shape}")
    _require_cells(alphas, R)
    rows = np.clip(np.atleast_2d(alphas), 0.0, 1.0)
    w1, w2, w3 = _fresh_step(h, R, rows.T * R, dim, rng)
    if alphas.ndim == 1:
        return StepIncrements(W1=w1[:, 0], W2=w2[0], W3=w3[0])
    return StepIncrements(W1=w1.transpose(1, 0, 2), W2=w2, W3=w3)


class BrownianPathStore:
    """One Brownian path per chain over [0, T], as a fixed grid of n_cells
    equal cells.

    Every cell's (z0, z1) is drawn once, as one (n_cells, 2, chains, dim)
    block, cells left to right, and kept (16 chains n_cells dim bytes): the
    rounding of (H, G) would cost z1 its low digits.  Steps are runs of
    whole cells, so nothing is ever refined.
    """

    def __init__(self, total_time, n_cells, chains, dim, rng):
        _require_length(total_time)
        _require_count(n_cells, "cell count", 1, UlmcError)
        self.n_cells = int(n_cells)
        self.cell = float(total_time) / self.n_cells
        self.law = _cell_law(self.cell)
        self.rng = rng
        self.normals = rng.standard_normal((self.n_cells, 2, chains, dim))

    # the cells' (n_cells, chains, dim) H and G, computed on each read
    H = property(lambda self: _sample_gh(self.law, self.normals.copy())[0])
    G = property(lambda self: _sample_gh(self.law, self.normals.copy())[1])

    def increments(self, n_steps, alphas=None):
        """(W1, W2, W3) of n_steps equal steps over [0, T], each of shape
        (n_steps, chains, dim), built by `_increments`.

        alphas (n_steps, chains) are midpoint fractions, one per step, and
        complete W1 with one fresh (n_steps, chains, dim) normal block;
        without them W1 is None.  n_steps must be an integer >= 1 that
        divides n_cells.
        """
        _require_count(n_steps, "step count", 1, UlmcError)
        if self.n_cells % n_steps:
            raise UlmcError(f"step count {n_steps} does not divide the path's "
                            f"{self.n_cells} cells")
        k, (chains, dim) = self.n_cells // n_steps, self.normals.shape[2:]
        if alphas is not None and np.shape(alphas) != (n_steps, chains):
            raise UlmcError(f"expected ({n_steps}, {chains}) midpoint fractions, "
                            f"got {np.shape(alphas)}")
        # (k, 2, n_steps, chains, dim): cell j of every step
        z = np.moveaxis(self.normals.reshape(n_steps, k, 2, chains, dim), 0, 2).copy()
        if alphas is None:  # no midpoint: nothing is drawn, W1 comes out empty
            at = np.empty((0, n_steps, chains))
        else:
            at = _require_fractions(alphas)[None] * k
        fresh = self.rng.standard_normal(at.shape + (dim,))
        w1, w2, w3 = _increments(self.law, z, at, fresh)
        return StepIncrements(None if alphas is None else w1[0], w2, w3)
