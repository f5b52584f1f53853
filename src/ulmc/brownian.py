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
the scalar factor e^{2a}, which is what `compose` applies.

`split` conditions in the independent coordinates (H, R = G - gamma H),
inverting no matrix.  Closed forms that cancel leading orders are written in
the one series helper, `_exp_tail`.

RNG draw order is fixed for reproducibility.  A step with at most one
midpoint draws one (k, chains, dim) block of normals: z0 and z1 give the
whole step's (H, G), and z2, drawn when there is a midpoint, completes W1
given them.  A step with R > 1 midpoints is R equal cells, midpoint r in
cell r, and draws one (3R, chains, dim) block: per cell, left to right, H
then G, then one normal per midpoint that completes its W1 given its
cell's (H, G).  The path store draws all its cells up front in the same
cell order, then one block per set of midpoint steps.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UlmcError

__all__ = [
    "IntervalStats",
    "StepIncrements",
    "ParallelIncrements",
    "ExpEulerIncrements",
    "gh_covariance",
    "sample_interval",
    "compose",
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


def _cell_law(t):
    """The builders' constants of one length t: `_gain_residual`'s excess =
    gamma - 1 and rho, decay = e^{-2t}, and W2 = q0 z0 - r1 z1, W3 = r0 z0 +
    r1 z1 in z0 = H / sqrt(t), z1 = (G - gamma H) / sqrt(rho).  Var(G)
    overflows above t of about 177, which raises UlmcError."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        excess, rho = _gain_residual(t)
    if not np.isfinite(rho):
        raise UlmcError(f"the (H, G) law of an interval of length {t} overflows")
    decay = math.exp(-2.0 * t)
    q0 = 0.5 * _exp_tail(-2.0 * t, 2) / math.sqrt(t)  # Cov(W2, H) / sqrt(t)
    r0 = -0.5 * math.expm1(-2.0 * t) / math.sqrt(t)  # Cov(W3, H) / sqrt(t)
    return _CellLaw(t, excess, rho, decay, q0, r0, decay * math.sqrt(rho))


def _is_count(value):
    """A Python or numpy integer >= 0; bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


def _require_length(t):
    if not np.isfinite(t) or t <= 0.0:
        raise UlmcError(f"interval length must be positive and finite, got {t}")


@dataclass(frozen=True)
class IntervalStats:
    """Brownian functionals (H, G) of one interval, weight anchored locally.

    length 0 is the composition identity (H = G = 0).
    """

    length: float
    H: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.length) or self.length < 0.0:
            raise UlmcError(f"interval length must be >= 0, got {self.length}")


class StepIncrements(NamedTuple):
    """The three Gaussian integrals of one randomized-midpoint step.

    W1 = int_0^{ah} (1 - e^{-2(ah-s)}) dB_s
    W2 = int_0^{h}  (1 - e^{-2(h-s)})  dB_s
    W3 = int_0^{h}  e^{-2(h-s)}        dB_s
    """

    W1: np.ndarray
    W2: np.ndarray
    W3: np.ndarray


class ParallelIncrements(NamedTuple):
    """Joint increments for an R-midpoint step: W1 has shape (R, d)."""

    W1: np.ndarray
    W2: np.ndarray
    W3: np.ndarray


class ExpEulerIncrements(NamedTuple):
    """(W2, W3) pair used by the frozen-gradient exponential integrator."""

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


def compose(left: IntervalStats, right: IntervalStats) -> IntervalStats:
    """Concatenate adjacent intervals: H adds, G re-anchors the right part."""
    if left.length == 0.0:
        return IntervalStats(right.length, right.H.copy(), right.G.copy())
    if right.length == 0.0:
        return IntervalStats(left.length, left.H.copy(), left.G.copy())
    return IntervalStats(
        length=left.length + right.length,
        H=left.H + right.H,
        G=left.G + np.exp(2.0 * left.length) * right.G,
    )


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
    composition constraints, so compose(left, right) returns the parent up
    to rounding.  Marginally each child is distributed exactly as a fresh
    interval of its length.

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


def _whole_step(h, alphas, chains, dim, rng):
    """(W1, W2, W3) of fresh steps of length h, one row per chain, with at
    most one midpoint each.

    One (k, chains, dim) block of normals is drawn.  z0 and z1 give the
    whole step's H = sqrt(h) z0 and G - gamma H = sqrt(rho) z1, so W2 = H -
    e^{-2h} G and W3 = e^{-2h} G take scalar coefficients.  alphas of shape
    (chains,) makes k = 3, z2 completing W1 given (H, G); alphas None makes
    k = 2 and W1 None.  `_cell_law` raises UlmcError for h above about 177.
    """
    law = _cell_law(h)
    z = rng.standard_normal((2 if alphas is None else 3, chains, dim))
    # the outputs overwrite z: a call holds at most k + 1 (chains, dim) blocks
    if alphas is None:
        w3 = z[0] * law.r0
    else:  # W1 while z is unscaled, then W3 in z[2]
        p0, p1, s = _midpoint_coefficients(law, alphas)[..., None]
        w1 = p0 * z[0]
        z[2] *= s
        w1 += z[2]
        np.multiply(z[1], p1, out=z[2])
        w1 += z[2]
        w3 = np.multiply(z[0], law.r0, out=z[2])
    z[1] *= law.r1
    w3 += z[1]
    z[0] *= law.q0
    z[0] -= z[1]  # W2; where alpha = 1, p1 = -r1 and s = 0, so W1 == W2 bitwise
    if alphas is None:
        z[1] = w3
        return None, z[0], z[1]
    z[1] = w1
    return z[1], z[0], z[2]


def _equal_cells(law, cell_h, cell_g, at, fresh):
    """(W1, W2, W3) of steps made of k equal cells of the law's length.

    cell_h, cell_g (k, ..., dim) are the cells' (H, G), left to right, and
    are overwritten.  at (m, ...) holds m midpoints per step, in cells from
    the step's start, each in [0, k], and fresh (m, ..., dim) one normal
    block per midpoint, in which W1 is built.  W1 is the rest of the
    midpoint's cell, the W1 of a one-cell step drawn given that cell's (z0,
    z1) as `_whole_step` draws it, plus the whole cells before the
    midpoint: H summed, G carried from cell to cell by e^{-2 cell} <= 1 and
    weighted to the midpoint.  W2 and W3 sum all k cells the same way.
    Returns W1 (m, ..., dim) and W2, W3 (..., dim).
    """
    mid = np.minimum(at.astype(int), len(cell_h) - 1)  # the cell that holds it
    rest = at - mid
    pick = (mid, *np.indices(mid.shape[1:], sparse=True))  # midpoint's cell, by index
    cell, excess, rho, decay = law.t, law.excess, law.rho, law.decay
    p0, p1, s = _midpoint_coefficients(law, rest)[..., None]

    def add_picked(cells, weight):  # one (m, ..., dim) temporary at a time
        part = cells[pick]
        part *= weight
        np.add(fresh, part, out=fresh)

    fresh *= s
    for j in range(len(cell_g)):  # G - gamma H = sqrt(rho) z1, until the sums
        cell_g[j] -= (1.0 + excess) * cell_h[j]
    add_picked(cell_g, p1 / math.sqrt(rho))
    add_picked(cell_h, p0 / math.sqrt(cell))  # z0 = H / sqrt(cell)
    # each cell becomes the sum of the cells before it, G weighted to its start
    h, g = np.zeros(cell_h.shape[1:]), np.zeros(cell_g.shape[1:])
    for j in range(len(cell_h)):
        g_next = (g + cell_g[j] + (1.0 + excess) * cell_h[j]) * decay  # G again
        cell_h[j], h = h, h + cell_h[j]
        cell_g[j], g = g, g_next
    fresh += cell_h[pick]
    add_picked(cell_g, -np.exp(-2.0 * cell * rest)[..., None])
    h -= g
    return fresh, h, g


def step_increments(h, alpha, dim, rng) -> StepIncrements:
    """Sample (W1, W2, W3) for one step of length h with midpoint alpha*h.

    Three normals per coordinate: the whole step's (H, G), then W1 given
    them.  For alpha = 0, W1 is exactly 0; for alpha = 1, exactly W2.
    """
    return StepIncrements(*(w[0] for w in step_increments_batch(h, [alpha], dim, rng)))


def step_increments_batch(h, alphas, dim, rng) -> StepIncrements:
    """step_increments for per-chain midpoints.

    alphas has shape (k,); returned arrays have shape (k, dim), drawn as
    one (3, k, dim) block, so k = 1 reproduces step_increments.
    """
    _require_length(h)
    alphas = _require_fractions(alphas)
    return StepIncrements(*_whole_step(h, alphas, len(alphas), dim, rng))


def exp_euler_increments(h, dim, rng) -> ExpEulerIncrements:
    """Sample the (W2, W3) pair for one frozen-gradient step of length h."""
    return ExpEulerIncrements(*(w[0] for w in exp_euler_increments_batch(h, 1, dim, rng)))


def exp_euler_increments_batch(h, chains, dim, rng) -> ExpEulerIncrements:
    """exp_euler_increments for `chains` chains, as (chains, dim) arrays
    drawn as one (2, chains, dim) block."""
    _require_length(h)
    _, w2, w3 = _whole_step(h, None, chains, dim, rng)
    return ExpEulerIncrements(W2=w2, W3=w3)


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


def parallel_step_increments(h, R, alphas, dim, rng) -> ParallelIncrements:
    """Sample (W1_1..W1_R, W2, W3) jointly consistent with one path.

    alpha_i must lie in its cell [(i-1)/R, i/R].  R = 1 draws as
    step_increments does.  For R > 1, [0, h] is R equal cells; one (3R,
    chains, dim) block is drawn, per cell its (H, G) normals, left to
    right, then one normal per midpoint, which completes W1_i given its
    cell's (H, G) (`_equal_cells`).  alphas has shape (R,), or (chains, R)
    for a batch, when W1 has shape (chains, R, dim).
    """
    _require_length(h)
    R = int(R)
    if R < 1:
        raise UlmcError(f"midpoint count must be >= 1, got {R}")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim not in (1, 2) or alphas.shape[-1] != R:
        raise UlmcError(f"expected {R} midpoints, got shape {alphas.shape}")
    _require_cells(alphas, R)
    rows = np.clip(np.atleast_2d(alphas), 0.0, 1.0)
    if R == 1:
        w1, w2, w3 = _whole_step(h, rows[:, 0], len(rows), dim, rng)
        w1 = w1[:, None]
    else:
        law = _cell_law(h / R)
        z = rng.standard_normal((3 * R, len(rows), dim))
        cell_h, cell_g = _sample_gh(law, z[: 2 * R].reshape(R, 2, len(rows), dim))
        w1, w2, w3 = _equal_cells(law, cell_h, cell_g, rows.T * R, z[2 * R :])
        w1 = w1.transpose(1, 0, 2)
    if alphas.ndim == 1:
        return ParallelIncrements(W1=w1[0], W2=w2[0], W3=w3[0])
    return ParallelIncrements(W1=w1, W2=w2, W3=w3)


class BrownianPathStore:
    """One Brownian path per chain over [0, T], as a fixed grid of n_cells
    equal cells.

    Every cell's (H, G) is drawn once, as one (n_cells, 2, chains, dim)
    block: cells left to right, per cell a (chains, dim) block for H, then
    one for G.  The path holds 16 chains n_cells dim bytes.  Steps are runs
    of whole cells, so nothing is ever refined.
    """

    def __init__(self, total_time, n_cells, chains, dim, rng):
        _require_length(total_time)
        if not _is_count(n_cells) or n_cells < 1:
            raise UlmcError(f"cell count must be an integer >= 1, got {n_cells!r}")
        self.n_cells = int(n_cells)
        self.cell = float(total_time) / self.n_cells
        self.law = _cell_law(self.cell)
        self.rng = rng
        z = rng.standard_normal((self.n_cells, 2, chains, dim))
        self.H, self.G = _sample_gh(self.law, z)

    def increments(self, n_steps, alphas=None):
        """(W1, W2, W3) of n_steps equal steps over [0, T], each of shape
        (n_steps, chains, dim), built by `_equal_cells`.

        alphas (n_steps, chains) are midpoint fractions, one per step, and
        complete W1 with one fresh (n_steps, chains, dim) normal block;
        without them W1 is None.  n_steps must be an integer >= 1 that
        divides n_cells.
        """
        if not _is_count(n_steps) or n_steps < 1 or self.n_cells % n_steps:
            raise UlmcError(f"step count must be an integer >= 1 dividing the path's "
                            f"{self.n_cells} cells, got {n_steps!r}")
        k, (chains, dim) = self.n_cells // n_steps, self.H.shape[1:]
        if alphas is not None and np.shape(alphas) != (n_steps, chains):
            raise UlmcError(f"expected ({n_steps}, {chains}) midpoint fractions, "
                            f"got {np.shape(alphas)}")
        # (k, n_steps, chains, dim) views: cell j of every step
        cell_h, cell_g = (np.moveaxis(a.reshape(n_steps, k, chains, dim), 1, 0)
                          for a in (self.H, self.G))
        if alphas is None:  # no midpoint: nothing is drawn, W1 comes out empty
            at = np.empty((0, n_steps, chains))
        else:
            at = _require_fractions(alphas)[None] * k
        fresh = self.rng.standard_normal(at.shape + (dim,))
        w1, w2, w3 = _equal_cells(self.law, cell_h.copy(), cell_g.copy(), at, fresh)
        return StepIncrements(None if alphas is None else w1[0], w2, w3)
