"""Exact sampling of the correlated Gaussian functionals of Brownian motion
used by the underdamped Langevin steppers, plus a composable/splittable
interval store for coupling runs at different step sizes to one path.

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

RNG draw order is fixed for reproducibility: within one interval H is drawn
before G; partitions are sampled left to right.
"""

from __future__ import annotations

import bisect
import math
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


def _exp_tail(x, k):
    """E_k(x) = e^x - sum_{j<k} x^j / j!, to rounding for every x, elementwise.

    Below |x| = 0.5, 13 Taylor terms reach rounding for every k >= 2; above
    it, expm1 minus the low terms cancels by at most about 5 bits.
    """
    x = np.asarray(x, dtype=float)[()]  # scalars stay numpy scalars, which are fast
    series = 0.0 * x
    for j in reversed(range(k, k + 13)):
        series *= x
        series += 1.0 / math.factorial(j)
    for _ in range(k):
        series *= x
    direct = np.expm1(x)
    for j in range(1, k):
        direct -= x**j / math.factorial(j)
    return np.where(np.abs(x) < 0.5, series, direct)[()]


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


def _residual_var(t):
    """Var(G | H) = Var(G) - Cov(H,G)^2 / Var(H), stable down to t = 0."""
    return _gain_residual(t)[1]


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


def _sample_gh(lengths, dim, rng):
    """Sample (H, G) for a block of fresh cells.

    lengths has shape (cells, ...); returns H, G of shape lengths.shape +
    (dim,).  Per cell, left to right, one block of shape lengths.shape[1:] +
    (dim,) is drawn for H, then one for G, so the stream layout does not
    depend on the lengths; zero-length cells come out exactly zero.  Var(G)
    overflows above a length of about 177, which raises UlmcError.
    """
    lengths = np.asarray(lengths, dtype=float)
    t = lengths[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        excess, rho = _gain_residual(t)
    if not np.isfinite(rho).all():
        raise UlmcError(f"the (H, G) law of an interval of length {lengths.max()} overflows")
    scale_h, scale_g, gain = np.sqrt(t), np.sqrt(rho), 1.0 + excess
    h = np.empty(lengths.shape + (dim,))
    g = np.empty_like(h)
    # cell by cell, so temporaries stay one (chains, dim) block in size
    for c in range(len(h)):
        rng.standard_normal(out=h[c])
        rng.standard_normal(out=g[c])
        h[c] *= scale_h[c]
        g[c] *= scale_g[c]
        g[c] += gain[c] * h[c]
    return h, g


def sample_interval(length, dim, rng) -> IntervalStats:
    """Draw the (H, G) functionals of a fresh interval of the given length."""
    _require_length(length)
    h, g = _sample_gh(np.array([float(length)]), dim, rng)
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
    (excess_l, rho_l), (excess_r, rho_r) = _gain_residual(tau), _gain_residual(rest)
    # from gamma - 1, b keeps its leading order, -t
    b = excess_l - excess_r - np.expm1(2.0 * tau) * (1.0 + excess_r)
    decay = np.exp(-4.0 * tau)
    q = rho_r + decay * rho_l
    det = t * q + tau * rest * decay * b * b

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


def _combine(cell_h, cell_g, points, mid_ends):
    """(W1, W2, W3) of one step as weighted sums of its cells' (H, G).

    cell_h, cell_g (cells, ..., dim) hold consecutive cells with edges
    points (cells + 1, ...).  W1 lists, per index i in mid_ends, W2 of the
    step cut short at points[i].  Sums run in place segment by segment
    between those points, G weighted to each segment's end, so every weight
    is e^{-2 span} <= 1 and no span overflows.  Overwrites cell_h, cell_g.
    """
    w2 = []
    for last, end in zip((0, *mid_ends), (*mid_ends, len(cell_h))):
        if end == last:  # a midpoint at the end of the step
            w2.append(w2[-1])
            continue
        seg_h, seg_g = cell_h[last:end], cell_g[last:end]
        seg_g *= np.exp(-2.0 * (points[end] - points[last:end]))[..., None]
        if end - last > 1:
            seg_h[-1], seg_g[-1] = seg_h.sum(axis=0), seg_g.sum(axis=0)
        if last:  # add the sums up to this segment's start
            seg_h[-1] += cell_h[last - 1]
            cell_g[last - 1] *= np.exp(-2.0 * (points[end] - points[last]))[..., None]
            seg_g[-1] += cell_g[last - 1]
        w2.append(seg_h[-1] - seg_g[-1])
    return w2[:-1], w2[-1], cell_g[-1].copy()


def _fresh_increments(h, mids, dim, rng):
    """(W1, W2, W3) of fresh steps of length h, one row per chain.

    mids has shape (chains, R), chain c's midpoint r lying in the cell
    [r h/R, (r+1) h/R]; R = 0 means no midpoint.  Each chain's [0, h] is
    split at the cell boundaries and its midpoints, interleaved, and one
    (H, G) pair is drawn per cell as (chains, dim) blocks, cells left to
    right.  Returns W1 as a list of R arrays and W2, W3, each of shape
    (chains, dim).
    """
    chains, R = mids.shape
    edges = np.arange(max(R, 1) + 1) * (h / max(R, 1))
    edges[-1] = h
    points = np.empty((len(edges) + R, chains))  # 0, m_1, h/R, m_2, ..., m_R, h
    points[1 : 2 * R : 2] = np.clip(mids, edges[:R], edges[1 : R + 1]).T
    points[: 2 * R : 2] = edges[:R, None]
    points[2 * R :] = edges[R:, None]
    h_cells, g_cells = _sample_gh(np.diff(points, axis=0), dim, rng)
    return _combine(h_cells, g_cells, points, range(1, 2 * R, 2))


def step_increments(h, alpha, dim, rng) -> StepIncrements:
    """Sample (W1, W2, W3) for one step of length h with midpoint alpha*h.

    The interval [0, h] is partitioned at alpha*h; each cell draws its
    (H, G) pair, cells left to right.  For alpha in {0, 1} the empty cell
    contributes exact zeros.
    """
    return StepIncrements(*(w[0] for w in step_increments_batch(h, [alpha], dim, rng)))


def step_increments_batch(h, alphas, dim, rng) -> StepIncrements:
    """step_increments for per-chain midpoints.

    alphas has shape (k,); returned arrays have shape (k, dim).  Each cell
    is drawn as one (k, dim) block, so k = 1 reproduces step_increments.
    """
    _require_length(h)
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((0.0 <= alphas) & (alphas <= 1.0)):
        raise UlmcError(f"midpoint fraction must be in [0, 1], got {alphas}")
    w1, w2, w3 = _fresh_increments(h, (alphas * h)[:, None], dim, rng)
    return StepIncrements(W1=w1[0], W2=w2, W3=w3)


def exp_euler_increments(h, dim, rng) -> ExpEulerIncrements:
    """Sample the (W2, W3) pair for one frozen-gradient step of length h."""
    return ExpEulerIncrements(*(w[0] for w in exp_euler_increments_batch(h, 1, dim, rng)))


def exp_euler_increments_batch(h, chains, dim, rng) -> ExpEulerIncrements:
    """exp_euler_increments for `chains` chains, as (chains, dim) arrays."""
    _require_length(h)
    _, w2, w3 = _fresh_increments(h, np.empty((chains, 0)), dim, rng)
    return ExpEulerIncrements(W2=w2, W3=w3)


def parallel_step_increments(h, R, alphas, dim, rng) -> ParallelIncrements:
    """Sample (W1_1..W1_R, W2, W3) jointly consistent with one path.

    [0, h] is partitioned at the cell boundaries i*h/R interleaved with the
    midpoints alpha_i*h (alpha_i must lie in its cell [ (i-1)/R, i/R ]); one
    (H, G) pair is drawn per cell, left to right, and all outputs are
    linear combinations of those draws.  alphas has shape (R,), or
    (chains, R) for a batch, when W1 has shape (chains, R, dim).
    """
    _require_length(h)
    R = int(R)
    if R < 1:
        raise UlmcError(f"midpoint count must be >= 1, got {R}")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim not in (1, 2) or alphas.shape[-1] != R:
        raise UlmcError(f"expected {R} midpoints, got shape {alphas.shape}")
    low = np.arange(R) / R
    if np.any((alphas < low - 1e-12) | (alphas > low + 1.0 / R + 1e-12)):
        raise UlmcError(f"midpoint i must lie in [(i-1)/{R}, i/{R}], got {alphas}")
    w1, w2, w3 = _fresh_increments(h, np.atleast_2d(alphas * h), dim, rng)
    w1 = np.stack(w1, axis=1)
    if alphas.ndim == 1:
        return ParallelIncrements(W1=w1[0], W2=w2[0], W3=w3[0])
    return ParallelIncrements(W1=w1, W2=w2, W3=w3)


# Base cells have unit length: Var G of a cell overflows past a length of
# about 177, and unit cells keep every stored value far from that.
MAX_CELL = 1.0
# Coarse grids computed as T*j/n for different n land within rounding of
# each other; points this close are one breakpoint.
SNAP_TOL = 1e-9


class BrownianPathStore:
    """One Brownian path over [0, T], refinable to any breakpoint on demand.

    The path is seeded as unit-length base cells (so stored values stay
    finite for total times up to 1e4 and beyond); `ensure` conditionally
    splits cells, and functionals over any sub-span are exact compositions
    of the current cells.  A store must be owned by a single consumer; it
    mutates on refinement.
    """

    def __init__(self, total_time, dim, rng):
        _require_length(total_time)
        self.total_time = float(total_time)
        self.dim = dim
        self.rng = rng
        n_base = max(1, int(np.ceil(self.total_time / MAX_CELL)))
        edges = np.linspace(0.0, self.total_time, n_base + 1)
        self._breaks = list(edges)
        self._cells = [
            sample_interval(b - a, dim, rng)
            for a, b in zip(edges[:-1], edges[1:])
        ]

    def _locate(self, t):
        """Index of an existing breakpoint equal to t (within SNAP_TOL)."""
        i = bisect.bisect_left(self._breaks, t - SNAP_TOL)
        if i < len(self._breaks) and abs(self._breaks[i] - t) <= SNAP_TOL:
            return i
        return None

    def ensure(self, t):
        """Make t a breakpoint, conditionally splitting the containing cell."""
        if not (0.0 <= t <= self.total_time + SNAP_TOL):
            raise UlmcError(f"time {t} outside [0, {self.total_time}]")
        existing = self._locate(t)
        if existing is not None:
            return existing
        i = bisect.bisect_left(self._breaks, t) - 1
        left_edge = self._breaks[i]
        left, right = split(self._cells[i], t - left_edge, self.rng)
        self._cells[i : i + 1] = [left, right]
        self._breaks.insert(i + 1, t)
        return i + 1

    def increments(self, t0, t1, t_mid=None):
        """(W1, W2, W3) of the step [t0, t1], with optional midpoint t_mid.

        Weights are anchored at t0, matching a step of length t1 - t0; W1 is
        None when no midpoint is requested.
        """
        if not (t0 < t1):
            raise UlmcError("need t0 < t1")
        if t_mid is not None and not (t0 - SNAP_TOL <= t_mid <= t1):
            raise UlmcError("midpoint must lie inside the step")
        self.ensure(t0)
        self.ensure(t1)
        if t_mid is not None:
            self.ensure(t_mid)
        # locate after all refinements; each split shifts later indices
        i0, i1 = self._locate(t0), self._locate(t1)
        k = self._locate(t_mid) - i0 if t_mid is not None else 0  # cells before t_mid
        cells = self._cells[i0:i1]
        w1, w2, w3 = _combine(
            np.array([c.H for c in cells]),
            np.array([c.G for c in cells]),
            np.array(self._breaks[i0 : i1 + 1]),
            [k] if k else [],
        )
        if t_mid is None:
            return None, w2, w3
        return (w1[0] if k else np.zeros(self.dim)), w2, w3
