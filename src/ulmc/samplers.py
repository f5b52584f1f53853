"""Discretized underdamped Langevin chains.

Steppers:
  rmm_step                 randomized midpoint update (two gradients/step)
  parallel_rmm_step        R-midpoint fixed-point variant (R*K gradients)
  euler_uld_step           plain Euler discretization
  exponential_euler_uld_step  frozen-gradient exponential integrator
  overdamped_lmc_step      first-order Langevin baseline (no velocity)

The midpoint steppers and the exponential integrator share one exact
update, `_flow`; they differ only in their estimates of the gradient.

All steppers are pure functions of (state, randomness) with friction 2 and
inverse mass u = 1/L, and take a state of one chain, shape (d,), or of a
batch of chains, shape (chains, d).  One loop, `_drive`, runs every method
on a (chains, d) batch, in fresh-draw runs and in the shared-path coupled
runs of `analysis` alike; `run_chain`, `rmm_run`, `parallel_rmm_run` and
`rmm_run_ensemble` wrap it.  The (epsilon, kappa) -> (h, N) rules live in
`schedule` and `schedule_parallel`.

A fresh-draw run's draws never depend on its state, so `_drive` makes them
one slot of steps ahead on a second thread, in the fixed stream order of
the seed, while the calling thread steps the chains; outputs do not depend
on this.  A coupled run steps through the rows of a `BrownianPathStore`.
"""

from __future__ import annotations

import contextlib
import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .brownian import (  # noqa: F401  (one-chain adapters stay importable here)
    StepIncrements,
    _is_count,
    _require_cells,
    _require_fractions,
    exp_euler_increments,
    exp_euler_increments_batch,
    parallel_step_increments,
    step_increments,
    step_increments_batch,
)
from .errors import ConfigError, ScheduleError, UlmcError
from .targets import GradientCounter, TargetSpec

__all__ = [
    "METHODS",
    "SamplerState",
    "Schedule",
    "RunResult",
    "EnsembleResult",
    "rmm_step",
    "rmm_run",
    "rmm_run_ensemble",
    "run_chain",
    "parallel_rmm_step",
    "parallel_rmm_run",
    "euler_uld_step",
    "exponential_euler_uld_step",
    "overdamped_lmc_step",
    "schedule",
    "schedule_parallel",
    "midpoint_coefficient",
    "exp_euler_coefficients",
]

# The accuracy guarantees behind the step-size rules assume h <= 1/20;
# steppers stay well-defined for larger steps, which error-vs-h
# experiments use.
H_MAX_SCHEDULE = 0.05
H_MAX_STEPPER = 1.0

METHODS = ("rmm", "rmm_parallel", "euler_uld", "exp_euler_uld", "lmc")


@dataclass(frozen=True)
class SamplerState:
    """Chain position, velocity and step counter."""

    x: np.ndarray
    v: np.ndarray
    step: int = 0


@dataclass(frozen=True)
class Schedule:
    """Resolved run parameters: step size h, iterations N, u = 1/L.

    R is the midpoint count and K the fixed-point depth (1 and 2 for the
    serial algorithm).  N, R and K are counts (`_is_count`).
    """

    h: float
    N: int
    u: float
    R: int = 1
    K: int = 2

    def __post_init__(self):
        if not (0.0 < self.h <= H_MAX_SCHEDULE + 1e-12):
            raise ScheduleError(f"schedule step size must be in (0, 1/20], got {self.h}")
        if not _is_count(self.N):
            raise ScheduleError(f"iteration count must be an integer >= 0, got {self.N!r}")
        if not (0.0 < self.u < math.inf):
            raise ScheduleError(f"u must be positive and finite, got {self.u}")
        _check_midpoints(self.R, self.K)

    @property
    def delta(self) -> float:
        return self.h / self.R


@dataclass
class RunResult:
    """Final state of a single chain plus audit information."""

    final: SamplerState
    grad_evals: int
    history: Optional[list] = None  # [(step, x, v)] when recording


@dataclass
class EnsembleResult:
    """Final (chains, d) positions/velocities and per-checkpoint moments."""

    x: np.ndarray
    v: np.ndarray
    grad_evals: int
    checkpoints: list = field(default_factory=list)  # [(step, mean, cov)]


def _check_run(h, n_steps=0, record_every=None):
    """The rule for h, n_steps and record_every (None or 0: never record)
    that every stepper, run and oracle applies."""
    if not (0.0 < h < H_MAX_STEPPER):
        raise ScheduleError(f"step size must be in (0, {H_MAX_STEPPER}), got {h}")
    if not _is_count(n_steps):
        raise ScheduleError(f"iteration count must be an integer >= 0, got {n_steps!r}")
    if record_every is not None and not _is_count(record_every):
        raise ConfigError(f"record_every must be an integer >= 0, got {record_every!r}")


def _check_midpoints(R, K):
    """The count rule for the midpoint count R >= 1 and fixed-point depth K >= 2."""
    if not _is_count(R) or R < 1:
        raise ScheduleError(f"midpoint count must be an integer >= 1, got {R!r}")
    if not _is_count(K) or K < 2:
        raise ScheduleError(f"fixed-point depth must be an integer >= 2, got {K!r}")


def _check_chains(chains):
    if not _is_count(chains) or chains < 1:
        raise ConfigError(f"chain count must be an integer >= 1, got {chains!r}")


def _check_step(h, state: SamplerState, target: TargetSpec, inc=None, w1_shape=None):
    """Increments inc, when given, must fit the state: W2 and W3 its shape,
    W1 w1_shape (None: W1 is not read)."""
    _check_run(h)
    if state.x.shape[-1] != target.dim or state.v.shape != state.x.shape:
        raise UlmcError(
            f"state dimension {state.x.shape} does not match target d={target.dim}"
        )
    if inc is not None and ({np.shape(inc.W2), np.shape(inc.W3)} != {state.x.shape}
                            or w1_shape is not None and np.shape(inc.W1) != w1_shape):
        raise UlmcError("increments were generated for a different R, d or chain count")


def rmm_step(
    state: SamplerState,
    target: TargetSpec,
    h: float,
    alpha,
    inc: StepIncrements,
) -> SamplerState:
    """One randomized-midpoint step of length h with midpoint fraction alpha.

    alpha is a scalar, or one fraction per chain for a (chains, d) state.
    inc must have been generated for the same (h, alpha), so its arrays
    have the state's shape.  Uses exactly two gradient evaluations: at x
    and at the midpoint estimate.
    """
    _check_step(h, state, target, inc, state.x.shape)
    alpha = _require_fractions(alpha)
    u = 1.0 / target.smoothness
    ah = alpha[..., None] * h if alpha.ndim else alpha * h
    decay_mid = np.exp(-2.0 * ah)
    tail = np.exp(-2.0 * (h - ah))
    w_mid = 0.5 * u * (ah - 0.5 * (1.0 - decay_mid))
    x_mid = _advance(state.x, state.v, decay_mid, w_mid, target.gradient(state.x), u, inc.W1)
    grad_mid = target.gradient(x_mid)
    return _flow(state, math.exp(-2.0 * h), u,
                 0.5 * u * h * (1.0 - tail), grad_mid, u * h * tail, grad_mid, inc)


def _advance(x, v, decay, weight, grad, u, noise):
    """Position after the exact flow over a span whose velocity decays by
    `decay`, with weight * grad estimating the gradient integral.  The kick
    is formed inside the sum, weight (scalar or per-chain column) first."""
    return x + 0.5 * (1.0 - decay) * v - weight * grad + math.sqrt(u) * noise


def _flow(state, decay, u, w_x, grad_x, w_v, grad_v, inc):
    """The exact step, decay = e^{-2h}, that rmm, rmm_parallel and
    exp_euler_uld share: only their gradient estimates differ."""
    x = _advance(state.x, state.v, decay, w_x, grad_x, u, inc.W2)
    v = state.v * decay - w_v * grad_v + 2.0 * math.sqrt(u) * inc.W3
    return SamplerState(x=x, v=v, step=state.step + 1)


def _resolve_start(target: TargetSpec, x0):
    if x0 is not None:
        return np.asarray(x0, dtype=float)
    if target.minimizer is None:
        raise ConfigError("target has no minimizer and no start point was given")
    return np.asarray(target.minimizer, dtype=float)


def _require_finite(state, method):
    if not (np.isfinite(state.x).all() and np.isfinite(state.v).all()):
        raise UlmcError(f"{method} chain state is not finite after step {state.step}")


# A slot of the draw ring holds as many whole steps' draws as fit in this
# many doubles, and at least one step's.
_SLOT_DOUBLES = 2**16


def _draw_plan(method, chains, dim, R):
    """One step's draws in stream order: the midpoint fractions' shape (None
    without midpoints), then the normal block's shape."""
    if method == "rmm":
        return (chains,), (3, chains, dim)
    if method == "rmm_parallel":
        return (chains, R), (3 * R, chains, dim)
    if method == "exp_euler_uld":
        return None, (2, chains, dim)
    return None, (chains, dim)


def _steps_per_slot(uniform_shape, normal_shape):
    per_step = (math.prod(uniform_shape) if uniform_shape else 0) + math.prod(normal_shape)
    return max(1, _SLOT_DOUBLES // per_step)


class _Slot:
    """The draws of up to `steps` consecutive steps, step by step."""

    def __init__(self, steps, uniform_shape, normal_shape):
        self.uniforms = None if uniform_shape is None else np.empty((steps, *uniform_shape))
        self.normals = np.empty((steps, *normal_shape))

    def fill(self, rng, count):
        """Draw the first `count` steps, in the order the Generator would."""
        for s in range(count):
            if self.uniforms is not None:
                rng.random(out=self.uniforms[s])  # bitwise uniform(size=...)
            rng.standard_normal(out=self.normals[s])


class _Normals:
    """Stands in for the Generator during one step: hands the step's normal
    block to the one request of its shape, or raises UlmcError."""

    def __init__(self, method, block):
        self.method, self.block = method, block

    def standard_normal(self, size):
        block, self.block = self.block, None
        if block is None or block.shape != size:
            raise UlmcError(f"{self.method} step asked for normals of shape {size} "
                            f"off its draw plan")
        return block

    def close(self):
        if self.block is not None:
            raise UlmcError(f"{self.method} step did not take the normals of its draw plan")


class _DrawAhead:
    """Iterates over a run's steps, yielding each step's `_draw_plan` draws:
    (midpoint fractions or None, normal block), as views into a slot.

    A second thread, the only user of rng while the run lasts, fills a ring
    of two slots (allocated once, here) with the draws of the coming steps,
    while the caller steps through the slot filled before.  A slot goes back
    to the thread once the caller asks for the step after its last, so the
    views may be overwritten but not kept past their step.  Use it as a
    context manager: leaving it stops and joins the thread.
    """

    def __init__(self, rng, method, n_steps, chains, dim, R):
        plan = _draw_plan(method, chains, dim, R)
        self.n_steps = n_steps
        self.per_slot = max(1, min(n_steps, _steps_per_slot(*plan)))
        self._rng = rng
        self._free, self._full = queue.Queue(), queue.Queue()
        for _ in range(min(2, math.ceil(n_steps / self.per_slot))):
            self._free.put(_Slot(self.per_slot, *plan))
        self._thread = threading.Thread(target=self._produce, name="ulmc-draws", daemon=True)

    def _produce(self):
        try:
            for start in range(0, self.n_steps, self.per_slot):
                slot = self._free.get()
                if slot is None:  # the run has ended early
                    return
                slot.fill(self._rng, min(self.per_slot, self.n_steps - start))
                self._full.put(slot)
        except BaseException as exc:  # raised again in the stepping thread
            self._full.put(exc)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._free.put(None)
        self._thread.join()

    def __iter__(self):
        for start in range(0, self.n_steps, self.per_slot):
            slot = self._full.get()
            if isinstance(slot, BaseException):
                raise slot
            for s in range(min(self.per_slot, self.n_steps - start)):
                yield None if slot.uniforms is None else slot.uniforms[s], slot.normals[s]
            self._free.put(slot)


def _fresh_steps(method, h, n_steps, seed, chains, dim, R):
    """`_drive`'s default source of each step's (midpoint fractions or None,
    increments): draws of the seed made one slot ahead (`_DrawAhead`), each
    normal block going whole to its builder or stepper (`_Normals`)."""
    cells = np.arange(R)
    with _DrawAhead(np.random.default_rng(seed), method, n_steps, chains, dim, R) as ahead:
        for fractions, normals in ahead:
            rng = _Normals(method, normals)
            if method == "rmm":
                yield fractions, step_increments_batch(h, fractions, dim, rng)
            elif method == "rmm_parallel":
                alphas = (cells + fractions) / R
                yield alphas, parallel_step_increments(h, R, alphas, dim, rng)
            elif method == "exp_euler_uld":
                yield None, exp_euler_increments_batch(h, chains, dim, rng)
            else:
                yield None, rng
            rng.close()


def _path_steps(alphas, inc):
    """Step j's (alphas[j] or None, row j of inc), inc from a path store."""
    for j in range(len(inc.W2)):
        yield (None if alphas is None else alphas[j],
               StepIncrements(*(None if w is None else w[j] for w in inc)))


def _drive(target, method, h, n_steps, seed, x, R, K, record_every, record, path=None):
    """The one step loop: n_steps of one method on a (chains, d) batch.

    Chains start at x with zero velocity.  Each step takes its midpoint
    fractions (or None) and increments from fresh draws of the seed
    (`_fresh_steps`), or from the rows of path = (alphas, increments) of a
    `BrownianPathStore` (`_path_steps`).  h, n_steps, R, K and the state's
    shape are checked before any draw.  After each step the state must be
    finite; every record_every steps record(step, x, v) is called.  Returns
    the final state and the audited gradient count.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    _check_run(h, n_steps, record_every)
    _check_midpoints(R, K)
    state = SamplerState(x=x, v=np.zeros_like(x), step=0)
    _check_step(h, state, target)
    counter = GradientCounter(target)
    counted = counter.wrapped()
    steps = _path_steps(*path) if path else _fresh_steps(method, h, n_steps, seed, *x.shape, R)
    with contextlib.closing(steps):  # closing stops the draw thread
        for n, (fractions, inc) in enumerate(steps):
            if method == "rmm":
                state = rmm_step(state, counted, h, fractions, inc)
            elif method == "rmm_parallel":
                state = parallel_rmm_step(state, counted, h, R, K, fractions, inc)
            elif method == "euler_uld":
                state = euler_uld_step(state, counted, h, inc)
            elif method == "exp_euler_uld":
                state = exponential_euler_uld_step(state, counted, h, inc)
            else:
                state = overdamped_lmc_step(state, counted, h, inc)
            _require_finite(state, method)
            if record_every and (n + 1) % record_every == 0:
                record(n + 1, state.x, state.v)
    return state, counter.count


def run_chain(
    target: TargetSpec,
    method: str,
    h: float,
    n_steps: int,
    seed,
    R: int = 1,
    K: int = 2,
    x0=None,
    record_every: Optional[int] = None,
) -> RunResult:
    """Drive one chain of any method for n_steps steps of size h.

    Methods: see METHODS.  Starts at the target minimizer (or x0) with zero
    velocity; an x0 of shape (chains, d) runs that batch of chains from one
    stream, and the result then holds (chains, d) arrays.  Randomness per
    step is drawn in a fixed order (midpoint fractions first, then
    Gaussians), so a run is reproducible from the seed alone.  grad_evals
    reports the audited oracle count.
    """
    x = _resolve_start(target, x0)
    history = [(0, x.copy(), np.zeros_like(x))] if record_every else None

    def record(step, xs, vs):
        history.append((step, xs.reshape(x.shape).copy(), vs.reshape(x.shape).copy()))

    state, grad_evals = _drive(
        target, method, h, n_steps, seed, np.atleast_2d(x), R, K, record_every, record
    )
    final = SamplerState(state.x.reshape(x.shape), state.v.reshape(x.shape), state.step)
    return RunResult(final=final, grad_evals=grad_evals, history=history)


def _check_schedule(sched: Schedule, target: TargetSpec, serial=True):
    """The steppers read u = 1/L from the target, so the schedule must agree;
    a serial run has one midpoint and no fixed-point sweep, R = 1 and K = 2."""
    u = 1.0 / target.smoothness
    if abs(sched.u - u) > 1e-12 * u:
        raise ConfigError(f"schedule u={sched.u!r} differs from 1/L={u!r} of the target")
    if serial and (sched.R, sched.K) != (1, 2):
        raise ConfigError(f"a serial rmm run takes R = 1 and K = 2, got R={sched.R}, "
                          f"K={sched.K}; parallel_rmm_run runs R midpoints")


def rmm_run(
    target: TargetSpec,
    sched: Schedule,
    seed,
    x0=None,
    record_every: Optional[int] = None,
) -> RunResult:
    """Run one randomized-midpoint chain under a resolved schedule."""
    _check_schedule(sched, target)
    return run_chain(target, "rmm", sched.h, sched.N, seed, x0=x0, record_every=record_every)


def rmm_run_ensemble(
    target: TargetSpec,
    sched: Schedule,
    chains: int,
    seed,
    x0=None,
    record_every: Optional[int] = None,
) -> EnsembleResult:
    """Propagate `chains` independent randomized-midpoint chains in lockstep.

    The same run as run_chain(target, "rmm", ...) from `chains` copies of
    the start: each step draws for the whole ensemble from one stream.
    Records empirical (x, v) moments, not states, every record_every steps
    when requested.
    """
    _check_schedule(sched, target)
    _check_chains(chains)
    result = EnsembleResult(x=None, v=None, grad_evals=0)

    def record(step, x, v):
        z = np.concatenate([x, v], axis=1)
        result.checkpoints.append((step, z.mean(axis=0), np.cov(z, rowvar=False)))

    x = np.tile(_resolve_start(target, x0), (chains, 1))
    state, result.grad_evals = _drive(
        target, "rmm", sched.h, sched.N, seed, x, 1, 2, record_every, record
    )
    result.x, result.v = state.x, state.v
    return result


def midpoint_coefficient(theta, a, b):
    """int_a^b (1 - e^{-2(theta - s)}) ds for a <= b <= theta, in closed form.

    b is clipped to theta; elementwise in its arguments.
    """
    b = np.minimum(b, theta)
    # built in place: a batched parallel step passes (chains, R, R) arrays
    closed, far = (np.asarray(-2.0 * (theta - c)) for c in (b, a))
    np.exp(closed, out=closed)
    closed -= np.exp(far, out=far)
    closed *= -0.5
    closed += np.subtract(b, a, out=far)
    closed[b <= a] = 0.0
    return closed


def parallel_rmm_step(
    state: SamplerState,
    target: TargetSpec,
    h: float,
    R: int,
    K: int,
    alphas,
    incs: StepIncrements,
) -> SamplerState:
    """One R-midpoint step: K-1 fixed-point sweeps, then the combined update.

    Each sweep evaluates the gradient at the R current midpoint estimates
    of every chain (one batched oracle call on a (chains * R, d) array, so
    the sweep parallelizes); the final update spends R more evaluations,
    R*K per chain in total.  alphas has shape (R,), or (chains, R) for a
    (chains, d) state, alpha_i in its cell [(i-1)/R, i/R], and incs.W1 one
    more axis of R.  R >= 1 and K >= 2 are counts (`_is_count`).  With
    R=1, K=2 this reproduces rmm_step exactly given the same draws.
    """
    _check_midpoints(R, K)
    _check_step(h, state, target, incs, state.x.shape[:-1] + (R, target.dim))
    x, v = state.x, state.v
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != x.shape[:-1] + (R,):
        raise UlmcError(f"expected {R} midpoint fractions, got {alphas.shape}")
    _require_cells(alphas, R)

    u = 1.0 / target.smoothness
    delta = h / R
    mids = alphas * h  # alpha_i * h, one per cell

    cell = np.arange(R) * delta
    coeff = midpoint_coefficient(mids[..., None], cell, cell + delta)
    coeff[..., ~np.tri(R, dtype=bool)] = 0.0

    def gradients(points):
        return target.gradient(points.reshape(-1, target.dim)).reshape(points.shape)

    base = (
        x[..., None, :]
        + 0.5 * (1.0 - np.exp(-2.0 * mids))[..., None] * v[..., None, :]
        + math.sqrt(u) * incs.W1
    )
    estimates = np.broadcast_to(x[..., None, :], base.shape)
    for _ in range(K - 1):
        estimates = base - 0.5 * u * (coeff @ gradients(estimates))

    grads = gradients(estimates)
    tail = np.exp(-2.0 * (h - mids))[..., None, :]
    return _flow(state, math.exp(-2.0 * h), u,
                 0.5 * u * delta, ((1.0 - tail) @ grads)[..., 0, :],
                 u * delta, (tail @ grads)[..., 0, :], incs)


def parallel_rmm_run(
    target: TargetSpec,
    sched: Schedule,
    seed,
    x0=None,
) -> RunResult:
    """Run one R-midpoint chain; alpha_i are drawn per cell, then increments."""
    _check_schedule(sched, target, serial=False)
    return run_chain(
        target, "rmm_parallel", sched.h, sched.N, seed, R=sched.R, K=sched.K, x0=x0
    )


def euler_uld_step(state: SamplerState, target: TargetSpec, h, rng) -> SamplerState:
    """Plain Euler step: x advances with the old velocity."""
    _check_step(h, state, target)
    u = 1.0 / target.smoothness
    zeta = rng.standard_normal(state.x.shape)
    v_new = (
        (1.0 - 2.0 * h) * state.v
        - u * h * target.gradient(state.x)
        + 2.0 * math.sqrt(u * h) * zeta
    )
    x_new = state.x + h * state.v
    return SamplerState(x=x_new, v=v_new, step=state.step + 1)


def exp_euler_coefficients(h):
    """(x, v) gradient weights of the frozen-gradient exponential step.

    Closed forms of int_0^h (1 - e^{-2(h-s)}) ds and int_0^h e^{-2(h-s)} ds.
    """
    w_x = h - 0.5 * (1.0 - math.exp(-2.0 * h))
    w_v = 0.5 * (1.0 - math.exp(-2.0 * h))
    return w_x, w_v


def exponential_euler_uld_step(
    state: SamplerState, target: TargetSpec, h, inc: StepIncrements
) -> SamplerState:
    """Exponential integrator holding the gradient at the step start.

    One gradient evaluation; the linear kernel is integrated exactly.  inc.W1
    is not read (None from exp_euler_increments).
    """
    _check_step(h, state, target, inc)
    u = 1.0 / target.smoothness
    w_x, w_v = exp_euler_coefficients(h)
    grad = target.gradient(state.x)
    return _flow(state, math.exp(-2.0 * h), u, 0.5 * u * w_x, grad, u * w_v, grad, inc)


def overdamped_lmc_step(state: SamplerState, target: TargetSpec, h, rng) -> SamplerState:
    """First-order Langevin step; the velocity field is carried unchanged."""
    _check_step(h, state, target)
    zeta = rng.standard_normal(state.x.shape)
    x_new = state.x - h * target.gradient(state.x) + math.sqrt(2.0 * h) * zeta
    return SamplerState(x=x_new, v=state.v, step=state.step + 1)


def schedule(epsilon, kappa, C=0.5, L=1.0) -> Schedule:
    """Step size and iteration count reaching normalized W2 error epsilon.

    h = C * min(eps^{1/3} kappa^{-1/6} log^{-1/6}(1/eps^2),
                eps^{2/3} log^{-1/3}(1/eps^2)),
    clipped to 1/20, and N = ceil((2 kappa / h) log(20 / eps^2)).
    """
    _check_schedule_inputs(epsilon, kappa, C, L)
    log_term = math.log(1.0 / epsilon**2)
    h = C * min(
        epsilon ** (1.0 / 3.0) * kappa ** (-1.0 / 6.0) * log_term ** (-1.0 / 6.0),
        epsilon ** (2.0 / 3.0) * log_term ** (-1.0 / 3.0),
    )
    h = min(h, H_MAX_SCHEDULE)
    N = math.ceil(2.0 * kappa / h * math.log(20.0 / epsilon**2))
    return Schedule(h=h, N=N, u=1.0 / L)


def schedule_parallel(epsilon, kappa, C=0.5, L=1.0, c_R=1.0, c_K=3.0) -> Schedule:
    """Constant-step parallel schedule: R midpoints absorb the accuracy.

    h = min(C, 1/20) (which also guarantees (R * h/R)^4 <= 1/4),
    R = max(1, ceil(c_R sqrt(kappa)/eps log(1/eps))),
    K = max(2, ceil(c_K log(1/delta^4))) with delta = h/R,
    N = ceil((2 kappa / h) log(20 / eps^2)).
    """
    _check_schedule_inputs(epsilon, kappa, C, L)
    if not (0.0 < c_R < math.inf and 0.0 < c_K < math.inf):
        raise ScheduleError("schedule constants must be finite and positive")
    h = min(C, H_MAX_SCHEDULE)
    R = max(1, math.ceil(c_R * math.sqrt(kappa) / epsilon * math.log(1.0 / epsilon)))
    delta = h / R
    K = max(2, math.ceil(c_K * math.log(1.0 / delta**4)))
    N = math.ceil(2.0 * kappa / h * math.log(20.0 / epsilon**2))
    return Schedule(h=h, N=N, u=1.0 / L, R=R, K=K)


def _check_schedule_inputs(epsilon, kappa, C, L):
    if not (0.0 < epsilon < 1.0):
        raise ScheduleError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (1.0 <= kappa < math.inf):
        raise ScheduleError(f"kappa must be finite and >= 1, got {kappa}")
    if not (0.0 < C < math.inf):
        raise ScheduleError(f"C must be finite and positive, got {C}")
    if not (0.0 < L < math.inf):
        raise ScheduleError(f"L must be finite and positive, got {L}")
