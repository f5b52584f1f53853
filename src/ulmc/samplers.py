"""Discretized underdamped Langevin chains.

Steppers:
  rmm_step                 randomized midpoint update (two gradients/step)
  parallel_rmm_step        R-midpoint fixed-point variant (R*K gradients)
  euler_uld_step           plain Euler discretization
  exponential_euler_uld_step  frozen-gradient exponential integrator
  overdamped_lmc_step      first-order Langevin baseline (no velocity)

The midpoint steppers and the exponential integrator share one exact
update, `_flow`; they differ only in their estimates of the gradient.  Each
of the three is a kernel that writes into the output arrays it is given:
the public stepper runs it into fresh arrays, a run into its own state.

All steppers are pure functions of (state, randomness) with friction 2 and
inverse mass u = 1/L, and take a state of one chain, shape (d,), or of a
batch of chains, shape (chains, d).  One loop, `_drive`, runs every method
on a (chains, d) batch, in fresh-draw runs and in the shared-path coupled
runs of `analysis` alike; `run_chain`, `rmm_run`, `parallel_rmm_run` and
`rmm_run_ensemble` wrap it.  The (epsilon, kappa) -> (h, N) rules live in
`schedule` and `schedule_parallel`.

A fresh-draw run's draws never depend on its state, so one generator,
`_fresh_steps`, owns them: a second thread fills its ring of two slots one
slot of steps ahead, in the fixed stream order of the seed, while the
calling thread steps the chains; outputs do not depend on this.  That draw
thread yields to a logistic gradient split over two threads (`targets`): it
draws in chunks and waits between them while such a split is in flight, so
the split has both cores of a two-core host.  A coupled run steps through
the rows of a `BrownianPathStore`.
"""

from __future__ import annotations

import contextlib
import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .brownian import (  # noqa: F401  (the adapters stay here for bench/tracing.py to patch)
    StepIncrements,
    _exp_tail,
    _require_cells,
    _require_fractions,
    exp_euler_increments,
    exp_euler_increments_batch,
    parallel_step_increments,
    step_increments,
    step_increments_batch,
)
from .errors import ConfigError, ScheduleError, UlmcError, _require_count
from .targets import GradientCounter, TargetSpec, _split_gradients

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
    "exp_euler_coefficients",
]

# The accuracy guarantees behind the step-size rules assume h <= 1/20;
# steppers stay well-defined for larger steps, which error-vs-h
# experiments use.
H_MAX_SCHEDULE = 0.05
H_MAX_STEPPER = 1.0

METHODS = ("rmm", "rmm_parallel", "euler_uld", "exp_euler_uld", "lmc")

# The methods whose runs step their state in place (`_drive`).
_IN_PLACE = ("rmm", "rmm_parallel", "exp_euler_uld")


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
    serial algorithm).  N, R and K are counts (`_require_count`).
    """

    h: float
    N: int
    u: float
    R: int = 1
    K: int = 2

    def __post_init__(self):
        if not (0.0 < self.h <= H_MAX_SCHEDULE + 1e-12):
            raise ScheduleError(f"schedule step size must be in (0, 1/20], got {self.h}")
        _require_count(self.N, "iteration count", 0, ScheduleError)
        if not (0.0 < self.u < math.inf):
            raise ScheduleError(f"u must be positive and finite, got {self.u}")
        _check_midpoints(self.R, self.K)


@dataclass
class RunResult:
    """Final state of a single chain plus audit information."""

    final: SamplerState
    grad_evals: int
    history: Optional[list] = None  # [(step, x, v)] when recording


@dataclass
class EnsembleResult:
    """Final (chains, d) positions/velocities and per-checkpoint moments:
    the (2d,) mean of the stacked (x, v) and its (2d, 2d) n - 1 sample
    covariance, summed over row blocks (`rmm_run_ensemble`)."""

    x: np.ndarray
    v: np.ndarray
    grad_evals: int
    checkpoints: list = field(default_factory=list)  # [(step, mean, cov)]


def _check_run(h, n_steps=0, record_every=None):
    """The rule for h, n_steps and record_every (None or 0: never record)
    that every stepper, run and oracle applies."""
    if not (0.0 < h < H_MAX_STEPPER):
        raise ScheduleError(f"step size must be in (0, {H_MAX_STEPPER}), got {h}")
    _require_count(n_steps, "iteration count", 0, ScheduleError)
    if record_every is not None:
        _require_count(record_every, "record_every", 0, ConfigError)


def _check_midpoints(R, K):
    """The count rule for the midpoint count R >= 1 and fixed-point depth K >= 2."""
    _require_count(R, "midpoint count", 1, ScheduleError)
    _require_count(K, "fixed-point depth", 2, ScheduleError)


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
    return _pure(_rmm, state, target, h, _require_fractions(alpha), inc)


def _pure(kernel, state, *args):
    """A public stepper's result: the kernel run into fresh arrays, so the
    state and increments are left as they were."""
    shape = state.x.shape
    out = SamplerState(x=np.empty(shape), v=np.empty(shape), step=state.step + 1)
    kernel(state, *args, out, (np.empty(shape), np.empty(shape)))
    return out


def _rmm(state, target, h, alpha, inc, out, work):
    """rmm_step's arithmetic on checked inputs, written into out, which may
    be state itself.  The midpoint estimate is built in work[1]; work[0]
    is `_flow`'s buffer, since the midpoint's gradient may be that estimate."""
    u = 1.0 / target.smoothness
    ah = alpha[..., None] * h if alpha.ndim else alpha * h
    decay_mid = np.exp(-2.0 * ah)
    tail = np.exp(-2.0 * (h - ah))
    w_mid = 0.5 * u * (ah - 0.5 * (1.0 - decay_mid))
    x_mid = _advance(state.x, state.v, decay_mid, w_mid, target.gradient(state.x), u, inc.W1,
                     work[1], work[0])
    grad_mid = target.gradient(x_mid)
    _flow(state, math.exp(-2.0 * h), u,
          0.5 * u * h * (1.0 - tail), grad_mid, u * h * tail, grad_mid, inc, out, work[0])


def _advance(x, v, decay, weight, grad, u, noise, out, work):
    """Position after the exact flow over a span whose velocity decays by
    `decay`, with weight * grad estimating the gradient integral, written
    into out (which may be x) and returned.  Each term is formed in work,
    weight (scalar or per-chain column) first, and summed in the order of
    x + 0.5 (1 - decay) v - weight grad + sqrt(u) noise, so the result is
    bitwise that expression's."""
    np.multiply(0.5 * (1.0 - decay), v, out=work)
    np.add(x, work, out=out)
    np.multiply(weight, grad, out=work)
    out -= work
    np.multiply(math.sqrt(u), noise, out=work)
    out += work
    return out


def _flow(state, decay, u, w_x, grad_x, w_v, grad_v, inc, out, work):
    """The exact step, decay = e^{-2h}, that rmm, rmm_parallel and
    exp_euler_uld share: only their gradient estimates differ.  Writes the
    new x, then the new v, into out, which may be state itself, through one
    buffer, work; bitwise equal to x' = `_advance` and
    v' = v decay - w_v grad_v + 2 sqrt(u) W3.  The gradients must not share
    memory with out.x."""
    _advance(state.x, state.v, decay, w_x, grad_x, u, inc.W2, out.x, work)
    v = np.multiply(state.v, decay, out=out.v)
    np.multiply(w_v, grad_v, out=work)
    v -= work
    np.multiply(2.0 * math.sqrt(u), inc.W3, out=work)
    v += work


def _resolve_start(target: TargetSpec, x0, chains=None):
    """The start rule: a run's finite (rows, d) start, from x0 or, when x0
    is None, the target's minimizer.  With `chains`, it must be one (d,)
    point, copied to `chains` rows; without, a (d,) point is one row and a
    (chains >= 1, d) batch its own rows.  UlmcError otherwise.  The start
    is a fresh array, which the run may then step in place."""
    if x0 is None:
        if target.minimizer is None:
            raise ConfigError("target has no minimizer and no start point was given")
        x0 = target.minimizer
    x = np.asarray(x0, dtype=float)
    batch = x.ndim == 2 and chains is None and len(x) >= 1
    if x.shape[-1:] != (target.dim,) or not (x.ndim == 1 or batch):
        want = "(d,)" if chains is not None else "(d,) or (chains >= 1, d)"
        raise UlmcError(f"start shape {x.shape} is not {want} for target d={target.dim}")
    if not np.isfinite(x).all():
        raise UlmcError("chain start is not finite")
    return np.tile(x, (chains, 1)) if chains is not None else np.array(x, ndmin=2)


def _require_finite(state, method, step):
    if not (np.isfinite(state.x).all() and np.isfinite(state.v).all()):
        raise UlmcError(f"{method} chain state is not finite after step {step}")


# A slot of the draw ring holds as many whole steps' draws as fit in this
# many doubles, and at least one step's.
_SLOT_DOUBLES = 2**16

# The draw thread draws a step's normals in chunks of this many doubles and
# waits out split gradients between chunks (`_fill`): a chunk takes
# about 0.14 ms on a 2-vCPU x86 host, under 3 % of a split bench gradient,
# and 64 KiB chunks draw no slower than whole blocks.
_CHUNK_DOUBLES = 2**13


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


def _fill(rng, uniforms, normals, count):
    """Draw the first `count` steps of a slot in the order the Generator
    would: per step, its fractions into uniforms (None without midpoints),
    then its normal block, in chunks of _CHUNK_DOUBLES and so bitwise as in
    one call.  Before each chunk the thread waits while a split gradient is
    in flight (`targets`)."""
    for s in range(count):
        if uniforms is not None:
            rng.random(out=uniforms[s])  # bitwise uniform(size=...)
        block = normals[s].reshape(-1)
        for start in range(0, block.size, _CHUNK_DOUBLES):
            _split_gradients.wait()
            rng.standard_normal(out=block[start:start + _CHUNK_DOUBLES])


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


def _fresh_steps(method, h, n_steps, seed, chains, dim, R):
    """`_drive`'s default source of each step's (midpoint fractions or None,
    increments), from the `_draw_plan` draws of the seed.

    A second thread, the only user of the seed's Generator while the run
    lasts, fills a ring of two slots, each as many whole steps as fit in
    _SLOT_DOUBLES doubles (at least one), with the coming steps' draws
    (`_fill`) while this generator steps through the slot filled before.  A
    slot goes back to the thread once the step after its last is asked for,
    so a yielded view must not be kept past its step.  Each normal block
    goes whole to its builder or stepper (`_Normals`).  Closing the
    generator stops and joins the thread; the thread's error is raised here.
    """
    uniform_shape, normal_shape = _draw_plan(method, chains, dim, R)
    per_step = (math.prod(uniform_shape) if uniform_shape else 0) + math.prod(normal_shape)
    per_slot = max(1, min(n_steps, _SLOT_DOUBLES // per_step))
    starts = range(0, n_steps, per_slot)
    free, full = queue.Queue(), queue.Queue()
    for _ in range(min(2, len(starts))):
        free.put((None if uniform_shape is None else np.empty((per_slot, *uniform_shape)),
                  np.empty((per_slot, *normal_shape))))
    draws = np.random.default_rng(seed)

    def produce():
        try:
            for start in starts:
                slot = free.get()
                if slot is None:  # the run has ended early
                    return
                _fill(draws, *slot, min(per_slot, n_steps - start))
                full.put(slot)
        except BaseException as exc:  # raised again in the stepping thread
            full.put(exc)

    thread = threading.Thread(target=produce, name="ulmc-draws", daemon=True)
    thread.start()
    cells = np.arange(R)
    try:
        for start in starts:
            slot = full.get()
            if isinstance(slot, BaseException):
                raise slot
            uniforms, normals = slot
            for s in range(min(per_slot, n_steps - start)):
                fractions = None if uniforms is None else uniforms[s]
                rng = _Normals(method, normals[s])
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
            free.put(slot)
    finally:
        free.put(None)
        thread.join()


def _path_steps(alphas, inc):
    """Step j's (alphas[j] or None, row j of inc), inc from a path store."""
    for j in range(len(inc.W2)):
        yield (None if alphas is None else alphas[j],
               StepIncrements(*(None if w is None else w[j] for w in inc)))


def _drive(target, method, h, n_steps, seed, x, R, K, record_every, record, path=None):
    """The one step loop: n_steps of one method on a (chains, d) batch.

    Chains start at x, rows that `_resolve_start` returned, with zero
    velocity.  Each step takes its midpoint fractions (or None) and
    increments from fresh draws of the seed (`_fresh_steps`), or from the
    rows of path = (alphas, increments) of a `BrownianPathStore`
    (`_path_steps`).  The method, h, n_steps, record_every, R and K are
    checked before any draw.  After each step the state must be finite;
    every record_every steps record(step, x, v) is called.  Returns the
    final state and the audited gradient count.

    The run owns its arrays: x, which it overwrites, a zero velocity and,
    for the `_IN_PLACE` methods, a workspace of two state-sized buffers;
    those methods step the state in place through the public steppers'
    kernels.  record therefore receives the run's live arrays and must copy
    what it keeps.  A run's peak memory is the draw ring, plus the state,
    plus the workspace, plus what a step's gradients allocate.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    _check_run(h, n_steps, record_every)
    _check_midpoints(R, K)
    state = SamplerState(x=x, v=np.zeros_like(x), step=0)
    work = (np.empty_like(x), np.empty_like(x)) if method in _IN_PLACE else None
    counter = GradientCounter(target)
    counted = counter.wrapped()
    steps = _path_steps(*path) if path else _fresh_steps(method, h, n_steps, seed, *x.shape, R)
    with contextlib.closing(steps):  # closing stops the draw thread
        for n, (fractions, inc) in enumerate(steps):
            if method == "rmm":
                _rmm(state, counted, h, fractions, inc, state, work)
            elif method == "rmm_parallel":
                _parallel_rmm(state, counted, h, R, K, fractions, inc, state, work)
            elif method == "exp_euler_uld":
                _exponential_euler_uld(state, counted, h, inc, state, work)
            elif method == "euler_uld":
                state = euler_uld_step(state, counted, h, inc)
            else:
                state = overdamped_lmc_step(state, counted, h, inc)
            _require_finite(state, method, n + 1)
            if record_every and (n + 1) % record_every == 0:
                record(n + 1, state.x, state.v)
    return SamplerState(x=state.x, v=state.v, step=n_steps), counter.count


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
    velocity; an x0 of shape (chains >= 1, d) runs that batch of chains from
    one stream, and the result then holds (chains, d) arrays
    (`_resolve_start`).  Randomness per step is drawn in a fixed order
    (midpoint fractions first, then Gaussians), so a run is reproducible
    from the seed alone.  grad_evals reports the audited oracle count.
    """
    x = _resolve_start(target, x0)
    shape = x.shape if np.ndim(x0) == 2 else x.shape[1:]
    history = [(0, x.reshape(shape).copy(), np.zeros(shape))] if record_every else None

    def record(step, xs, vs):
        history.append((step, xs.reshape(shape).copy(), vs.reshape(shape).copy()))

    state, grad_evals = _drive(target, method, h, n_steps, seed, x, R, K, record_every, record)
    final = SamplerState(state.x.reshape(shape), state.v.reshape(shape), state.step)
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


# A moment checkpoint centres the chains in blocks of at most this many
# rows, so it allocates no array with a row per chain.
_MOMENT_ROWS = 1024


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
    the (d,) start (`_resolve_start`): each step draws for the whole
    ensemble from one stream.  Records empirical (x, v) moments, not
    states, every record_every steps when requested, which takes two chains
    or more: the mean of the stacked (x, v) rows and their n - 1 sample
    covariance, the sum of b.T @ b over blocks b of at most `_MOMENT_ROWS`
    rows centred on that mean.  A checkpoint thus adds one such block to
    the run's memory, not a copy of the state.
    """
    _check_schedule(sched, target)
    _require_count(chains, "chain count", 1, ConfigError)
    if record_every and chains < 2:
        raise ConfigError(f"moment checkpoints need two chains or more, got {chains}")
    result = EnsembleResult(x=None, v=None, grad_evals=0)

    def record(step, x, v):
        n, d = x.shape
        block = np.empty((min(n, _MOMENT_ROWS) + 1, 2 * d))
        rows = [slice(lo, min(lo + _MOMENT_ROWS, n)) for lo in range(0, n, _MOMENT_ROWS)]
        # column sums row by row, in the order np.mean sums the stacked
        # (n, 2d) array (x.mean alone sums pairwise at d = 1): block[0]
        # carries the running sum, from -0.0, which adds exactly
        total = np.full(2 * d, -0.0)
        for r in rows:
            b = block[:r.stop - r.start + 1]
            b[0] = total
            b[1:, :d] = x[r]
            b[1:, d:] = v[r]
            total = np.add.reduce(b, axis=0)
        mean = total / n
        cov = np.zeros((2 * d, 2 * d))
        for r in rows:
            b = block[:r.stop - r.start]
            np.subtract(x[r], mean[:d], out=b[:, :d])
            np.subtract(v[r], mean[d:], out=b[:, d:])
            cov += b.T @ b
        cov /= n - 1
        result.checkpoints.append((step, mean, cov))

    x = _resolve_start(target, x0, chains)
    state, result.grad_evals = _drive(
        target, "rmm", sched.h, sched.N, seed, x, 1, 2, record_every, record
    )
    result.x, result.v = state.x, state.v
    return result


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
    more axis of R.  R >= 1 and K >= 2 are counts (`_check_midpoints`).  With
    R=1, K=2 this reproduces rmm_step exactly given the same draws.

    A sweep builds midpoint i's gradient integral from prefix sums over the
    cells before i plus its own cell's part, so a step holds O(chains R d)
    numbers, never the (R, R) coefficients: R = 4606 at (kappa, epsilon) =
    (100, 0.01) runs in a few MiB.
    """
    _check_midpoints(R, K)
    _check_step(h, state, target, incs, state.x.shape[:-1] + (R, target.dim))
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != state.x.shape[:-1] + (R,):
        raise UlmcError(f"expected {R} midpoint fractions, got {alphas.shape}")
    _require_cells(alphas, R)
    return _pure(_parallel_rmm, state, target, h, R, K, alphas, incs)


def _parallel_rmm(state, target, h, R, K, alphas, incs, out, work):
    """parallel_rmm_step's arithmetic on checked inputs: the sweeps allocate
    their arrays, and the final update is written into out, which may be
    state itself, through work[0]."""
    x, v = state.x, state.v
    u = 1.0 / target.smoothness
    delta = h / R
    mids = alphas * h  # alpha_i * h, one per cell
    # row i of C g: delta S_i - (1 - e^{-2 delta})/2 e^{-2 tau_i} T_i over the
    # cells j < i, then E_2(-2 r_i)/2 g_i over its own cell's r_i = tau_i - i delta
    lift = np.exp(2.0 * delta * np.arange(1, R + 1))[:, None]
    fall = (-0.5 * math.expm1(-2.0 * delta) * np.exp(-2.0 * mids))[..., None]
    own = 0.5 * _exp_tail(-2.0 * (mids - np.arange(R) * delta), 2)[..., None]

    def integral(g):
        """C g by exclusive prefix sums S of g_j and T of e^{2(j+1) delta} g_j."""
        sums = np.zeros((2, *g.shape))
        np.cumsum(g[..., :-1, :], axis=-2, out=sums[0, ..., 1:, :])
        np.cumsum((lift * g)[..., :-1, :], axis=-2, out=sums[1, ..., 1:, :])
        return delta * sums[0] - fall * sums[1] + own * g

    def gradients(points):
        return target.gradient(points.reshape(-1, target.dim)).reshape(points.shape)

    base = (
        x[..., None, :]
        + 0.5 * (1.0 - np.exp(-2.0 * mids))[..., None] * v[..., None, :]
        + math.sqrt(u) * incs.W1
    )
    estimates = np.broadcast_to(x[..., None, :], base.shape)
    for _ in range(K - 1):
        estimates = base - 0.5 * u * integral(gradients(estimates))

    grads = gradients(estimates)
    tail = np.exp(-2.0 * (h - mids))[..., None, :]
    _flow(state, math.exp(-2.0 * h), u,
          0.5 * u * delta, ((1.0 - tail) @ grads)[..., 0, :],
          u * delta, (tail @ grads)[..., 0, :], incs, out, work[0])


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
    w_v = 0.5 * (1.0 - math.exp(-2.0 * h))
    return h - w_v, w_v


def exponential_euler_uld_step(
    state: SamplerState, target: TargetSpec, h, inc: StepIncrements
) -> SamplerState:
    """Exponential integrator holding the gradient at the step start.

    One gradient evaluation; the linear kernel is integrated exactly.  inc.W1
    is not read (None from exp_euler_increments).
    """
    _check_step(h, state, target, inc)
    return _pure(_exponential_euler_uld, state, target, h, inc)


def _exponential_euler_uld(state, target, h, inc, out, work):
    """exponential_euler_uld_step's arithmetic on checked inputs, written
    into out, which may be state itself, through work[0]."""
    u = 1.0 / target.smoothness
    w_x, w_v = exp_euler_coefficients(h)
    grad = target.gradient(state.x)
    if np.may_share_memory(grad, out.x):  # a gradient may hand back its input
        grad = grad.copy()
    _flow(state, math.exp(-2.0 * h), u, 0.5 * u * w_x, grad, u * w_v, grad, inc, out, work[0])


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
    _check_schedule_inputs(epsilon, kappa, C=C, L=L)
    log_term = math.log(1.0 / epsilon**2)
    h = C * min(
        epsilon ** (1.0 / 3.0) * kappa ** (-1.0 / 6.0) * log_term ** (-1.0 / 6.0),
        epsilon ** (2.0 / 3.0) * log_term ** (-1.0 / 3.0),
    )
    h = min(h, H_MAX_SCHEDULE)
    N = math.ceil(2.0 * kappa / h * math.log(20.0 / epsilon**2))
    return Schedule(h=h, N=N, u=1.0 / L)


def schedule_parallel(epsilon, kappa, C=0.5, L=1.0, c_R=1.0) -> Schedule:
    """Constant-step parallel schedule: R midpoints absorb the accuracy.

    h = min(C, 1/20) (which also guarantees (R * h/R)^4 <= 1/4),
    R = max(1, ceil(c_R sqrt(kappa)/eps log(1/eps))),
    K = max(2, 1 + ceil(ln tol / ln rho(h))) with tol = max(delta^4, 2^-53),
    delta = h/R and rho(h) = (h - (1 - e^{-2h})/2)/2 = E_2(-2h)/4,
    N = ceil((2 kappa / h) log(20 / eps^2)).

    K - 1 fixed-point sweeps shrink the midpoint estimates' error below tol
    times its start.  A sweep maps the estimates e to base - u/2 C grad f(e),
    where C_ij = int (1 - e^{-2(tau_i - s)}) ds over cell j up to tau_i, for
    j <= i, is nonnegative and row i sums to tau_i - (1 - e^{-2 tau_i})/2 <=
    h - (1 - e^{-2h})/2.  With uL = 1 each sweep is therefore a
    rho(h)-contraction in the max-over-midpoints norm, rho(1/20) = 1.21e-3.
    The bound rests on the declared L: an understated L understates K.  rho
    is taken through `_exp_tail`, so it stays exact at small h.
    """
    _check_schedule_inputs(epsilon, kappa, C=C, L=L, c_R=c_R)
    h = min(C, H_MAX_SCHEDULE)
    R = max(1, math.ceil(c_R * math.sqrt(kappa) / epsilon * math.log(1.0 / epsilon)))
    tol = max((h / R) ** 4, 2.0**-53)
    K = max(2, 1 + math.ceil(math.log(tol) / math.log(_exp_tail(-2.0 * h, 2) / 4.0)))
    N = math.ceil(2.0 * kappa / h * math.log(20.0 / epsilon**2))
    return Schedule(h=h, N=N, u=1.0 / L, R=R, K=K)


def _check_schedule_inputs(epsilon, kappa, **constants):
    if not (0.0 < epsilon < 1.0):
        raise ScheduleError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (1.0 <= kappa < math.inf):
        raise ScheduleError(f"kappa must be finite and >= 1, got {kappa}")
    for name, value in constants.items():
        if not (0.0 < value < math.inf):
            raise ScheduleError(f"{name} must be finite and positive, got {value}")
