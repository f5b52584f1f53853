"""Gradient-oracle targets: quadratics, ridge-regularized logistic regression,
and LIBSVM-style dataset ingestion.

Every target exposes (gradient, L, m, d): an L-Lipschitz gradient of an
m-strongly convex potential.  Gradients accept a point of shape (d,) or a
batch of shape (k, d) and return the same shape.  Evaluation is pure, so
targets are safe to share across workers.
"""

from __future__ import annotations

import contextlib
import queue
import threading
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DatasetFormatError, InvalidTargetError, UlmcError, _require_count

__all__ = [
    "TargetSpec",
    "Dataset",
    "SmoothnessEstimate",
    "GradientCounter",
    "quadratic_target",
    "logistic_target",
    "estimate_smoothness",
    "load_libsvm",
]


@dataclass(frozen=True)
class TargetSpec:
    """A sampling target given by its gradient oracle and convexity constants.

    dim: dimension d, an integer >= 1 (`_require_count`).
    gradient: maps (d,) or (k, d) arrays to arrays of the same shape.
    smoothness: finite Lipschitz constant L of the gradient.
    strong_convexity: strong convexity constant m, 0 < m <= L.
    minimizer: optional minimizer of the potential.
    value: optional potential evaluation, for diagnostics only.
    """

    dim: int
    gradient: Callable[[np.ndarray], np.ndarray]
    smoothness: float
    strong_convexity: float
    minimizer: Optional[np.ndarray] = None
    value: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        _require_count(self.dim, "dimension", 1, InvalidTargetError)
        if not (0.0 < self.strong_convexity <= self.smoothness < np.inf):
            raise InvalidTargetError(
                f"need 0 < m <= L < inf, got m={self.strong_convexity}, L={self.smoothness}"
            )

    @property
    def kappa(self) -> float:
        return self.smoothness / self.strong_convexity


@dataclass(frozen=True)
class Dataset:
    """Binary classification data: feature rows and +-1 labels."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,), entries in {-1, +1}

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise DatasetFormatError("features must be a nonempty 2-D array")
        if y.shape != (x.shape[0],):
            raise DatasetFormatError("labels must have one entry per feature row")
        if not np.all(np.isfinite(x)):
            raise DatasetFormatError("features contain non-finite entries")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DatasetFormatError("labels must be -1 or +1")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Result of the logistic Hessian bound L = lambda + max eig(Gram)/4."""

    smoothness: float
    strong_convexity: float


class GradientCounter:
    """Wraps a target so gradient work can be audited.

    Each oracle invocation on a single point counts 1; an invocation on a
    batch of k points counts k.
    """

    def __init__(self, target: TargetSpec):
        self._target = target
        self.count = 0

    def wrapped(self) -> TargetSpec:
        def counted(x):
            x = np.asarray(x, dtype=float)
            self.count += 1 if x.ndim == 1 else x.shape[0]
            return self._target.gradient(x)

        return replace(self._target, gradient=counted)


def quadratic_target(diag, center) -> TargetSpec:
    """Diagonal quadratic potential f(x) = sum_i diag_i (x_i - center_i)^2 / 2.

    The associated density is Gaussian with covariance diag^{-1}; the gradient
    is diag * (x - center), so L = max(diag) and m = min(diag).
    """
    diag = np.asarray(diag, dtype=float)
    center = np.asarray(center, dtype=float)
    if diag.ndim != 1 or diag.size == 0 or diag.shape != center.shape:
        raise InvalidTargetError("diag and center must be non-empty 1-D arrays of equal length")
    if not np.all(diag > 0.0):
        raise InvalidTargetError("all diagonal entries must be positive")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(center))):
        raise InvalidTargetError("diag and center must be finite")

    def gradient(x):
        grad = np.asarray(x, dtype=float) - center  # bitwise diag * (x - center)
        grad *= diag
        return grad

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(np.sum(diag * (x - center) ** 2, axis=-1))

    return TargetSpec(
        dim=diag.size,
        gradient=gradient,
        smoothness=float(np.max(diag)),
        strong_convexity=float(np.min(diag)),
        minimizer=center.copy(),
        value=value,
    )


def logistic_target(data: Dataset, lam: float) -> TargetSpec:
    """Ridge-regularized logistic regression potential.

    f(theta) = lam/2 ||theta||^2 + (1/n) sum_i log(1 + exp(-y_i x_i^T theta)),
    gradient  lam*theta - (1/n) sum_i y_i x_i sigma(-y_i x_i^T theta),
    evaluated as lam*theta - (sum_i y_i x_i + sum_i tanh(-m_i/2) y_i x_i)/(2n)
    for margins m_i = y_i x_i^T theta, since sigma(-m) = (1 + tanh(-m/2))/2: two
    matrix products and one in-place tanh, overflow-safe for any margin.
    A batch large enough to pay for a thread (see _SPLIT_WORK) is cut into
    max(2, ceil(k / _BLOCK_ROWS)) row blocks whose sizes differ by at most
    one row, which the calling thread and one helper thread take from one
    shared queue until it is empty (_split_blocks); a row's value does not
    depend on which thread computed it.  While such a split is in flight a
    run's draw thread waits (_split_gradients).

    m = lam exactly; L from the Hessian bound (estimate_smoothness).  The
    minimizer is computed by gradient descent to ||grad|| <= 1e-8 so that
    samplers can start from it.  Raises UlmcError when the descent meets a
    non-finite gradient or stops unconverged, since a wrong minimizer
    silently skews the start.
    """
    if not (np.isfinite(lam) and lam > 0.0):
        raise InvalidTargetError(f"regularization must be finite and positive, got {lam}")
    x_rows = data.features
    y = data.labels
    n = data.n_samples
    d = data.dim
    yx = y[:, None] * x_rows  # (n, d)
    label_sum = yx.sum(axis=0)

    est = estimate_smoothness(data, lam)

    def gradient(theta):
        theta = np.asarray(theta, dtype=float)
        k = theta.shape[0] if theta.ndim == 2 else 0
        # -m/2 and the products, (d,) or (k, d); the margins are (n,) or
        # (k, n), or one (block, n) buffer per lane of a split, allocated
        # here so the helper allocates nothing
        scaled, s = -0.5 * theta, np.empty(theta.shape)
        if (k // 2) * n * d < _SPLIT_WORK:
            _margin_products(scaled, yx, np.empty((*theta.shape[:-1], n)), s)
        else:
            blocks = max(2, -(-k // _BLOCK_ROWS))
            _split_blocks(lambda rows, t: _margin_products(scaled[rows], yx, t, s[rows]),
                          k, blocks, np.empty((2, -(-k // blocks), n)))
        return lam * theta - (label_sum + s) / (2.0 * n)

    def value(theta):
        theta = np.asarray(theta, dtype=float)
        margins = y * (x_rows @ theta)
        return 0.5 * lam * float(theta @ theta) + float(
            np.mean(np.logaddexp(0.0, -margins))
        )

    minimizer = _minimize_gradient_descent(
        gradient, d, est.smoothness, est.strong_convexity
    )
    return TargetSpec(
        dim=d,
        gradient=gradient,
        smoothness=est.smoothness,
        strong_convexity=est.strong_convexity,
        minimizer=minimizer,
        value=value,
    )


# A batched logistic gradient splits its rows between the calling thread and
# one helper thread when each half holds at least this many multiply-adds
# (rows/2 * n * d): about one such product costs as much as starting and
# joining the helper.
_SPLIT_WORK = 2**20

# The most rows per block of a split batch, which is cut into at least two
# blocks of equal size, to a row.  At the bench's n = 1000, d = 50 under
# OpenBLAS 0.3.31, such blocks gave the bits of the unsplit batch for every
# k probed (45, 300, 600, 769-899, 1000, 1024), while 32-row blocks, or a
# short last block of 20 rows or fewer after 128-row ones, changed the last
# bits of their rows.
_BLOCK_ROWS = 128


def _margin_products(scaled, yx, t, s):
    """t = tanh(scaled @ yx.T) and s = t @ yx, written into t and s."""
    np.matmul(scaled, yx.T, out=t)
    np.tanh(t, out=t)
    np.matmul(t, yx, out=s)


class _InFlight:
    """A count of the calls in flight, and a wait until there are none.

    Calls in flight do not wait for each other.  wait() reads the count
    without the lock, so it costs one attribute read while nothing is in
    flight; a count it reads stale only lets one more piece of work start.
    """

    def __init__(self):
        self._count = 0
        self._idle = threading.Condition()

    @contextlib.contextmanager
    def held(self):
        with self._idle:
            self._count += 1
        try:
            yield
        finally:
            with self._idle:
                self._count -= 1
                if not self._count:
                    self._idle.notify_all()

    def wait(self):
        """Return once no call is in flight."""
        if self._count:
            with self._idle:
                self._idle.wait_for(lambda: not self._count)


# The split gradients in flight in this process.  A run's draw thread waits
# them out between chunks of draws, so on two cores a split has both.  It
# is one per process because the cores are.
_split_gradients = _InFlight()


def _split_blocks(work, k, count, buffers):
    """work(rows, t) for every block of [0, k) cut into `count` blocks whose
    sizes differ by at most one row.  The calling thread and one helper
    thread, whose products release the GIL, take blocks from one queue until
    it is empty, each passing t, the first len(rows) rows of its own
    buffers[lane], which holds the largest block.  A lane that starts late
    takes fewer blocks.  Once a block raises, neither lane takes another.
    The helper is always joined, and the first exception from either lane is
    raised here."""
    blocks = queue.SimpleQueue()
    for i in range(count):
        blocks.put(slice(k * i // count, k * (i + 1) // count))
    raised = []

    def lane(buffer):
        while not raised:
            try:
                rows = blocks.get_nowait()
            except queue.Empty:
                return
            try:
                work(rows, buffer[:rows.stop - rows.start])
            except BaseException as exc:
                raised.append(exc)

    with _split_gradients.held():
        helper = threading.Thread(target=lane, args=(buffers[1],), name="ulmc-gradient")
        helper.start()
        try:
            lane(buffers[0])
        finally:
            helper.join()
    if raised:
        raise raised[0]


def estimate_smoothness(data: Dataset, lam: float) -> SmoothnessEstimate:
    """Convexity constants for the regularized logistic potential.

    m = lam exactly.  L = lam + lambda_max(X^T X / n) / 4 since the logistic
    Hessian is bounded by the Gram matrix scaled by 1/4.  lambda_max comes
    from one dense symmetric eigensolve of the smaller of X^T X and X X^T,
    which share their nonzero eigenvalues: exact to rounding, where an
    iteration's Rayleigh quotient approaches it from below and so bounds L
    from the wrong side.
    """
    x = data.features
    gram = x.T @ x if data.dim <= data.n_samples else x @ x.T
    lam_max = float(np.linalg.eigvalsh(gram / data.n_samples)[-1])
    return SmoothnessEstimate(
        smoothness=lam + 0.25 * lam_max,
        strong_convexity=lam,
    )


def _minimize_gradient_descent(gradient, dim, L, m, tol=1e-8, max_iter=200_000):
    """Minimize a strongly convex potential from 0 with the 2/(L+m) step.

    Raises UlmcError at the first non-finite gradient and when max_iter
    iterations leave ||grad|| above tol.
    """
    x = np.zeros(dim)
    step = 2.0 / (L + m)
    for iteration in range(max_iter):
        g = gradient(x)
        norm = np.linalg.norm(g)
        if norm <= tol:
            return x
        if not np.isfinite(norm):
            raise UlmcError(
                f"gradient descent met a non-finite gradient at iteration {iteration}"
            )
        x = x - step * g
    residual = np.linalg.norm(gradient(x))
    if not residual <= tol:
        raise UlmcError(
            f"gradient descent stopped at ||grad|| = {residual:.3g} > {tol} "
            f"after {max_iter} iterations"
        )
    return x


def load_libsvm(path, scale_features: bool = False) -> Dataset:
    """Parse a LIBSVM sparse text file into a dense Dataset.

    Lines are "label idx:val idx:val ..." with 1-based indices, none
    repeated within a line; d is the largest index seen.  The labels must
    fit exactly one of the alphabets {-1,+1}, {0,1} and {1,2}, whose smaller
    value maps to -1; all-1 labels fit all three and raise
    DatasetFormatError.  With scale_features, each column is affinely mapped
    to [-1, 1] (constant columns map to 0).
    """
    entries = []  # (label, {col: val}) per line
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise DatasetFormatError(
                    f"{path}:{lineno}: bad label field {parts[0]!r}"
                ) from exc
            row = {}
            for token in parts[1:]:
                try:
                    idx_text, val_text = token.split(":", 1)
                    idx = int(idx_text)
                    val = float(val_text)
                except ValueError as exc:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: bad feature token {token!r}"
                    ) from exc
                if idx < 1:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: indices are 1-based, got {idx}"
                    )
                if idx - 1 in row:
                    raise DatasetFormatError(f"{path}:{lineno}: feature index {idx} repeats")
                row[idx - 1] = val
                max_index = max(max_index, idx)
            entries.append((label, row))

    if not entries:
        raise DatasetFormatError(f"{path}: no data lines")

    raw_labels = np.array([label for label, _ in entries])
    alphabet = sorted(set(raw_labels.tolist()))
    # all-1 labels fit every pair, and would be +1 or -1 by the pair's choice
    lows = [lo for lo, hi in ((-1.0, 1.0), (0.0, 1.0), (1.0, 2.0))
            if set(alphabet) <= {lo, hi}]
    if len(lows) != 1:
        raise DatasetFormatError(
            f"{path}: unrecognized label alphabet {alphabet}; "
            "expected a subset of exactly one of {-1,+1}, {0,1} or {1,2}"
        )
    labels = np.where(raw_labels == lows[0], -1.0, 1.0)

    features = np.zeros((len(entries), max_index))
    for i, (_, row) in enumerate(entries):
        for j, val in row.items():
            features[i, j] = val

    if scale_features:
        lo = features.min(axis=0)
        span = features.max(axis=0) - lo
        varying = span > 0.0
        safe_span = np.where(varying, span, 1.0)
        scaled = -1.0 + 2.0 * (features - lo) / safe_span
        features = np.where(varying, scaled, 0.0)

    return Dataset(features=features, labels=labels)
