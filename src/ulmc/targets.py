"""Gradient-oracle targets: quadratics, ridge-regularized logistic regression,
and LIBSVM-style dataset ingestion.

Every target exposes (gradient, L, m, d): an L-Lipschitz gradient of an
m-strongly convex potential.  Gradients accept a point of shape (d,) or a
batch of shape (k, d) and return the same shape.  Evaluation is pure, so
targets are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DatasetFormatError, InvalidTargetError, UlmcError

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

    dim: dimension d.
    gradient: maps (d,) or (k, d) arrays to arrays of the same shape.
    smoothness: Lipschitz constant L of the gradient.
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
        if self.dim < 1:
            raise InvalidTargetError(f"dimension must be >= 1, got {self.dim}")
        if not (0.0 < self.strong_convexity <= self.smoothness):
            raise InvalidTargetError(
                f"need 0 < m <= L, got m={self.strong_convexity}, L={self.smoothness}"
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
    """Result of the logistic Hessian bound L = lambda + max eig(Gram)/4.

    converged is True by construction: the eigenvalue is computed exactly,
    not iterated.  logistic_target still refuses an estimate that says
    otherwise.
    """

    smoothness: float
    strong_convexity: float
    converged: bool


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

        return TargetSpec(
            dim=self._target.dim,
            gradient=counted,
            smoothness=self._target.smoothness,
            strong_convexity=self._target.strong_convexity,
            minimizer=self._target.minimizer,
            value=self._target.value,
        )


def quadratic_target(diag, center) -> TargetSpec:
    """Diagonal quadratic potential f(x) = sum_i diag_i (x_i - center_i)^2 / 2.

    The associated density is Gaussian with covariance diag^{-1}; the gradient
    is diag * (x - center), so L = max(diag) and m = min(diag).
    """
    diag = np.asarray(diag, dtype=float)
    center = np.asarray(center, dtype=float)
    if diag.ndim != 1 or diag.shape != center.shape:
        raise InvalidTargetError("diag and center must be 1-D arrays of equal length")
    if not np.all(diag > 0.0):
        raise InvalidTargetError("all diagonal entries must be positive")

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return diag * (x - center)

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


def _sigmoid(z):
    # branch-free and overflow-safe for |z| well beyond 1e3
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def logistic_target(data: Dataset, lam: float) -> TargetSpec:
    """Ridge-regularized logistic regression potential.

    f(theta) = lam/2 ||theta||^2 + (1/n) sum_i log(1 + exp(-y_i x_i^T theta)),
    gradient  lam*theta - (1/n) sum_i y_i x_i sigma(-y_i x_i^T theta).

    m = lam exactly; L from the Hessian bound (estimate_smoothness).  The
    minimizer is computed by gradient descent to ||grad|| <= 1e-8 so that
    samplers can start from it.  Raises UlmcError when the smoothness
    estimate or the descent reports itself unconverged, since a wrong L or
    minimizer silently skews the schedule and the start.
    """
    if lam <= 0.0:
        raise InvalidTargetError(f"regularization must be positive, got {lam}")
    x_rows = data.features
    y = data.labels
    n = data.n_samples
    d = data.dim
    yx = y[:, None] * x_rows  # (n, d)

    est = estimate_smoothness(data, lam)
    if not est.converged:
        raise UlmcError("the smoothness estimate did not converge")

    def gradient(theta):
        theta = np.asarray(theta, dtype=float)
        margins = theta @ x_rows.T * (y if theta.ndim == 1 else y[None, :])
        s = _sigmoid(-margins)  # (n,) or (k, n)
        return lam * theta - (s @ yx) / n

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
        converged=True,
    )


def _minimize_gradient_descent(gradient, dim, L, m, tol=1e-8, max_iter=200_000):
    """Minimize a strongly convex potential from 0 with the 2/(L+m) step."""
    x = np.zeros(dim)
    step = 2.0 / (L + m)
    for _ in range(max_iter):
        g = gradient(x)
        if np.linalg.norm(g) <= tol:
            return x
        x = x - step * g
    residual = np.linalg.norm(gradient(x))
    if residual > tol:
        raise UlmcError(
            f"gradient descent stopped at ||grad|| = {residual:.3g} > {tol} "
            f"after {max_iter} iterations"
        )
    return x


def load_libsvm(path, scale_features: bool = False) -> Dataset:
    """Parse a LIBSVM sparse text file into a dense Dataset.

    Lines are "label idx:val idx:val ..." with 1-based indices; d is the
    largest index seen.  Label alphabets {-1,+1}, {0,1} and {1,2} are
    accepted, mapping the smaller value to -1.  With scale_features, each
    column is affinely mapped to [-1, 1] (constant columns map to 0).
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
                row[idx - 1] = val
                max_index = max(max_index, idx)
            entries.append((label, row))

    if not entries:
        raise DatasetFormatError(f"{path}: no data lines")

    raw_labels = np.array([label for label, _ in entries])
    alphabet = sorted(set(raw_labels.tolist()))
    if len(alphabet) > 2:
        raise DatasetFormatError(
            f"{path}: more than two distinct labels: {alphabet}"
        )
    known = ({-1.0, 1.0}, {0.0, 1.0}, {1.0, 2.0})
    for pair in known:
        if set(alphabet) <= pair:
            lo, hi = sorted(pair)
            labels = np.where(raw_labels == lo, -1.0, 1.0)
            break
    else:
        raise DatasetFormatError(
            f"{path}: unrecognized label alphabet {alphabet}; "
            "expected subsets of {-1,+1}, {0,1} or {1,2}"
        )

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
