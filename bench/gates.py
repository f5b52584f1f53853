"""Correctness gates for the benchmark workloads.

Each gate returns a list of failure messages; an empty list means the
output passed.  The gates take plain values (arrays, counts, CSV text), so
the self-tests can feed them deliberately broken inputs without running a
workload.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from statistics import NormalDist

import numpy as np

_STD_NORMAL = NormalDist()

# Criterion 3's reference level: a single two-sided 3-sigma test.
P_3SIGMA = 2.0 * (1.0 - _STD_NORMAL.cdf(3.0))
# Any scheme driven by the exact shared Brownian path converges at least
# with strong order 1/2; the midpoint and frozen-gradient schemes have
# orders 1.5 and 1 on smooth targets.  A fitted order below 1/2 means the
# runs no longer share one path.
MIN_STRONG_ORDER = 0.5


def sidak_z(n_comparisons: int) -> float:
    """Per-entry |z| threshold holding the family false-alarm rate at the
    level of one 3-sigma test across n_comparisons entries (Sidak)."""
    per_entry = -math.expm1(math.log1p(-P_3SIGMA) / n_comparisons)
    return _STD_NORMAL.inv_cdf(1.0 - per_entry / 2.0)


def exceedance_cap(entries_per_checkpoint: int) -> int:
    """Smallest count c with P(Binomial(m, p3) >= c) <= p3, m entries.

    Checkpoints of one ensemble see the same chains a few steps apart, so
    an entry beyond 3 sigma at one checkpoint tends to stay there at the
    next.  A cap on the total count that assumed independent checkpoints
    would false-alarm far more often than one 3-sigma test; this cap holds
    the level of one 3-sigma test even if every checkpoint repeated the
    first, by bounding the mean count per checkpoint.
    """
    m, p = entries_per_checkpoint, P_3SIGMA
    count, pmf, tail = 0, (1.0 - p) ** m, 1.0  # pmf = P(X = count), tail = P(X >= count)
    while tail > p:
        tail -= pmf
        count += 1
        pmf *= (m - count + 1) / count * p / (1.0 - p)
    return count


def moment_z_scores(checkpoints, oracle, chains: int) -> np.ndarray:
    """|z| of every mean and upper-triangular covariance entry, all checkpoints.

    checkpoints: [(step, mean, cov)] from the sampler; oracle: {step: (mean,
    cov)} of the exact moment propagation.  Standard errors use the sampler's
    own covariance, as in acceptance criterion 3.
    """
    all_z = []
    for step, mean_e, cov_e in checkpoints:
        mean_o, cov_o = oracle[step]
        var = np.diag(cov_e)
        all_z.append(np.abs(mean_e - mean_o) / np.sqrt(var / chains))
        se_cov = np.sqrt((np.outer(var, var) + cov_e**2) / (chains - 1))
        iu = np.triu_indices(cov_e.shape[0])
        all_z.append((np.abs(cov_e - cov_o) / se_cov)[iu])
    return np.concatenate(all_z)


def moment_gate(checkpoints, oracle, chains: int, expected_checkpoints: int) -> list:
    """Acceptance criterion 3's gate, recomputed for this checkpoint count.

    The largest |z| must stay below the Sidak family threshold, and the
    number of entries beyond 3 sigma below exceedance_cap per checkpoint.
    """
    if len(checkpoints) != expected_checkpoints:
        return [f"expected {expected_checkpoints} checkpoints, got {len(checkpoints)}"]
    missing = [step for step, _, _ in checkpoints if step not in oracle]
    if missing:
        return [f"oracle has no moments at steps {missing}"]
    z = moment_z_scores(checkpoints, oracle, chains)
    failures = []
    if not np.all(np.isfinite(z)):
        return ["moment z-scores are not finite"]
    z_family = sidak_z(z.size)
    if np.max(z) > z_family:
        failures.append(
            f"max |z| {np.max(z):.2f} exceeds the Sidak family threshold "
            f"{z_family:.2f} over {z.size} entries"
        )
    cap = exceedance_cap(z.size // len(checkpoints)) * len(checkpoints)
    exceed = int(np.sum(z > 3.0))
    if exceed >= cap:
        failures.append(
            f"{exceed} of {z.size} entries beyond 3 sigma reaches the cap {cap}"
        )
    return failures


def grad_evals_gate(observed: int, expected: int, label: str) -> list:
    if observed != expected:
        return [f"{label}: audited gradient evaluations {observed}, expected {expected}"]
    return []


def finite_gate(label: str, *arrays) -> list:
    for arr in arrays:
        if not np.all(np.isfinite(np.asarray(arr, dtype=float))):
            return [f"{label}: output holds non-finite values"]
    return []


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_gate(observed: str, reference: str, label: str) -> list:
    if observed != reference:
        return [f"{label}: rerun with the same seed changed the output digest"]
    return []


def sample_csv_gate(text: str, chains: int, dim: int, expected_grad_evals: int,
                    label: str) -> list:
    """`ulmc sample` output: one finite row per chain, audited gradient count."""
    grad_evals = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("grad_evals="):
                    grad_evals = int(token.split("=", 1)[1])
        elif line:
            rows.append(line)
    if grad_evals is None:
        return [f"{label}: no grad_evals metadata line"]
    failures = grad_evals_gate(grad_evals, expected_grad_evals, label)
    table = list(csv.reader(io.StringIO("\n".join(rows))))
    if not table or table[0] != ["chain"] + [f"x{i}" for i in range(dim)]:
        return failures + [f"{label}: missing or malformed CSV header"]
    body = table[1:]
    if [row[0] for row in body] != [str(i) for i in range(chains)]:
        return failures + [f"{label}: expected one row per chain for {chains} chains"]
    if any(len(row) != dim + 1 for row in body):
        return failures + [f"{label}: a row does not hold {dim} coordinates"]
    values = np.array([[float(v) for v in row[1:]] for row in body])
    return failures + finite_gate(label, values)


def coupled_gate(rows, slopes: dict) -> list:
    """Sanity of a coupled strong-error result: finite positive errors and a
    fitted order of at least MIN_STRONG_ORDER for every method."""
    failures = []
    errors = [err for _, _, err in rows]
    if not all(math.isfinite(e) and e > 0.0 for e in errors):
        failures.append("coupled: mean errors must be finite and positive")
    for method, slope in sorted(slopes.items()):
        if not (math.isfinite(slope) and slope >= MIN_STRONG_ORDER):
            failures.append(
                f"coupled: fitted strong order of {method} is {slope}, "
                f"below {MIN_STRONG_ORDER}"
            )
    return failures


def logistic_gate(excess: float, dim: int) -> list:
    """Mean potential excess E f(x) - f(x*) of a mode-started ensemble.

    The chains must have left the mode (excess > 0) and stay within the
    log-concave bound E_pi f(X) - min f <= d (Fradelizi, Madiman & Wang,
    2016), which a chain started at the mode approaches from below.
    """
    if not math.isfinite(excess):
        return ["logistic: mean potential excess is not finite"]
    if not (0.0 < excess <= dim):
        return [f"logistic: mean potential excess {excess} outside (0, d={dim}]"]
    return []


CONVERGENCE_HEADER = ["epsilon", "h", "N", "w2", "w2_normalized", "ci_low", "ci_high"]


def convergence_csv_gate(text: str, eps: float, h: float, n_steps: int, diameter: float,
                         label: str) -> list:
    """`ulmc convergence` output for one epsilon: the row carries the
    schedule the library derives for it, and acceptance criterion 6 holds:
    the normalized W2 and the upper end of its bootstrap interval are at
    most epsilon."""
    table = list(csv.reader(line for line in text.splitlines()
                            if line and not line.startswith("#")))
    if not table or table[0] != CONVERGENCE_HEADER:
        return [f"{label}: missing or malformed CSV header"]
    if len(table) != 2 or len(table[1]) != len(CONVERGENCE_HEADER):
        return [f"{label}: expected one row of {len(CONVERGENCE_HEADER)} fields"]
    try:
        row = dict(zip(CONVERGENCE_HEADER, (float(v) for v in table[1])))
    except ValueError:
        return [f"{label}: a field is not a number"]
    if not all(math.isfinite(v) for v in row.values()):
        return [f"{label}: output holds non-finite values"]
    failures = []
    if (row["epsilon"], row["h"], row["N"]) != (eps, h, n_steps):
        failures.append(
            f"{label}: row has epsilon={row['epsilon']} h={row['h']} N={row['N']}, "
            f"the schedule gives epsilon={eps} h={h} N={n_steps}"
        )
    if not 0.0 <= row["ci_low"] <= row["ci_high"]:
        failures.append(f"{label}: bootstrap interval [{row['ci_low']}, {row['ci_high']}]")
    if not 0.0 <= row["w2_normalized"] <= eps:
        failures.append(f"{label}: normalized W2 {row['w2_normalized']} outside [0, {eps}]")
    if not row["ci_high"] / diameter <= eps:
        failures.append(
            f"{label}: normalized upper bound {row['ci_high'] / diameter} above {eps}"
        )
    return failures
