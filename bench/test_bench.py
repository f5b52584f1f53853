"""Self-tests of the benchmark: each correctness gate rejects a broken input,
and tracing restores the library it patched.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import tracing  # noqa: E402
import ulmc  # noqa: E402
import ulmc.cli  # noqa: E402
import ulmc.samplers  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS  # noqa: E402


def test_sidak_threshold_matches_criterion_3():
    n = 20 * (20 + 210)  # criterion 3: 20 checkpoints, d=10
    p3 = 2.0 * (1.0 - norm.cdf(3.0))
    expected = norm.ppf(1.0 - (1.0 - (1.0 - p3) ** (1.0 / n)) / 2.0)
    assert gates.sidak_z(n) == pytest.approx(expected, rel=1e-9)
    assert 4.9 < gates.sidak_z(n) < 5.1


def test_exceedance_cap_is_a_binomial_tail_at_the_3_sigma_level():
    from scipy.stats import binom

    for m in (14, 230, 4600):
        cap = gates.exceedance_cap(m)
        assert binom.sf(cap - 1, m, gates.P_3SIGMA) <= gates.P_3SIGMA
        assert binom.sf(cap - 2, m, gates.P_3SIGMA) > gates.P_3SIGMA
    assert gates.exceedance_cap(230) == 5


@pytest.fixture(scope="module")
def small_ensemble():
    target = ulmc.quadratic_target(np.array([1.0, 4.0]), np.zeros(2))
    sched = ulmc.Schedule(h=0.05, N=20, u=1.0 / target.smoothness)
    chains = 4000
    ens = ulmc.rmm_run_ensemble(target, sched, chains, seed=5, record_every=10)
    trace = ulmc.rmm_moment_oracle(target, 0.05, 20, record_every=10)
    oracle = {s: (m, c) for s, m, c in zip(trace.steps, trace.means, trace.covs)}
    return ens, oracle, chains


def test_moment_gate_accepts_sampler_output(small_ensemble):
    ens, oracle, chains = small_ensemble
    assert gates.moment_gate(ens.checkpoints, oracle, chains, 2) == []


def test_moment_gate_rejects_oracle_shifted_by_10_sigma(small_ensemble):
    ens, oracle, chains = small_ensemble
    step, mean_e, cov_e = ens.checkpoints[-1]
    mean_o, cov_o = oracle[step]
    shifted = dict(oracle)
    shift = np.zeros_like(mean_o)
    shift[0] = 10.0 * math.sqrt(cov_e[0, 0] / chains)
    shifted[step] = (mean_o + shift, cov_o)
    assert gates.moment_gate(ens.checkpoints, shifted, chains, 2)


def test_moment_gate_rejects_many_moderate_deviations(small_ensemble):
    ens, oracle, chains = small_ensemble
    inflated = {s: (m, 1.15 * c) for s, (m, c) in oracle.items()}
    failures = gates.moment_gate(ens.checkpoints, inflated, chains, 2)
    assert any("beyond 3 sigma" in f for f in failures)


def test_moment_gate_rejects_missing_checkpoints(small_ensemble):
    ens, oracle, chains = small_ensemble
    assert gates.moment_gate(ens.checkpoints[:1], oracle, chains, 2)


def test_grad_evals_gate_rejects_count_off_by_one():
    assert gates.grad_evals_gate(400, 400, "x") == []
    assert gates.grad_evals_gate(401, 400, "x")
    assert gates.grad_evals_gate(399, 400, "x")


def test_finite_gate_rejects_nan_and_inf():
    assert gates.finite_gate("x", np.ones(3)) == []
    assert gates.finite_gate("x", np.ones(3), np.array([1.0, np.nan]))
    assert gates.finite_gate("x", np.array([np.inf]))


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("csv") / "out.csv"
    argv = ["sample", "--quad-diag", "1,4", "--method", "rmm", "--h", "0.05",
            "--n-steps", "5", "--chains", "3", "--seed", "9", "--out", str(out)]
    assert ulmc.cli.main(argv) == 0
    return out.read_text()


def test_sample_csv_gate_accepts_cli_output(sample_csv):
    assert gates.sample_csv_gate(sample_csv, 3, 2, 2 * 3 * 5, "rmm") == []


def test_sample_csv_gate_rejects_broken_csv(sample_csv):
    assert gates.sample_csv_gate(sample_csv, 3, 2, 2 * 3 * 5 + 1, "rmm")
    lines = sample_csv.splitlines()
    assert gates.sample_csv_gate("\n".join(lines[:-1]), 3, 2, 30, "rmm")
    last = lines[-1].split(",")
    nan_row = ",".join(last[:1] + ["nan"] + last[2:])
    assert gates.sample_csv_gate("\n".join(lines[:-1] + [nan_row]), 3, 2, 30, "rmm")
    no_meta = "\n".join(line for line in lines if not line.startswith("#"))
    assert gates.sample_csv_gate(no_meta, 3, 2, 30, "rmm")


def test_digest_gate_rejects_differing_digests(sample_csv):
    a = gates.digest(sample_csv.encode())
    b = gates.digest((sample_csv + "\n").encode())
    assert gates.digest_gate(a, a, "rmm") == []
    assert gates.digest_gate(b, a, "rmm")


def test_chains_check_rejects_a_changed_rerun(tmp_path):
    wl = WORKLOADS["chains"]
    ctx = wl.build(ulmc, {"seed": 0, "out_dir": str(tmp_path)})
    ctx["digests"]["rmm"] = gates.digest(b"an earlier, different output")
    out = {"rmm": (0, b"")}
    assert wl.check(ctx, out)


@pytest.fixture(scope="module")
def convergence_run(tmp_path_factory):
    wl = WORKLOADS["convergence"]
    ctx = wl.build(ulmc, {"seed": 4, "out_dir": str(tmp_path_factory.mktemp("conv"))})
    code, data, grad_evals = wl.run(ctx)
    return wl, ctx, code, data.decode("utf-8"), grad_evals


def test_convergence_check_accepts_cli_output(convergence_run):
    wl, ctx, code, text, grad_evals = convergence_run
    assert code == 0
    assert ulmc.cli.quadratic_target is ulmc.targets.quadratic_target
    assert wl.check(ctx, (code, text.encode(), grad_evals)) == []
    assert wl.check(ctx, (code, text.encode(), grad_evals + 1))


def test_convergence_gate_rejects_broken_rows(convergence_run):
    wl, ctx, _, text, _ = convergence_run
    sched, diameter = ctx["sched"], ctx["diameter"]

    def gate(body, eps=wl.eps, n_steps=sched.N):
        return gates.convergence_csv_gate(body, eps, sched.h, n_steps, diameter, "c")

    assert gate(text) == []
    assert gate(text, n_steps=sched.N + 1)
    lines = text.splitlines()
    header, row = lines[-2], lines[-1].split(",")
    assert gate("\n".join(lines[:-1]))
    assert gate("\n".join(lines[:-2] + [header.replace("w2,", "w3,"), lines[-1]]))
    for field, value in (("w2_normalized", "0.75"), ("ci_high", "nan"),
                         ("ci_low", "1e9"), ("ci_high", repr(0.75 * diameter))):
        broken = list(row)
        broken[gates.CONVERGENCE_HEADER.index(field)] = value
        assert gate("\n".join(lines[:-1] + [",".join(broken)])), field
    assert gate(text, eps=0.01)


def test_convergence_check_rejects_a_changed_rerun(convergence_run):
    wl, ctx, code, text, grad_evals = convergence_run
    ctx = dict(ctx, digests={"convergence": gates.digest(b"an earlier, different output")})
    assert wl.check(ctx, (code, text.encode(), grad_evals))
    assert wl.check(ctx, (2, b"", 0))


def test_coupled_gate():
    rows = [(0.1, "rmm", 1e-3), (0.2, "rmm", 3e-3)]
    assert gates.coupled_gate(rows, {"rmm": 1.5}) == []
    assert gates.coupled_gate(rows, {"rmm": 0.1})
    assert gates.coupled_gate(rows, {"rmm": float("nan")})
    assert gates.coupled_gate(rows + [(0.4, "rmm", float("nan"))], {"rmm": 1.5})
    assert gates.coupled_gate(rows + [(0.4, "rmm", 0.0)], {"rmm": 1.5})


def test_logistic_gate():
    assert gates.logistic_gate(0.5, 50) == []
    assert gates.logistic_gate(0.0, 50)
    assert gates.logistic_gate(-1e-3, 50)
    assert gates.logistic_gate(51.0, 50)
    assert gates.logistic_gate(float("nan"), 50)


def test_self_time_subtracts_direct_children():
    spans = [
        ("outer", 0.0, 10.0, -1, 1),
        ("inner", 1.0, 4.0, 0, 1),
        ("leaf", 2.0, 3.0, 1, 1),
        ("inner", 5.0, 6.0, 0, 1),
        ("outer", 0.0, 99.0, -1, 2),  # another run
    ]
    selfs, inclusive = tracing.self_times(spans, 1)
    assert selfs == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert inclusive["inner"] == 4.0


def test_tracer_counts_and_restores_the_library():
    originals = {
        "batch": ulmc.samplers.step_increments_batch,
        "ensemble": ulmc.rmm_run_ensemble,
        "split": ulmc.brownian.split,
        "path": ulmc.brownian.BrownianPathStore.increments,
        "main": ulmc.cli.main,
    }
    target = ulmc.quadratic_target(np.array([1.0, 4.0]), np.zeros(2))
    sched = ulmc.Schedule(h=0.05, N=3, u=1.0 / target.smoothness)
    tracer = tracing.Tracer()
    tracer.run_id = 1
    tracer.install(ulmc)
    try:
        ulmc.rmm_run_ensemble(tracer.traced_target(target), sched, 7, seed=0)
    finally:
        tracer.uninstall()
    metrics, layers = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
    assert metrics["targets.gradient_calls"] == 6
    assert metrics["targets.gradient_points"] == 6 * 7
    assert metrics["brownian.increments_calls"] == 3
    assert metrics["brownian.normals_computed"] == 3 * 4 * 7 * 2
    assert metrics["samplers.chain_steps"] == 21
    assert set(layers) == set(tracing.LAYERS)
    assert ulmc.samplers.step_increments_batch is originals["batch"]
    assert ulmc.rmm_run_ensemble is originals["ensemble"]
    assert ulmc.brownian.split is originals["split"]
    assert ulmc.brownian.BrownianPathStore.increments is originals["path"]
    assert ulmc.cli.main is originals["main"]


def test_tracer_follows_the_cli_convergence_route(tmp_path):
    originals = (ulmc.analysis.rmm_run_ensemble, ulmc.cli.stationary_error_study)
    sched = ulmc.schedule(0.5, 2.0, L=2.0)
    out = tmp_path / "conv.csv"
    tracer = tracing.Tracer()
    tracer.run_id = 1
    tracer.install(ulmc)
    try:
        assert ulmc.cli.main(["convergence", "--quad-diag", "1,2", "--epsilon", "0.5",
                              "--chains", "20", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    metrics, layers = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
    assert metrics["samplers.chain_steps"] == 20 * sched.N
    assert metrics["targets.gradient_points"] >= 2 * 20 * sched.N
    assert metrics["cli.csv_bytes"] == out.stat().st_size
    assert metrics["analysis.stationary_self_s"] > 0.0
    assert all(layers[layer] > 0.0 for layer in tracing.LAYERS)
    assert (ulmc.analysis.rmm_run_ensemble, ulmc.cli.stationary_error_study) == originals


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in BENCHMARKED
    }
    metrics, _ = tracing.layer_metrics([], tracing.Tracer().counts, 0)
    computed = set(metrics) | {"targets.build_s", "setup.import_s", "trace.overhead_frac"}
    assert set(tracing.REPORTED) <= computed
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.REPORTED)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "chain_steps_per_s", "setup_s", "peak_rss_mb"
    }
