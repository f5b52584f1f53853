"""Command-line behavior: determinism, formats, exit codes."""

import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ulmc
from ulmc.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


def write_dataset(path, n=40, d=3, seed=0):
    """A seeded LIBSVM file of n points in d features, not scaled to [-1, 1]."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)) * np.arange(1.0, d + 1.0)
    labels = np.where(features @ np.ones(d) + rng.normal(size=n) > 0, 1, -1)
    path.write_text("".join(
        f"{y:+d} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row)) + "\n"
        for y, row in zip(labels, features.tolist())))
    return path


class TestSampleCommand:
    def test_zero_steps_single_chain_writes_start(self, tmp_path):
        out = tmp_path / "samples.csv"
        code = run_cli(
            "sample", "--quad-diag", "1,2",
            "--quad-center", "0.5,-0.5", "--method", "rmm",
            "--h", "0.05", "--n-steps", "0", "--chains", "1",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")]
        assert data_rows[0] == "chain,x0,x1"
        assert data_rows[1] == "0,0.5,-0.5"

    @pytest.mark.parametrize("flags, message", [
        (("--quad-diag", "1,x"), "expected comma-separated numbers, got '1,x'"),
        (("--quad-diag", "1,2", "--quad-center", "0,0,0"), "lengths differ"),
    ], ids=["not a number", "lengths differ"])
    def test_bad_quadratic_is_config_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        assert run_cli("sample", *flags, "--h", "0.05", "--n-steps", "3",
                       "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = [
            "sample", "--quad-diag", "1,4", "--method", "rmm",
            "--h", "0.05", "--n-steps", "20", "--chains", "3", "--seed", "11",
        ]
        assert run_cli(*argv, "--out", str(out1)) == 0
        assert run_cli(*argv, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_epsilon_schedule_metadata(self, tmp_path):
        out = tmp_path / "samples.csv"
        eps, kappa = 0.5, 4.0
        code = run_cli(
            "sample", "--quad-diag", "1,4", "--method", "rmm",
            "--epsilon", str(eps), "--chains", "2", "--seed", "0",
            "--out", str(out),
        )
        assert code == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("# method")][0]
        n_expected = None
        for tok in header.split():
            if tok.startswith("n_steps="):
                n_expected = int(tok.split("=")[1])
            if tok.startswith("h="):
                h = float(tok.split("=")[1])
        assert n_expected == math.ceil((2 * kappa / h) * math.log(20 / eps**2))
        grad = int(header.split("grad_evals=")[1])
        assert grad == 2 * n_expected * 2  # two gradients per step, two chains

    def test_all_methods_run(self, tmp_path):
        for method in ("rmm", "rmm_parallel", "euler_uld", "exp_euler_uld", "lmc"):
            out = tmp_path / f"{method}.csv"
            code = run_cli(
                "sample", "--quad-diag", "1,2", "--method", method,
                "--h", "0.05", "--n-steps", "5", "--chains", "2",
                "--seed", "1", "--out", str(out),
            )
            assert code == 0, method

    def test_missing_steps_is_config_error(self, tmp_path):
        out = tmp_path / "samples.csv"
        for argv in (
            ("--h", "0.05"),
            ("--h", "0.05", "--n-steps", "2", "--method", "rmm_parallel", "--r-midpoints", "0"),
        ):
            assert run_cli("sample", "--quad-diag", "1", *argv, "--out", str(out)) == 2, argv
            assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (("--epsilon", "0.5", "--h", "0.01", "--n-steps", "3"), {}),
        (("--epsilon", "0.5", "--h", "0.01"), {}),
        (("--epsilon", "0.5", "--n-steps", "3"), {}),
        ((), {"epsilon": 0.5, "h": 0.01, "n-steps": 3}),
        (("--h", "0.01", "--n-steps", "3"), {"epsilon": 0.5}),
    ], ids=["flags", "epsilon and h", "epsilon and n-steps", "config", "config epsilon"])
    def test_epsilon_with_explicit_steps_is_config_error(self, flags, config, tmp_path,
                                                         capsys):
        cfg, out = tmp_path / "run.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps(config))
        assert run_cli("sample", "--config", str(cfg), "--quad-diag", "1,4", *flags,
                       "--chains", "2", "--out", str(out)) == 2
        assert "--epsilon alone" in capsys.readouterr().err
        assert not out.exists()

    def test_epsilon_schedules_the_parallel_method(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli("sample", "--quad-diag", "1,4", "--method", "rmm_parallel",
                       "--epsilon", "0.5", "--chains", "2", "--out", str(out)) == 0
        sched = ulmc.schedule_parallel(0.5, 4.0, L=4.0)
        assert (sched.h, sched.N, sched.R, sched.K) == (0.05, 702, 3, 4)
        lines = out.read_text().splitlines()
        config = json.loads(lines[1].removeprefix("# config "))
        assert (config["r_midpoints"], config["k_iters"]) == (sched.R, sched.K)
        assert f"h={sched.h!r} n_steps={sched.N} " in lines[2]
        assert lines[2].endswith(f" grad_evals={2 * sched.N * sched.R * sched.K}")

    @pytest.mark.parametrize("flags, config", [
        (("--k-iters", "3"), {}),
        (("--r-midpoints", "4"), {}),
        ((), {"k-iters": 3}),
    ], ids=["k-iters", "r-midpoints", "config k-iters"])
    @pytest.mark.parametrize("method", ["rmm_parallel", "rmm"])
    def test_epsilon_with_explicit_midpoints_is_config_error(self, method, flags, config,
                                                             tmp_path, capsys):
        cfg, out = tmp_path / "run.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps(config))
        assert run_cli("sample", "--config", str(cfg), "--quad-diag", "1,4", "--method",
                       method, "--epsilon", "0.5", *flags, "--out", str(out)) == 2
        assert "--epsilon sets R and K" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_file_is_runtime_error(self, tmp_path):
        code = run_cli(
            "sample", "--dataset", str(tmp_path / "nope.txt"),
            "--h", "0.05", "--n-steps", "1",
        )
        assert code == 3

    def test_logistic_dataset_flag_required(self):
        # --dataset alone selects the logistic target; there is no --target
        with pytest.raises(SystemExit) as exited:
            run_cli("sample", "--target", "logistic", "--h", "0.05", "--n-steps", "1")
        assert exited.value.code == 2

    def test_dataset_alone_samples_its_posterior(self, tmp_path):
        data, out = write_dataset(tmp_path / "d.txt"), tmp_path / "o.csv"
        assert run_cli("sample", "--dataset", str(data), "--h", "0.05", "--n-steps", "3",
                       "--chains", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        config = json.loads(lines[1].removeprefix("# config "))
        assert (config["lam"], config["scale_features"], config["quad_diag"]) == (0.01, False,
                                                                                  None)
        assert lines[2].endswith(" grad_evals=12")  # two gradients per step, two chains
        assert lines[3] == "chain,x0,x1,x2"
        assert len(lines) == 6


class TestScheduleCommand:
    def test_serial_json(self, capsys):
        assert run_cli("schedule", "--epsilon", "0.5", "--kappa", "1",
                       "--c-const", "1.0") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"h": 0.05, "N": 176}

    def test_parallel_json(self, capsys):
        assert run_cli("schedule", "--epsilon", "0.5", "--kappa", "1",
                       "--parallel") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["R"] == 2
        assert payload["K"] >= 2
        assert set(payload) == {"h", "N", "R", "K"}

    def test_parallel_json_takes_the_derived_depth(self, capsys):
        assert run_cli("schedule", "--epsilon", "0.1", "--kappa", "100", "--parallel") == 0
        assert capsys.readouterr().out == '{"K": 7, "N": 30404, "R": 231, "h": 0.05}\n'

    def test_sweep_constant_is_gone(self, tmp_path, capsys):
        flags = ("--epsilon", "0.1", "--kappa", "100", "--parallel")
        with pytest.raises(SystemExit) as exited:
            run_cli("schedule", *flags, "--c-k", "3")
        assert exited.value.code == 2
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"c_k": 3.0}))
        assert run_cli("schedule", "--config", str(cfg), *flags) == 2
        assert "c_k" in capsys.readouterr().err

    def test_invalid_epsilon_is_config_error(self, capsys):
        assert run_cli("schedule", "--epsilon", "1.5", "--kappa", "1") == 2

    @pytest.mark.parametrize("flags", [
        ("--kappa", "nan"), ("--kappa", "inf"), ("--kappa", "10", "--c-const", "nan"),
        ("--kappa", "10", "--parallel", "--c-r", "inf"),
    ])
    def test_nonfinite_inputs_are_config_errors(self, flags, capsys):
        assert run_cli("schedule", "--epsilon", "0.1", *flags) == 2
        assert "finite" in capsys.readouterr().err

    def test_epsilon_and_kappa_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "schedule.json"
        cfg.write_text(json.dumps({"epsilon": 0.1, "kappa": 10}))
        assert run_cli("schedule", "--config", str(cfg)) == 0
        from_config = json.loads(capsys.readouterr().out)
        assert run_cli("schedule", "--epsilon", "0.1", "--kappa", "10") == 0
        assert from_config == json.loads(capsys.readouterr().out)

    def test_missing_epsilon_or_kappa_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps({"epsilon": 0.1}))
        assert run_cli("schedule", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "--kappa" in err and "--epsilon" not in err
        assert run_cli("schedule") == 2
        err = capsys.readouterr().err
        assert "--epsilon and --kappa" in err


# A second value for every setting of the schedule rules; base values for
# the ones without a default.  --c-const acts in the parallel rule only below
# h = 1/20, hence 0.01.
SCHEDULE_BASE = {"epsilon": 0.1, "kappa": 100.0}
SCHEDULE_SECOND = {"epsilon": 0.2, "kappa": 50.0, "C": 0.01, "L": 2.0, "c_R": 2.0}
SCHEDULE_FLAG_SECOND = {"epsilon": "0.2", "kappa": "50", "c_const": "0.01", "c_r": "2"}


@pytest.mark.parametrize("rule", [ulmc.schedule, ulmc.schedule_parallel])
def test_every_schedule_keyword_changes_the_schedule(rule):
    base = rule(**SCHEDULE_BASE)
    for name in inspect.signature(rule).parameters:
        changed = rule(**{**SCHEDULE_BASE, name: SCHEDULE_SECOND[name]})
        assert changed != base, name


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_every_schedule_flag_changes_the_output(parallel, capsys):
    def output(**values):
        flags = [tok for dest, value in {**SCHEDULE_BASE, **values}.items()
                 for tok in (f"--{dest.replace('_', '-')}", str(value))]
        code = run_cli("schedule", *flags, *(["--parallel"] if parallel else []))
        return code, capsys.readouterr().out

    sub = build_parser()._subparsers._group_actions[0].choices["schedule"]
    dests = {a.dest for a in sub._actions if a.option_strings}
    dests -= {"help", "config", "out", "parallel"}
    assert dests == set(SCHEDULE_FLAG_SECOND)
    base = output()
    assert base[0] == 0
    for dest in sorted(dests):
        code, out = output(**{dest: SCHEDULE_FLAG_SECOND[dest]})
        if dest == "c_r" and not parallel:
            # the midpoint constant is a setting of the parallel rule only
            assert (code, out) == (2, ""), dest
        else:
            assert code == 0 and out != base[1], dest


# For each target-taking subcommand, a second value for every flag (None for
# a switch) and runs to try them in.  Runs whose flags make another flag idle
# show that it exits 2: --dataset makes the quadratic flags idle, its absence
# --lambda and --scale-features, explicit steps --c-const.  DATASET and OTHER
# stand for two dataset files.
TARGET_FLAG_SECOND = {"seed": "1", "quad_diag": "1,2", "quad_center": "1,-1",
                      "dataset": "OTHER", "lam": "0.5", "scale_features": None, "chains": "3"}
TARGET_RUNS = {
    "sample": ({"method": "lmc", "epsilon": "0.8", "h": "0.04", "n_steps": "4",
                "r_midpoints": "3", "k_iters": "3", "c_const": "0.04"}, [
        ("--quad-diag", "1,4", "--h", "0.05", "--n-steps", "3", "--chains", "2"),
        ("--quad-diag", "1,4", "--h", "0.05", "--n-steps", "3", "--chains", "2",
         "--method", "rmm_parallel"),
        ("--quad-diag", "1,1.5", "--epsilon", "0.9", "--chains", "2"),
        ("--dataset", "DATASET", "--h", "0.05", "--n-steps", "3", "--chains", "2"),
    ]),
    "coupled-error": ({"h": "0.05,0.2", "total_time": "0.8", "refinement": "64"}, [
        ("--quad-diag", "1,4", "--h", "0.1,0.2", "--total-time", "0.4", "--chains", "2",
         "--refinement", "32"),
        ("--dataset", "DATASET", "--h", "0.1,0.2", "--total-time", "0.4", "--chains", "2",
         "--refinement", "32"),
    ]),
    "convergence": ({"epsilon": "0.95", "c_const": "0.04"}, [
        ("--quad-diag", "1,1.5", "--epsilon", "0.9", "--chains", "50"),
    ]),
}


@pytest.mark.parametrize("command", sorted(TARGET_RUNS))
def test_every_target_flag_changes_the_rows_or_exits_2(command, tmp_path, capsys):
    files = {"DATASET": str(write_dataset(tmp_path / "d.txt")),
             "OTHER": str(write_dataset(tmp_path / "e.txt", seed=1))}
    out = tmp_path / "o.csv"

    def rows(argv):
        argv = [files.get(tok, tok) for tok in argv]
        code = run_cli(command, *argv, "--out", str(out))
        capsys.readouterr()
        if code != 0:
            assert code == 2 and not out.exists(), (argv, code)
            return None
        text = out.read_text()
        out.unlink()
        return [line for line in text.splitlines() if not line.startswith("#")]

    sub = build_parser()._subparsers._group_actions[0].choices[command]
    actions = {a.dest: a for a in sub._actions if a.option_strings}
    for dest in ("help", "config", "out"):
        del actions[dest]
    seconds, runs = TARGET_RUNS[command]
    seconds = {**TARGET_FLAG_SECOND, **seconds}
    idle = set()
    for run, base in enumerate(runs):
        base_rows = rows(base)
        assert base_rows is not None, base
        for dest, action in sorted(actions.items()):
            flag, value = action.option_strings[-1], seconds[dest]
            argv = list(base)
            if flag in argv:
                del argv[argv.index(flag):argv.index(flag) + 2]
            argv += [flag] if value is None else [flag, value]
            if rows(argv) == base_rows:
                idle.add((run, dest))
    # The one known exception: run_chain takes R and K for every method but
    # only rmm_parallel reads them (the bench's chains workload passes them to
    # all five methods), so they are idle in serial runs with explicit steps.
    serial = [run for run, base in enumerate(runs)
              if command == "sample" and not {"rmm_parallel", "--epsilon"} & set(base)]
    assert idle == {(run, dest) for run in serial for dest in ("r_midpoints", "k_iters")}


@pytest.mark.parametrize("argv, config", [
    (("sample", "--dataset", "MISSING", "--quad-diag", "1,4", "--h", "0.05", "--n-steps", "3"),
     {}),
    (("sample", "--dataset", "MISSING", "--h", "0.05", "--n-steps", "3"), {"quad-center": "1"}),
    (("coupled-error", "--dataset", "MISSING", "--quad-center", "1"), {}),
    (("sample", "--h", "0.05", "--n-steps", "3"), {"lambda": 0.1}),
    (("sample", "--h", "0.05", "--n-steps", "3"), {"scale-features": False}),
    (("coupled-error", "--lambda", "0.1"), {}),
    (("sample", "--scale-features", "--h", "0.05", "--n-steps", "3"), {}),
    (("sample", "--quad-diag", "1,4", "--h", "0.05", "--n-steps", "3", "--c-const", "0.3"), {}),
    (("sample", "--quad-diag", "1,4", "--h", "0.05", "--n-steps", "3"), {"c-const": 0.5}),
    (("schedule", "--epsilon", "0.1", "--kappa", "100", "--c-r", "5"), {}),
    (("schedule", "--epsilon", "0.1", "--kappa", "100"), {"c_r": 1.0}),
], ids=["quad-diag", "config quad-center", "coupled quad-center", "config lambda",
        "config scale-features", "coupled lambda", "scale-features", "c-const",
        "config c-const", "c-r", "config c-r"])
def test_flag_a_run_would_ignore_exits_2_before_any_work(argv, config, tmp_path, capsys,
                                                         monkeypatch):
    def no_draws(*args):
        raise AssertionError("the draw thread was set up")

    monkeypatch.setattr(ulmc.samplers, "_fresh_steps", no_draws)
    cfg, out = tmp_path / "run.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(config))
    argv = [str(tmp_path / "missing.txt") if tok == "MISSING" else tok for tok in argv]
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
    assert "would be ignored" in capsys.readouterr().err  # not the missing file's exit 3
    assert not out.exists()


class TestConvergenceCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run_cli(
            "convergence", "--quad-diag", "1,2,4", "--epsilon", "0.5",
            "--chains", "150", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "epsilon,h,N,w2,w2_normalized,ci_low,ci_high"
        values = lines[1].split(",")
        assert float(values[0]) == 0.5
        assert float(values[4]) <= 0.5

    def test_requires_quadratic(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("+1 1:1\n-1 1:-1\n")
        for flags in (("--dataset", str(data)), ("--lambda", "0.1"), ("--scale-features",)):
            with pytest.raises(SystemExit) as exited:
                run_cli("convergence", *flags, "--epsilon", "0.5")
            assert exited.value.code == 2, flags

    def test_empty_grid_is_config_error(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert run_cli("convergence", "--epsilon", ",", "--out", str(out)) == 2
        assert not out.exists()


class TestCoupledErrorCommand:
    def test_csv_and_slope_footer(self, tmp_path):
        out = tmp_path / "coupled.csv"
        code = run_cli(
            "coupled-error", "--quad-diag", "1,3", "--h", "0.1,0.2",
            "--total-time", "2", "--chains", "2", "--seed", "5",
            "--out", str(out),
        )
        assert code == 0
        text = out.read_text().splitlines()
        data_rows = [l for l in text if not l.startswith("#")]
        assert data_rows[0] == "h,method,mean_error"
        assert len(data_rows) == 1 + 4  # two h values, two methods
        slopes = [l for l in text if l.startswith("# slope")]
        assert len(slopes) == 2

    def test_incommensurate_grid_is_config_error(self, tmp_path):
        # step sizes that do not divide T, grids with no valid step size, a
        # repeated step size and one the steppers reject
        out = tmp_path / "coupled.csv"
        for h, total_time in (("0.3", "1"), (",", "1"), ("0", "1"), ("nan", "1"),
                              ("-0.1", "1"), ("0.1", "0"), ("0.1,0.1", "1"), ("1.5", "3")):
            assert run_cli(
                "coupled-error", "--quad-diag", "1", "--h", h,
                "--total-time", total_time, "--chains", "1", "--out", str(out),
            ) == 2, (h, total_time)
            assert not out.exists()


class TestConfigFile:
    def test_config_file_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "quad-diag": "1,4", "method": "rmm", "h": 0.05,
            "n-steps": 10, "chains": 2, "seed": 9,
        }))
        out1 = tmp_path / "one.csv"
        assert run_cli("sample", "--config", str(cfg), "--out", str(out1)) == 0
        rows1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        assert len(rows1) == 3  # header + two chains

        out2 = tmp_path / "two.csv"
        assert run_cli("sample", "--config", str(cfg), "--chains", "4",
                       "--out", str(out2)) == 0
        rows2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
        assert len(rows2) == 5

    def test_unreadable_config_is_config_error(self, tmp_path):
        assert run_cli("sample", "--config", str(tmp_path / "missing.json")) == 2

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1,2,3]")
        assert run_cli("sample", "--config", str(cfg)) == 2

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"sed": 5, "quad-diag": "1,2", "h": 0.05, "n-steps": 3}))
        assert run_cli("sample", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "sed" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("values, code, flag", [
        ({"h": 0.05, "n_steps": 3.5}, 2, "--n-steps"),
        ({"h": 0.05, "n_steps": 3, "chains": 2.5}, 2, "--chains"),
        ({"h": [0.05], "n_steps": 3}, 2, "--h"),
        ({"h": 0.05, "n_steps": 3, "seed": 1.5}, 2, "--seed"),
        ({"h": 0.05, "n_steps": 3, "chains": True}, 2, "--chains"),
        ({"h": 0.05, "n_steps": 3, "method": "leapfrog"}, 2, "--method"),
        ({"h": 0.05, "n_steps": 3, "scale-features": 1}, 2, "--scale-features"),
        ({"h": "0.05", "n_steps": "3"}, 0, None),
    ])
    def test_values_pass_the_flags_checks(self, values, code, flag, tmp_path, capsys):
        cfg, out = tmp_path / "run.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps(values))
        assert run_cli("sample", "--config", str(cfg), "--quad-diag", "1,4",
                       "--out", str(out)) == code
        if code:
            err = capsys.readouterr().err
            assert "configuration error" in err and flag in err
            assert not out.exists()
        else:
            assert "h=0.05 n_steps=3 " in out.read_text()

    @pytest.mark.parametrize("keys, argv", [
        ({"dataset": "/nonexistent.svm", "lambda": 0.5},
         ("convergence", "--quad-diag", "1,2", "--epsilon", "0.9", "--chains", "50")),
        ({"seed": 7, "c-const": 0.25}, ("schedule", "--epsilon", "0.1", "--kappa", "10")),
    ], ids=["dataset under convergence", "seed under schedule"])
    def test_key_of_another_subcommand_exits_2_before_any_work(self, keys, argv, tmp_path,
                                                               capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("the draw thread was set up")

        monkeypatch.setattr(ulmc.samplers, "_fresh_steps", no_draws)
        cfg, out = tmp_path / "shared.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps(keys))
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"keys that {argv[0]} does not take" in err
        assert all(key in err for key in keys if key != "c-const")
        assert not out.exists()


    @pytest.mark.parametrize("key, value", [("config", "OTHER"), ("help", True)])
    def test_config_and_help_keys_exit_2_before_any_work(self, key, value, tmp_path, capsys,
                                                         monkeypatch):
        def no_draws(*args):
            raise AssertionError("the draw thread was set up")

        monkeypatch.setattr(ulmc.samplers, "_fresh_steps", no_draws)
        cfg, other, out = tmp_path / "run.json", tmp_path / "other.json", tmp_path / "o.csv"
        other.write_text(json.dumps({"seed": 1}))
        values = {"h": 0.05, "n-steps": 3, "quad-diag": "1"}
        cfg.write_text(json.dumps({**values, key: str(other) if value == "OTHER" else value}))
        opened = []
        real_open = open

        def recording_open(path, *args, **kwargs):
            opened.append(Path(path).resolve())
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        assert run_cli("sample", "--config", str(cfg), "--out", str(out)) == 2
        assert f"keys that sample does not take: {key}" in capsys.readouterr().err
        assert opened == [cfg.resolve()]  # the file the key names is never read
        assert not out.exists()


class TestSampleDriver:
    def test_rows_equal_the_library_ensemble(self, tmp_path):
        out = tmp_path / "samples.csv"
        assert run_cli(
            "sample", "--quad-diag", "1,4", "--method", "rmm", "--h", "0.05",
            "--n-steps", "30", "--chains", "5", "--seed", "4", "--out", str(out),
        ) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        xs = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        target = ulmc.quadratic_target(np.array([1.0, 4.0]), np.zeros(2))
        sched = ulmc.Schedule(h=0.05, N=30, u=1.0 / target.smoothness)
        np.testing.assert_array_equal(xs, ulmc.rmm_run_ensemble(target, sched, 5, 4).x)

    @pytest.mark.parametrize("method", ulmc.samplers.METHODS)
    def test_run_leaves_the_start_it_is_given(self, method, tmp_path, monkeypatch):
        starts = []

        def spy(*args, x0, **kwargs):
            starts.append((x0, x0.copy()))
            return run_chain(*args, x0=x0, **kwargs)

        run_chain = ulmc.cli.run_chain
        monkeypatch.setattr(ulmc.cli, "run_chain", spy)
        assert run_cli("sample", "--quad-diag", "1,4", "--method", method, "--h", "0.05",
                       "--n-steps", "6", "--chains", "3",
                       "--out", str(tmp_path / "samples.csv")) == 0
        ((x0, given),) = starts
        np.testing.assert_array_equal(x0, given)
        np.testing.assert_array_equal(given, np.zeros((3, 2)))

    def test_traced_peak_of_an_ensemble_sample(self, tmp_path):
        # the CLI's start is a read-only view, so the run's own start is the
        # only state-sized one and the peak is the run's (under 13
        # state-sized arrays, see test_samplers); traced after a warm-up run
        chains, d = 5000, 10
        diag = ",".join(map(repr, np.geomspace(1.0, 100.0, d).tolist()))
        argv = ["sample", "--quad-diag", diag, "--method", "rmm", "--h", "0.05",
                "--n-steps", "20", "--chains", str(chains),
                "--out", str(tmp_path / "samples.csv")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * chains * d * 8

    @pytest.mark.parametrize("h", ["0", "-1", "inf", "nan"])
    def test_bad_step_size_is_config_error_before_any_draw(self, h, tmp_path, capsys,
                                                           monkeypatch):
        def no_draws(*args):
            raise AssertionError("the draw thread was set up")

        monkeypatch.setattr(ulmc.samplers, "_fresh_steps", no_draws)
        threads = threading.active_count()
        out = tmp_path / "samples.csv"
        assert run_cli("sample", "--quad-diag", "1,4", "--h", h, "--n-steps", "3",
                       "--chains", "2", "--out", str(out)) == 2
        assert "step size" in capsys.readouterr().err
        assert threading.active_count() == threads
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergent_run_exits_3(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = run_cli(
            "sample", "--quad-diag", "1,40", "--method", "lmc", "--h", "0.9",
            "--n-steps", "400", "--chains", "2", "--out", str(out),
        )
        assert code == 3
        assert "lmc" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("chains", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--quad-diag", "1,4", "--h", "0.05", "--n-steps", "3"),
        ("convergence", "--quad-diag", "1,2", "--epsilon", "0.5"),
        ("coupled-error", "--quad-diag", "1", "--h", "0.1,0.2", "--total-time", "0.4"),
    ],
    ids=["sample", "convergence", "coupled-error"],
)
def test_chain_count_below_one_is_config_error(argv, chains, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--chains", chains, "--out", str(out)) == 2
    assert "chain count" in capsys.readouterr().err
    assert not out.exists()


def loaded_after_import(names):
    """The modules of the given top-level packages that a fresh
    `import ulmc, ulmc.cli` loads."""
    src = str(Path(ulmc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, ulmc, ulmc.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {set(names)!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the package must not import it
    assert loaded_after_import(["scipy"]) == "[]"


def test_import_loads_no_thread_pool_or_logging():
    # importing concurrent.futures costs milliseconds and pulls in logging;
    # the gradient's helper and the draw thread are plain threading.Thread
    assert loaded_after_import(["concurrent", "logging"]) == "[]"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    """The bodies of README's fenced blocks tagged `language` ("" for none)."""
    fenced = README.read_text(encoding="utf-8").split("```")[1::2]
    return [body.partition("\n")[2] for body in fenced if body.partition("\n")[0] == language]


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (block,) = readme_blocks("python")
    exec(block, {})
    assert capsys.readouterr().out


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    # every `ulmc ...` line as written; a "# name: text" line is a file the
    # example reads, and data.libsvm is a small generated dataset
    monkeypatch.chdir(tmp_path)
    write_dataset(tmp_path / "data.libsvm")
    commands = []
    for block in readme_blocks(""):
        for line in block.replace("\\\n", " ").splitlines():
            name, colon, text = line.partition(": ")
            if line.startswith("# ") and colon:
                Path(name[2:]).write_text(text)
            elif line.startswith("ulmc "):
                commands.append(shlex.split(line)[1:])
    assert {argv[0] for argv in commands} == {"schedule", "sample", "convergence",
                                              "coupled-error"}
    for argv in commands:
        assert main(argv) == 0, argv
