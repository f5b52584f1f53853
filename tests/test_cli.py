"""Command-line behavior: determinism, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ulmc
from ulmc.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestSampleCommand:
    def test_zero_steps_single_chain_writes_start(self, tmp_path):
        out = tmp_path / "samples.csv"
        code = run_cli(
            "sample", "--target", "quadratic", "--quad-diag", "1,2",
            "--quad-center", "0.5,-0.5", "--method", "rmm",
            "--h", "0.05", "--n-steps", "0", "--chains", "1",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")]
        assert data_rows[0] == "chain,x0,x1"
        assert data_rows[1] == "0,0.5,-0.5"

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

    def test_epsilon_does_not_schedule_the_parallel_method(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run_cli("sample", "--quad-diag", "1,4", "--method", "rmm_parallel",
                       "--epsilon", "0.5", "--chains", "2", "--out", str(out)) == 2
        assert "ulmc schedule --parallel" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_file_is_runtime_error(self, tmp_path):
        code = run_cli(
            "sample", "--target", "logistic",
            "--dataset", str(tmp_path / "nope.txt"),
            "--h", "0.05", "--n-steps", "1",
        )
        assert code == 3

    def test_logistic_dataset_flag_required(self):
        assert run_cli("sample", "--target", "logistic", "--h", "0.05",
                       "--n-steps", "1") == 2


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
        code = run_cli(
            "convergence", "--target", "logistic", "--dataset", str(data),
            "--epsilon", "0.5",
        )
        assert code == 2

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
        # step sizes that do not divide T, and grids with no valid step size
        out = tmp_path / "coupled.csv"
        for h, total_time in (("0.3", "1"), (",", "1"), ("0", "1"), ("nan", "1"),
                              ("-0.1", "1"), ("0.1", "0")):
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

    def test_key_of_another_subcommand_is_ignored(self, tmp_path, capsys):
        # a config shared by sample and schedule: schedule takes no --seed
        cfg = tmp_path / "shared.json"
        cfg.write_text(json.dumps({"seed": 7, "c-const": 0.25}))
        flags = ("--epsilon", "0.1", "--kappa", "10")
        assert run_cli("schedule", "--config", str(cfg), *flags) == 0
        with_config = json.loads(capsys.readouterr().out)
        assert run_cli("schedule", "--c-const", "0.25", *flags) == 0
        assert with_config == json.loads(capsys.readouterr().out)


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

    @pytest.mark.parametrize("h", ["0", "-1", "inf", "nan"])
    def test_bad_step_size_is_config_error_before_any_draw(self, h, tmp_path, capsys,
                                                           monkeypatch):
        def no_draws(*args):
            raise AssertionError("the draw thread was set up")

        monkeypatch.setattr(ulmc.samplers, "_DrawAhead", no_draws)
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
