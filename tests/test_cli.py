"""Command-line behavior: determinism, formats, exit codes."""

import json
import math

import numpy as np

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

    def test_missing_steps_is_config_error(self):
        assert run_cli("sample", "--quad-diag", "1", "--h", "0.05") == 2

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

    def test_incommensurate_grid_is_config_error(self):
        assert run_cli(
            "coupled-error", "--quad-diag", "1", "--h", "0.3",
            "--total-time", "1", "--chains", "1",
        ) == 2


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

    def test_divergent_run_exits_3(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = run_cli(
            "sample", "--quad-diag", "1,40", "--method", "lmc", "--h", "0.9",
            "--n-steps", "400", "--chains", "2", "--out", str(out),
        )
        assert code == 3
        assert "lmc" in capsys.readouterr().err
        assert not out.exists()
