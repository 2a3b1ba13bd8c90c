"""End-to-end tests for the zakbench command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from zakbench import cli

REPO = Path(__file__).resolve().parents[1]


def read_report(path):
    payload = json.loads(path.read_text())
    payload.pop("metadata", None)
    return payload


def test_expsys_sweep_writes_report(tmp_path, capsys):
    code = cli.main(
        ["expsys-sweep", "--g", "linear", "--N", "128", "--W", "8", "--k", "0",
         "--out", str(tmp_path), "--csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "expsys-sweep: PASS" in out
    report = read_report(tmp_path / "expsys_sweep.json")
    assert report["grid_N"] == 128
    assert report["window_W"] == 8
    assert report["flags"]["no_norm_convergence"] is True
    assert len(report["levels"]) == 8
    csv_lines = (tmp_path / "expsys_sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "level,value,flag"
    assert len(csv_lines) == 1 + len(report["levels"])


def test_zak_validate_writes_report(tmp_path, capsys):
    code = cli.main(["zak-validate", "--M", "64", "--out", str(tmp_path)])
    assert code == 0
    assert "zak-validate: PASS" in capsys.readouterr().out
    report = read_report(tmp_path / "zak_validate.json")
    assert report["M"] == 64
    assert report["passed"] is True
    assert abs(report["gaussian_norm"] - 1.0) < 1e-6
    assert report["theta_vs_series_max_dev"] < 1e-10


def test_quotient_ladder_cone_converges(tmp_path, capsys):
    code = cli.main(
        ["quotient-ladder", "--numerator", "cone", "--ladder", "32,64,128",
         "--out", str(tmp_path), "--csv"]
    )
    assert code == 0
    assert "quotient-ladder: PASS" in capsys.readouterr().out
    report = read_report(tmp_path / "quotient_ladder_cone.json")
    assert report["converges"] is True
    assert report["diverges"] is False
    csv_lines = (tmp_path / "quotient_ladder_cone.csv").read_text().splitlines()
    assert csv_lines[0] == "level,value,flag"


def test_quotient_ladder_constant_diverges(tmp_path, capsys):
    code = cli.main(
        ["quotient-ladder", "--numerator", "one", "--ladder", "64,128,256",
         "--out", str(tmp_path)]
    )
    assert code == 0
    report = read_report(tmp_path / "quotient_ladder_one.json")
    assert report["diverges"] is True
    assert all(step > 0.10 for step in report["step_growth"])


def test_quotient_ladder_assertion_failure_exit_code(tmp_path, capsys):
    # adjacent levels grow the estimate by well under ten percent, so the
    # divergence assertion honestly fails
    code = cli.main(
        ["quotient-ladder", "--numerator", "one", "--ladder", "64,66",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "quotient-ladder: FAIL" in capsys.readouterr().out


def test_rp_check_writes_report(tmp_path, capsys):
    code = cli.main(["rp-check", "--dim", "6", "--pairs", "5", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path / "rp_check.json")
    assert report["passed"] is True
    assert report["max_identity_deviation"] < 1e-10


def test_excess_n_writes_report(tmp_path, capsys):
    code = cli.main(
        ["excess-n", "--dim", "7", "--n", "2", "--out", str(tmp_path), "--seed", "3"]
    )
    assert code == 0
    report = read_report(tmp_path / "excess_n.json")
    assert report["n"] == 2
    assert all(v < 1e-10 for v in report["residuals"].values())


def test_excess_n_dependent_head_reduces(tmp_path, capsys):
    code = cli.main(
        ["excess-n", "--dim", "6", "--n", "3", "--dependent-head",
         "--out", str(tmp_path)]
    )
    assert code == 0
    report = read_report(tmp_path / "excess_n.json")
    assert report["n"] == 2
    assert any(note.startswith("reduction:") for note in report["notes"])


def test_seed_determinism(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for out in (a_dir, b_dir):
        code = cli.main(["rp-check", "--seed", "7", "--out", str(out)])
        assert code == 0
    a = read_report(a_dir / "rp_check.json")
    b = read_report(b_dir / "rp_check.json")
    assert a == b


def test_usage_error_exit_codes(tmp_path, capsys):
    assert cli.main(["expsys-sweep", "--g", "cauchy", "--out", str(tmp_path)]) == 1
    assert "unknown weight" in capsys.readouterr().err
    assert cli.main(
        ["quotient-ladder", "--numerator", "one", "--ladder", "63,126",
         "--out", str(tmp_path)]
    ) == 1
    for ladder in ("64,64", "128,64"):
        assert cli.main(
            ["quotient-ladder", "--numerator", "cone", "--ladder", ladder,
             "--out", str(tmp_path)]
        ) == 1
    assert cli.main(["rp-check", "--trials", "0", "--out", str(tmp_path)]) == 1
    assert cli.main(["excess-n", "--trials", "0", "--out", str(tmp_path)]) == 1
    nan_weight = tmp_path / "nan_weight.json"
    samples = [[float("nan"), 0.0]] + [[1.0, 0.0]] * 63
    nan_weight.write_text(json.dumps({"N": 64, "grid": "shifted_midpoint", "samples": samples}))
    assert cli.main(
        ["expsys-sweep", "--g-file", str(nan_weight), "--W", "4", "--out", str(tmp_path)]
    ) == 1
    assert "samples must be finite" in capsys.readouterr().err
    weight_ok = {"N": 2, "grid": "shifted_midpoint", "samples": [[1, 0], [1, 0]]}
    grid_ok = {"M": 2, "grid": "midpoint", "domain": "unit_square", "samples": [[1, 0]] * 4}
    malformed = {
        "no_n.json": ("--g-file", {k: v for k, v in weight_ok.items() if k != "N"}),
        "no_m.json": ("--theta-file", {k: v for k, v in grid_ok.items() if k != "M"}),
        "list.json": ("--g-file", [weight_ok]),
        "string_sample.json": ("--g-file", {**weight_ok, "samples": [[1, "a"], [1, 0]]}),
    }
    for name, (flag, payload) in malformed.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        command = ["expsys-sweep", "--W", "4"] if flag == "--g-file" else ["zak-validate", "--M", "32"]
        assert cli.main(command + [flag, str(path), "--out", str(tmp_path)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    for cov_range in ("-1", "0"):
        assert cli.main(
            ["zak-validate", "--M", "16", "--cov-range", cov_range, "--out", str(tmp_path)]
        ) == 1
        assert "cov_range must be at least 1" in capsys.readouterr().err
    for tol in ("nan", "inf", "0", "1e-3"):
        assert cli.main(["excess-n", "--tol", tol, "--out", str(tmp_path)]) == 1
        assert "tol must lie in" in capsys.readouterr().err
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([]) == 1


def test_numerical_failure_exit_code(tmp_path, capsys):
    # A valid run whose pair misses a tolerance below the rounding floor is
    # a numerical failure, not a usage error.
    assert cli.main(["excess-n", "--tol", "1e-18", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("NotReproducingPair: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_weight_file_roundtrip(tmp_path, capsys):
    dump_dir = tmp_path / "dump"
    weight_file = tmp_path / "weight.json"
    code = cli.main(
        ["expsys-sweep", "--g", "sqrt", "--N", "64", "--W", "4",
         "--out", str(dump_dir), "--dump-weight", str(weight_file)]
    )
    assert code == 0
    assert weight_file.exists()

    reuse_dir = tmp_path / "reuse"
    code = cli.main(
        ["expsys-sweep", "--g-file", str(weight_file), "--N", "64", "--W", "4",
         "--out", str(reuse_dir)]
    )
    assert code == 0
    report = read_report(reuse_dir / "expsys_sweep.json")
    assert any("ladder unavailable" in n for n in report["flags"]["hypothesis_notes"])


def test_theta_file_roundtrip(tmp_path, capsys):
    dump_dir = tmp_path / "dump"
    theta_file = tmp_path / "theta_grid.json"
    code = cli.main(
        ["zak-validate", "--M", "32", "--out", str(dump_dir),
         "--dump-theta", str(theta_file)]
    )
    assert code == 0
    assert theta_file.exists()

    code = cli.main(
        ["zak-validate", "--M", "32", "--theta-file", str(theta_file),
         "--out", str(tmp_path / "reuse")]
    )
    assert code == 0


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "zakbench" in capsys.readouterr().out


def test_svd_counts(tmp_path, monkeypatch):
    # One SVD per random basis and per raw mixed operator in rp-check; the
    # excess path takes one rank per head per reduction step and n ranks to
    # find the dependent element.
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert cli.main(["rp-check", "--out", str(tmp_path)]) == 0
    assert len(calls) == 60
    calls.clear()
    assert cli.main(["excess-n", "--n", "4", "--dependent-head", "--out", str(tmp_path)]) == 0
    assert len(calls) == 9


def test_traced_benchmark_layers(tmp_path):
    # benchmarks/traced.py wraps layer functions by name and reads some of
    # their parameters; a rename breaks it, which shows as a failed command.
    theta_file = str(tmp_path / "theta.json")
    weight_file = str(tmp_path / "weight.json")
    commands = [
        ["expsys-sweep", "--g", "linear", "--N", "128", "--W", "8"],
        ["zak-validate", "--M", "32"],
        ["quotient-ladder", "--numerator", "cone", "--ladder", "32,64,128"],
        ["quotient-ladder", "--numerator", "one", "--ladder", "32,64,128"],
        ["rp-check"],
        ["excess-n", "--n", "2"],
        ["zak-validate", "--M", "32", "--dump-theta", theta_file],
        ["zak-validate", "--M", "32", "--theta-file", theta_file],
        ["expsys-sweep", "--N", "64", "--W", "4", "--dump-weight", weight_file],
        ["expsys-sweep", "--g-file", weight_file, "--W", "4"],
    ]
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps([argv + ["--out", str(tmp_path / "out")] for argv in commands]))
    result = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "traced.py"), str(ops), str(result)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(result.read_text())["ops"]
    assert [op["exit"] for op in recorded] == [0] * len(commands), recorded
