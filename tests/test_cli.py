"""End-to-end tests for the zakbench command line."""

import ast
import concurrent.futures
import gc
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zakbench import cli, expsys, linalg, reproducing, zak
from zakbench.linalg import NumericalFailure, blas_threads

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


def test_excess_n_empty_head(tmp_path, capsys):
    assert cli.main(["excess-n", "--n", "0", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path / "excess_n.json")
    assert report["n"] == 0
    assert report["head_sum_trajectory"] == []


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
    # An empty --ladder entry is refused when parsing, not dropped.
    capsys.readouterr()
    for ladder in ("64,,128", "64,128,", ",64,128", "64, ,128"):
        assert cli.main(
            ["quotient-ladder", "--numerator", "cone", "--ladder", ladder,
             "--out", str(tmp_path / "empty_entry")]
        ) == 1
        err = capsys.readouterr().err
        assert err == (f"zakbench quotient-ladder: error: argument --ladder: "
                       f"empty entry in {ladder!r}\n"), err
    assert not (tmp_path / "empty_entry").exists()
    # An unknown numerator is refused by the layer, before any report is written.
    assert cli.main(
        ["quotient-ladder", "--numerator", "bogus", "--out", str(tmp_path / "bogus")]
    ) == 1
    err = capsys.readouterr().err
    assert err == "ValueError: unknown numerator 'bogus', expected one of ['cone', 'one']\n", err
    assert not (tmp_path / "bogus").exists()
    nan_weight = tmp_path / "nan_weight.json"
    samples = [[float("nan"), 0.0]] + [[1.0, 0.0]] * 63
    nan_weight.write_text(json.dumps({"N": 64, "grid": "shifted_midpoint", "samples": samples}))
    assert cli.main(
        ["expsys-sweep", "--g-file", str(nan_weight), "--W", "4", "--out", str(tmp_path)]
    ) == 1
    assert "samples must be finite" in capsys.readouterr().err
    # A weight that vanishes at a node has no biorthogonal dual, and one whose
    # |g|^2 overflows has no finite norm: the system is refused when it is
    # built, before any report is written.  |g|^2 = 1e-400 underflows to 0.
    zero_out = tmp_path / "zero_weight"
    vanishes = "weight vanishes at a grid node"
    overflows = "weight energy sum |g|^2 overflows the double range"
    for zero_samples, message in (
        ([[0.0, 0.0]] + [[1.0, 0.0]] * 63, vanishes),
        ([[0.0, 0.0]] * 64, vanishes),
        ([[1e-200, 0.0]] * 16, vanishes),
        ([[1e200, 0.0]] * 16, overflows),
    ):
        zero_weight = tmp_path / "zero_weight.json"
        weight = {"N": len(zero_samples), "grid": "shifted_midpoint", "samples": zero_samples}
        zero_weight.write_text(json.dumps(weight))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(
                ["expsys-sweep", "--g-file", str(zero_weight), "--W", "2", "--out", str(zero_out)]
            ) == 1
        err = capsys.readouterr().err
        assert err == f"ValueError: {message}\n", err
    assert not zero_out.exists()
    weight_ok = {"N": 2, "grid": "shifted_midpoint", "samples": [[1, 0], [1, 0]]}
    grid_ok = {"M": 2, "grid": "midpoint", "domain": "unit_square", "samples": [[1, 0]] * 4}
    malformed = {
        "no_n.json": ("--g-file", {k: v for k, v in weight_ok.items() if k != "N"}),
        "no_m.json": ("--theta-file", {k: v for k, v in grid_ok.items() if k != "M"}),
        "list.json": ("--g-file", [weight_ok]),
        "string_sample.json": ("--g-file", {**weight_ok, "samples": [[1, "a"], [1, 0]]}),
        # Raw text: nested past the decoder's recursion limit, which json.dumps cannot encode.
        "deep.json": ("--g-file", '{"N": 2, "grid": "shifted_midpoint", "samples": '
                      + "[" * 100_000 + "]" * 100_000 + "}"),
        # Raw text and bytes that are not JSON, or not UTF-8.
        "empty.json": ("--g-file", ""),
        "truncated.json": ("--theta-file", '{"N": 2, "grid": "shifted_midpoint", "samples": [[1, 0'),
        "latin1.json": ("--g-file", b'{"N": 2, "grid": "shifted_midpoint\xff"}'),
    }
    for name, (flag, payload) in malformed.items():
        path = tmp_path / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        command = ["expsys-sweep", "--W", "4"] if flag == "--g-file" else ["zak-validate", "--M", "32"]
        assert cli.main(command + [flag, str(path), "--out", str(tmp_path)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    # Grid sizes that are not positive even integers are named as given, before any sampling.
    for command, message in ((["zak-validate", "--M", "0"], "M must be a positive even integer, got 0"),
                             (["zak-validate", "--M", "-4"], "M must be a positive even integer, got -4"),
                             (["expsys-sweep", "--N", "-4"], "N must be a positive even integer, got -4"),
                             (["quotient-ladder", "--numerator", "cone", "--ladder", "64,63"],
                              "M must be a positive even integer, got 63")):
        assert cli.main(command + ["--out", str(tmp_path / "size")]) == 1
        err = capsys.readouterr().err
        assert err == f"ValueError: {message}\n", err
    assert not (tmp_path / "size").exists()
    for dim in ("0", "-1"):
        assert cli.main(["rp-check", "--dim", dim, "--out", str(tmp_path / "dim")]) == 1
        err = capsys.readouterr().err
        assert err == "ValueError: dim must be positive\n", err
    assert not (tmp_path / "dim").exists()
    # numpy's generators refuse a negative seed; every command refuses it when parsing.
    for command in (["expsys-sweep"], ["zak-validate"], ["quotient-ladder", "--numerator", "one"],
                    ["rp-check"], ["excess-n"]):
        assert cli.main(command + ["--seed", "-1", "--out", str(tmp_path / "seed")]) == 1
        err = capsys.readouterr().err
        assert err == (f"zakbench {command[0]}: error: argument --seed: "
                       "expected a non-negative integer, got '-1'\n"), err
    # A seed that is not an integer takes the same refusal, at parse time.
    assert cli.main(["rp-check", "--seed", "1.5", "--out", str(tmp_path / "seed")]) == 1
    err = capsys.readouterr().err
    assert err == "zakbench rp-check: error: argument --seed: expected a non-negative integer, got '1.5'\n", err
    assert not (tmp_path / "seed").exists()
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([]) == 1


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # A valid run whose pair misses its limit fails its assertion: the report
    # is written and records the deviation.  A limit below the rounding floor
    # stands in for a pair that misses the fixed one.
    with monkeypatch.context() as patch:
        patch.setattr(reproducing, "_PAIR_LIMIT", 1e-18)
        assert cli.main(["excess-n", "--out", str(tmp_path)]) == 2
    assert read_report(tmp_path / "excess_n.json")["margins"]["pair_identity_deviation"] > 1e-18
    out, err = capsys.readouterr()
    assert out.startswith("excess-n: FAIL (failing: pair_identity_deviation) ") and err == "", (out, err)
    # A NumericalFailure raised mid-run also exits 2, with one stderr line and no report.
    def fail(*args, **kwargs):
        raise NumericalFailure("tail stops spanning")

    monkeypatch.setattr(reproducing, "excess_n_identities", fail)
    failed_out = tmp_path / "failed"
    assert cli.main(["excess-n", "--out", str(failed_out)]) == 2
    err = capsys.readouterr().err
    assert err == "NumericalFailure: tail stops spanning\n", err
    assert not failed_out.exists()


@pytest.mark.parametrize(
    "command",
    [["zak-validate", "--M", "8", "--J", "6"],
     ["zak-validate", "--M", "8", "--K", "8"],
     ["zak-validate", "--M", "8", "--shift", "1"],
     ["zak-validate", "--M", "8", "--cov-range", "2"],
     ["quotient-ladder", "--numerator", "cone", "--ladder", "4,8", "--K", "8"],
     ["expsys-sweep", "--N", "64", "--W", "4", "--max-terms", "4"],
     ["rp-check", "--trials", "8"],
     ["excess-n", "--trials", "20"],
     ["excess-n", "--tol", "1e-11"]],
)
def test_removed_series_flags_are_usage_errors(tmp_path, capsys, command):
    # zak-validate and quotient-ladder run at one fixed series setting, the
    # sweep runs all W levels and the pair checks at fixed probe counts, so
    # the flags that once moved them are unknown arguments.
    out = tmp_path / "out"
    assert cli.main(command + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"zakbench: error: unrecognized arguments: {' '.join(command[-2:])}\n", err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, verdict",
    [(["expsys-sweep"], "schauder_failure_sweep"),
     (["zak-validate"], "validate_verdict"),
     (["rp-check"], "random_pair_check")],
)
def test_memory_error_is_a_usage_error(tmp_path, capsys, monkeypatch, command, verdict):
    # An input too large for the host, such as zak-validate --M 1000000, is
    # bad configuration: exit 1 with one line.  The verdict raises numpy's
    # kind of MemoryError, a private subclass, at default sizes, so nothing
    # large is allocated: on a host that overcommits memory a real attempt
    # is killed instead.
    class _ArrayMemoryError(MemoryError):
        pass

    def fail(*args, **kwargs):
        raise _ArrayMemoryError("Unable to allocate 14.6 TiB for an array")

    # The CLI calls each verdict through its layer module.
    layer = {"expsys-sweep": expsys, "zak-validate": zak, "rp-check": reproducing}[command[0]]
    monkeypatch.setattr(layer, verdict, fail)
    out = tmp_path / "out"
    assert cli.main(command + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "MemoryError: Unable to allocate 14.6 TiB for an array\n", err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, routine",
    [(["excess-n", "--dim", "8", "--n", "2"], "solve"),  # main thread
     (["rp-check", "--dim", "8", "--pairs", "4"], "svd")],  # pool threads
)
def test_linalg_error_exit_code(tmp_path, capsys, monkeypatch, command, routine):
    # A LAPACK failure on valid input is numerical (exit 2), although
    # LinAlgError subclasses ValueError, which marks a usage error.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    assert cli.main(command + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"LinAlgError: {routine} did not converge\n", err


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


def test_theta_file_of_another_grid_size(tmp_path, capsys):
    # A stored grid is checked against the theta grid of its own size, and
    # one sample moved by 1e-9 fails that check alone.
    theta_file = tmp_path / "theta16.json"
    dump = ["zak-validate", "--M", "16", "--dump-theta", str(theta_file), "--out", str(tmp_path / "dump")]
    assert cli.main(dump) == 0
    check = ["zak-validate", "--M", "32", "--theta-file", str(theta_file)]
    assert cli.main([*check, "--out", str(tmp_path / "same")]) == 0
    assert read_report(tmp_path / "same" / "zak_validate.json")["passed"] is True

    grid = json.loads(theta_file.read_text())
    grid["samples"][5][0] += 1e-9
    theta_file.write_text(json.dumps(grid))
    capsys.readouterr()
    assert cli.main([*check, "--out", str(tmp_path / "moved")]) == cli.ASSERTION_FAILURE
    assert read_report(tmp_path / "moved" / "zak_validate.json")["passed"] is False
    assert "(failing: theta_file)" in capsys.readouterr().out


def test_one_ladder_fails_its_growth_check_from_m_1024(tmp_path, capsys):
    # The 10% growth rule misses the logarithmic growth of the one ladder
    # at these sizes; the check table names the row and records its values.
    argv = ["quotient-ladder", "--numerator", "one", "--ladder", "256,512,1024,2048", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.ASSERTION_FAILURE
    assert "quotient-ladder: FAIL (failing: min_step_growth) " in capsys.readouterr().out
    checks = json.loads((tmp_path / "quotient_ladder_one.json").read_text())["metadata"]["checks"]
    assert list(checks) == ["min_step_growth"]
    row = checks["min_step_growth"]
    assert row["ok"] is False and row["bound"] == "lower" and row["limit"] == 0.10, row
    assert row["value"] == pytest.approx(0.086, abs=0.001), row


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "zakbench" in capsys.readouterr().out


def test_svd_counts(tmp_path, monkeypatch):
    # One SVD per random basis and per raw mixed operator in rp-check; the
    # excess path takes one rank of the psi head per reduction pass and
    # log2(n) prefix ranks to find the dependent element by bisection, and
    # its dual frame's invertibility test takes eigenvalues instead.
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
    assert len(calls) == 5


def test_report_metadata_records_the_run(tmp_path):
    argv = ["rp-check", "--dim", "4", "--pairs", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    metadata = json.loads((tmp_path / "rp_check.json").read_text())["metadata"]
    assert metadata["argv"] == argv
    assert metadata["python"] == platform.python_version()
    assert metadata["numpy"] == np.__version__
    assert metadata["blas_threads"] == blas_threads()


EXECUTED = """
import json, sys, types

def executed():
    # A lazy module keeps its LazyLoader class until its body runs; reading
    # the class through object.__getattribute__ does not trigger the load.
    layers = ("linalg", "reports", "expsys", "zak", "reproducing")
    modules = [sys.modules[f"zakbench.{name}"] for name in layers]
    return sorted(name for name, module in zip(layers, modules)
                  if object.__getattribute__(module, "__class__") is types.ModuleType)
"""

LAYER_PROBE = EXECUTED + """
import zakbench.cli

states = [executed()]
argv = sys.argv[1:]
if argv:
    assert zakbench.cli.main(argv) == 0
    states.append(executed())
print(json.dumps(states))
"""

NAMESPACE_PROBE = EXECUTED + """
from zakbench.reproducing import random_pair_check
import zakbench

layer_import = executed()
try:
    from zakbench import theta1
    flat_import = "found"
except ImportError:
    flat_import = "ImportError"
public = sorted(name for name in dir(zakbench) if not name.startswith("_"))
import zakbench.cli
registered = sorted(name for name in sys.modules if name.startswith("zakbench."))
print(json.dumps([layer_import, flat_import, public, registered]))
"""


FREEZE_PROBE = """
import gc, json
import zakbench.cli

code = zakbench.cli.main()
print(json.dumps([code, gc.get_freeze_count()]))
"""


def run_probe(probe, *argv):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    # main() without argv reads sys.argv and freezes the start-up heap; an
    # in-process main(argv) leaves the caller's collector as it is.  The
    # report does not depend on which of the two ran it.
    argv = ["rp-check", "--dim", "4", "--pairs", "2", "--seed", "3"]
    frozen = gc.get_freeze_count()
    assert cli.main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    assert gc.get_freeze_count() == frozen
    code, entry_frozen = run_probe(FREEZE_PROBE, *argv, "--out", str(tmp_path / "entry"))
    assert code == 0 and entry_frozen > 0
    assert (read_report(tmp_path / "entry" / "rp_check.json")
            == read_report(tmp_path / "in_process" / "rp_check.json"))


@pytest.mark.parametrize(
    "command, unexecuted",
    [([], ["expsys", "reproducing", "zak"]),
     (["expsys-sweep", "--N", "64", "--W", "4"], ["reproducing", "zak"]),
     (["zak-validate", "--M", "16"], ["reproducing"]),
     (["rp-check", "--dim", "4", "--pairs", "2"], ["expsys", "zak"])],
)
def test_commands_execute_only_their_layers(tmp_path, command, unexecuted):
    # Importing the CLI registers every layer but runs none of the three
    # mathematical ones; a command runs its own layer and that layer's imports.
    argv = [*command, "--out", str(tmp_path)] if command else []
    states = run_probe(LAYER_PROBE, *argv)
    assert not {"expsys", "zak", "reproducing"} & set(states[0]), states
    assert not set(unexecuted) & set(states[-1]), states


def test_public_names_live_only_in_their_layers():
    # A name imported from its layer executes that layer and its imports only;
    # the package exports the five layers and nothing else, and importing the
    # CLI still registers every layer.
    layer_import, flat_import, public, registered = run_probe(NAMESPACE_PROBE)
    assert not {"expsys", "zak"} & set(layer_import), layer_import
    assert flat_import == "ImportError"
    assert public == ["expsys", "linalg", "reports", "reproducing", "zak"]
    assert registered == [f"zakbench.{name}" for name in
                          ("cli", "expsys", "linalg", "reports", "reproducing", "zak")]


# Public names with no caller in src/, each kept for a reason outside it.
UNCALLED_PUBLIC_NAMES = {
    "expsys.weighted_exp": "benchmarks/traced.py wraps it by name; it goes with ROADMAP item 9",
    "zak.leading_coefficient": "the rate law of the one ladder, ROADMAP item 1, reads it",
}


def test_every_public_name_has_a_caller_in_src():
    # A name in a layer's __all__ must be read somewhere in src/zakbench as
    # code, not only defined, listed or named in a docstring; a name that
    # only tests need belongs in tests/reference.py.
    trees = {path.stem: ast.parse(path.read_text()) for path in (REPO / "src" / "zakbench").glob("*.py")}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    uncalled = set()
    for layer, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
                uncalled |= {f"{layer}.{name}" for name in ast.literal_eval(node.value) if name not in read}
    assert uncalled == set(UNCALLED_PUBLIC_NAMES)


def test_rp_check_without_openblas_runs_one_worker(tmp_path, monkeypatch):
    # Where the loaded BLAS is not OpenBLAS its thread count can be neither
    # read nor held, so rp-check checks its pairs in the calling thread, above
    # the pool's crossover too, starts no pool and records no count.  Bit
    # equality with the held run is not asserted: with the hold faked away,
    # OpenBLAS may run more threads.
    monkeypatch.setattr(linalg, "_openblas_threading", lambda: None)
    with linalg.single_threaded_blas() as pinned:
        assert pinned is False
    assert linalg.blas_threads() is None
    workers = []
    executor = concurrent.futures.ThreadPoolExecutor

    class RecordingExecutor(executor):
        def __init__(self, max_workers=None, *args, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    assert reproducing.random_pair_check(reproducing._POOL_MIN_DIM, 7, 5).passed
    out = tmp_path / "out"
    assert cli.main(["rp-check", "--dim", "8", "--pairs", "4", "--out", str(out)]) == 0
    assert workers == []
    assert json.loads((out / "rp_check.json").read_text())["metadata"]["blas_threads"] is None


def test_rp_check_below_the_crossover_imports_no_thread_pool():
    # On two CPUs, rp-check below the crossover checks its pairs in the calling
    # thread and imports no concurrent.futures; at the crossover it starts
    # the pool, which needs OpenBLAS held at one thread.
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
        "from zakbench.linalg import blas_threads; "
        "from zakbench.reproducing import _POOL_MIN_DIM, random_pair_check; "
        "random_pair_check(_POOL_MIN_DIM - 1, 3); print('concurrent.futures' in sys.modules); "
        "random_pair_check(_POOL_MIN_DIM, 3); print('concurrent.futures' in sys.modules); "
        "print(blas_threads() is not None)"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    below, at, openblas = proc.stdout.split()
    assert (below, at) == ("False", openblas)


def test_import_starts_openblas_on_one_thread():
    # numpy is first imported by zakbench here, so OpenBLAS starts at the
    # package's default unless OPENBLAS_NUM_THREADS is set.
    code = "import zakbench; print(zakbench.linalg.blas_threads())"
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(REPO / "src")
    counts = []
    for env in (base, {**base, "OPENBLAS_NUM_THREADS": "2"}):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        counts.append(proc.stdout.strip())
    if counts[0] == "None":
        pytest.skip("the loaded BLAS is not OpenBLAS")
    assert counts == ["1", "2"]


@pytest.mark.parametrize("command, stem", [
    (["rp-check", "--dim", "96", "--pairs", "2"], "rp_check"),
    (["excess-n", "--dim", "96", "--n", "8", "--dependent-head", "--seed", "1"], "excess_n"),
    (["expsys-sweep", "--N", "32768", "--W", "6000"], "expsys_sweep"),
], ids=["rp-check", "excess-n", "expsys-sweep"])
def test_payload_independent_of_blas_threads(tmp_path, command, stem):
    # Two OpenBLAS threads round 96 x 96 products and the sweep's long Toeplitz
    # cross terms differently from one; main runs each command on one BLAS
    # thread, so the payload must not change.
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "zakbench.cli", *command, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / f"{stem}.json").read_text())
        expected = None if blas_threads() is None else int(threads)
        assert report.pop("metadata")["blas_threads"] == expected
        payloads.append(json.dumps(report, sort_keys=True))
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("command, layer, verdict", [
    (["expsys-sweep", "--N", "64", "--W", "4"], expsys, "schauder_failure_sweep"),
    (["zak-validate", "--M", "16"], zak, "validate_verdict"),
    (["quotient-ladder", "--numerator", "cone", "--ladder", "32,64,128"], zak, "quotient_integral"),
    (["rp-check", "--dim", "4", "--pairs", "2"], reproducing, "random_pair_check"),
    (["excess-n", "--dim", "4", "--n", "2"], reproducing, "excess_n_verdict"),
], ids=["expsys-sweep", "zak-validate", "quotient-ladder", "rp-check", "excess-n"])
def test_main_runs_each_verdict_on_one_blas_thread(tmp_path, monkeypatch, command, layer, verdict):
    # No layer but rp-check's pool holds the BLAS count: main holds OpenBLAS
    # at one thread around the whole command and records the count set before.
    openblas = linalg._openblas_threading()
    if openblas is None:
        pytest.skip("the loaded BLAS is not OpenBLAS")
    get, put = openblas
    run, seen = getattr(layer, verdict), []

    def recorded(*args, **kwargs):
        seen.append(blas_threads())
        return run(*args, **kwargs)

    monkeypatch.setattr(layer, verdict, recorded)
    before = get()
    put(2)
    try:
        if get() == 1:
            pytest.skip("OpenBLAS does not start a second thread")
        assert cli.main([*command, "--out", str(tmp_path)]) == 0
        assert get() == 2
    finally:
        put(before)
    assert seen == [1]
    (report,) = tmp_path.glob("*.json")
    assert json.loads(report.read_text())["metadata"]["blas_threads"] == 2


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
