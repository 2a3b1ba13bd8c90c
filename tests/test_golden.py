"""Golden payloads: each report of the benchmark's readme workload at --seed 1.

tests/golden/<op>.json holds the op's report without ``metadata``.  The
test reruns the ops in-process and compares keys, integers, booleans,
strings and list lengths exactly, and floats to 1e-9 relative with an
absolute floor of 1e-13, so that rounding-level differences between
BLAS builds pass and a change of an estimate does not.  A change that
alters a payload on purpose rewrites the files with
``python tests/golden/regenerate.py`` and records the diff in CHANGES.md.

The same ops yield every check row a command can write, and FAILING
gives each row an input under which it reads ok false.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from zakbench import cli, expsys, reproducing, zak

GOLDEN = Path(__file__).parent / "golden"

# The ops of benchmarks/workloads.py's readme workload, in its order: the
# load ops read the weight and theta files that the dump ops write.
OPS = {
    "sweep_dump": ["expsys-sweep", "--g", "linear", "--k", "0", "--W", "16", "--N", "128", "--csv",
                   "--dump-weight", "{files}/weight.json"],
    "validate_dump": ["zak-validate", "--M", "128", "--csv", "--dump-theta", "{files}/theta.json"],
    "ladder_cone": ["quotient-ladder", "--numerator", "cone", "--ladder", "64,128,256,512", "--csv"],
    "ladder_one": ["quotient-ladder", "--numerator", "one", "--ladder", "64,128,256,512", "--csv"],
    "rp_check": ["rp-check", "--dim", "8", "--pairs", "20", "--csv"],
    "excess_n": ["excess-n", "--dim", "8", "--n", "2", "--dependent-head", "--csv"],
    "validate_load": ["zak-validate", "--M", "128", "--theta-file", "{files}/theta.json"],
    "sweep_load": ["expsys-sweep", "--g-file", "{files}/weight.json", "--k", "0", "--W", "16"],
}


def run_ops(root: Path) -> dict:
    """Run OPS at --seed 1 under root, each into its own directory; each op's payload without metadata."""
    payloads = {}
    for name, argv in OPS.items():
        out = root / name
        argv = [arg.format(files=root) for arg in argv]
        assert cli.main([*argv, "--seed", "1", "--out", str(out)]) == 0, name
        (report,) = out.glob("*.json")
        payload = json.loads(report.read_text())
        payload.pop("metadata")
        payloads[name] = payload
    return payloads


def assert_matches(got, want, path="payload"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and abs(got - want) <= max(1e-9 * abs(want), 1e-13), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_ops(root)


@pytest.fixture(scope="module")
def payloads(golden_run):
    return golden_run[1]


@pytest.mark.parametrize("op", OPS)
def test_payload_matches_golden(payloads, op):
    assert_matches(payloads[op], json.loads((GOLDEN / f"{op}.json").read_text()))


@pytest.mark.parametrize("op", OPS)
def test_checks_table_decides_the_verdict(golden_run, op):
    # Each row's ok follows from its value, limit and bound, the verdict
    # (exit 0, and the report's own passed field) is all(ok), each other
    # flag of the report is the ok of the row it is read from, and a CSV
    # without levels holds exactly the check rows.
    root = golden_run[0]
    (path,) = (root / op).glob("*.json")
    report = json.loads(path.read_text())
    checks = report["metadata"]["checks"]
    assert checks, op
    for name, row in checks.items():
        assert sorted(row) == ["bound", "limit", "ok", "value"], (name, row)
        assert row["ok"] == (row["value"] <= row["limit"] if row["bound"] == "upper"
                             else row["value"] >= row["limit"]), (name, row)
    assert all(row["ok"] for row in checks.values()), op
    flags = {  # each flag the report carries, by the row it is read from
        "no_norm_convergence": report.get("flags", {}).get("no_norm_convergence"),
        "last_step_growth": report.get("converges"),
        "min_step_growth": report.get("diverges"),
    }
    read = [name for name in checks if name in flags]
    for name in read:
        assert flags[name] is checks[name]["ok"], (op, name)
    if "passed" in report:
        assert report["passed"] is all(row["ok"] for row in checks.values()), op
    assert read or "passed" in report or op == "excess_n", op  # the excess report carries no flag
    if op in ("validate_dump", "rp_check", "excess_n"):
        with open(path.with_suffix(".csv"), newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["level", "value", "flag"]
        want = {name: (row["value"], str(row["ok"])) for name, row in checks.items()}
        assert {name: (float(value), ok) for name, value, ok in rows} == want
        assert len(rows) == len(want)


def test_tolerance_separates_rounding_from_changes():
    assert_matches({"x": [1.0 + 1e-12, 3e-14]}, {"x": [1.0, 0.0]})
    for got, want in (({"x": [1.0 + 1e-6]}, {"x": [1.0]}), ({"x": [1]}, {"x": [1.0]}),
                      ({"x": [1.0, 2.0]}, {"x": [1.0]}), ({"y": 1.0}, {"x": 1.0})):
        with pytest.raises(AssertionError):
            assert_matches(got, want)


def scaled(factor, first=False):
    """A seam: the wrapped function's value, or the first item of its tuple value, times factor."""
    def wrap(fn):
        def seam(*args):
            out = fn(*args)
            return (out[0] * factor, *out[1:]) if first else out * factor
        return seam
    return wrap


SWEEP = ["expsys-sweep", "--g", "linear", "--k", "0", "--W", "16", "--N", "128"]
VALIDATE = ["zak-validate", "--M", "8"]
RP_CHECK = ["rp-check", "--dim", "8", "--pairs", "20"]
EXCESS = ["excess-n", "--dim", "8", "--n", "2", "--dependent-head"]
TAIL_DUALS = (reproducing, "_spanning_solve", scaled(1 + 1e-6, first=True))  # every excess residual

# One input per check row that makes the row read ok false and the command
# exit 2: an argv, or a passing argv with one module attribute replaced by a
# seam that wraps the original.  A row that holds by construction needs a seam.
FAILING = {
    "no_norm_convergence": (SWEEP, (expsys, "dual_coefficient", scaled(0.5))),
    "term_norm_spread": (SWEEP, (expsys, "dual_coefficient", scaled(1 + 1e-6))),
    "gaussian_norm": (["zak-validate", "--M", "2"], None),
    "translated_norm": (["zak-validate", "--M", "2"], None),
    "covariance": (VALIDATE, (zak, "modulated_translate",
                              lambda fn: lambda f, n, k: (lambda t: fn(f, n, k)(t) * (1 + 1e-7)))),
    "theta_vs_series": (VALIDATE, (zak, "theta_grid",
                                   lambda fn: lambda M: expsys.PeriodicSignal(fn(M).samples * (1 + 1e-6)))),
    "center_zero": (VALIDATE, (zak, "gaussian_zak_theta", lambda fn: lambda x, xi: fn(x, xi) + 1e-9)),
    "theta_prime": (VALIDATE, (zak, "theta1_prime_zero", scaled(1 + 1e-9))),
    "theta_file": ([*VALIDATE, "--theta-file", "{files}/zero_theta.json"], None),
    "last_step_growth": (["quotient-ladder", "--numerator", "cone", "--ladder", "2,4"], None),
    "min_step_growth": (["quotient-ladder", "--numerator", "one", "--ladder", "256,512,1024,2048"], None),
    "max_identity_deviation": (RP_CHECK, (reproducing, "normalize_pair", scaled(1 + 1e-6, first=True))),
    "max_adjoint_asymmetry": (RP_CHECK, (reproducing, "s_operator", scaled(1 + 1e-9j))),
    "partner_correction": (EXCESS, TAIL_DUALS),
    "head_reconstruction": (EXCESS, TAIL_DUALS),
    "final_chain": (EXCESS, TAIL_DUALS),
    "pair_identity_deviation": (EXCESS, (reproducing, "canonical_dual_frame", scaled(1 + 1e-6))),
}


def test_every_check_row_has_a_failing_input(golden_run):
    # The README ops, --theta-file included, produce every row that a command
    # can check; each row must have an entry in FAILING, and no entry may
    # outlive its row.
    root = golden_run[0]
    rows = {name for path in root.glob("*/*.json")
            for name in json.loads(path.read_text())["metadata"]["checks"]}
    assert sorted(rows) == sorted(FAILING)


@pytest.mark.parametrize("row", FAILING)
def test_check_row_can_fail(tmp_path, monkeypatch, row):
    argv, seam = FAILING[row]
    zak.save_grid_function(expsys.PeriodicSignal(np.zeros((8, 8))), tmp_path / "zero_theta.json")
    argv = [arg.format(files=tmp_path) for arg in argv]
    if seam is not None:
        # The argv passes as it is, so the seam is what fails the row.
        assert cli.main([*argv, "--out", str(tmp_path / "unpatched")]) == 0
        module, name, wrap = seam
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.ASSERTION_FAILURE
    (path,) = (tmp_path / "out").glob("*.json")
    assert json.loads(path.read_text())["metadata"]["checks"][row]["ok"] is False
