"""Workloads of the zakbench benchmark and the checks on every operation.

An operation is one ``zakbench`` CLI command.  After it ends, the
benchmark parses its report and re-derives the command's verdict from
the report fields and the limits the CLI applies, so a report that
contradicts its own exit code is caught.  Where a closed form or mpmath
gives the value independently, the benchmark compares against that too.
Each check returns the problems it found and the accuracy residuals it
read, which the traced run reports as per-layer metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath

WORKLOADS = ("frames", "readme")

# Limits applied by the CLI (src/zakbench/cli.py, src/zakbench/zak.py).
NORM_TOL = 1e-6
COVARIANCE_TOL = 1e-10
THETA_VS_SERIES_TOL = 1e-10
CENTER_ZERO_TOL = 1e-12
THETA_PRIME_REL_TOL = 1e-13
THETA_PRIME_FLOOR = 0.9
STABILIZATION_THRESHOLD = 0.01
GROWTH_THRESHOLD = 0.10
SPREAD_REL_TOL = 1e-9
RP_DEVIATION_TOL = 1e-10
RP_ASYMMETRY_TOL = 1e-12
EXCESS_TOL = 1e-11  # the CLI default; its limit is ten times this

# Limits of the benchmark's own oracle comparisons.
ORACLE_TOL = 1e-12
ORACLE_POINTS = 64


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload.

    ``argv`` omits ``--out``, which the runner appends.
    """

    name: str
    argv: tuple[str, ...]
    stem: str

    @property
    def command(self) -> str:
        return self.argv[0]

    def arg(self, flag: str, default=None):
        if flag not in self.argv:
            return default
        return self.argv[self.argv.index(flag) + 1]


def build_ops(workload: str, seed: int, files: Path) -> list[Op]:
    """Command list of one pass; ``files`` holds the files a pass writes and reads."""
    s = ("--seed", str(seed))
    theta_file = str(files / "theta.json")
    weight_file = str(files / "weight.json")
    if workload == "frames":
        return [
            Op("sweep", ("expsys-sweep", "--N", "16384", "--W", "2000", *s), "expsys_sweep"),
            Op("rp_check", ("rp-check", "--dim", "256", *s), "rp_check"),
            Op("excess_n", ("excess-n", "--dim", "512", "--n", "64", "--dependent-head", *s),
               "excess_n"),
        ]
    if workload == "readme":
        ladder = "64,128,256,512"
        return [
            Op("sweep_dump", ("expsys-sweep", "--g", "linear", "--k", "0", "--W", "16", "--N", "128",
                              "--csv", "--dump-weight", weight_file, *s), "expsys_sweep"),
            Op("validate_dump", ("zak-validate", "--M", "128", "--csv", "--dump-theta", theta_file, *s),
               "zak_validate"),
            Op("ladder_cone", ("quotient-ladder", "--numerator", "cone", "--ladder", ladder, "--csv", *s),
               "quotient_ladder_cone"),
            Op("ladder_one", ("quotient-ladder", "--numerator", "one", "--ladder", ladder, "--csv", *s),
               "quotient_ladder_one"),
            Op("rp_check", ("rp-check", "--dim", "8", "--pairs", "20", "--csv", *s), "rp_check"),
            Op("excess_n", ("excess-n", "--dim", "8", "--n", "2", "--dependent-head", "--csv", *s),
               "excess_n"),
            Op("validate_load", ("zak-validate", "--M", "128", "--theta-file", theta_file, *s),
               "zak_validate"),
            Op("sweep_load", ("expsys-sweep", "--g-file", weight_file, "--k", "0", "--W", "16", *s),
               "expsys_sweep"),
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


# --- independent values ---------------------------------------------------

def mp_gaussian_zak(x: float, xi: float) -> complex:
    """Z phi(x, xi) from mpmath's jtheta, with the prefactor of zak.py's docstring."""
    with mpmath.workdps(30):
        u = mpmath.mpf(x) - mpmath.mpf(1) / 2
        v = mpmath.mpf(xi) - mpmath.mpf(1) / 2
        pref = -(mpmath.mpf(2) ** mpmath.mpf(0.25)) * 1j * mpmath.exp(-mpmath.pi * u * u + 1j * mpmath.pi * v)
        return complex(pref * mpmath.jtheta(1, mpmath.pi * (v - 1j * u), mpmath.exp(-mpmath.pi)))


def mp_theta1_prime_zero() -> float:
    with mpmath.workdps(30):
        return float(mpmath.jtheta(1, 0, mpmath.exp(-mpmath.pi), 1))


def linear_weight_norm(N: int) -> float:
    """||g|| for g(t) = t on the nodes (i + 1/2)/N: sum (i + 1/2)^2 = N (4N^2 - 1) / 12."""
    return math.sqrt((4 * N * N - 1) / (12 * N * N))


def theta_oracle_dev(points, theta_fn) -> float:
    """Largest |theta_fn(x, xi) - mpmath value| over the points."""
    return max(abs(complex(theta_fn(x, xi)) - mp_gaussian_zak(x, xi)) for x, xi in points)


# --- per-command checks ---------------------------------------------------

def _verdict_problems(op: Op, exit_code: int, passed: bool) -> list[str]:
    expected = 0 if passed else 2
    if exit_code != expected:
        return [f"{op.name}: exit {exit_code} but the report fields give exit {expected}"]
    return []


def _check_zak_validate(op: Op, r: dict, exit_code: int, rng) -> tuple[list[str], dict]:
    M, J, K = int(op.arg("--M")), int(op.arg("--J", 6)), int(op.arg("--K", 8))
    problems = []
    if (r["M"], r["J"], r["truncation_K"]) != (M, J, K):
        problems.append(f"{op.name}: report M/J/K {r['M']}/{r['J']}/{r['truncation_K']} != {M}/{J}/{K}")
    prime_mp = mp_theta1_prime_zero()
    prime_dev = abs(r["theta_prime_value"] - prime_mp) / prime_mp
    if prime_dev > THETA_PRIME_REL_TOL:
        problems.append(f"{op.name}: theta1'(0) off mpmath by {prime_dev:.3e}")
    checks = [
        abs(r["gaussian_norm"] - 1.0) <= NORM_TOL,
        abs(r["translated_norm"] - 1.0) <= NORM_TOL,
        r["covariance_max_dev"] <= COVARIANCE_TOL,
        r["theta_vs_series_max_dev"] <= THETA_VS_SERIES_TOL,
        r["center_zero_abs"] <= CENTER_ZERO_TOL,
        r["theta_prime_oracle_rel_dev"] <= THETA_PRIME_REL_TOL and r["theta_prime_value"] >= THETA_PRIME_FLOOR,
    ]
    if op.arg("--dump-theta"):
        problems += _check_theta_file(op, Path(op.arg("--dump-theta")), M, rng)
    if bool(r["passed"]) != all(checks):
        problems.append(f"{op.name}: passed={r['passed']} but the limits give {all(checks)}")
    problems += _verdict_problems(op, exit_code, all(checks))
    residuals = {
        "zak.theta_vs_series_dev": r["theta_vs_series_max_dev"],
        "zak.covariance_dev": r["covariance_max_dev"],
    }
    return problems, residuals


def _check_theta_file(op: Op, path: Path, M: int, rng) -> list[str]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{op.name}: theta file unreadable: {exc}"]
    samples = payload.get("samples", [])
    if payload.get("M") != M or len(samples) != M * M:
        return [f"{op.name}: theta file holds M={payload.get('M')} and {len(samples)} samples"]
    dev = 0.0
    for idx in rng.sample(range(M * M), ORACLE_POINTS):
        p, q = divmod(idx, M)
        re, im = samples[idx]
        dev = max(dev, abs(complex(re, im) - mp_gaussian_zak((p + 0.5) / M, (q + 0.5) / M)))
    return [f"{op.name}: theta file off mpmath by {dev:.3e}"] if dev > ORACLE_TOL else []


def _check_ladder(op: Op, r: dict, exit_code: int, rng) -> tuple[list[str], dict]:
    ladder = [int(m) for m in op.arg("--ladder").split(",")]
    est = r["estimates"]
    problems = []
    if r["ladder"] != ladder or len(est) != len(ladder):
        return [f"{op.name}: report ladder {r['ladder']} with {len(est)} estimates"], {}
    if not all(math.isfinite(e) and e > 0 for e in est):
        return [f"{op.name}: non-positive or non-finite estimate in {est}"], {}
    growth = [(b - a) / a for a, b in zip(est, est[1:])]
    if any(abs(g - h) > 1e-12 for g, h in zip(growth, r["step_growth"])):
        problems.append(f"{op.name}: step_growth {r['step_growth']} != recomputed {growth}")
    converges = abs(growth[-1]) < STABILIZATION_THRESHOLD
    diverges = all(g > GROWTH_THRESHOLD for g in growth)
    if (r["converges"], r["diverges"]) != (converges, diverges):
        problems.append(f"{op.name}: flags {r['converges']}/{r['diverges']} != {converges}/{diverges}")
    passed = converges if op.arg("--numerator") == "cone" else diverges
    problems += _verdict_problems(op, exit_code, passed)
    residuals = {"zak.ladder_last_growth": abs(growth[-1])} if op.arg("--numerator") == "cone" else {}
    return problems, residuals


def _check_sweep(op: Op, r: dict, exit_code: int, rng) -> tuple[list[str], dict]:
    N = int(op.arg("--N", 256)) if op.arg("--g-file") is None else r["grid_N"]
    W = int(op.arg("--W"))
    problems = []
    if (r["grid_N"], r["window_W"], r["removed_k"]) != (N, W, int(op.arg("--k", 0))):
        problems.append(f"{op.name}: report N/W/k {r['grid_N']}/{r['window_W']}/{r['removed_k']}")
    if [lv["L"] for lv in r["levels"]] != list(range(1, W + 1)):
        problems.append(f"{op.name}: levels are not 1..{W}")
    # Every weight in these workloads is g(t) = t, dumped or named.
    g_norm = linear_weight_norm(N)
    terms = [lv["term_norm"] for lv in r["levels"] if lv["term_norm"] > 0.0]
    spread = max(abs(t - g_norm) for t in terms) if terms else math.inf
    if op.arg("--dump-weight"):
        problems += _check_weight_file(op, Path(op.arg("--dump-weight")), N)
    passed = r["flags"]["no_norm_convergence"] and spread <= SPREAD_REL_TOL * g_norm
    problems += _verdict_problems(op, exit_code, passed)
    return problems, {"expsys.term_norm_spread": spread}


def _check_weight_file(op: Op, path: Path, N: int) -> list[str]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{op.name}: weight file unreadable: {exc}"]
    samples = payload.get("samples", [])
    if payload.get("N") != N or len(samples) != N:
        return [f"{op.name}: weight file holds N={payload.get('N')} and {len(samples)} samples"]
    dev = max(abs(complex(re, im) - (i + 0.5) / N) for i, (re, im) in enumerate(samples))
    return [f"{op.name}: weight file off (i + 1/2)/N by {dev:.3e}"] if dev > 1e-15 else []


def _check_rp(op: Op, r: dict, exit_code: int, rng) -> tuple[list[str], dict]:
    problems = []
    expect = (int(op.arg("--dim", 8)), int(op.arg("--pairs", 20)), int(op.arg("--trials", 8)))
    if (r["ambient_dim"], r["pair_count"], r["trials_per_pair"]) != expect:
        problems.append(f"{op.name}: report dim/pairs/trials differ from {expect}")
    # Singular values clipped into [0.5, 2] bound the margin below by 0.25.
    if r["min_invertibility_margin"] < 0.25 * (1 - 1e-9):
        problems.append(f"{op.name}: margin {r['min_invertibility_margin']:.3e} below 0.25")
    passed = r["max_identity_deviation"] <= RP_DEVIATION_TOL and r["max_adjoint_asymmetry"] <= RP_ASYMMETRY_TOL
    if bool(r["passed"]) != passed:
        problems.append(f"{op.name}: passed={r['passed']} but the limits give {passed}")
    problems += _verdict_problems(op, exit_code, passed)
    return problems, {"reproducing.identity_dev": r["max_identity_deviation"]}


def _check_excess(op: Op, r: dict, exit_code: int, rng) -> tuple[list[str], dict]:
    problems = []
    n = int(op.arg("--n", 1))
    reductions = sum(note.startswith("reduction:") for note in r["notes"])
    if r["ambient_dim"] != int(op.arg("--dim", 8)) or r["n"] != n - reductions:
        problems.append(f"{op.name}: report dim {r['ambient_dim']}, n {r['n']} after {reductions} reductions")
    if "--dependent-head" in op.argv and reductions < 1:
        problems.append(f"{op.name}: dependent head was not reduced")
    worst = max(r["residuals"].values())
    problems += _verdict_problems(op, exit_code, worst <= 10 * EXCESS_TOL)
    return problems, {"reproducing.excess_worst_residual": worst}


CHECKS = {
    "zak-validate": _check_zak_validate,
    "quotient-ladder": _check_ladder,
    "expsys-sweep": _check_sweep,
    "rp-check": _check_rp,
    "excess-n": _check_excess,
}


def check_op(op: Op, exit_code: int, stdout: str, stderr: str, out_dir: Path, rng):
    """Problems with one finished operation, and the residuals its report gives.

    A nonzero exit alone is not a problem: the runner counts it as a
    failed operation.  Problems are outputs that are missing, malformed
    or inconsistent with the limits, and they make the run incorrect.
    """
    if "Traceback" in stderr:
        return [f"{op.name}: traceback on stderr: {stderr.strip().splitlines()[-1]}"], {}
    state = "PASS" if exit_code == 0 else "FAIL"
    if f"{op.command}: {state}" not in stdout:
        return [f"{op.name}: exit {exit_code} without a {state} verdict line: {stdout.strip()[:200]!r}"], {}
    try:
        report = json.loads((out_dir / f"{op.stem}.json").read_text())
        problems, residuals = CHECKS[op.command](op, report, exit_code, rng)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{op.name}: report missing or malformed: {type(exc).__name__}: {exc}"], {}
    if "--csv" in op.argv:
        problems += _check_csv(op, out_dir / f"{op.stem}.csv")
    return problems, residuals


def _check_csv(op: Op, path: Path) -> list[str]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"{op.name}: csv missing: {exc}"]
    if not lines or lines[0] != "level,value,flag" or len(lines) < 2:
        return [f"{op.name}: csv lacks the level,value,flag header or rows"]
    return []


def report_payload(out_dir: Path, op: Op) -> str:
    """The report as the program serialises it, without its metadata block."""
    payload = json.loads((out_dir / f"{op.stem}.json").read_text())
    payload.pop("metadata", None)
    return json.dumps(payload, indent=2, sort_keys=True)
