"""Command-line front end for the diagnostic experiments.

Each subcommand makes one library call, which runs the experiment and
applies its pass rule, then writes the JSON report (and an optional CSV
of level/value/flag rows) under the output directory and prints one
verdict line:

    expsys-sweep      expsys.sweep_verdict
    zak-validate      zak.validate_verdict
    quotient-ladder   zak.ladder_verdict
    rp-check          reproducing.rp_check_verdict
    excess-n          reproducing.excess_n_verdict

Exit status: 0 when the asserted outcome holds, 2 when it fails or a
computation raises a NumericalFailure, 1 on usage or configuration
errors.  Reports are deterministic for a fixed seed; the only
run-dependent content is the "metadata" field.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

from . import __version__
from .errors import NumericalFailure, ZakbenchError
from .expsys import ExpSystem, PeriodicSignal, load_signal, save_signal, sweep_verdict
from .reports import Verdict, dump_report_json
from .reproducing import DEFAULT_TOL, excess_n_verdict, rp_check_verdict
from .zak import (
    NAMED_NUMERATORS,
    ThetaParams,
    ladder_verdict,
    load_grid_function,
    save_grid_function,
    validate_verdict,
)

USAGE_ERROR = 1
ASSERTION_FAILURE = 2


def _finish(args: argparse.Namespace, stem: str, verdict: Verdict) -> int:
    """Write the report (and CSV rows) under --out and print the verdict line."""
    metadata = {
        "command": args.command,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed,
        "version": __version__,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(dump_report_json(verdict.report, metadata=metadata))
    if args.csv:
        with open(out_dir / f"{stem}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "value", "flag"])
            writer.writerows(verdict.rows)
    state = "PASS" if verdict.passed else "FAIL"
    print(f"{args.command}: {state} ({verdict.detail}) report={json_path}")
    return 0 if verdict.passed else ASSERTION_FAILURE


def _ladder(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _run_expsys_sweep(args: argparse.Namespace) -> int:
    if args.g_file is not None:
        weight = load_signal(args.g_file)
    else:
        weight = PeriodicSignal.from_name(args.g, args.N)
    system = ExpSystem(weight=weight, window=args.W, removed=args.k, anchor=args.t0)
    verdict = sweep_verdict(system, args.max_terms)
    if args.dump_weight is not None:
        save_signal(weight, args.dump_weight)
    return _finish(args, "expsys_sweep", verdict)


def _run_zak_validate(args: argparse.Namespace) -> int:
    stored = load_grid_function(args.theta_file) if args.theta_file is not None else None
    verdict, theta = validate_verdict(
        args.M, args.J, ThetaParams(truncation=args.K), args.shift, args.cov_range, stored
    )
    if args.dump_theta is not None:
        save_grid_function(theta, args.dump_theta)
    return _finish(args, "zak_validate", verdict)


def _run_quotient_ladder(args: argparse.Namespace) -> int:
    verdict = ladder_verdict(args.numerator, args.ladder, ThetaParams(truncation=args.K))
    return _finish(args, f"quotient_ladder_{args.numerator}", verdict)


def _run_rp_check(args: argparse.Namespace) -> int:
    verdict = rp_check_verdict(args.dim, args.pairs, args.trials, args.seed)
    return _finish(args, "rp_check", verdict)


def _run_excess_n(args: argparse.Namespace) -> int:
    verdict = excess_n_verdict(
        args.dim,
        args.n,
        tol=args.tol,
        trials=args.trials,
        seed=args.seed,
        dependent_head=args.dependent_head,
    )
    return _finish(args, "excess_n", verdict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zakbench",
        description="diagnostics for weighted exponential systems, Zak transforms, "
        "and reproducing pairs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    common.add_argument("--out", default="./reports", help="report output directory")
    common.add_argument("--csv", action="store_true", help="also write level,value,flag rows")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "expsys-sweep",
        parents=[common],
        help="partial sums of the dual expansion of the removed element",
    )
    p.add_argument("--g", default="linear", help="weight name: linear, one, or sqrt")
    p.add_argument("--g-file", default=None, help="sampled weight file (overrides --g)")
    p.add_argument("--N", type=int, default=256, help="grid size, even")
    p.add_argument("--W", type=int, default=16, help="frequency window half-width")
    p.add_argument("--k", type=int, default=0, help="removed index")
    p.add_argument("--t0", type=float, default=0.25, help="anchor point in [0, 1)")
    p.add_argument("--max-terms", type=int, default=None, help="sweep levels, default W")
    p.add_argument("--dump-weight", default=None, help="write the weight samples to this file")
    p.set_defaults(run=_run_expsys_sweep)

    p = sub.add_parser(
        "zak-validate",
        parents=[common],
        help="unitarity, covariance, and theta cross-checks of the Zak transform",
    )
    p.add_argument("--M", type=int, default=128, help="grid resolution per axis, even")
    p.add_argument("--J", type=int, default=6, help="translation cutoff of the direct sum")
    p.add_argument("--K", type=int, default=8, help="theta series truncation")
    p.add_argument("--shift", type=int, default=1, help="integer translate for the norm check")
    p.add_argument("--cov-range", type=int, default=2, help="covariance index range")
    p.add_argument("--dump-theta", default=None, help="write the theta-form grid to this file")
    p.add_argument("--theta-file", default=None, help="check a stored grid file against the theta form")
    p.set_defaults(run=_run_zak_validate)

    p = sub.add_parser(
        "quotient-ladder",
        parents=[common],
        help="refinement ladder for a quotient integral against |Z phi|^2",
    )
    p.add_argument("--numerator", choices=tuple(NAMED_NUMERATORS), required=True)
    p.add_argument(
        "--ladder", type=_ladder, default="64,128,256,512", help="comma-separated even resolutions"
    )
    p.add_argument("--K", type=int, default=8, help="theta series truncation")
    p.set_defaults(run=_run_quotient_ladder)

    p = sub.add_parser(
        "rp-check",
        parents=[common],
        help="normalisation of random reproducing pairs",
    )
    p.add_argument("--dim", type=int, default=8, help="ambient dimension")
    p.add_argument("--pairs", type=int, default=20, help="random pairs to test")
    p.add_argument("--trials", type=int, default=8, help="random probes per pair")
    p.set_defaults(run=_run_rp_check)

    p = sub.add_parser(
        "excess-n",
        parents=[common],
        help="head/tail excess identities on a random reproducing pair",
    )
    p.add_argument("--dim", type=int, default=8, help="ambient dimension")
    p.add_argument("--n", type=int, default=1, help="head length")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="working tolerance")
    p.add_argument("--trials", type=int, default=20, help="random probes")
    p.add_argument(
        "--dependent-head",
        action="store_true",
        help="duplicate a head direction to exercise the reduction path",
    )
    p.set_defaults(run=_run_excess_n)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return args.run(args)
    except (ZakbenchError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return ASSERTION_FAILURE if isinstance(exc, NumericalFailure) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
