"""Command-line front end for the diagnostic experiments.

Each subcommand makes one library call, which runs the experiment and
returns a reports.Verdict, the report and the checks of its pass rule:

    expsys-sweep      expsys.schauder_failure_sweep: no_norm_convergence, term_norm_spread
    zak-validate      zak.validate_verdict: gaussian_norm, translated_norm, covariance,
                      theta_vs_series, center_zero, theta_prime, theta_file
    quotient-ladder   zak.quotient_integral: last_step_growth (cone), min_step_growth (one)
    rp-check          reproducing.random_pair_check: max_identity_deviation, max_adjoint_asymmetry
    excess-n          reproducing.excess_n_verdict: partner_correction, head_reconstruction,
                      final_chain, pair_identity_deviation

The command writes the JSON report under --out with the checks in its
metadata, and with --csv the verdict's rows, then prints one verdict
line that names the failing checks.  The package loads the layers
lazily, so importing this module executes no mathematical layer, and a
command executes only the layer it calls and that layer's imports,
first on the main thread, before any pool starts.

Exit status: 0 when every check passes; 2 when one fails, or when
valid input meets a computation that does not hold at the working
tolerance (a linalg.NumericalFailure, or numpy's LinAlgError from
LAPACK); 1 on bad input (ValueError, OSError for a file that cannot be
read or written, MemoryError for sizes too large for the host) and on
unknown or malformed arguments.  Each error prints one line on stderr:
its class name and message, or argparse's message without the usage
text.  main runs the whole command with OpenBLAS held at one thread
(linalg.single_threaded_blas), so reports are deterministic for a fixed
seed at any BLAS thread count; only the "metadata" field varies between
runs, with the argv, the time, the Python, numpy and zakbench versions
and the OpenBLAS thread count the run was configured with, read before
the hold.  That count is 1 unless OPENBLAS_NUM_THREADS is set:
importing the zakbench package, which runs before this module imports
numpy, sets the variable to 1 when it is unset.  Called as the process
entry (argv None), main first freezes the start-up heap with gc.freeze(),
so no collection, the shutdown ones included, walks numpy's objects.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import gc
import sys
from pathlib import Path

from numpy import __version__ as numpy_version
from numpy.linalg import LinAlgError

from . import __version__, expsys, linalg, reports, reproducing, zak

USAGE_ERROR = 1
ASSERTION_FAILURE = 2


def _finish(args: argparse.Namespace, stem: str, verdict: reports.Verdict) -> int:
    """Write the report (and CSV rows) under --out and print the verdict line."""
    metadata = {
        "argv": args.argv,
        "blas_threads": args.blas_threads,
        "checks": verdict.checks,
        "command": args.command,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "numpy": numpy_version,
        "python": sys.version.split()[0],
        "seed": args.seed,
        "version": __version__,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(reports.dump_report_json(verdict.report, metadata=metadata))
    if args.csv:
        with open(out_dir / f"{stem}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([("level", "value", "flag"), *verdict.rows])
    state = "PASS" if verdict.passed else "FAIL"
    print(f"{args.command}: {state} ({verdict.detail}) report={json_path}")
    return 0 if verdict.passed else ASSERTION_FAILURE


def _ladder(text: str) -> list[int]:
    """A --ladder value; the layer checks that each entry is a positive even integer."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    return [int(part) for part in parts]


def _seed(text: str) -> int:
    """A --seed value; numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _run_expsys_sweep(args: argparse.Namespace) -> int:
    if args.g_file is not None:
        weight = expsys.load_signal(args.g_file)
    else:
        weight = expsys.PeriodicSignal.from_name(args.g, args.N)
    system = expsys.ExpSystem(weight=weight, window=args.W, removed=args.k, anchor=args.t0)
    verdict = expsys.schauder_failure_sweep(system)
    if args.dump_weight is not None:
        expsys.save_signal(weight, args.dump_weight)
    return _finish(args, "expsys_sweep", verdict)


def _run_zak_validate(args: argparse.Namespace) -> int:
    stored = zak.load_grid_function(args.theta_file) if args.theta_file is not None else None
    verdict, theta = zak.validate_verdict(args.M, stored)
    if args.dump_theta is not None:
        zak.save_grid_function(theta, args.dump_theta)
    return _finish(args, "zak_validate", verdict)


def _run_quotient_ladder(args: argparse.Namespace) -> int:
    verdict = zak.quotient_integral(args.numerator, args.ladder)
    return _finish(args, f"quotient_ladder_{args.numerator}", verdict)


def _run_rp_check(args: argparse.Namespace) -> int:
    verdict = reproducing.random_pair_check(args.dim, args.pairs, args.seed)
    return _finish(args, "rp_check", verdict)


def _run_excess_n(args: argparse.Namespace) -> int:
    verdict = reproducing.excess_n_verdict(args.dim, args.n, args.seed, args.dependent_head)
    return _finish(args, "excess_n", verdict)


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one line, as every other error is printed; subparsers inherit it."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zakbench",
        description="diagnostics for weighted exponential systems, Zak transforms, "
        "and reproducing pairs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    seed_help = "seed of rp-check's and excess-n's draws; the other commands only record it in metadata"
    common.add_argument("--seed", type=_seed, default=0, help=seed_help)
    common.add_argument("--out", default="./reports", help="report output directory")
    common.add_argument("--csv", action="store_true", help="also write level,value,flag rows")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    p = command("expsys-sweep", _run_expsys_sweep,
                "partial sums of the dual expansion of the removed element")
    p.add_argument("--g", default="linear", help="weight name: linear, one, or sqrt")
    p.add_argument("--g-file", default=None, help="sampled weight file (overrides --g)")
    p.add_argument("--N", type=int, default=256, help="grid size, even")
    p.add_argument("--W", type=int, default=16, help="frequency window half-width")
    p.add_argument("--k", type=int, default=0, help="removed index")
    p.add_argument("--t0", type=float, default=0.25, help="anchor point in [0, 1)")
    p.add_argument("--dump-weight", default=None, help="write the weight samples to this file")

    p = command("zak-validate", _run_zak_validate,
                "unitarity, covariance, and theta cross-checks of the Zak transform")
    p.add_argument("--M", type=int, default=128, help="grid resolution per axis, even")
    p.add_argument("--dump-theta", default=None, help="write the theta-form grid to this file")
    p.add_argument("--theta-file", default=None, help="check a stored grid file against the theta form")

    p = command("quotient-ladder", _run_quotient_ladder,
                "refinement ladder for a quotient integral against |Z phi|^2")
    p.add_argument("--numerator", required=True, help="cone or one")
    p.add_argument("--ladder", type=_ladder, default="64,128,256,512",
                   help="comma-separated even resolutions")

    p = command("rp-check", _run_rp_check, "normalisation of random reproducing pairs")
    p.add_argument("--dim", type=int, default=8, help="ambient dimension")
    p.add_argument("--pairs", type=int, default=20, help="random pairs to test")

    p = command("excess-n", _run_excess_n, "head/tail excess identities on a random reproducing pair")
    p.add_argument("--dim", type=int, default=8, help="ambient dimension")
    p.add_argument("--n", type=int, default=1, help="head length")
    p.add_argument("--dependent-head", action="store_true",
                   help="duplicate a head direction to exercise the reduction path")

    return parser


def main(argv=None) -> int:
    if argv is None:
        # As the process entry, move the start-up heap (numpy, argparse, the
        # stdlib) to the collector's permanent generation: it lives until exit,
        # and neither later collections nor those at shutdown walk it again.
        # An in-process caller passes argv and keeps its collector untouched.
        gc.freeze()
        argv = sys.argv[1:]
    else:
        argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    args.argv = argv
    args.blas_threads = linalg.blas_threads()  # the configured count, before the hold
    try:
        with linalg.single_threaded_blas():
            return args.run(args)
    except (linalg.NumericalFailure, ValueError, OSError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; print the public name.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"{name}: {exc}", file=sys.stderr)
        # LinAlgError subclasses ValueError: a LAPACK failure is numerical.
        numerical = isinstance(exc, (linalg.NumericalFailure, LinAlgError))
        return ASSERTION_FAILURE if numerical else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
