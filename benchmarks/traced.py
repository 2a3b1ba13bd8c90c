"""Traced in-process run of zakbench CLI commands.

    python3 benchmarks/traced.py OPS_JSON RESULT_JSON

OPS_JSON holds a list of argv lists.  Each is passed, in order, to
``zakbench.cli.main`` in this one process, after the layer functions
below have been wrapped in timing spans.  A wrapper replaces the
function on its defining module and on every zakbench module that
imported the name, so calls from the CLI and between modules are both
seen, and no source file changes.  RESULT_JSON receives each command's
exit code and output, and per function the inclusive wall time, self
time (span minus child spans), CPU time and call count, together with
work counters and the exceptions that escaped each module.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

# Wrapped functions by layer; the layers are zakbench's modules.
LAYERS = {
    "cli": ("main",),
    "reports": ("dump_report_json",),
    "zak": (
        "theta1",
        "gaussian_zak_theta",
        "theta_grid",
        "quotient_integral",
        "zak_transform",
        "save_grid_function",
        "load_grid_function",
    ),
    "expsys": ("schauder_failure_sweep", "weighted_exp", "save_signal", "load_signal"),
    "reproducing": (
        "random_pair_check",
        "random_spanning_family",
        "normalize_pair",
        "reproducing_identity_check",
        "s_operator",
        "random_excess_pair",
        "canonical_dual_frame",
        "excess_n_identities",
    ),
    "linalg": ("rank_and_span", "gram_matrix"),
}

COMPLEX_BYTES = 16


def _theta1_counts(args, result):
    points = int(np.size(args["z"]))
    # The sine temporary np.multiply.outer(z, 2k+1) holds points x (K+1) complex values.
    computed = points * (args["params"].truncation + 1) * COMPLEX_BYTES
    return {"zak.theta1.points": points, "zak.theta1.bytes_computed": computed}


def _file_bytes(name):
    return lambda args, result: {name: os.path.getsize(args["path"])}


# Work counters per wrapped function, computed after a call returns from
# its bound arguments and result.
COUNTERS = {
    "reports.dump_report_json": lambda a, r: {"reports.report_bytes": len(r.encode())},
    "zak.theta1": _theta1_counts,
    "zak.zak_transform": lambda a, r: {"zak.zak_transform.terms": a["M"] ** 2 * (2 * a["J"] + 1)},
    "zak.save_grid_function": _file_bytes("zak.grid_file_bytes"),
    "zak.load_grid_function": _file_bytes("zak.grid_file_bytes"),
    "expsys.save_signal": _file_bytes("expsys.signal_file_bytes"),
    "expsys.load_signal": _file_bytes("expsys.signal_file_bytes"),
    "expsys.weighted_exp": lambda a, r: {"expsys.exp_evals": a["system"].N},
    "reproducing.excess_n_identities": lambda a, r: {
        "reproducing.reduction_steps": sum(n.startswith("reduction:") for n in r.notes)
    },
}

COUNT_NAMES = (
    "reports.report_bytes",
    "zak.theta1.points",
    "zak.theta1.bytes_computed",
    "zak.zak_transform.terms",
    "zak.grid_file_bytes",
    "expsys.signal_file_bytes",
    "expsys.exp_evals",
    "reproducing.reduction_steps",
)


class Tracer:
    """Span statistics per wrapped function, kept in memory until the run ends."""

    def __init__(self):
        self.stats = {f"{m}.{f}": [0.0, 0.0, 0.0, 0] for m, fns in LAYERS.items() for f in fns}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.escaped = {m: [] for m in LAYERS}
        self._child_time = []  # one accumulator per open span

    def wrap(self, module, name, fn):
        key = f"{module}.{name}"
        counter = COUNTERS.get(key)
        signature = inspect.signature(fn) if counter else None
        stat = self.stats[key]
        escaped = self.escaped[module]
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not any(e is exc for e in escaped):
                    escaped.append(exc)
                raise
            finally:
                span = time.perf_counter() - t0
                stat[2] += time.process_time() - c0
                children = stack.pop()
                if stack:
                    stack[-1] += span
                stat[0] += span
                stat[1] += span - children
                stat[3] += 1
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counted, amount in counter(bound.arguments, result).items():
                    self.counts[counted] += amount
            return result

        return wrapper

    def install(self):
        """Replace every layer function on each zakbench module that holds it."""
        import zakbench.cli  # noqa: F401  imports every layer module

        modules = [m for n, m in sys.modules.items() if n == "zakbench" or n.startswith("zakbench.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"zakbench.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(layer, name, original)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapped)


def run(argvs):
    tracer = Tracer()
    tracer.install()
    import zakbench.cli as cli

    ops = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # an escaped exception is a failed operation; keep going
                traceback.print_exc()
                code = None
        ops.append({"exit": code, "wall_s": time.perf_counter() - t0,
                    "stdout": out.getvalue(), "stderr": err.getvalue()})
    return {
        "ops": ops,
        "stats": tracer.stats,
        "counts": tracer.counts,
        "errors": {m: len(excs) for m, excs in tracer.escaped.items()},
    }


if __name__ == "__main__":
    ops_path, result_path = sys.argv[1:3]
    with open(ops_path) as fh:
        argvs = json.load(fh)
    result = run(argvs)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
