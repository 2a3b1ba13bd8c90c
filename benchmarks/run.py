#!/usr/bin/env python3
"""Benchmark of the zakbench CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  With ``--trace 0`` the workload's
command list runs as passes, one fresh ``python -m zakbench.cli``
process per command, closed loop and sequential from this one process,
for about S seconds, and the end-to-end metrics are medians over the
passes.  With ``--trace 1`` one such pass runs untraced and then one
pass runs in-process under ``traced.py``, which gives the per-layer
metrics; the two passes must write byte-identical report payloads.

Every command gets ``--seed N``.  Each command's report is checked (see
``workloads.py``).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before
it records the environment, the sample counts and any problem found.
Metric names and units are those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0   # a run must end within 180 s
SETUP_SAMPLES = 9     # at least this many set-up samples per run
SETUP_PER_PASS = 2
THREAD_VARS = ("ZAKBENCH_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RESIDUALS = (
    "zak.theta_vs_series_dev",
    "zak.covariance_dev",
    "zak.ladder_last_growth",
    "expsys.term_norm_spread",
    "reproducing.identity_dev",
    "reproducing.excess_worst_residual",
)


@dataclass
class Child:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str = ""
    stderr: str = ""


@dataclass
class OpResult:
    op: wl.Op
    exit: int | None
    problems: list[str]
    residuals: dict = field(default_factory=dict)
    child: Child | None = None

    @property
    def failed(self) -> bool:
        return self.exit != 0 or bool(self.problems)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: Path, deadline: float, log: Path) -> Child:
    """Run one child to completion; wall time, rusage CPU and peak RSS from os.wait4."""
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or an interrupt: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            exit=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            stdout=out.read(),
            stderr=err.read(),
        )


def op_argv(op: wl.Op, out_root: Path) -> list[str]:
    return [*op.argv, "--out", str(out_root / op.name)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_pass(ops: list[wl.Op], out_root: Path, deadline: float, rng: random.Random) -> list[OpResult]:
    """One pass over the command list, each command in a fresh process."""
    fresh_dir(out_root / "files")
    logs = fresh_dir(out_root / "logs")
    results = []
    for op in ops:
        shutil.rmtree(out_root / op.name, ignore_errors=True)
        argv = [sys.executable, "-m", "zakbench.cli", *op_argv(op, out_root)]
        child = spawn(argv, out_root, deadline, logs / op.name)
        problems, residuals = wl.check_op(op, child.exit, child.stdout, child.stderr, out_root / op.name, rng)
        results.append(OpResult(op, child.exit, problems, residuals, child))
    return results


def import_time(cwd: Path, deadline: float, log: Path) -> float:
    """Wall seconds of a fresh process importing the CLI: interpreter, numpy and package import."""
    child = spawn([sys.executable, "-c", "import zakbench.cli"], cwd, deadline, log)
    if child.exit != 0:
        raise SystemExit(f"importing zakbench.cli failed: {child.stderr.strip()}")
    return child.wall_s


def traced_pass(ops: list[wl.Op], out_root: Path, deadline: float, rng: random.Random):
    """The same pass in one process under traced.py; returns op results, trace data and wall time."""
    fresh_dir(out_root / "files")
    logs = fresh_dir(out_root / "logs")
    ops_file, result_file = out_root / "ops.json", out_root / "trace.json"
    ops_file.write_text(json.dumps([op_argv(op, out_root) for op in ops]))
    child = spawn([sys.executable, str(HERE / "traced.py"), str(ops_file), str(result_file)],
                  out_root, deadline, logs / "traced")
    if child.exit != 0:
        raise SystemExit(f"traced run exited {child.exit}: {child.stderr.strip()[-2000:]}")
    trace = json.loads(result_file.read_text())
    results = []
    for op, rec in zip(ops, trace["ops"]):
        problems, residuals = wl.check_op(op, rec["exit"], rec["stdout"], rec["stderr"], out_root / op.name, rng)
        results.append(OpResult(op, rec["exit"], problems, residuals))
    return results, trace, child.wall_s


def payload_problems(plain: Path, traced: Path, ops: list[wl.Op]) -> list[str]:
    """Differences between what the untraced and the traced pass wrote."""
    problems = []
    for op in ops:
        try:
            same = wl.report_payload(plain / op.name, op) == wl.report_payload(traced / op.name, op)
        except (OSError, ValueError) as exc:
            problems.append(f"{op.name}: report payloads not comparable: {exc}")
            continue
        if not same:
            problems.append(f"{op.name}: traced report payload differs from the untraced one")
    for rel in sorted({p.relative_to(plain) for p in plain.glob("*/*.csv")} |
                      {p.relative_to(plain) for p in (plain / "files").glob("*")}):
        a, b = plain / rel, traced / rel
        if not b.is_file() or a.read_bytes() != b.read_bytes():
            problems.append(f"{rel}: traced file differs from the untraced one")
    return problems


def oracle(workload: str, seed: int) -> tuple[float | None, list[str]]:
    """zak.gaussian_zak_theta against mpmath at seeded points, for workloads that run zak code."""
    if workload == "frames":
        return None, []
    from zakbench.zak import gaussian_zak_theta

    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(wl.ORACLE_POINTS)]
    dev = wl.theta_oracle_dev(points, gaussian_zak_theta)
    problems = [] if dev <= wl.ORACLE_TOL else [f"theta form off mpmath by {dev:.3e}"]
    return dev, problems


def blas_threads() -> int | None:
    """OpenBLAS thread count of this process, which every child inherits."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def declared_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def finish(kind: str, values: dict, results: list[OpResult], problems: list[str], info: dict) -> None:
    units = declared_units(kind)
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(values) ^ set(units))}")
    problems = problems + [p for r in results for p in r.problems]
    nonzero = [r.op.name for r in results if r.exit != 0]
    info.update(problems=problems, nonzero_exit=nonzero)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems and not nonzero,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }))


def run_untraced(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> None:
    ops = wl.build_ops(workload, seed, work / "plain" / "files")
    rng = random.Random(seed)
    logs = fresh_dir(work / "setup")
    import_time(work, deadline, logs / "warmup")  # fills the bytecode and file caches
    setup, passes = [], []
    start = time.monotonic()
    while True:
        # Set-up samples are spread over the run like the passes they precede.
        for _ in range(SETUP_PER_PASS):
            setup.append(import_time(work, deadline, logs / str(len(setup))))
        passes.append(run_pass(ops, work / "plain", deadline, rng))
        elapsed = time.monotonic() - start
        killed = any(r.exit is not None and r.exit < 0 for r in passes[-1])
        if killed or elapsed + elapsed / len(passes) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_time(work, deadline, logs / str(len(setup))))
    walls = [sum(r.child.wall_s for r in p) for p in passes]
    cpus = [sum(r.child.cpu_s for r in p) for p in passes]
    rsss = [max(r.child.rss_mb for r in p) for p in passes]
    _, problems = oracle(workload, seed)
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setup),
    }
    info = {
        "env": environment(seed),
        "samples": {"passes": len(passes), "setup": len(setup)},
        "per_pass": {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setup},
    }
    finish("end_to_end", values, [r for p in passes for r in p], problems, info)


def run_traced(workload: str, seed: int, work: Path, deadline: float) -> None:
    rng = random.Random(seed)
    plain_ops = wl.build_ops(workload, seed, work / "plain" / "files")
    plain = run_pass(plain_ops, work / "plain", deadline, rng)
    traced_ops = wl.build_ops(workload, seed, work / "traced" / "files")
    traced, trace, traced_wall = traced_pass(traced_ops, work / "traced", deadline, rng)
    problems = payload_problems(work / "plain", work / "traced", traced_ops)
    oracle_dev, oracle_problems = oracle(workload, seed)
    results = plain + traced

    values = {}
    for key, (span, self_s, cpu, calls) in trace["stats"].items():
        values.update({f"{key}.s": span, f"{key}.self_s": self_s, f"{key}.cpu_s": cpu, f"{key}.calls": calls})
    values.update({f"{module}.errors": n for module, n in trace["errors"].items()})
    values.update(trace["counts"])
    steps = trace["counts"]["reproducing.reduction_steps"]
    svds = trace["stats"]["linalg.rank_and_span"][3]
    values["linalg.rank_and_span.per_reduction"] = svds / steps if steps else 0.0
    for name in RESIDUALS:
        values[name] = max((r.residuals[name] for r in plain if name in r.residuals), default=0.0)
    values["zak.theta_oracle_dev"] = oracle_dev if oracle_dev is not None else 0.0
    values["trace_overhead_s"] = traced_wall - sum(r.child.wall_s for r in plain)
    values["fail_ratio"] = sum(r.failed for r in results) / len(results)
    info = {
        "env": environment(seed),
        "samples": {"untraced_passes": 1, "traced_passes": 1},
        "base": {"rank_and_span_calls": svds, "reduction_steps": steps,
                 "failed": sum(r.failed for r in results), "attempted": len(results)},
    }
    finish("per_layer", values, results, problems + oracle_problems, info)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zakbench" / "cli.py").is_file():
        print(f"no zakbench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM raises SystemExit, so the running child is killed and reaped and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    work = fresh_dir(ROOT / ".bench_work" / f"run-{os.getpid()}")
    try:
        if args.trace:
            run_traced(args.workload, args.seed, work, deadline)
        else:
            run_untraced(args.workload, args.seed, args.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
