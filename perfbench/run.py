"""wdro benchmark: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload portfolio-study --seed 1 --seconds 25 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result) when it is not there.
The BLAS thread count is fixed before numpy loads (``--blas-threads``,
default 1, at most the number of usable cores) and recorded, because the
simplex pivot path depends on it.

With ``--trace 0`` the run times whole rounds of operations until
``--seconds`` of operation time have passed, checks every output, and
reports the end-to-end metrics.  With ``--trace 1`` it runs the first
round repeatedly, alternating an untraced and a traced pass, and reports
the per-layer metrics of the traced passes (medians over passes) plus the
tracing overhead.  The last line of standard output is the result object;
the lines before it record the environment and details of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# child processes that each import the program and generate the inputs;
# setup_s is their median
SETUP_REPS = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--setup-only", type=Path, metavar="WORK_DIR",
                   help="time importing the program and generating the inputs "
                        "into WORK_DIR, print the seconds, and exit")
    return p.parse_args(argv)


def blas_threads():
    """Thread count numpy's OpenBLAS reports, or None if it cannot be read."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload: str, seed: int, threads: int) -> list[float]:
    times = []
    for k in range(SETUP_REPS):
        work = OUT / f"setup-{os.getpid()}-{k}"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--blas-threads", str(threads),
                 "--setup-only", str(work)],
                capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_round(ops, run_op, tracer=None):
    """Run one round; return per-op (op, result, error, seconds) and the
    round's wall time."""
    done = []
    t_round = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            res = tracer.run_op(op.label, run_op, op) if tracer else run_op(op)
            err = None
        except Exception:  # an operation that raises counts as failed
            res, err = None, traceback.format_exc()
        done.append((op, res, err, perf_counter() - t0))
    return done, perf_counter() - t_round


class Tally:
    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failed = 0

    def add(self, done) -> None:
        for op, res, err, _ in done:
            self.attempted += 1
            if err is None:
                try:
                    problems = self.check(op, res)
                except Exception:  # a check that cannot run fails the operation
                    problems = [traceback.format_exc()]
            else:
                problems = [err]
            if problems:
                self.failed += 1
                for msg in problems:
                    print(f"FAILED {op.label}: {msg}", file=sys.stderr)


def measure(args, workloads, checks, rounds, work) -> tuple[dict, dict, Tally]:
    tally = Tally(checks.check)
    op_times, round_times, by_kind = [], [], {}
    timed = 0.0
    r = 0
    while True:
        if r == len(rounds):
            rounds.append(workloads.make_round(args.workload, args.seed, r, work))
        done, wall = run_round(rounds[r], workloads.run_op)
        round_times.append(wall)
        timed += wall
        for op, _, _, t in done:
            op_times.append(t)
            by_kind.setdefault(op.label.split("[")[0], []).append(t)
        tally.add(done)
        r += 1
        if timed >= args.seconds:
            break
    # One round's time, robust to a slow operation or a hard input: each
    # kind of operation counts at its median time, as often as a round
    # holds it.
    per_round = {}
    for op in rounds[0]:
        kind = op.label.split("[")[0]
        per_round[kind] = per_round.get(kind, 0) + 1
    metrics = {
        "wall_s": sum(n * statistics.median(by_kind[k]) for k, n in per_round.items()),
        "op_p50_s": statistics.median(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    detail = {
        "rounds": r,
        "ops": len(op_times),
        "round_s": round_times,
        "op_median_s_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
    }
    if len(op_times) >= 40:
        detail["op_p90_s"] = statistics.quantiles(op_times, n=10)[-1]
    return metrics, detail, tally


def measure_traced(args, workloads, checks, rounds) -> tuple[dict, dict, Tally]:
    import tracing

    tally = Tally(checks.check)
    per_round, overheads, pivots = [], [], []
    tracer = tracing.Tracer()
    timed = 0.0
    p = 0
    while True:
        for op in rounds[0]:
            op.label = f"{op.label.split('#')[0]}#{p}"
        # alternate which pass goes first, so that warm-up favours neither
        for traced_pass in (p % 2 == 1, p % 2 == 0):
            if traced_pass:
                tracer.install()
                try:
                    done, t_traced = run_round(rounds[0], workloads.run_op, tracer)
                finally:
                    tracer.uninstall()
            else:
                done, t_plain = run_round(rounds[0], workloads.run_op)
            tally.add(done)
        figures = tracing.layer_metrics(tracer.spans, [op.label for op in rounds[0]])
        per_round.append(figures)
        overheads.append(t_traced - t_plain)
        pivots.append(figures["simplex.pivots"])
        timed += t_plain + t_traced
        p += 1
        if timed >= args.seconds:
            break
    metrics = tracing.median_metrics(per_round)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    OUT.mkdir(parents=True, exist_ok=True)
    dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    dump.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op", "info"], "spans": tracer.spans}
    ))
    detail = {
        "passes": p,
        "pivots_per_pass": pivots,
        "pivots_repeat": len(set(pivots)) == 1,
        "spans": len(tracer.spans),
        "span_file": str(dump.relative_to(HERE.parent)),
    }
    return metrics, detail, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wdro" / "__init__.py").is_file():
        print(f"error: the program's source {SRC / 'wdro'} is missing; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        print(f"error: --blas-threads must lie in [1, {nproc}]", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.setup(args.workload, args.seed, args.setup_only)
        print(perf_counter() - t0)
        return 0

    import wdro

    if Path(wdro.__file__).resolve().parent != (SRC / "wdro").resolve():
        print(f"error: imported wdro from {wdro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    try:
        setup_children = (
            [] if args.trace else measure_setup(args.workload, args.seed, args.blas_threads)
        )
        t_setup = perf_counter()
        rounds = workloads.setup(args.workload, args.seed, work)
        in_process = perf_counter() - t_setup
        import checks

        env = environment()
        print(json.dumps({"environment": env}))
        if args.trace:
            metrics, detail, tally = measure_traced(args, workloads, checks, rounds)
            import tracing

            units = tracing.UNITS
        else:
            metrics, detail, tally = measure(args, workloads, checks, rounds, work)
            metrics["setup_s"] = statistics.median(setup_children)
            detail["setup_children_s"] = setup_children
            units = END_TO_END
        detail["setup_in_process_s"] = in_process
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed, **detail}}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
