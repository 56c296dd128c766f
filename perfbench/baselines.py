"""Reference solve times: wdro's simplex engine against scipy's HiGHS on
the same linear programs.

    python3 perfbench/baselines.py [--blas-threads 1] [--seed 1]

Prints one JSON line per program:

* the free-support portfolio LP that the studies solve (the shortcut
  program inside ``solve_portfolio``) at N = 30, 300 and 1000, radius 0.01,
  on market data drawn from ``--seed``;
* the main program of each support-instances operation in round 0 of
  ``--seed``, as the public ``build_*`` function returns it, and the
  halfspace-support portfolio program.

Each line holds rows, columns, nonzero share, engine pivots, engine
seconds and HiGHS seconds (median of three HiGHS solves).  Not part of
the benchmark runs; it documents the external yardstick.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(HERE.parent / "src"))

    import numpy as np

    import checks
    import workloads
    from wdro import PortfolioSpec, experiments, solve_lp

    def report(name, lp):
        t0 = perf_counter()
        sol = solve_lp(lp)
        engine = perf_counter() - t0
        highs = []
        for _ in range(3):
            t0 = perf_counter()
            checks.highs_value(lp)
            highs.append(perf_counter() - t0)
        A = lp.row_coeffs
        print(json.dumps({
            "program": name, "rows": A.shape[0], "columns": A.shape[1],
            "density": round(float((A != 0).sum() / A.size), 5),
            "pivots": sol.iterations, "engine_s": round(engine, 4),
            "highs_s": round(statistics.median(highs), 4),
        }), flush=True)

    # the shortcut program is private to solve_portfolio: catch it on its
    # way to the solver
    caught = []

    def catching(lp, config=None):
        caught.append(lp)
        return solve_lp(lp, config)

    experiments.solve_lp = catching
    try:
        for n in (30, 300, 1000):
            data = workloads.market_sample(n, np.random.default_rng([args.seed, n]))
            experiments.solve_portfolio(PortfolioSpec(), data, 0.01)
    finally:
        experiments.solve_lp = solve_lp
    for n, lp in zip((30, 300, 1000), caught):
        report(f"free_support_portfolio_N{n}", lp)

    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for op in workloads.make_round("support-instances", args.seed, 0, Path(work)):
            label = op.label.split("[")[0]
            if op.kind == "portfolio_halfspace":
                lp = experiments.build_portfolio_dro(
                    workloads.halfspace_spec(), op.args["data"], op.args["epsilon"])
            elif op.kind == "cli_solve":
                lp = checks.build_program(checks.problem_from_spec(op.args["spec"]))
            else:
                continue
            report(label, lp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
