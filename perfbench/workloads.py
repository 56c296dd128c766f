"""Inputs and operations of the three benchmark workloads.

Every workload is a closed loop over *rounds*.  A round is a fixed list of
operations whose inputs are a pure function of (workload seed, round
index), so the same seed replays the same inputs and every round has the
same make-up.  The program receives only the generated inputs.

* ``portfolio-study``: one operation is one default-scale run of
  ``run_portfolio_study`` (N in {30, 300}, 8 radii, 7-point grid, 5 folds);
  a round is one operation.
* ``support-instances``: one operation is one cold call on a polyhedral
  support: ``wdro.cli.main(["solve" | "worstcase", ...])`` on a generated
  JSON spec, or ``solve_portfolio`` on the halfspace-support portfolio LP
  of acceptance criterion 8.  A round is one instance of each kind.
* ``uq-study``: one operation is one default-config run of
  ``run_uq_study``; a round is ``UQ_ROUND`` operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("portfolio-study", "support-instances", "uq-study")

# Rounds generated up front; further rounds are generated on demand,
# outside the timed operations.
SETUP_ROUNDS = {"portfolio-study": 12, "support-instances": 6, "uq-study": 12}
UQ_ROUND = 4

# support-instances shapes: m-dimensional box support [-BOX, BOX]^m,
# 1-norm transport cost (so every dual-norm block is 2m max-norm rows)
M = 5
BOX = 2.0
HALFSPACE_RADIUS = 0.05


@dataclass
class Op:
    """One operation: ``kind`` selects the call, ``args`` holds its inputs."""

    kind: str
    label: str
    args: dict


def _child_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# ---------------------------------------------------------------- studies


def study_round(workload: str, seed: int, r: int) -> list[Op]:
    if workload == "portfolio-study":
        return [Op("portfolio_study", f"portfolio-study[{r}]",
                   {"master_seed": _child_seed(seed, r)})]
    return [
        Op("uq_study", f"uq-study[{r}.{j}]",
           {"master_seed": _child_seed(seed, r, j)})
        for j in range(UQ_ROUND)
    ]


# ------------------------------------------------------ support instances


def _box(m: int, half: float):
    C = np.vstack([np.eye(m), -np.eye(m)])
    d = np.full(2 * m, half)
    return C, d


def _uniform(rng, n, m):
    return rng.uniform(-1.0, 1.0, size=(n, m))


def _spec(samples, support, radius, loss) -> dict:
    return {
        "version": 1,
        "norm": "l1",
        "support": support,
        "samples": np.asarray(samples).tolist(),
        "radius": float(radius),
        "loss": loss,
    }


def _poly(C, d) -> dict:
    return {"C": np.asarray(C).tolist(), "d": np.asarray(d).tolist()}


def _pieces(rng, K, m) -> dict:
    return {"slopes": rng.normal(size=(K, m)).tolist(),
            "intercepts": rng.normal(scale=0.5, size=K).tolist()}


def _region(rng, K, m, offset):
    """K halfspaces {a_k x <= b_k} around the origin, a_k unit in the
    1-norm, b_k in ``offset``; each boundary meets the box support."""
    A = rng.normal(size=(K, m))
    A /= np.abs(A).sum(axis=1, keepdims=True)
    b = rng.uniform(*offset, size=K)
    return A, b


def support_round(seed: int, r: int) -> list[Op]:
    """One instance of each kind.  Sizes are fixed; only the data vary."""
    rng = np.random.default_rng(_child_seed(seed, r, 1))
    C, d = _box(M, BOX)
    box = _poly(C, d)
    ops = []

    # max-affine, 3 pieces, N=20: 660 x 621
    X = _uniform(rng, 20, M)
    loss = {"type": "max_affine", **_pieces(rng, 3, M)}
    ops.append(Op("cli_solve", "max_affine",
                  {"spec": _spec(X, box, rng.uniform(0.05, 0.3), loss)}))
    X = _uniform(rng, 10, M)
    loss = {"type": "max_affine", **_pieces(rng, 3, M)}
    ops.append(Op("cli_worstcase", "max_affine_worstcase",
                  {"spec": _spec(X, box, rng.uniform(0.05, 0.3), loss)}))

    # min-affine, 3 pieces, N=40: 480 x 561
    X = _uniform(rng, 40, M)
    loss = {"type": "min_affine", **_pieces(rng, 3, M)}
    ops.append(Op("cli_solve", "min_affine",
                  {"spec": _spec(X, box, rng.uniform(0.05, 0.3), loss)}))

    # probability of leaving an open region, 5 halfspaces, N=12: 660 x 673
    X = _uniform(rng, 12, M)
    A, b = _region(rng, 5, M, (0.3, 0.8))
    loss = {"type": "uq_worst", "region": _poly(A, b)}
    ops.append(Op("cli_solve", "uq_worst",
                  {"spec": _spec(X, box, rng.uniform(0.02, 0.2), loss)}))

    # probability of a closed region, 6 halfspaces, N=60: 660 x 1021
    X = _uniform(rng, 60, M)
    A, b = _region(rng, 6, M, (0.3, 0.8))
    loss = {"type": "uq_best", "region": _poly(A, b)}
    ops.append(Op("cli_solve", "uq_best",
                  {"spec": _spec(X, box, rng.uniform(0.02, 0.2), loss)}))

    # objective-side recourse over the box y in [-1, 1]^4, N=30: 570 x 451
    X = _uniform(rng, 30, M)
    n_y = 4
    W = np.vstack([np.eye(n_y), -np.eye(n_y)])
    loss = {"type": "two_stage_objective",
            "Q": rng.normal(size=(n_y, M)).tolist(),
            "W": W.tolist(), "h": (-np.ones(2 * n_y)).tolist()}
    ops.append(Op("cli_solve", "two_stage_objective",
                  {"spec": _spec(X, box, rng.uniform(0.05, 0.3), loss)}))

    # right-hand-side recourse with one recourse variable and 4 rows of
    # positive W: the dual set {theta >= 0 : W' theta = q} is a simplex
    # with exactly 4 vertices, so 4 pieces whatever the seed; N=12: 528 x 493
    X = _uniform(rng, 12, M)
    W = rng.uniform(0.5, 1.5, size=(4, 1))
    loss = {"type": "two_stage_rhs", "q": [float(rng.uniform(0.5, 1.5))],
            "W": W.tolist(), "H": rng.normal(scale=0.5, size=(4, M)).tolist(),
            "h": rng.normal(scale=0.5, size=4).tolist()}
    ops.append(Op("cli_solve", "two_stage_rhs",
                  {"spec": _spec(X, box, rng.uniform(0.05, 0.3), loss)}))

    # two stages of dimension 3, 3 pieces each, box supports
    Cs, ds = _box(3, BOX)

    def separable(n):
        stages = [{**_pieces(rng, 3, 3), "support": _poly(Cs, ds)} for _ in range(2)]
        return _spec(_uniform(rng, n, 6), "free", rng.uniform(0.05, 0.3),
                     {"type": "separable", "stages": stages})

    ops.append(Op("cli_solve", "separable", {"spec": separable(12)}))  # 504 x 457
    ops.append(Op("cli_worstcase", "separable_worstcase", {"spec": separable(6)}))

    # acceptance criterion 8's halfspace support xi >= -1 for the
    # portfolio LP (N=30, 10 assets: 1261 x 642) at a radius well below
    # the one at which equal weights become optimal; pivots grow with the
    # radius, so it is fixed and only the market data vary
    prng = np.random.default_rng(_child_seed(seed, r, 2))
    data = market_sample(30, prng)
    while data.min() <= -1.0:  # keep every sample inside the support
        data = market_sample(30, prng)
    ops.append(Op("portfolio_halfspace", "portfolio_halfspace",
                  {"data": data, "epsilon": HALFSPACE_RADIUS}))
    for op in ops:
        op.label = f"{op.label}[{r}]"
    return ops


def write_specs(ops: list[Op], work: Path, r: int) -> None:
    """Write each CLI operation's spec where the CLI reads it."""
    for k, op in enumerate(ops):
        if op.kind.startswith("cli_"):
            path = work / f"r{r}-{k}.json"
            path.write_text(json.dumps(op.args["spec"]))
            op.args["spec_path"] = str(path)
            op.args["out_path"] = str(path.with_suffix(".out.json"))


# ------------------------------------------------------------- the market


def market_sample(n, rng, m=10, systematic=0.02, mean_step=0.03, sd_step=0.025):
    """The synthetic market of the studies, written out independently of
    ``wdro.MarketModel``: one systematic factor N(0, systematic) shared by
    all assets plus idiosyncratic N(i*mean_step, i*sd_step), i = 1..m."""
    idx = np.arange(1, m + 1, dtype=float)
    psi = rng.normal(0.0, systematic, size=(n, 1))
    zeta = rng.normal(mean_step * idx, sd_step * idx, size=(n, m))
    return psi + zeta


# ---------------------------------------------------------------- rounds


def make_round(workload: str, seed: int, r: int, work: Path) -> list[Op]:
    if workload == "support-instances":
        ops = support_round(seed, r)
        write_specs(ops, work, r)
        return ops
    return study_round(workload, seed, r)


def setup(workload: str, seed: int, work: Path) -> list[list[Op]]:
    """Import the program and generate the first rounds' inputs; this is
    what ``setup_s`` times."""
    import wdro  # noqa: F401  (the import is part of set-up)

    work.mkdir(parents=True, exist_ok=True)
    return [make_round(workload, seed, r, work) for r in range(SETUP_ROUNDS[workload])]


# ------------------------------------------------------------ operations


def run_op(op: Op):
    """Execute one operation and return its raw result."""
    from wdro import cli, experiments

    if op.kind == "portfolio_study":
        cfg = experiments.PortfolioStudyConfig(runs=1, master_seed=op.args["master_seed"])
        return experiments.run_portfolio_study(cfg)
    if op.kind == "uq_study":
        cfg = experiments.UqStudyConfig(runs=1, master_seed=op.args["master_seed"])
        return run_uq_study_seen(cfg)
    if op.kind in ("cli_solve", "cli_worstcase"):
        cmd = "solve" if op.kind == "cli_solve" else "worstcase"
        code = cli.main([cmd, "--spec", op.args["spec_path"], "--out", op.args["out_path"]])
        return code
    if op.kind == "portfolio_halfspace":
        spec = halfspace_spec()
        return experiments.solve_portfolio(spec, op.args["data"], op.args["epsilon"])
    raise ValueError(f"unknown operation kind {op.kind!r}")


def run_uq_study_seen(cfg):
    """``run_uq_study`` plus the weights each event region was built from,
    which the report does not carry but the probability check needs."""
    from wdro import experiments

    seen = []
    make_region = experiments.outperformance_region

    def recording(weights, assets):
        seen.append(np.array(weights, dtype=float))
        return make_region(weights, assets)

    experiments.outperformance_region = recording
    try:
        return experiments.run_uq_study(cfg), seen, cfg
    finally:
        experiments.outperformance_region = make_region


def halfspace_spec():
    from wdro import Polytope, PortfolioSpec

    return PortfolioSpec(support=Polytope(-np.eye(10), np.ones(10), 10))
