"""Output checks that do not trust the program.

Each check recomputes what it compares against: LP values with scipy's
HiGHS, probabilities with ``scipy.stats.multivariate_normal``, losses,
frequencies and transport distances with numpy and HiGHS, and the study
data from the seed scheme the study manifest records.  Where no
independent value exists, the check tests a property the method must
have (monotone or concave certificate curves, brackets inside [0, 1]).
Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import multivariate_normal

import workloads

# Agreement between two LP solvers on the same program.  Both solve to
# ~1e-9 feasibility; 1e-6 relative is far above that and far below any
# real modelling error.
LP_TOL = 1e-6
# wdro's documented ball-membership tolerance for extremal distributions
MEMBERSHIP_TOL = 1e-6
# wdro drops extremal atoms lighter than this and renormalizes the rest
ATOM_TOL = 1e-7
# the orthant oracle against scipy's quasi-Monte Carlo estimate
PROB_TOL = 1e-5
# property checks on computed curves
CURVE_TOL = 1e-9

_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def highs_value(lp) -> float:
    """Optimal value of a ``wdro.LinearProgram`` by scipy's HiGHS."""
    A = lp.row_coeffs
    rel = np.array(lp.row_relations)
    le, ge, eq = rel == "<=", rel == ">=", rel == "="
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([lp.row_rhs[le], -lp.row_rhs[ge]])
    c = -lp.costs if lp.sense == "max" else lp.costs
    bounds = [
        (None if np.isneginf(lo) else lo, None if np.isposinf(hi) else hi)
        for lo, hi in zip(lp.lower, lp.upper)
    ]
    res = linprog(
        c,
        A_ub=sparse.csr_matrix(A_ub) if A_ub.shape[0] else None,
        b_ub=b_ub if A_ub.shape[0] else None,
        A_eq=sparse.csr_matrix(A[eq]) if eq.any() else None,
        b_eq=lp.row_rhs[eq] if eq.any() else None,
        bounds=bounds,
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(-res.fun if lp.sense == "max" else res.fun)


def transport_distance(X, points, weights) -> float:
    """1-Wasserstein distance, 1-norm ground cost, between the uniform
    distribution on the rows of X and the weighted points, by HiGHS."""
    X, P = np.atleast_2d(X), np.atleast_2d(points)
    n, k = X.shape[0], P.shape[0]
    cost = np.abs(X[:, None, :] - P[None, :, :]).sum(axis=2).ravel()
    rows = sparse.kron(sparse.eye(n), np.ones((1, k)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(k))
    A_eq = sparse.vstack([rows, cols]).tocsr()
    b_eq = np.concatenate([np.full(n, 1.0 / n), weights / np.sum(weights)])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS transport solve ended with status {res.status}")
    return float(res.fun)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# ------------------------------------------------------- portfolio study


def study_data(manifest: dict, run: int, n: int, market: dict) -> np.ndarray:
    """Regenerate one arm's data by the seed scheme the manifest records:
    SeedSequence(master_seed) spawns one child per run, each run one per
    sample-size arm (sorted), each arm (data, holdout, cv)."""
    arms = sorted(set(manifest["n_curve"]) | set(manifest["n_calibration"]))
    runs = np.random.SeedSequence(manifest["master_seed"]).spawn(manifest["runs"])
    data_seq = runs[run].spawn(len(arms))[arms.index(n)].spawn(3)[0]
    return workloads.market_sample(
        n, np.random.default_rng(data_seq), m=market["m"],
        systematic=market["systematic_scale"], mean_step=market["idio_mean_step"],
        sd_step=market["idio_scale_step"],
    )


def check_portfolio_study(report) -> list[str]:
    from wdro import PortfolioSpec, SolverConfig, build_portfolio_dro

    errors = []
    man = report.manifest
    market = man["market"]
    if market["scale_interpretation"] != "std" or man["portfolio"]["support"] != "free":
        return ["the check covers the default market and free support only"]
    spec = PortfolioSpec(m=market["m"], rho=man["portfolio"]["rho"],
                         alpha=man["portfolio"]["alpha"])
    gap_tol = SolverConfig().gap_tol
    _, rows = report.tables["fig4_oos"]
    for run in range(man["runs"]):
        for n in man["n_curve"]:
            curve = sorted((row[2], row[3]) for row in rows if row[0] == run and row[1] == n)
            if len(curve) != len(man["epsilons"]):
                errors.append(f"run {run} N={n}: {len(curve)} curve points")
                continue
            data = study_data(man, run, n, market)
            for eps, cert in curve:
                ref = highs_value(build_portfolio_dro(spec, data, eps))
                if not _close(cert, ref, gap_tol):
                    errors.append(
                        f"run {run} N={n} eps={eps}: certificate {cert!r}, "
                        f"joint program by HiGHS {ref!r}"
                    )
            errors += _concave_nondecreasing(curve, f"run {run} N={n} certificate")
    return errors


def _concave_nondecreasing(curve, what: str) -> list[str]:
    errors = []
    eps = [e for e, _ in curve]
    val = [v for _, v in curve]
    for j in range(1, len(curve)):
        if val[j] < val[j - 1] - CURVE_TOL * (1.0 + abs(val[j])):
            errors.append(f"{what} decreases between eps={eps[j - 1]} and {eps[j]}")
    for j in range(1, len(curve) - 1):
        w = (eps[j] - eps[j - 1]) / (eps[j + 1] - eps[j - 1])
        chord = (1.0 - w) * val[j - 1] + w * val[j + 1]
        if val[j] < chord - CURVE_TOL * (1.0 + abs(val[j])):
            errors.append(f"{what} is not concave at eps={eps[j]}")
    return errors


# ---------------------------------------------------------------- UQ study


def event_probability(G, mu, cov) -> float:
    """P[G xi <= 0] for xi ~ N(mu, cov) by scipy's quasi-Monte Carlo CDF.
    A zero row of G (the portfolio is that one asset) always holds, so it
    is dropped; rows that are dependent without being zero leave a
    singular covariance, which scipy's CDF accepts."""
    G = G[np.abs(G).max(axis=1) > 1e-12]
    if G.shape[0] == 0:
        return 1.0
    return float(multivariate_normal.cdf(
        np.zeros(G.shape[0]), mean=G @ mu, cov=G @ cov @ G.T, allow_singular=True,
        abseps=PROB_TOL / 10, releps=0.0, rng=np.random.default_rng(0),
    ))


def check_uq_study(report, weights_seen, config) -> list[str]:
    """``weights_seen`` holds the weights each run's event region was built
    from, in run order; ``config`` is the study configuration."""
    errors = []
    market = config.market
    if market.scale_interpretation != "std":
        return ["the check covers the std market reading only"]
    idx = np.arange(1, market.m + 1, dtype=float)
    mu = market.idio_mean_step * idx
    cov = market.systematic_scale**2 + np.diag((market.idio_scale_step * idx) ** 2)
    assets = list(range(market.m - config.risky_assets, market.m))
    if len(weights_seen) != config.runs * len(config.n_values):
        return [f"saw {len(weights_seen)} event regions"]

    _, rows = report.tables["fig10_uq_curves"]
    for k, (run, n) in enumerate(
        (r, n) for r in range(config.runs) for n in config.n_values
    ):
        G = np.eye(market.m)[assets] - weights_seen[k][None, :]
        ref = event_probability(G, mu, cov)
        curve = sorted((row[2], row[3], row[4], row[5]) for row in rows
                       if row[0] == run and row[1] == n)
        for eps, lo, hi, p_true in curve:
            if abs(p_true - ref) > PROB_TOL:
                errors.append(f"run {run}: p_true {p_true!r}, scipy {ref!r}")
                break
            if not (-CURVE_TOL <= lo <= hi + CURVE_TOL and hi <= 1.0 + CURVE_TOL):
                errors.append(f"run {run} eps={eps}: bracket [{lo}, {hi}]")
        for j in range(1, len(curve)):
            if curve[j][2] < curve[j - 1][2] - CURVE_TOL:
                errors.append(f"run {run}: upper bound decreases at eps={curve[j][0]}")
            if curve[j][1] > curve[j - 1][1] + CURVE_TOL:
                errors.append(f"run {run}: lower bound increases at eps={curve[j][0]}")
    _, cal = report.tables["fig11_calibrated"]
    for row in cal:
        hi, lo = row[4], row[5]
        if not (-CURVE_TOL <= lo <= hi + CURVE_TOL and hi <= 1.0 + CURVE_TOL):
            errors.append(f"run {row[0]}: calibrated bracket [{lo}, {hi}]")
    return errors


# ------------------------------------------------------ support instances


def problem_from_spec(spec: dict):
    """The DroProblem a spec describes, built from wdro's public types."""
    from wdro import (
        DroProblem, EventIndicator, GroundNorm, PiecewiseAffineLoss, Polytope,
        SeparableLoss, TwoStageLoss,
    )

    X = np.asarray(spec["samples"], dtype=float)
    dim = X.shape[1]

    def poly(obj, d):
        if obj == "free":
            return Polytope.free(d)
        return Polytope(np.asarray(obj["C"], float), np.asarray(obj["d"], float), d)

    body = spec["loss"]
    kind = body["type"]
    if kind in ("max_affine", "min_affine"):
        loss = PiecewiseAffineLoss(body["slopes"], body["intercepts"], kind[:3])
    elif kind in ("uq_worst", "uq_best"):
        loss = EventIndicator(poly(body["region"], dim),
                              "outside" if kind == "uq_worst" else "inside")
    elif kind == "two_stage_objective":
        loss = TwoStageLoss("objective", W=body["W"], h=body["h"], Q=body["Q"])
    elif kind == "two_stage_rhs":
        loss = TwoStageLoss("rhs", W=body["W"], h=body["h"], q=body["q"], H=body["H"])
    elif kind == "separable":
        loss = SeparableLoss(tuple(
            (PiecewiseAffineLoss(st["slopes"], st["intercepts"]),
             poly(st["support"], len(st["slopes"][0])))
            for st in body["stages"]
        ))
    else:
        raise ValueError(f"no check for loss type {kind!r}")
    return DroProblem(X, poly(spec["support"], dim), float(spec["radius"]),
                      GroundNorm(spec["norm"]), loss)


def build_program(problem):
    from wdro import reformulate as rf

    kind = type(problem.loss).__name__
    if kind == "PiecewiseAffineLoss":
        return (rf.build_max_affine if problem.loss.kind == "max" else rf.build_min_affine)(problem)
    if kind == "EventIndicator":
        return (rf.build_uq_worst if problem.loss.sense == "outside" else rf.build_uq_best)(problem)
    if kind == "TwoStageLoss":
        return rf.build_two_stage(problem)
    return rf.build_separable(problem)


def _max_affine(points, slopes, intercepts):
    return (np.atleast_2d(points) @ np.asarray(slopes).T + np.asarray(intercepts)).max(axis=1)


def loss_values(spec: dict, points) -> np.ndarray:
    """Max-affine or separable loss at the points, by numpy."""
    body = spec["loss"]
    if body["type"] == "max_affine":
        return _max_affine(points, body["slopes"], body["intercepts"])
    total, start = np.zeros(np.atleast_2d(points).shape[0]), 0
    for st in body["stages"]:
        width = len(st["slopes"][0])
        total += _max_affine(np.atleast_2d(points)[:, start:start + width],
                             st["slopes"], st["intercepts"])
        start += width
    return total


def event_frequency(spec: dict) -> float:
    """Empirical frequency of the event whose probability the spec bounds:
    leaving the open region for uq_worst, lying in the closed one for
    uq_best."""
    body = spec["loss"]
    X = np.asarray(spec["samples"], float)
    A = np.asarray(body["region"]["C"], float)
    b = np.asarray(body["region"]["d"], float)
    margin = X @ A.T - b
    if body["type"] == "uq_worst":
        return float(np.mean((margin >= 0.0).any(axis=1)))
    return float(np.mean((margin <= 0.0).all(axis=1)))


def check(op, result) -> list[str]:
    """Failures of one operation's outputs; an empty list passes."""
    if op.kind == "portfolio_study":
        return check_portfolio_study(result)
    if op.kind == "uq_study":
        return check_uq_study(*result)
    return check_support_op(op, result)


def check_support_op(op, result) -> list[str]:
    if op.kind == "portfolio_halfspace":
        return _check_portfolio_halfspace(op, result)
    if result != 0:
        return [f"{op.label}: the CLI exited with code {result}"]
    out = json.loads(Path(op.args["out_path"]).read_text())
    spec = op.args["spec"]
    ref = highs_value(build_program(problem_from_spec(spec)))
    errors = []
    if op.kind == "cli_solve":
        if not _close(out["value"], ref, LP_TOL):
            errors.append(f"{op.label}: value {out['value']!r}, HiGHS {ref!r}")
        if spec["loss"]["type"] in ("uq_worst", "uq_best"):
            freq = event_frequency(spec)
            if not (freq - CURVE_TOL <= out["value"] <= 1.0 + CURVE_TOL):
                errors.append(f"{op.label}: probability {out['value']!r} outside "
                              f"[{freq}, 1]")
        return errors

    obj = out["objective_value"]
    if not _close(obj, ref, LP_TOL):
        errors.append(f"{op.label}: worst-case objective {obj!r}, HiGHS {ref!r}")
    if out["escaping_mass"] != 0.0:
        errors.append(f"{op.label}: mass escapes a bounded support")
        return errors
    points = np.array([a["point"] for a in out["atoms"]])
    weights = np.array([a["weight"] for a in out["atoms"]])
    if abs(weights.sum() - 1.0) > 1e-9 or weights.min() < 0.0:
        errors.append(f"{op.label}: atom weights are not a distribution")
    values = loss_values(spec, points)
    expectation = float(weights @ values)
    # atoms below ATOM_TOL were dropped and the rest renormalized
    dropped = len(spec["samples"]) * _piece_count(spec) * ATOM_TOL
    tol = LP_TOL * (1.0 + abs(ref)) + dropped * (abs(ref) + np.max(np.abs(values)))
    if abs(expectation - ref) > tol:
        errors.append(f"{op.label}: expected loss at the atoms {expectation!r}, "
                      f"HiGHS value {ref!r}")
    dist = transport_distance(np.asarray(spec["samples"], float), points, weights)
    if dist > spec["radius"] + MEMBERSHIP_TOL:
        errors.append(f"{op.label}: atoms at transport distance {dist!r} > "
                      f"radius {spec['radius']!r}")
    return errors


def _piece_count(spec: dict) -> int:
    body = spec["loss"]
    if body["type"] == "separable":
        return int(np.prod([len(st["slopes"]) for st in body["stages"]]))
    return len(body["slopes"])


def _check_portfolio_halfspace(op, res) -> list[str]:
    from wdro import build_portfolio_dro

    errors = []
    w = np.asarray(res.weights)
    if w.min() < -1e-9 or abs(w.sum() - 1.0) > 1e-9:
        errors.append(f"{op.label}: weights off the simplex (sum {w.sum()!r}, "
                      f"min {w.min()!r})")
    lp = build_portfolio_dro(workloads.halfspace_spec(), op.args["data"], op.args["epsilon"])
    ref = highs_value(lp)
    if not _close(res.certificate, ref, LP_TOL):
        errors.append(f"{op.label}: certificate {res.certificate!r}, HiGHS {ref!r}")
    return errors
