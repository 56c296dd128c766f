"""Command-line surface: JSON problem specs in, JSON/CSV results out.

Subcommands: ``solve`` (worst-case value), ``worstcase`` (extremal
distribution), ``calibrate`` (radius selection for the portfolio
problem or a probability bracket), ``experiment`` (study harnesses).

Exit codes are stable: 0 success, 1 usage or validation failure,
2 mathematical infeasibility or unboundedness.  All numbers are emitted
with round-trip-exact formatting; reruns under the same seed produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .calibrate import (
    calibrate_holdout,
    calibrate_kfold,
    calibrate_uq_kfold,
)
from .errors import (
    EscapingMassPresent,
    NormUnsupported,
    SpecFileError,
    WdroError,
)
from .experiments import (
    MarketModel,
    PortfolioDecisionProblem,
    PortfolioSpec,
    PortfolioStudyConfig,
    UqStudyConfig,
    fast_uq_bounds,
    run_portfolio_study,
    run_uq_study,
)
from .extremal import (
    verify_membership,
    worst_case_distribution,
    worst_case_distribution_separable,
)
from .geometry import GroundNorm, Polytope
from .lp import dump_program
from .reformulate import (
    DroProblem,
    EventIndicator,
    PiecewiseAffineLoss,
    SeparableLoss,
    TwoStageLoss,
    _builder_for,
    _solve_program,
)

# errors that reflect the mathematics of the instance rather than its
# encoding; they exit 2, everything else invalid exits 1
_MATH_ERRORS = (
    "HypothesisViolated",
    "RecourseSetUnbounded",
    "DualPolytopeUnbounded",
    "EmptySupport",
    "UnboundedPolyhedron",
    "NoCoveringRadius",
)

def _fail(message: str, code: int):
    print(f"error: {message}", file=sys.stderr)
    return code


def _expect_keys(obj: dict, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise SpecFileError(f"{where} must be an object", field=where)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SpecFileError(
            f"unknown key(s) {unknown} in {where}", field=f"{where}.{unknown[0]}"
        )
    for key in required:
        if key not in obj:
            raise SpecFileError(
                f"missing key {key!r} in {where}", field=f"{where}.{key}"
            )


def _matrix(obj, where: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise SpecFileError(f"{where} must be numeric", field=where) from None
    if not np.all(np.isfinite(arr)):
        raise SpecFileError(f"{where} must be finite", field=where)
    return arr


def _load_csv_samples(path: str, where: str) -> np.ndarray:
    file_path = Path(path)
    if not file_path.exists():
        raise SpecFileError(f"dataset file {path!r} not found", field=where)
    rows = []
    with file_path.open(newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                if rows:
                    raise SpecFileError(
                        f"non-numeric row in {path!r}", field=where
                    ) from None
                continue  # header row
    if not rows:
        raise SpecFileError(f"no numeric rows in {path!r}", field=where)
    return _matrix(rows, where)


def _parse_samples(obj, where: str) -> np.ndarray:
    if isinstance(obj, dict):
        _expect_keys(obj, where, ("csv",))
        data = _load_csv_samples(obj["csv"], f"{where}.csv")
    else:
        data = _matrix(obj, where)
    data = np.atleast_2d(data)
    if data.ndim != 2 or data.size == 0:
        raise SpecFileError(f"{where} must be a nonempty matrix", field=where)
    return data


def _parse_polytope(obj, dim: int, where: str) -> Polytope:
    if obj == "free":
        return Polytope.free(dim)
    _expect_keys(obj, where, ("C", "d"))
    C = _matrix(obj["C"], f"{where}.C")
    d = _matrix(obj["d"], f"{where}.d")
    try:
        return Polytope(np.atleast_2d(C), d.reshape(-1), dim)
    except WdroError as exc:
        raise SpecFileError(str(exc), field=where) from None


def _number(obj, kind, where: str):
    """``kind(obj)`` for kind int or float; a boolean, a value that does
    not convert, a non-finite float or a fractional int is a SpecFileError
    naming ``where``."""
    if isinstance(obj, bool):
        raise SpecFileError(f"{where} must be a number, not a boolean", field=where)
    try:
        value = kind(obj)
    except (TypeError, ValueError, OverflowError):
        raise SpecFileError(f"{where} must be a number", field=where) from None
    if kind is float and not math.isfinite(value):
        raise SpecFileError(f"{where} must be finite", field=where)
    if isinstance(obj, float) and value != obj:
        raise SpecFileError(f"{where} must be a whole number", field=where)
    return value


def _parse_norm(obj, where: str) -> GroundNorm:
    try:
        return GroundNorm.parse(obj)
    except NormUnsupported as exc:
        raise SpecFileError(str(exc), field=where) from None


def _parse_loss(obj, dim: int, where: str):
    _expect_keys(obj, where, ("type",), _ALL_LOSS_KEYS)
    kind = obj["type"]
    if kind in ("max_affine", "min_affine"):
        _expect_keys(obj, where, ("type", "slopes", "intercepts"))
        return PiecewiseAffineLoss(
            _matrix(obj["slopes"], f"{where}.slopes"),
            _matrix(obj["intercepts"], f"{where}.intercepts"),
            "max" if kind == "max_affine" else "min",
        )
    if kind in ("uq_worst", "uq_best"):
        _expect_keys(obj, where, ("type", "region"))
        region = _parse_polytope(obj["region"], dim, f"{where}.region")
        return EventIndicator(
            region, "outside" if kind == "uq_worst" else "inside"
        )
    if kind == "two_stage_objective":
        _expect_keys(obj, where, ("type", "Q", "W", "h"))
        return TwoStageLoss(
            "objective",
            W=_matrix(obj["W"], f"{where}.W"),
            h=_matrix(obj["h"], f"{where}.h"),
            Q=_matrix(obj["Q"], f"{where}.Q"),
        )
    if kind == "two_stage_rhs":
        _expect_keys(obj, where, ("type", "q", "W", "H", "h"))
        return TwoStageLoss(
            "rhs",
            W=_matrix(obj["W"], f"{where}.W"),
            h=_matrix(obj["h"], f"{where}.h"),
            q=_matrix(obj["q"], f"{where}.q"),
            H=_matrix(obj["H"], f"{where}.H"),
        )
    if kind == "separable":
        _expect_keys(obj, where, ("type", "stages"))
        if not isinstance(obj["stages"], list) or not obj["stages"]:
            raise SpecFileError(
                f"{where}.stages must be a nonempty list", field=f"{where}.stages"
            )
        stages = []
        for t, stage in enumerate(obj["stages"]):
            swhere = f"{where}.stages[{t}]"
            _expect_keys(
                stage, swhere, ("slopes", "intercepts"), ("support", "kind")
            )
            if stage.get("kind", "max") != "max":
                raise SpecFileError(
                    "separable stages support only max-affine pieces",
                    field=f"{swhere}.kind",
                )
            loss = PiecewiseAffineLoss(
                _matrix(stage["slopes"], f"{swhere}.slopes"),
                _matrix(stage["intercepts"], f"{swhere}.intercepts"),
                "max",
            )
            support = _parse_polytope(
                stage.get("support", "free"), loss.dim, f"{swhere}.support"
            )
            stages.append((loss, support))
        return SeparableLoss(tuple(stages))
    raise SpecFileError(f"unknown loss type {kind!r}", field=f"{where}.type")


_ALL_LOSS_KEYS = (
    "slopes", "intercepts", "region", "Q", "W", "h", "q", "H", "stages",
)


def parse_problem_spec(doc: dict) -> DroProblem:
    """Strictly validated JSON problem description -> problem instance."""
    _expect_keys(
        doc, "spec", ("version", "norm", "support", "samples", "radius", "loss")
    )
    if doc["version"] != 1:
        raise SpecFileError(
            f"unsupported version {doc['version']!r}", field="spec.version"
        )
    samples = _parse_samples(doc["samples"], "spec.samples")
    dim = samples.shape[1]
    norm = _parse_norm(doc["norm"], "spec.norm")
    support = _parse_polytope(doc["support"], dim, "spec.support")
    radius = doc["radius"]
    if not isinstance(radius, (int, float)) or not np.isfinite(radius) or radius < 0:
        raise SpecFileError(
            "radius must be a nonnegative number", field="spec.radius"
        )
    loss = _parse_loss(doc["loss"], dim, "spec.loss")
    try:
        return DroProblem(samples, support, float(radius), norm, loss)
    except SpecFileError:
        raise
    except WdroError as exc:
        raise SpecFileError(str(exc), field="spec") from None


def _load_spec_file(path: str) -> dict:
    file_path = Path(path)
    if not file_path.exists():
        raise SpecFileError(f"spec file {path!r} not found", field="--spec")
    try:
        return json.loads(file_path.read_text())
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON in {path!r}: line {exc.lineno} column {exc.colno}",
            field="--spec",
        ) from None


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _exit_code_for(exc: WdroError) -> int:
    return 2 if type(exc).__name__ in _MATH_ERRORS else 1


def cmd_solve(args) -> int:
    doc = _load_spec_file(args.spec)
    if args.epsilon is not None:
        doc = {**doc, "radius": args.epsilon}
    problem = parse_problem_spec(doc)
    lp = _builder_for(problem.loss)(problem)
    if args.dump_lp:
        Path(args.dump_lp).write_text(dump_program(lp))
    value, sol = _solve_program(lp)
    if not np.isfinite(value):
        print(
            "the worst-case expectation is unbounded on this support",
            file=sys.stderr,
        )
        return 2
    result = {
        "value": value,
        "value_text": format(value, ".12g"),
        "status": sol.status,
        "lp_stats": {
            "rows": int(lp.row_coeffs.shape[0]),
            "columns": int(lp.row_coeffs.shape[1]),
            "iterations": sol.iterations,
        },
        "solution": dict(
            zip(lp.names, (float(v) for v in sol.primal))
        ),
    }
    _emit(result, args.out)
    return 0


def cmd_worstcase(args) -> int:
    doc = _load_spec_file(args.spec)
    if args.epsilon is not None:
        doc = {**doc, "radius": args.epsilon}
    problem = parse_problem_spec(doc)
    if isinstance(problem.loss, SeparableLoss):
        res = worst_case_distribution_separable(problem)
    else:
        res = worst_case_distribution(problem)
    result = {
        "objective_value": res.objective_value,
        "escaping_mass": res.escaping_mass,
        "mass_escapes": res.escaping_mass > 0.0,
        "atoms": [
            {"point": point.tolist(), "weight": float(weight)}
            for point, weight in zip(
                res.distribution.points, res.distribution.weights
            )
        ],
        "escape_rays": [
            {
                "sample": int(ray.sample),
                "piece": int(ray.piece),
                "direction": ray.direction.tolist(),
                "slope": float(ray.slope),
            }
            for ray in res.escape_rays
        ],
    }
    if res.escaping_mass == 0.0:
        report = verify_membership(res, problem)
        result["membership"] = {
            "distance": report.distance,
            "radius": report.radius,
            "tolerance": report.tolerance,
            "within_ball": bool(report.within_ball),
        }
    else:
        result["membership"] = None
    _emit(result, args.out)
    return 0


def _parse_grid_flag(text: str):
    try:
        grid = tuple(float(v) for v in text.split(","))
        if all(math.isfinite(v) and v >= 0 for v in grid):
            return grid
    except ValueError:
        pass
    raise SpecFileError(
        f"--grid expects comma-separated finite nonnegative numbers, got {text!r}",
        field="--grid",
    )


def cmd_calibrate(args) -> int:
    doc = _load_spec_file(args.spec)
    _expect_keys(
        doc,
        "config",
        ("method",),
        ("version", "samples", "market", "n_samples", "portfolio", "grid",
         "folds", "split", "seed", "region"),
    )
    method = doc["method"]
    if method not in ("holdout", "kfold", "uq_kfold"):
        raise SpecFileError(
            f"unknown method {method!r}; use holdout, kfold or uq_kfold",
            field="config.method",
        )
    seed = args.seed if args.seed is not None else _number(
        doc.get("seed", 0), int, "config.seed"
    )
    if args.grid:
        grid = _parse_grid_flag(args.grid)
    elif "grid" in doc:
        grid = tuple(_matrix(doc["grid"], "config.grid").reshape(-1))
        if any(v < 0 for v in grid):
            raise SpecFileError("config.grid must be nonnegative", field="config.grid")
    else:
        grid = None
    folds = args.folds if args.folds is not None else _number(
        doc.get("folds", 5), int, "config.folds"
    )

    if "samples" in doc:
        data = _parse_samples(doc["samples"], "config.samples")
    elif "market" in doc:
        market = _parse_market(doc["market"], "config.market")
        n = _number(doc.get("n_samples", 30), int, "config.n_samples")
        data = market.sample(n, np.random.default_rng(seed))
    else:
        raise SpecFileError(
            "config needs either samples or market", field="config.samples"
        )

    result = {"method": method, "seed": seed}
    if method == "uq_kfold":
        if "region" not in doc:
            raise SpecFileError(
                "uq_kfold needs a region", field="config.region"
            )
        region = _parse_polytope(
            doc["region"], data.shape[1], "config.region"
        )
        cal = calibrate_uq_kfold(
            data, region, grid, k=folds, seed=seed,
            bound_fns=fast_uq_bounds(region),
        )
        result["bounds"] = [
            {
                "side": b.side,
                "radius": b.radius,
                "value": b.value,
                "fold_radii": list(b.fold_radii),
            }
            for b in cal.bounds
        ]
        result["radius"] = cal.radius
    else:
        spec = _parse_portfolio(
            doc.get("portfolio", {}), data.shape[1], "config.portfolio"
        )
        problem = PortfolioDecisionProblem(spec)
        if method == "holdout":
            cal = calibrate_holdout(
                data, problem, grid,
                split=_number(doc.get("split", 0.8), float, "config.split"),
                seed=seed,
            )
        else:
            cal = calibrate_kfold(data, problem, grid, k=folds, seed=seed)
        result["radius"] = cal.radius
        result["fold_radii"] = list(cal.fold_radii)
        result["score_table"] = [[eps, score] for eps, score in cal.table]
        result["weights"] = cal.decision.weights.tolist()
    _emit(result, args.out)
    return 0


def _parse_market(obj, where: str) -> MarketModel:
    _expect_keys(
        obj, where, (),
        ("m", "systematic_scale", "idio_mean_step", "idio_scale_step",
         "scale_interpretation"),
    )
    kwargs = {}
    for key, value in obj.items():
        if key != "scale_interpretation":
            value = _number(value, int if key == "m" else float, f"{where}.{key}")
        kwargs[key] = value
    try:
        return MarketModel(**kwargs)
    except WdroError as exc:
        raise SpecFileError(str(exc), field=where) from None


def _parse_portfolio(obj, dim: int, where: str) -> PortfolioSpec:
    _expect_keys(obj, where, (), ("m", "rho", "alpha", "support", "ground_norm"))
    kwargs = dict(obj)
    kwargs.setdefault("m", dim)
    if "ground_norm" in kwargs:
        kwargs["ground_norm"] = _parse_norm(
            kwargs["ground_norm"], f"{where}.ground_norm"
        )
    if "support" in kwargs:
        kwargs["support"] = _parse_polytope(
            kwargs["support"], kwargs["m"], f"{where}.support"
        )
    try:
        return PortfolioSpec(**kwargs)
    except WdroError as exc:
        raise SpecFileError(str(exc), field=where) from None


def cmd_experiment(args) -> int:
    doc = _load_spec_file(args.spec)
    _expect_keys(
        doc,
        "config",
        ("study",),
        ("version", "runs", "master_seed", "out_dir"),
    )
    study = doc["study"]
    if study not in ("portfolio", "uq"):
        raise SpecFileError(
            f"unknown study {study!r}; use portfolio or uq", field="config.study"
        )
    overrides = {}
    if args.runs is not None:
        overrides["runs"] = args.runs
    elif "runs" in doc:
        overrides["runs"] = _number(doc["runs"], int, "config.runs")
    if args.seed is not None:
        overrides["master_seed"] = int(args.seed)
    elif "master_seed" in doc:
        overrides["master_seed"] = _number(
            doc["master_seed"], int, "config.master_seed"
        )
    out_dir = args.out or doc.get("out_dir")
    if not out_dir:
        raise SpecFileError(
            "experiment needs an output directory (--out or out_dir)",
            field="config.out_dir",
        )
    if study == "portfolio":
        base = (
            PortfolioStudyConfig.full_scale()
            if args.full_scale
            else PortfolioStudyConfig()
        )
        config = type(base)(**{**base.__dict__, **overrides})
        report = run_portfolio_study(config)
    else:
        config = UqStudyConfig(**{**UqStudyConfig().__dict__, **overrides})
        report = run_uq_study(config)
    paths = report.write(out_dir)
    listing = {name: str(path) for name, path in sorted(paths.items())}
    _emit({"study": study, "artifacts": listing}, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wdro",
        description="worst-case expectations over Wasserstein balls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, epsilon=False, dump=False):
        p.add_argument("--spec", required=True, help="JSON problem or config file")
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        if epsilon:
            p.add_argument(
                "--epsilon", type=float, help="override the radius from the problem file"
            )
        if dump:
            p.add_argument(
                "--dump-lp", help="write the generated linear program to this path"
            )

    p_solve = sub.add_parser("solve", help="worst-case expectation value")
    common(p_solve, epsilon=True, dump=True)
    p_solve.set_defaults(func=cmd_solve)

    p_worst = sub.add_parser("worstcase", help="extremal distribution")
    common(p_worst, epsilon=True)
    p_worst.set_defaults(func=cmd_worstcase)

    p_cal = sub.add_parser("calibrate", help="radius selection from data")
    common(p_cal)
    p_cal.add_argument("--grid", help="comma-separated candidate radii")
    p_cal.add_argument("--folds", type=int, help="cross-validation folds")
    p_cal.add_argument("--seed", type=int, help="shuffling / sampling seed")
    p_cal.set_defaults(func=cmd_calibrate)

    p_exp = sub.add_parser("experiment", help="run a study, write CSV tables")
    common(p_exp)
    p_exp.add_argument("--runs", type=int, help="override the run count")
    p_exp.add_argument("--seed", type=int, help="override the master seed")
    p_exp.add_argument(
        "--full-scale", action="store_true",
        help="original study sizes (long running)",
    )
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except EscapingMassPresent as exc:
        return _fail(str(exc), 2)
    except SpecFileError as exc:
        suffix = f" (field: {exc.field})" if exc.field else ""
        return _fail(f"{exc}{suffix}", 1)
    except WdroError as exc:
        return _fail(str(exc), _exit_code_for(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
