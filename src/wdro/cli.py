"""Command-line surface: JSON problem specs in, JSON/CSV results out.

Subcommands: ``solve`` (worst-case value), ``worstcase`` (extremal
distribution), ``calibrate`` (radius selection for the portfolio
problem or a probability bracket), ``experiment`` (study harnesses).

Exit codes are stable: 0 success, 1 usage or validation failure,
2 mathematical infeasibility or unboundedness.  All numbers are emitted
with round-trip-exact formatting; reruns under the same seed produce
byte-identical artifacts.  Each kind of input value has one reader
(``_number``, ``_matrix``, ``_path``, ``_grid``, ``_setting``, ...), which
raises a ``SpecFileError`` naming the field of anything it cannot take.
``wdro.experiments``, which loads scipy, is imported by ``calibrate`` and
``experiment`` only, so ``solve`` and ``worstcase`` start on numpy alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .calibrate import (
    _clean_grid,
    calibrate_holdout,
    calibrate_kfold,
    calibrate_uq_kfold,
)
from .errors import (
    DualPolytopeUnbounded,
    EmptySupport,
    EscapingMassPresent,
    GridEmpty,
    HypothesisViolated,
    NoCoveringRadius,
    NormUnsupported,
    RecourseSetUnbounded,
    SpecFileError,
    UnboundedPolyhedron,
    WdroError,
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
    HypothesisViolated,
    RecourseSetUnbounded,
    DualPolytopeUnbounded,
    EmptySupport,
    UnboundedPolyhedron,
    NoCoveringRadius,
    EscapingMassPresent,
)

def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecFileError("expected an object", field=where)
    return obj


def _expect_keys(obj: dict, where: str, required, optional=()):
    _object(obj, where)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SpecFileError(f"unknown key(s) {unknown}", field=f"{where}.{unknown[0]}")
    for key in required:
        if key not in obj:
            raise SpecFileError(f"missing key {key!r}", field=f"{where}.{key}")


def _check_version(doc: dict, where: str) -> None:
    """A spec or config is at version 1; a config may leave it out."""
    version = doc.get("version", 1)
    if isinstance(version, bool) or version != 1:
        raise SpecFileError(
            f"unsupported version {version!r}", field=f"{where}.version"
        )


def _number(obj, kind, where: str, least=None):
    """``kind(obj)`` for kind int or float.  Anything but a JSON number
    (a boolean, a string, null, a list), a non-finite float, a fractional
    int or a value below ``least`` is a SpecFileError naming ``where``."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecFileError("expected a number", field=where)
    try:
        value = kind(obj)
        finite = math.isfinite(value)
    except (ValueError, OverflowError):  # int(nan), int(inf), float(10**400)
        finite = False
    if not finite:
        raise SpecFileError("expected a finite number", field=where)
    if isinstance(obj, float) and value != obj:
        raise SpecFileError("expected a whole number", field=where)
    if least is not None and value < least:
        raise SpecFileError(f"expected a number of at least {least}", field=where)
    return value


def _matrix(obj, where: str) -> np.ndarray:
    """A float array from (nested lists of) JSON numbers.  A boolean,
    string or null entry, a ragged nesting or a non-finite value is a
    SpecFileError naming ``where``."""
    try:
        leaves = np.asarray(obj, dtype=object)
        if all(type(v) in (int, float) for v in leaves.flat):
            arr = leaves.astype(float)
            if np.all(np.isfinite(arr)):
                return arr
    except (ValueError, OverflowError):
        pass
    raise SpecFileError("expected an array of finite numbers", field=where)


def _path(obj, where: str, use: str = "read") -> Path:
    """A nonempty path string that the command can ``use``, checked before
    any work starts: "read" an existing file, "write" a file into an
    existing directory, or "create" a directory with no file in the way."""
    if not isinstance(obj, str) or not obj:
        raise SpecFileError("expected a path", field=where)
    path = Path(obj)
    if use == "read":
        usable = path.is_file()
    elif use == "write":
        usable = path.parent.is_dir() and not path.is_dir()
    else:
        usable = not any(p.exists() and not p.is_dir() for p in (path, *path.parents))
    if not usable:
        raise SpecFileError(f"cannot {use} {obj!r}", field=where)
    return path


def _setting(args, flag: str, doc: dict, key: str, kind, default=None,
             where: str = "config", least=None):
    """The number given by option ``--flag`` or, failing it, by ``key`` of
    ``doc`` (``default`` when neither is given), read by ``_number`` and
    reported under the option or under ``where.key``."""
    value = getattr(args, flag)
    if value is not None:
        return _number(value, kind, f"--{flag}", least)
    if key in doc:
        return _number(doc[key], kind, f"{where}.{key}", least)
    return default


def _grid(text: str | None, doc: dict):
    """The candidate radii of ``--grid`` (comma-separated) or else of
    ``config.grid``, cleaned by ``_clean_grid``; None when neither is
    given."""
    if text is not None:
        where, points = "--grid", text.split(",")
    elif "grid" in doc:
        where = "config.grid"
        points = _matrix(doc["grid"], where).reshape(-1)
    else:
        return None
    try:
        return _clean_grid([float(v) for v in points])
    except (ValueError, GridEmpty) as exc:
        raise SpecFileError(str(exc), field=where) from None


def _load_csv_samples(obj, where: str) -> np.ndarray:
    file_path = _path(obj, where)
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
                        f"non-numeric row in {obj!r}", field=where
                    ) from None
                continue  # header row
    if not rows:
        raise SpecFileError(f"no numeric rows in {obj!r}", field=where)
    return _matrix(rows, where)


def _parse_samples(obj, where: str) -> np.ndarray:
    if isinstance(obj, dict):
        _expect_keys(obj, where, ("csv",))
        data = _load_csv_samples(obj["csv"], f"{where}.csv")
    else:
        data = _matrix(obj, where)
    data = np.atleast_2d(data)
    if data.ndim != 2 or data.size == 0:
        raise SpecFileError("expected a nonempty matrix", field=where)
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


def _parse_norm(obj, where: str) -> GroundNorm:
    try:
        return GroundNorm.parse(obj)
    except NormUnsupported as exc:
        raise SpecFileError(str(exc), field=where) from None


def _parse_stages(obj, where: str) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise SpecFileError("expected a nonempty list", field=where)
    stages = []
    for t, stage in enumerate(obj):
        swhere = f"{where}[{t}]"
        _expect_keys(stage, swhere, ("slopes", "intercepts"), ("support", "kind"))
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
    return tuple(stages)


# loss type -> (its keys besides "type", the constructor taking them by name)
_LOSSES = {
    "max_affine": (("slopes", "intercepts"), partial(PiecewiseAffineLoss, kind="max")),
    "min_affine": (("slopes", "intercepts"), partial(PiecewiseAffineLoss, kind="min")),
    "uq_worst": (("region",), partial(EventIndicator, sense="outside")),
    "uq_best": (("region",), partial(EventIndicator, sense="inside")),
    "two_stage_objective": (("Q", "W", "h"), partial(TwoStageLoss, "objective")),
    "two_stage_rhs": (("q", "W", "H", "h"), partial(TwoStageLoss, "rhs")),
    "separable": (("stages",), SeparableLoss),
}


def _parse_loss(obj, dim: int, where: str):
    kind = _object(obj, where).get("type")
    if not isinstance(kind, str) or kind not in _LOSSES:
        raise SpecFileError(f"unknown loss type {kind!r}", field=f"{where}.type")
    keys, make = _LOSSES[kind]
    _expect_keys(obj, where, ("type", *keys))
    readers = {
        "region": lambda value, kwhere: _parse_polytope(value, dim, kwhere),
        "stages": _parse_stages,
    }
    return make(**{
        key: readers.get(key, _matrix)(obj[key], f"{where}.{key}") for key in keys
    })


def parse_problem_spec(doc: dict) -> DroProblem:
    """Strictly validated JSON problem description -> problem instance."""
    _expect_keys(
        doc, "spec", ("version", "norm", "support", "samples", "radius", "loss")
    )
    _check_version(doc, "spec")
    samples = _parse_samples(doc["samples"], "spec.samples")
    dim = samples.shape[1]
    norm = _parse_norm(doc["norm"], "spec.norm")
    support = _parse_polytope(doc["support"], dim, "spec.support")
    radius = _number(doc["radius"], float, "spec.radius", least=0)
    loss = _parse_loss(doc["loss"], dim, "spec.loss")
    try:
        return DroProblem(samples, support, radius, norm, loss)
    except EmptySupport:
        raise
    except WdroError as exc:
        raise SpecFileError(str(exc), field="spec") from None


def _num(kind):
    return lambda value, where, read: _number(value, kind, where)


# per dataclass, its JSON keys in reading order -> reader(value, where,
# the keyword arguments read so far)
_MARKET_FIELDS = {
    "m": _num(int),
    "systematic_scale": _num(float),
    "idio_mean_step": _num(float),
    "idio_scale_step": _num(float),
    "scale_interpretation": lambda value, where, read: value,
}
_PORTFOLIO_FIELDS = {
    "m": _num(int),
    "rho": _num(float),
    "alpha": _num(float),
    "ground_norm": lambda value, where, read: _parse_norm(value, where),
    "support": lambda value, where, read: _parse_polytope(value, read["m"], where),
}


def _parse_fields(cls, obj, where: str, fields: dict, **read):
    """``cls(**read)`` after each key of the object ``obj`` is read into
    ``read`` by its entry in ``fields``."""
    _expect_keys(obj, where, (), fields)
    for key, reader in fields.items():
        if key in obj:
            read[key] = reader(obj[key], f"{where}.{key}", read)
    try:
        return cls(**read)
    except WdroError as exc:
        raise SpecFileError(str(exc), field=where) from None


def _load_spec_file(path: str, where: str) -> dict:
    file_path = _path(path, "--spec")
    try:
        doc = json.loads(file_path.read_text())
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON in {path!r}: line {exc.lineno} column {exc.colno}",
            field="--spec",
        ) from None
    return _object(doc, where)


def _load_config(args, required, optional) -> dict:
    """The config object of ``--spec``, its keys and version checked."""
    doc = _load_spec_file(args.spec, "config")
    _expect_keys(doc, "config", required, ("version", *optional))
    _check_version(doc, "config")
    return doc


def _load_problem(args) -> DroProblem:
    """The problem of ``--spec``, at the radius of ``--epsilon`` if given."""
    doc = _load_spec_file(args.spec, "spec")
    radius = _setting(args, "epsilon", doc, "radius", float, where="spec",
                      least=0)
    if radius is not None:
        doc["radius"] = radius
    return parse_problem_spec(doc)


def _emit(doc: dict, out: Path | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        out.write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    lp = _builder_for(problem.loss)(problem)
    if args.dump_lp:
        args.dump_lp.write_text(dump_program(lp))
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
    problem = _load_problem(args)
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
            **dataclasses.asdict(report), "within_ball": bool(report.within_ball)
        }
    else:
        result["membership"] = None
    _emit(result, args.out)
    return 0


def cmd_calibrate(args) -> int:
    from . import experiments

    doc = _load_config(
        args, ("method",),
        ("samples", "market", "n_samples", "portfolio", "grid", "folds",
         "split", "seed", "region"),
    )
    method = doc["method"]
    if method not in ("holdout", "kfold", "uq_kfold"):
        raise SpecFileError(
            f"unknown method {method!r}; use holdout, kfold or uq_kfold",
            field="config.method",
        )
    seed = _setting(args, "seed", doc, "seed", int, 0, least=0)
    grid = _grid(args.grid, doc)
    folds = _setting(args, "folds", doc, "folds", int, 5, least=2)

    if "samples" in doc:
        data = _parse_samples(doc["samples"], "config.samples")
    elif "market" in doc:
        market = _parse_fields(experiments.MarketModel, doc["market"], "config.market",
                               _MARKET_FIELDS)
        n = _number(doc.get("n_samples", 30), int, "config.n_samples",
                    least=1)
        data = market.sample(n, np.random.default_rng(seed))
    else:
        raise SpecFileError(
            "config needs either samples or market", field="config.samples"
        )

    if method == "uq_kfold":
        if "region" not in doc:
            raise SpecFileError(
                "uq_kfold needs a region", field="config.region"
            )
        region = _parse_polytope(
            doc["region"], data.shape[1], "config.region"
        )
    else:
        spec = _parse_fields(experiments.PortfolioSpec, doc.get("portfolio", {}),
                             "config.portfolio", _PORTFOLIO_FIELDS,
                             m=data.shape[1])
        if spec.m != data.shape[1]:
            raise SpecFileError(f"the data have {data.shape[1]} assets, not {spec.m}",
                                field="config.portfolio.m")
        if method == "holdout":
            split = _number(doc.get("split", 0.8), float, "config.split")
            if not 0.0 < split < 1.0:
                raise SpecFileError("expected a fraction strictly between 0 and 1",
                                    field="config.split")
    need = 2 if method == "holdout" else folds
    if data.shape[0] < need:
        raise SpecFileError(
            f"{method} needs at least {need} samples, got {data.shape[0]}",
            field="config.samples" if "samples" in doc else "config.n_samples",
        )

    result = {"method": method, "seed": seed}
    if method == "uq_kfold":
        cal = calibrate_uq_kfold(
            data, region, grid, k=folds, seed=seed,
            bound_fns=experiments.fast_uq_bounds(region),
        )
        result["bounds"] = [dataclasses.asdict(b) for b in cal.bounds]
        result["radius"] = cal.radius
    else:
        problem = experiments.PortfolioDecisionProblem(spec)
        if method == "holdout":
            cal = calibrate_holdout(data, problem, grid, split=split, seed=seed)
        else:
            cal = calibrate_kfold(data, problem, grid, k=folds, seed=seed)
        result["radius"] = cal.radius
        result["fold_radii"] = list(cal.fold_radii)
        result["score_table"] = [[eps, score] for eps, score in cal.table]
        result["weights"] = cal.decision.weights.tolist()
    _emit(result, args.out)
    return 0


# study -> the names of its config class and runner in ``wdro.experiments``,
# looked up there at call time, so rebinding a runner there reaches it
_STUDIES = {
    "portfolio": ("PortfolioStudyConfig", "run_portfolio_study"),
    "uq": ("UqStudyConfig", "run_uq_study"),
}


def cmd_experiment(args) -> int:
    from . import experiments

    doc = _load_config(args, ("study",), ("runs", "master_seed", "out_dir"))
    study = doc["study"]
    if not isinstance(study, str) or study not in _STUDIES:
        raise SpecFileError(
            f"unknown study {study!r}; use {' or '.join(_STUDIES)}",
            field="config.study",
        )
    cls, run = (getattr(experiments, name) for name in _STUDIES[study])
    if args.full_scale and not hasattr(cls, "full_scale"):
        raise SpecFileError(
            f"the {study} study has no full-scale setting", field="--full-scale"
        )
    if not args.out and "out_dir" not in doc:
        raise SpecFileError(
            "experiment needs an output directory (--out or out_dir)",
            field="config.out_dir",
        )
    out_dir = args.out or _path(doc["out_dir"], "config.out_dir", "create")
    base = cls.full_scale() if args.full_scale else cls()
    config = dataclasses.replace(
        base,
        runs=_setting(args, "runs", doc, "runs", int, base.runs, least=1),
        master_seed=_setting(args, "seed", doc, "master_seed", int,
                             base.master_seed, least=0),
    )
    paths = run(config).write(out_dir)
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
        # output paths are checked before any command reads or runs
        if args.out:
            use = "create" if args.command == "experiment" else "write"
            args.out = _path(args.out, "--out", use)
        if getattr(args, "dump_lp", None):
            args.dump_lp = _path(args.dump_lp, "--dump-lp", "write")
        return args.func(args)
    except WdroError as exc:
        field = getattr(exc, "field", None)
        suffix = f" (field: {field})" if field else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2 if isinstance(exc, _MATH_ERRORS) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
