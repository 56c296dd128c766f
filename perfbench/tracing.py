"""Spans around wdro's public functions, recorded from outside the package.

``Tracer.install`` rebinds each traced function wherever a ``wdro`` module
holds it (module attributes and module-level dicts such as the builder
table) and each traced method on its class; ``uninstall`` puts the
originals back.  A span is ``[name, start, end, parent, op, info]``:
``parent`` indexes the enclosing span, ``op`` labels the operation, and
``info`` carries per-call figures (rows, pivots, ...) for solves.

Self time is a span's duration minus the time its child spans cover.
Bookkeeping done after a call (hashing a program to spot repeats) is a
span of its own, ``trace.bookkeeping``, so that it lands in no layer.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
from time import perf_counter

# (module, attribute, span name): every function here is rebound.
FUNCTIONS = [
    ("wdro.cli", "main", "cli.main"),
    ("wdro.reformulate", "build_max_affine", "reformulate.build"),
    ("wdro.reformulate", "build_min_affine", "reformulate.build"),
    ("wdro.reformulate", "build_uq_worst", "reformulate.build"),
    ("wdro.reformulate", "build_uq_best", "reformulate.build"),
    ("wdro.reformulate", "build_two_stage", "reformulate.build"),
    ("wdro.reformulate", "build_separable", "reformulate.build"),
    ("wdro.experiments", "build_portfolio_dro", "reformulate.build"),
    ("wdro.simplex", "solve_lp", "simplex.solve"),
    ("wdro.geometry", "nearest_point", "geometry.helper"),
    ("wdro.geometry", "enumerate_vertices", "geometry.helper"),
    ("wdro.extremal", "worst_case_distribution", "extremal.call"),
    ("wdro.extremal", "worst_case_distribution_separable", "extremal.call"),
    ("wdro.extremal", "verify_membership", "extremal.call"),
    ("wdro.wasserstein", "wasserstein_distance", "wasserstein.call"),
    ("wdro.wasserstein", "merge_atoms", "wasserstein.call"),
    ("wdro.calibrate", "calibrate_holdout", "calibrate.call"),
    ("wdro.calibrate", "calibrate_kfold", "calibrate.call"),
    ("wdro.calibrate", "calibrate_uq_kfold", "calibrate.call"),
    ("wdro.experiments", "solve_portfolio", "experiments.portfolio"),
    ("wdro.experiments", "gaussian_orthant_upper", "experiments.oracle"),
    ("wdro.experiments", "fast_uq_bounds", "experiments.uq_bounds"),
    ("wdro.experiments", "run_portfolio_study", "experiments.study"),
    ("wdro.experiments", "run_uq_study", "experiments.study"),
]
# (module, class, method, span name)
METHODS = [
    ("wdro.lp", "LpBuilder", "build", "lp.assemble"),
    ("wdro.geometry", "Polytope", "nonempty", "geometry.helper"),
    ("wdro.experiments", "PortfolioDecisionProblem", "train", "train"),
]

# name, unit, better: the per-layer metrics, in report order
METRICS = [
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("reformulate.builds", "count", "lower"),
    ("reformulate.build_s", "s", "lower"),
    ("lp.assemblies", "count", "lower"),
    ("lp.assemble_s", "s", "lower"),
    ("lp.max_dense_mb", "MB", "lower"),
    ("lp.max_density", "share", "higher"),
    ("simplex.solves", "count", "lower"),
    ("simplex.solve_s", "s", "lower"),
    ("simplex.pivots", "count", "lower"),
    ("simplex.pivots_per_solve", "count", "lower"),
    ("simplex.ms_per_pivot", "ms", "lower"),
    ("simplex.max_rows", "count", "lower"),
    ("simplex.repeat_share", "share", "lower"),
    ("geometry.helper_lps", "count", "lower"),
    ("geometry.helper_s", "s", "lower"),
    ("extremal.calls", "count", "lower"),
    ("extremal.s", "s", "lower"),
    ("wasserstein.calls", "count", "lower"),
    ("wasserstein.s", "s", "lower"),
    ("calibrate.calls", "count", "lower"),
    ("calibrate.trains", "count", "lower"),
    ("calibrate.s", "s", "lower"),
    ("experiments.portfolio_solves", "count", "lower"),
    ("experiments.portfolio_s", "s", "lower"),
    ("experiments.oracle_s", "s", "lower"),
    ("experiments.uq_bounds_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []
        self._solved: set = set()

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span ``name``; ``after(args, result)``
        returns the span's info and runs outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                book = tracer._open("trace.bookkeeping")
                try:
                    rec[5] = after(args, out)
                finally:
                    tracer._close(book)
            return out

        return traced

    def run_op(self, label: str, fn, *args):
        """Call ``fn(*args)`` as operation ``label`` under a root span."""
        self.op = label
        self._solved = set()
        rec = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self.op = None

    # --------------------------------------------------------- patching

    def _solve_info(self, args, sol):
        lp = args[0]
        A = lp.row_coeffs
        key = hashlib.blake2b(digest_size=16)
        for part in (A, lp.row_rhs, lp.lower, lp.upper):
            key.update(part.tobytes())
        key.update("".join(lp.row_relations).encode())
        digest = key.digest()
        repeat = digest in self._solved
        self._solved.add(digest)
        return {
            "rows": int(A.shape[0]),
            "pivots": int(sol.iterations),
            "nbytes": int(A.nbytes),
            "density": float(A.size and (A != 0.0).sum() / A.size),
            "repeat": repeat,
        }

    def _wrap_bounds(self, fn):
        """``fast_uq_bounds`` returns two evaluators; trace those too."""
        tracer = self

        @functools.wraps(fn)
        def making(*args, **kwargs):
            return tuple(
                tracer.wrap("experiments.uq_bounds", f) for f in fn(*args, **kwargs)
            )

        return self.wrap("experiments.uq_bounds", making)

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "wdro" or name.startswith("wdro."))]
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            if attr == "fast_uq_bounds":
                new = self._wrap_bounds(orig)
            elif span == "simplex.solve":
                new = self.wrap(span, orig, after=self._solve_info)
            else:
                new = self.wrap(span, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)
                        self._undo.append((setattr, mod, key, orig))
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for dkey, dval in list(val.items()):
                            if dval is orig:
                                val[dkey] = new
                                self._undo.append((dict.__setitem__, val, dkey, orig))
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(span, orig))
            self._undo.append((setattr, cls, meth, orig))

    def uninstall(self) -> None:
        while self._undo:
            put, where, key, orig = self._undo.pop()
            put(where, key, orig)


# ------------------------------------------------------------- analysis


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            covered[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, covered)]


def layer_metrics(spans, ops) -> dict:
    """Per-layer figures over the spans of the operations in ``ops``
    (``trace.overhead_s`` is added by the caller)."""
    own = set(ops)
    selft = self_times(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    trains = 0
    solves = []
    for i, rec in enumerate(spans):
        if rec[4] not in own:
            continue
        name = rec[0]
        secs[name] = secs.get(name, 0.0) + selft[i]
        ancestors = []
        p = rec[3]
        while p is not None:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:  # a nested call of the same kind is one call
            calls[name] = calls.get(name, 0) + 1
        if name == "train" and any(a == "calibrate.call" for a in ancestors):
            trains += 1
        if name == "simplex.solve" and rec[5] is not None:
            solves.append((rec[2] - rec[1], rec[5]))

    pivots = sum(info["pivots"] for _, info in solves)
    solve_s = sum(t for t, _ in solves)
    largest = max((info for _, info in solves), key=lambda i: i["nbytes"], default=None)
    return {
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": secs.get("cli.main", 0.0),
        "reformulate.builds": calls.get("reformulate.build", 0),
        "reformulate.build_s": secs.get("reformulate.build", 0.0),
        "lp.assemblies": calls.get("lp.assemble", 0),
        "lp.assemble_s": secs.get("lp.assemble", 0.0),
        "lp.max_dense_mb": largest["nbytes"] / 1e6 if largest else 0.0,
        "lp.max_density": largest["density"] if largest else 0.0,
        "simplex.solves": len(solves),
        "simplex.solve_s": solve_s,
        "simplex.pivots": pivots,
        "simplex.pivots_per_solve": pivots / len(solves) if solves else 0.0,
        "simplex.ms_per_pivot": 1e3 * solve_s / pivots if pivots else 0.0,
        "simplex.max_rows": max((info["rows"] for _, info in solves), default=0),
        "simplex.repeat_share": (
            sum(info["repeat"] for _, info in solves) / len(solves) if solves else 0.0
        ),
        "geometry.helper_lps": calls.get("geometry.helper", 0),
        "geometry.helper_s": secs.get("geometry.helper", 0.0),
        "extremal.calls": calls.get("extremal.call", 0),
        "extremal.s": secs.get("extremal.call", 0.0),
        "wasserstein.calls": calls.get("wasserstein.call", 0),
        "wasserstein.s": secs.get("wasserstein.call", 0.0),
        "calibrate.calls": calls.get("calibrate.call", 0),
        "calibrate.trains": trains,
        "calibrate.s": secs.get("calibrate.call", 0.0) + secs.get("train", 0.0),
        "experiments.portfolio_solves": calls.get("experiments.portfolio", 0),
        "experiments.portfolio_s": secs.get("experiments.portfolio", 0.0),
        "experiments.oracle_s": secs.get("experiments.oracle", 0.0),
        "experiments.uq_bounds_s": secs.get("experiments.uq_bounds", 0.0),
    }


def median_metrics(per_round: list[dict]) -> dict:
    return {k: statistics.median_low(d[k] for d in per_round) for k in per_round[0]}
