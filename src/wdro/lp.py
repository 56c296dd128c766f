"""Dense linear-program containers and a small construction helper.

A :class:`LinearProgram` is a plain dense description

    optimize   c'x
    subject to A x  (<= | = | >=)  b     row by row
               l <= x <= u               elementwise, infinities allowed

The solver lives in :mod:`wdro.simplex`; this module only holds data and
structure-level transformations.  :class:`LpBuilder` hands out a column
as its index, the position at which ``LpSolution.primal`` holds its value.

Dual convention.  For a minimization program the dual multiplier of a ">="
row is nonnegative, of a "<=" row nonpositive, and of an "=" row free, so
that ``c = A'y + z`` with ``z`` the reduced costs supported on active
bounds.  For a maximization program the signs flip ("<=" rows carry
nonnegative multipliers).  The duals reported by ``solve_lp`` follow
this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import MalformedProgram, TooLarge

if TYPE_CHECKING:
    from .geometry import GroundNorm

__all__ = [
    "MAX_DENSE_BYTES",
    "LinearProgram",
    "LpSolution",
    "SolverConfig",
    "LpBuilder",
    "dump_program",
]

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

# Byte limit on the dense storage of one program and its simplex engine.
# An m x n program takes 8*m*(2n + 1) bytes for its row matrix and the
# engine's [A | a] (the structural columns and one artificial column; slack
# columns are implicit).  The engine keeps the kernel of the basis inverse:
# G = A[R, J]^-1 (k x k) and the columns A[:, J] (m x k), k <= m the number
# of basic columns that are not slacks, in buffers a quarter plus sixteen
# slots larger but never wider than m.  A pivot update or a refactorization holds one
# more k x k or m x k array for a moment.  The check uses 8*m*(2n + 3m),
# whose m^2 terms bound all of that from above.  The largest programs the
# studies and the tests build (1261 x 642) take about 51 MB by that bound.
MAX_DENSE_BYTES = 2**30


def _check_dense_size(m: int, n: int) -> None:
    """Raise TooLarge, before anything is allocated, for an m x n program
    whose dense storage would exceed MAX_DENSE_BYTES: the program, the
    engine's columns, and its kernel G (k x k) and A[:, J] (m x k) with
    k <= m bounded as if k were m."""
    need = 8 * m * (2 * n + 3 * m)
    if need > MAX_DENSE_BYTES:
        raise TooLarge(
            f"a dense {m} x {n} program needs about {need / 2**30:.1f} GiB; "
            f"the limit is {MAX_DENSE_BYTES / 2**30:.1f} GiB"
        )


@dataclass(frozen=True)
class LinearProgram:
    """Immutable dense LP data.  Rows are stored as one (m, n) matrix."""

    sense: str
    costs: np.ndarray
    row_coeffs: np.ndarray
    row_relations: tuple[str, ...]
    row_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise MalformedProgram(f"unknown sense {self.sense!r}")
        c = np.asarray(self.costs, dtype=float)
        A = np.asarray(self.row_coeffs, dtype=float)
        b = np.asarray(self.row_rhs, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if A.ndim != 2:
            raise MalformedProgram("row_coeffs must be a 2-d array")
        m, n = A.shape
        if c.shape != (n,) or lo.shape != (n,) or hi.shape != (n,):
            raise MalformedProgram("cost/bound length does not match column count")
        if b.shape != (m,) or len(self.row_relations) != m:
            raise MalformedProgram("rhs/relation length does not match row count")
        for rel in self.row_relations:
            if rel not in _RELATIONS:
                raise MalformedProgram(f"unknown relation {rel!r}")
        if not np.all(np.isfinite(c)):
            raise MalformedProgram("costs must be finite")
        if not np.all(np.isfinite(A)):
            raise MalformedProgram("row coefficients must be finite")
        if not np.all(np.isfinite(b)):
            raise MalformedProgram("right-hand sides must be finite")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise MalformedProgram("bounds may be infinite but not NaN")
        if np.any(lo > hi):
            raise MalformedProgram("lower bound exceeds upper bound")
        if self.names and len(self.names) != n:
            raise MalformedProgram("names length does not match column count")
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "row_coeffs", A)
        object.__setattr__(self, "row_rhs", b)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "row_relations", tuple(self.row_relations))

    @property
    def n_vars(self) -> int:
        return self.row_coeffs.shape[1]

    @property
    def n_rows(self) -> int:
        return self.row_coeffs.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """Outcome of one solve.

    status is "optimal", "infeasible" or "unbounded".  On "optimal" the
    primal point, row duals and objective value are set.  On "unbounded"
    ``ray`` is an improving recession direction and ``primal`` a feasible
    point from which it emanates.  On "infeasible" ``duals`` carries the
    phase-one multipliers, a Farkas-style certificate.
    """

    status: str
    objective_value: float
    primal: np.ndarray | None
    duals: np.ndarray | None
    ray: np.ndarray | None
    iterations: int

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class SolverConfig:
    """The simplex engine's fixed tolerances.  ``solve_lp`` takes no
    per-call config: every solve uses ``SolverConfig()``, and tests that
    need other values pass one to the engine (``simplex._Engine``).

    feas_tol bounds acceptable primal residuals, relative to 1 + |bound|
    for a variable and 1 + |rhs| for a row.  opt_tol is the pricing (dual
    feasibility) cutoff.  pivot_tol is relative: a pivot must exceed
    ``pivot_tol * max(1, max|w|)`` with w the entering column in the
    current basis.  gap_tol is the relative primal/dual gap accepted at
    optimality.  feas_tol, opt_tol and gap_tol are enforced by a final
    check before a solution is reported optimal.  Pricing starts with the
    largest-violation rule and falls back to Bland's least-index rule after
    ``bland_after(n_vars, n_rows)`` iterations, which guarantees
    termination on degenerate programs, and a solve that reaches
    max_iterations raises ``NumericalBreakdown``.  How often the basis
    inverse is rebuilt is fixed by the engine (``simplex.REFACTOR_EVERY``).
    """

    feas_tol: float = 1e-9
    opt_tol: float = 1e-9
    gap_tol: float = 1e-8
    pivot_tol: float = 1e-10
    max_iterations: int = 2_000_000

    @staticmethod
    def bland_after(n_vars: int, n_rows: int) -> int:
        return 10 * (n_vars + n_rows)


class LpBuilder:
    """Incremental construction of a dense LinearProgram.

    :meth:`var` and :meth:`vars` return column indices, numbered from 0 in
    order of creation.  Rows and the objective are entered as
    ``{column: coefficient}`` mappings; dual-norm and norm-epigraph rows
    used throughout the reformulations are provided as helpers so every
    builder encodes them identically.
    """

    def __init__(self, sense: str = "min"):
        self.sense = sense
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._names: list[str] = []
        self._obj: dict[int, float] = {}
        self._rows: list[dict[int, float]] = []
        self._rels: list[str] = []
        self._rhs: list[float] = []

    def var(self, name: str, lb: float = -np.inf, ub: float = np.inf) -> int:
        self._names.append(name)
        self._lower.append(lb)
        self._upper.append(ub)
        return len(self._names) - 1

    def vars(self, prefix: str, count: int, lb: float = -np.inf, ub: float = np.inf) -> list[int]:
        return [self.var(f"{prefix}[{i}]", lb, ub) for i in range(count)]

    def set_objective(self, terms: Mapping[int, float]) -> None:
        self._obj = {j: float(t) for j, t in terms.items()}

    def add_row(self, terms: Mapping[int, float], rel: str, rhs: float) -> int:
        """Append one row and return its index."""
        self._rows.append({j: float(t) for j, t in terms.items() if t != 0.0})
        self._rels.append(rel)
        self._rhs.append(float(rhs))
        return len(self._rows) - 1

    def add_le(self, terms: Mapping[int, float], rhs: float) -> int:
        return self.add_row(terms, LE, rhs)

    def add_ge(self, terms: Mapping[int, float], rhs: float) -> int:
        return self.add_row(terms, GE, rhs)

    def add_eq(self, terms: Mapping[int, float], rhs: float) -> int:
        return self.add_row(terms, EQ, rhs)

    def add_norm_le(
        self,
        exprs: Sequence[tuple[Mapping[int, float], float]],
        bound: int,
        norm: GroundNorm,
        tag: str = "",
    ) -> int:
        """Rows enforcing ||v||_norm <= bound for the affine vector v whose
        component j is ``exprs[j]`` (a {column: coeff} mapping plus
        constant) and ``bound`` is a column; returns the first row's index.

        Each component gets the row pair v_j <= u_j, -v_j <= u_j; the pairs
        come first, where ``_norm_pair_duals`` reads them.  For the max-norm
        u_j is ``bound``; for the 1-norm it is an auxiliary variable
        carrying |v_j|, and a single row sums them.  Callers enforcing a
        dual-norm constraint pass the dual norm.
        """
        l1 = norm.value != "linf"
        bounds = self.vars(f"abs{tag}", len(exprs), lb=0.0) if l1 else [bound] * len(exprs)
        first = len(self._rows)
        for (terms, const), u in zip(exprs, bounds):
            for sign in (1.0, -1.0):
                row = {j: sign * t for j, t in terms.items()}
                row[u] = row.get(u, 0.0) - 1.0
                self.add_le(row, -sign * const)
        if l1:
            self.add_le({u: 1.0 for u in bounds} | {bound: -1.0}, 0.0)
        return first

    def build(self) -> LinearProgram:
        n, m = len(self._names), len(self._rows)
        _check_dense_size(m, n)
        c = np.zeros(n)
        for j, t in self._obj.items():
            c[j] = t
        A = np.zeros((m, n))
        for i, row in enumerate(self._rows):
            for j, t in row.items():
                A[i, j] = t
        return LinearProgram(
            sense=self.sense,
            costs=c,
            row_coeffs=A,
            row_relations=tuple(self._rels),
            row_rhs=np.array(self._rhs, dtype=float),
            lower=np.array(self._lower, dtype=float),
            upper=np.array(self._upper, dtype=float),
            names=tuple(self._names),
        )


def _norm_pair_duals(sol: LpSolution, first: int, dim: int) -> np.ndarray:
    """w+ - w- for the ``dim`` row pairs that ``add_norm_le`` wrote from
    row ``first``: per component, the dual of v_j <= u_j minus the dual of
    -v_j <= u_j."""
    w = sol.duals[first : first + 2 * dim]
    return w[0::2] - w[1::2]


def _fmt(x: float) -> str:
    return repr(float(x))


def dump_program(lp: LinearProgram) -> str:
    """Fixed-format text rendering, mainly for --dump-lp and debugging."""
    names = lp.names or tuple(f"x[{j}]" for j in range(lp.n_vars))

    def expr(coeffs) -> str:
        parts = []
        for j in np.flatnonzero(coeffs):
            parts.append(f"{_fmt(coeffs[j])}*{names[j]}")
        return " + ".join(parts) if parts else "0"

    lines = [f"{lp.sense} {expr(lp.costs)}", "subject to"]
    for i in range(lp.n_rows):
        lines.append(
            f"  r{i}: {expr(lp.row_coeffs[i])} {lp.row_relations[i]} {_fmt(lp.row_rhs[i])}"
        )
    lines.append("bounds")
    for j in range(lp.n_vars):
        lines.append(f"  {_fmt(lp.lower[j])} <= {names[j]} <= {_fmt(lp.upper[j])}")
    return "\n".join(lines) + "\n"
