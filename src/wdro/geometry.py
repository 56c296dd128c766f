"""Ground norms and support polytopes.

Transport costs are measured in a ground norm on the sample space; only
the 1-norm and the max-norm are supported because only those keep every
downstream program linear.  Supports are polytopes ``{x : Cx <= d}``; an
empty ``C`` means the whole space.  Every LP question about a polytope
that asks for a feasible point (nonempty, meets a halfspace, bounded,
recession ray) is one call to ``_polytope_lp``.  The nearest point is
read off the LP dual of the distance, which starts feasible.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import comb, inf

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySupport,
    NormUnsupported,
    TooLarge,
    UnboundedPolyhedron,
)
from .lp import LE, LinearProgram, LpBuilder, LpSolution, _norm_pair_duals
from .simplex import solve_lp

__all__ = [
    "GroundNorm",
    "norm_value",
    "dual_norm_value",
    "Polytope",
    "nearest_point",
    "enumerate_vertices",
]

# most column subsets enumerate_vertices will solve
MAX_BASES = 200_000


class GroundNorm(enum.Enum):
    """Norm used for transport cost.  ``dual`` is the norm appearing in the
    linearized dual constraints (1-norm and max-norm are dual to each
    other)."""

    L1 = "l1"
    LINF = "linf"

    @property
    def dual(self) -> "GroundNorm":
        return GroundNorm.LINF if self is GroundNorm.L1 else GroundNorm.L1

    @classmethod
    def parse(cls, text: str) -> "GroundNorm":
        try:
            return cls(text)
        except ValueError:
            raise NormUnsupported(
                f"ground norm {text!r} not supported; use 'l1' or 'linf'"
            ) from None


def norm_value(x: np.ndarray, norm: GroundNorm) -> float:
    x = np.asarray(x, dtype=float)
    if norm is GroundNorm.L1:
        return float(np.sum(np.abs(x)))
    return float(np.max(np.abs(x))) if x.size else 0.0


def dual_norm_value(x: np.ndarray, norm: GroundNorm) -> float:
    return norm_value(x, norm.dual)


@dataclass(frozen=True)
class Polytope:
    """Support set {x in R^dim : C x <= d}.  ``C`` may have zero rows, in
    which case the support is the whole space."""

    C: np.ndarray
    d: np.ndarray
    dim: int

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if C.size == 0:
            C = C.reshape(0, self.dim)
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if C.shape[1] != self.dim:
            raise DimensionMismatch(
                f"support rows have {C.shape[1]} columns, expected {self.dim}"
            )
        if d.shape[0] != C.shape[0]:
            raise DimensionMismatch("support rhs length does not match row count")
        if not np.all(np.isfinite(C)) or not np.all(np.isfinite(d)):
            raise DimensionMismatch("support data must be finite")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)

    @classmethod
    def free(cls, dim: int) -> "Polytope":
        return cls(np.zeros((0, dim)), np.zeros(0), dim)

    @classmethod
    def box(cls, lo, hi) -> "Polytope":
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise DimensionMismatch("box corners must have equal length")
        dim = lo.shape[0]
        eye = np.eye(dim)
        return cls(np.vstack([eye, -eye]), np.concatenate([hi, -lo]), dim)

    @property
    def n_rows(self) -> int:
        return self.C.shape[0]

    @property
    def is_free(self) -> bool:
        return self.n_rows == 0

    def violation(self, points: np.ndarray) -> np.ndarray:
        """Largest row violation per point; nonpositive means inside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_free:
            return np.full(pts.shape[0], -inf)
        return np.max(pts @ self.C.T - self.d, axis=1)

    def nonempty(self) -> bool:
        return self.is_free or _polytope_lp(self.C, self.d).status == "optimal"


def _polytope_lp(C: np.ndarray, d: np.ndarray, cost=None) -> LpSolution:
    """min <cost, x> (zero when ``cost`` is None) over {x : Cx <= d}."""
    m, n = C.shape
    return solve_lp(LinearProgram(
        sense="min",
        costs=np.zeros(n) if cost is None else cost,
        row_coeffs=C,
        row_relations=(LE,) * m,
        row_rhs=d,
        lower=np.full(n, -inf),
        upper=np.full(n, inf),
    ))


def nearest_point(p: Polytope, point: np.ndarray, norm: GroundNorm) -> tuple[float, np.ndarray]:
    """Ground-norm distance from ``point`` to the polytope and the closest
    point achieving it.

    Solves the LP dual of the distance, max <C point - d, mu> over mu >= 0
    with ||C'mu||_dual <= 1.  The point enters only the costs, so the
    slack basis mu = 0 is feasible and no phase one runs.  The closest
    point is point - (w+ - w-), with w+ - w- the duals of the norm row
    pairs as ``lp._norm_pair_duals`` reads them.  An unbounded dual means
    an empty polytope.
    """
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.shape[0] != p.dim:
        raise DimensionMismatch("point length does not match support dimension")
    if p.is_free:
        return 0.0, point.copy()
    b = LpBuilder("max")
    mu = b.vars("mu", p.n_rows, lb=0.0)
    one = b.var("one", lb=1.0, ub=1.0)
    b.set_objective(dict(zip(mu, p.C @ point - p.d)))
    first = b.add_norm_le([(dict(zip(mu, col)), 0.0) for col in p.C.T], one, norm.dual)
    sol = solve_lp(b.build())
    if sol.status != "optimal":
        raise EmptySupport("support polytope is empty")
    return sol.objective_value, point - _norm_pair_duals(sol, first, p.dim)


def _reduce_rows(A: np.ndarray, b: np.ndarray, tol: float = 1e-10):
    """Row-space reduction of [A | b]; returns (A_red, b_red, consistent)."""
    m = A.shape[0]
    if m == 0:
        return A, b, True
    U, s, _ = np.linalg.svd(A, full_matrices=True)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > tol * scale))
    A_red = U[:, :rank].T @ A
    b_red = U[:, :rank].T @ b
    resid = b - U[:, :rank] @ b_red
    consistent = bool(np.linalg.norm(resid) <= 1e-9 * (1.0 + np.linalg.norm(b)))
    return A_red, b_red, consistent


def enumerate_vertices(A_eq: np.ndarray, b_eq: np.ndarray) -> np.ndarray:
    """All vertices of {theta >= 0 : A_eq theta = b_eq}.

    Vertices are basic feasible solutions; every size-rank column subset
    with a nonsingular square block is solved and filtered for
    nonnegativity, then near-duplicates (1e-9 in the max-norm) are merged.
    Raises UnboundedPolyhedron when the recession cone contains a nonzero
    ray and TooLarge when the subset count exceeds ``MAX_BASES``.
    """
    A = np.atleast_2d(np.asarray(A_eq, dtype=float))
    b = np.asarray(b_eq, dtype=float).reshape(-1)
    if A.shape[0] != b.shape[0]:
        raise DimensionMismatch("equality rhs length does not match row count")
    n = A.shape[1]

    # Nontrivial recession ray <=> max 1'theta over {A theta = 0, 0 <= theta <= 1} > 0.
    eye = np.eye(n)
    C = np.vstack([A, -A, eye, -eye])
    d = np.concatenate([np.zeros(2 * A.shape[0]), np.ones(n), np.zeros(n)])
    rec = _polytope_lp(C, d, -np.ones(n))
    if rec.status != "optimal" or rec.objective_value < -1e-9:
        raise UnboundedPolyhedron(
            "the set {theta >= 0 : A theta = b} has a nonzero recession direction"
        )

    A_red, b_red, consistent = _reduce_rows(A, b)
    if not consistent:
        return np.zeros((0, n))
    r = A_red.shape[0]
    if r == 0:
        # Only theta >= 0 with A == 0; bounded => the set is {0} or empty.
        return np.zeros((1, n)) if np.allclose(b, 0.0) else np.zeros((0, n))
    if comb(n, r) > MAX_BASES:
        raise TooLarge(
            f"vertex enumeration needs {comb(n, r)} basis checks, cap is {MAX_BASES}"
        )

    found: list[np.ndarray] = []
    for cols in itertools.combinations(range(n), r):
        block = A_red[:, cols]
        try:
            sol = np.linalg.solve(block, b_red)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(sol)):
            continue
        if np.linalg.norm(block @ sol - b_red) > 1e-8 * (1.0 + np.linalg.norm(b_red)):
            continue
        if np.any(sol < -1e-9):
            continue
        v = np.zeros(n)
        v[list(cols)] = np.clip(sol, 0.0, None)
        if np.max(np.abs(A @ v - b)) > 1e-7 * (1.0 + np.max(np.abs(b), initial=0.0)):
            continue
        if not any(np.max(np.abs(v - u)) <= 1e-9 for u in found):
            found.append(v)
    if not found:
        return np.zeros((0, n))
    return np.vstack(found)
