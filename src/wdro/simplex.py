"""Two-phase primal simplex for dense bounded-variable linear programs.

The user-facing program is converted to equality form by appending one
slack column per row; relation information lives entirely in the slack
bounds ("<=" slack in [0, inf), ">=" slack in (-inf, 0], "=" slack fixed
at zero).  Free variables are handled directly by the bounded-variable
rules, never split into differences.  The basis inverse is kept
explicitly, updated by row operations after each pivot and rebuilt every
``refactor_every`` pivots.

Every solve begins the same way: a basis is installed with each nonbasic
column at a bound, its inverse is built, and basic values outside their
bounds are clamped.  The residual this leaves goes into a single
artificial column, and phase one drives that column from one to zero.  A
cold solve starts from the slack basis, every other column at its finite
bound nearest zero (or at zero when free); a positive phase-one optimum
there is an infeasibility certificate.

Pricing uses the largest-violation (Dantzig) rule with lowest-index
tie-breaks, switching to Bland's least-index rule after
10*(n_vars + n_rows) iterations so degenerate programs terminate.  The
ratio test only considers rows whose pivot exceeds
``pivot_tol * max(1, max|w|)`` for the entering column w = B^-1 a_j; the
threshold is relative because a pivot that is tiny next to the rest of its
column wrecks the rank-1 update of the inverse.  All tie-breaking is
deterministic, which makes repeated solves of the same program
bit-identical.

Before a point is reported optimal it is checked once against the
original program: primal residuals, reduced-cost signs and the primal-dual
gap, each within its ``SolverConfig`` tolerance.  A point that fails is
not returned.  The engine restarts from the current basis as above and
resumes phase two; the second restart forces Bland's rule, and a third
failure raises ``NumericalBreakdown``.

Warm starts.  An optimal solution carries its basis: the basic column of
each row and the bound side of every nonbasic column.  Passed back as
``warm``, it is the basis the solve starts from in place of the slack
basis.  Radius sweeps gain most: the radius enters a reformulation only as
one cost coefficient, so the previous optimal basis stays primal feasible
and phase two starts next to the new optimum.  A basis that does not fit
(wrong length, a column out of range, singular, or with a positive
phase-one optimum) is dropped and the solve starts from the slack basis.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalBreakdown
from .lp import GE, LE, LinearProgram, LpSolution, SolverConfig, _check_dense_size

__all__ = ["solve_lp"]

_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3

_OPTIMAL, _UNBOUNDED, _ITER_LIMIT = 0, 1, 2


def _slack_bounds(relations) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([-np.inf if rel == GE else 0.0 for rel in relations], dtype=float)
    hi = np.array([np.inf if rel == LE else 0.0 for rel in relations], dtype=float)
    return lo, hi


class _Engine:
    def __init__(self, lp: LinearProgram, cfg: SolverConfig):
        self.cfg = cfg
        self.flip = lp.sense == "max"
        m, n = lp.n_rows, lp.n_vars
        _check_dense_size(m, n)
        self.m, self.n_struct = m, n

        # Columns: the structural ones, one slack per row, then the one
        # artificial column that restart() fills with a residual.
        slack_lo, slack_hi = _slack_bounds(lp.row_relations)
        self.n_tot = n_tot = n + m + 1
        self.art = n + m
        A = np.zeros((m, n_tot))
        A[:, :n] = lp.row_coeffs
        A[np.arange(m), n + np.arange(m)] = 1.0
        self.A = A
        self.b = lp.row_rhs.copy()
        self.lo = np.concatenate([lp.lower, slack_lo, [0.0]])
        self.hi = np.concatenate([lp.upper, slack_hi, [0.0]])
        self.fixed = self.lo == self.hi
        self.x = np.zeros(n_tot)
        self.status = np.full(n_tot, _AT_LOWER, dtype=np.int8)
        self.B_inv = np.zeros((m, m))
        # The slack basis, every other column at its finite bound nearest zero.
        self.slack_start = (
            n + np.arange(m),
            np.abs(self.hi[: n + m]) < np.abs(self.lo[: n + m]),
        )

        c_int = -lp.costs if self.flip else lp.costs
        self.cost = np.concatenate([c_int, np.zeros(m + 1)])
        self.ph1_cost = np.zeros(n_tot)
        self.ph1_cost[self.art] = 1.0
        # Unbounded-exit scratch, set when _run returns _UNBOUNDED.
        self.ray_col = -1
        self.ray_sigma = 0.0
        self.ray_w = np.zeros(m)

    def _refactor(self) -> None:
        if self.m == 0:
            return
        if np.array_equal(self.basis, self.slack_start[0]):
            self.B_inv = np.eye(self.m)  # the slack columns form the identity
        else:
            try:
                self.B_inv = np.linalg.inv(self.A[:, self.basis])
            except np.linalg.LinAlgError as exc:
                raise NumericalBreakdown("singular basis during refactorization") from exc
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        self.x[self.basis] = self.B_inv @ (self.b - self.A @ x_nb)

    def _pivot_update(self, r: int, w: np.ndarray) -> None:
        self.B_inv[r, :] /= w[r]
        others = w.copy()
        others[r] = 0.0
        self.B_inv -= np.outer(others, self.B_inv[r, :])

    def _run(self, c: np.ndarray) -> int:
        cfg = self.cfg
        A, lo, hi = self.A, self.lo, self.hi
        m = self.m
        pivots = 0
        while True:
            if self.iterations >= cfg.max_iterations:
                return _ITER_LIMIT
            self.iterations += 1
            bland = self.iterations > self.bland_after

            y = self.B_inv.T @ c[self.basis] if m else np.zeros(0)
            d = c - A.T @ y
            st = self.status
            score = np.zeros(self.n_tot)
            mask_lo = (st == _AT_LOWER) & ~self.fixed
            mask_hi = (st == _AT_UPPER) & ~self.fixed
            mask_fr = st == _FREE
            score[mask_lo] = -d[mask_lo]
            score[mask_hi] = d[mask_hi]
            score[mask_fr] = np.abs(d[mask_fr])
            eligible = score > cfg.opt_tol
            if not eligible.any():
                return _OPTIMAL
            if bland:
                j = int(np.flatnonzero(eligible)[0])
            else:
                j = int(np.argmax(score))
            if st[j] == _AT_LOWER:
                sigma = 1.0
            elif st[j] == _AT_UPPER:
                sigma = -1.0
            else:
                sigma = 1.0 if d[j] < 0 else -1.0

            w = self.B_inv @ A[:, j] if m else np.zeros(0)
            delta = -sigma * w

            t_rows = np.full(m, np.inf)
            if m:
                # A pivot must be large relative to the entering column: a
                # relatively tiny one makes the rank-1 update of B_inv (and
                # so of x) amplify rounding error without bound.
                piv = cfg.pivot_tol * max(1.0, float(np.abs(w).max()))
                xb = self.x[self.basis]
                lob, hob = lo[self.basis], hi[self.basis]
                dec = (delta < -piv) & np.isfinite(lob)
                inc = (delta > piv) & np.isfinite(hob)
                t_rows[dec] = np.maximum(xb[dec] - lob[dec], 0.0) / -delta[dec]
                t_rows[inc] = np.maximum(hob[inc] - xb[inc], 0.0) / delta[inc]

            t_flip = hi[j] - lo[j] if np.isfinite(lo[j]) and np.isfinite(hi[j]) else np.inf
            t_row_min = t_rows.min() if m else np.inf
            t = min(t_row_min, t_flip)
            if not np.isfinite(t):
                self.ray_col, self.ray_sigma, self.ray_w = j, sigma, w
                return _UNBOUNDED

            if t_flip <= t_row_min:
                # Entering variable jumps to its other bound; basis unchanged.
                if m:
                    self.x[self.basis] += t * delta
                if st[j] == _AT_LOWER:
                    self.x[j] = hi[j]
                    self.status[j] = _AT_UPPER
                else:
                    self.x[j] = lo[j]
                    self.status[j] = _AT_LOWER
                continue

            tie = t_rows <= t + 1e-12 * (1.0 + abs(t))
            cand = np.flatnonzero(tie)
            if bland:
                r = int(cand[np.argmin(self.basis[cand])])
            else:
                mags = np.abs(delta[cand])
                best = cand[mags >= mags.max() * (1.0 - 1e-9)]
                r = int(best[np.argmin(self.basis[best])])

            leaving = int(self.basis[r])
            self.x[self.basis] += t * delta
            self.x[j] = self.x[j] + sigma * t
            if delta[r] < 0 or not np.isfinite(hi[leaving]):
                self.x[leaving] = lo[leaving]
                self.status[leaving] = _AT_LOWER
            else:
                self.x[leaving] = hi[leaving]
                self.status[leaving] = _AT_UPPER
            self.basis[r] = j
            self.status[j] = _BASIC
            self._pivot_update(r, w)
            pivots += 1
            if pivots % self.cfg.refactor_every == 0:
                self._refactor()

    def phase_one(self) -> float:
        outcome = self._run(self.ph1_cost)
        if outcome == _ITER_LIMIT:
            raise NumericalBreakdown("iteration limit reached in phase one")
        if outcome == _UNBOUNDED:
            # The phase-one objective is bounded below by zero.
            raise NumericalBreakdown("phase one reported an unbounded direction")
        return float(self.x[self.art])

    def _fix_artificial(self) -> None:
        art = self.art
        self.hi[art] = self.x[art] = 0.0
        self.fixed[art] = True
        self.status[art] = _AT_LOWER

    def drop_artificial(self) -> None:
        """Fix the artificial column at zero, first pivoting it out of the
        basis if phase one left it basic (at zero)."""
        art, n_real = self.art, self.n_struct + self.m
        self._fix_artificial()
        for r in np.flatnonzero(self.basis == art):
            r = int(r)
            row = self.B_inv[r, :] @ self.A[:, :n_real]
            row[self.status[:n_real] == _BASIC] = 0.0
            # Prefer a column that can move; a fixed one (an equality slack)
            # holds the row at zero just as well when no other column can.
            pick = np.where(self.fixed[:n_real], 0.0, row)
            if np.abs(pick).max() <= self.cfg.pivot_tol:
                pick = row
            jq = int(np.argmax(np.abs(pick)))
            if abs(pick[jq]) <= self.cfg.pivot_tol:
                raise NumericalBreakdown("the artificial column cannot leave the basis")
            self.basis[r] = jq
            self.status[jq] = _BASIC
            self._pivot_update(r, self.B_inv @ self.A[:, jq])
        self._refactor()

    def phase_two(self) -> int:
        outcome = self._run(self.cost)
        if outcome == _ITER_LIMIT:
            raise NumericalBreakdown("iteration limit reached in phase two")
        return outcome

    def restart(self) -> float:
        """Rebuild the inverse of the current basis and make its point
        primal feasible again; return the phase-one optimum, 0 if the
        point needed no repair.  Basic values outside their bounds are
        clamped and the residual that leaves goes into the artificial
        column, which phase one then drives from one to zero.  A positive
        optimum leaves the phase-one basis in place, and its duals are an
        infeasibility certificate."""
        self._refactor()
        xb = self.x[self.basis]
        clamped = np.clip(xb, self.lo[self.basis], self.hi[self.basis])
        if np.array_equal(clamped, xb):
            return 0.0
        self.x[self.basis] = clamped
        art = self.art
        self.A[:, art] = self.b - self.A @ self.x
        self.x[art] = self.hi[art] = 1.0
        self.status[art] = _AT_UPPER
        self.fixed[art] = False
        infeasibility = self.phase_one()
        if infeasibility <= self.cfg.feas_tol:
            self.drop_artificial()
        return infeasibility

    def start(self, basis: np.ndarray, at_upper: np.ndarray) -> float:
        """Begin a solve from ``basis``, each other column at a bound (the
        upper one where ``at_upper`` says so), and return the phase-one
        optimum of restart(); raises NumericalBreakdown if the basis is
        singular or phase one breaks down."""
        n_real = self.n_struct + self.m
        self.iterations = 0
        self.bland_after = SolverConfig.bland_after(self.n_struct, self.m)
        self._fix_artificial()
        lo, hi = self.lo[:n_real], self.hi[:n_real]
        up = np.isfinite(hi) & (at_upper | ~np.isfinite(lo))
        down = np.isfinite(lo) & ~up
        self.x[:n_real] = np.where(up, hi, np.where(down, lo, 0.0))
        self.status[:n_real] = np.where(up, _AT_UPPER, np.where(down, _AT_LOWER, _FREE))
        self.basis = basis.astype(np.int64)
        self.status[self.basis] = _BASIC
        return self.restart()

    def raw_duals(self, c: np.ndarray) -> np.ndarray:
        return self.B_inv.T @ c[self.basis] if self.m else np.zeros(0)

    def ray(self) -> np.ndarray:
        r = np.zeros(self.n_tot)
        if self.m:
            r[self.basis] = -self.ray_sigma * self.ray_w
        r[self.ray_col] = self.ray_sigma
        return r[: self.n_struct]


def _certifies_optimal(
    lp: LinearProgram, x: np.ndarray, y: np.ndarray, cfg: SolverConfig
) -> bool:
    """Whether ``x`` and the minimization-sense row duals ``y`` prove
    optimality for ``lp``.  Rows are read as slacks s = b - Ax with the
    engine's slack bounds, so one test covers rows and columns alike:
    primal values within their bounds up to feas_tol*(1 + |bound or rhs|),
    a reduced cost beyond opt_tol only towards a finite bound, and the
    primal objective within gap_tol*(1 + |objective|) of the dual one."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return False
    A, b = lp.row_coeffs, lp.row_rhs
    s_lo, s_hi = _slack_bounds(lp.row_relations)
    v = np.concatenate([x, b - A @ x])
    lo = np.concatenate([lp.lower, s_lo])
    hi = np.concatenate([lp.upper, s_hi])
    scale_lo = 1.0 + np.abs(np.concatenate([lp.lower, b]))
    scale_hi = 1.0 + np.abs(np.concatenate([lp.upper, b]))
    if np.any(lo - v > cfg.feas_tol * scale_lo) or np.any(v - hi > cfg.feas_tol * scale_hi):
        return False

    c = -lp.costs if lp.sense == "max" else lp.costs
    z = np.concatenate([c - A.T @ y, -y])
    up, down = z > cfg.opt_tol, z < -cfg.opt_tol
    if np.any(up & ~np.isfinite(lo)) or np.any(down & ~np.isfinite(hi)):
        return False
    # Each reduced cost prices the bound it points at; those within opt_tol
    # are taken at the point itself and so add nothing to the gap.
    bound = np.where(up, lo, np.where(down, hi, v))
    primal_obj = float(c @ x)
    dual_obj = float(b @ y + z @ bound)
    return abs(primal_obj - dual_obj) <= cfg.gap_tol * (1.0 + abs(primal_obj))


def _start_warm(eng: _Engine, warm) -> bool:
    """Start ``eng`` from the basis ``warm``; False if it does not fit."""
    basis, at_upper = (np.asarray(part) for part in warm)
    n_real = eng.n_struct + eng.m
    if basis.shape != (eng.m,) or at_upper.shape != (n_real,):
        return False
    if basis.size and (basis.min() < 0 or basis.max() >= n_real):
        return False
    try:
        return eng.start(basis, at_upper.astype(bool)) <= eng.cfg.feas_tol
    except NumericalBreakdown:
        return False


def solve_lp(
    lp: LinearProgram, config: SolverConfig | None = None, warm=None
) -> LpSolution:
    """Solve a dense LP; see the module docstring for conventions.

    Returns an optimal basic solution with row duals and its basis, an
    infeasibility verdict carrying the phase-one multipliers as a
    Farkas-style certificate, or a feasible point plus an improving ray
    when the program is unbounded.

    ``warm`` is the ``basis`` of an earlier optimal solution, typically of
    the same constraints under other costs.  The solve then starts from it
    rather than from the slack basis; a basis that does not fit this
    program is ignored.  Either way the answer passes the same final check.
    """
    cfg = config or SolverConfig()
    eng = _Engine(lp, cfg)
    if warm is None or not _start_warm(eng, warm):
        if eng.start(*eng.slack_start) > cfg.feas_tol:
            return LpSolution(
                status="infeasible",
                objective_value=float("nan"),
                primal=None,
                duals=eng.raw_duals(eng.ph1_cost),
                ray=None,
                iterations=eng.iterations,
            )

    outcome = eng.phase_two()
    # Restart after a failed check; the second restart runs under Bland's rule.
    for attempt in range(3):
        y = eng.raw_duals(eng.cost)
        primal = eng.x[: eng.n_struct].copy()
        if outcome == _UNBOUNDED or _certifies_optimal(lp, primal, y, cfg):
            break
        if attempt == 2:
            raise NumericalBreakdown(
                "solution failed verification against the original program"
            )
        if attempt == 1:
            eng.bland_after = 0
        if eng.restart() > cfg.feas_tol:
            raise NumericalBreakdown("could not restore primal feasibility")
        outcome = eng.phase_two()
    if outcome == _UNBOUNDED:
        return LpSolution(
            status="unbounded",
            objective_value=float("-inf") if lp.sense == "min" else float("inf"),
            primal=primal,
            duals=None,
            ray=eng.ray(),
            iterations=eng.iterations,
        )
    return LpSolution(
        status="optimal",
        objective_value=float(lp.costs @ primal),
        primal=primal,
        duals=-y if eng.flip else y,
        ray=None,
        iterations=eng.iterations,
        basis=(eng.basis.copy(), eng.status[: eng.n_struct + eng.m] == _AT_UPPER),
    )
