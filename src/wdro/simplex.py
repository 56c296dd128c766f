"""Two-phase primal simplex for dense bounded-variable linear programs.

The user-facing program is converted to equality form by appending one
slack column per row; relation information lives entirely in the slack
bounds ("<=" slack in [0, inf), ">=" slack in (-inf, 0], "=" slack fixed
at zero).  Free variables are handled directly by the bounded-variable
rules, never split into differences.

The engine keeps only the kernel of the basis inverse.  With S the basic
slacks, J the other basic columns and R the rows no basic slack covers, a
basis B is nonsingular exactly when the block A[R, J] is, and B^-1 follows
from G = A[R, J]^-1: B^-1 v has w_J = G v_R and, at the slack covering
row s, w_s = v_s - A[s, J] w_J; the row duals are y_R = c_J G and zero on
the covered rows, because slacks cost nothing.  The Wasserstein programs
give every sample its own block of rows, so an optimal basis is mostly
slack columns and k = |J| is a small part of m.  The engine stores G
(k x k), the columns A[:, J] (m x k), R and J in G's order, and a map from
rows to basis positions.  A pivot updates G in O(k^2) by one of the
bordered-inverse steps of Bisschop and Meeraus (1977) and of the
Schur-complement method of Gill, Murray, Saunders and Wright (1990): row
operations for a swap inside J, a Schur complement when J and R each lose
one, a border when a basic slack leaves, and a rank-one update of one row
of the block when one slack replaces another.  The kernel is rebuilt by
one np.linalg.inv of A[R, J] once the engine has made ``REFACTOR_EVERY``
pivots since its last rebuild (counted across phases and repricings
alike).  Slack columns are never stored: the engine keeps the structural
columns and the artificial one, and prices a slack as its cost minus its
row dual.

Every start from a basis goes the same way: the basis is installed with
each nonbasic column at a bound, its kernel is built, and basic values
outside their bounds are clamped.  A basis whose block A[R, J] is not
square or is singular is repaired before the kernel is built
(``_Engine._repair``).  The residual the clamping leaves goes into a
single artificial column, and phase one drives that column from one to
zero.  A cold solve starts from the slack basis, every other column at its
finite bound nearest zero (or at zero when free); a positive phase-one
optimum there is an infeasibility certificate.

Pricing uses the largest-violation (Dantzig) rule with lowest-index
tie-breaks, switching to Bland's least-index rule after
10*(n_vars + n_rows) iterations so degenerate programs terminate.  The
ratio test only considers rows whose pivot exceeds
``pivot_tol * max(1, max|w|)`` for the entering column w = B^-1 a_j; the
threshold is relative because a pivot that is tiny next to the rest of its
column wrecks the update of the kernel.  All tie-breaking is
deterministic, which makes repeated solves of the same program
bit-identical.  A solve that reaches ``max_iterations`` iterations
raises ``NumericalBreakdown``.

Before a point is reported optimal it is checked once against the
original program: primal residuals, reduced-cost signs and the primal-dual
gap, each within its ``SolverConfig`` tolerance.  A point that fails is
not returned.  The engine restarts from the current basis as above and
resumes phase two; the second restart forces Bland's rule, and a third
failure raises ``NumericalBreakdown``.  A periodic rebuild in phase two
that meets a singular block takes the same restart, which repairs the
basis; in phase one it raises ``NumericalBreakdown``.

Warm starts.  A warm start is a point, not a basis: ``_started`` reads
the basis off it (``_Engine.basis_of``), since an optimal point
determines an optimal basis up to degeneracy (Megiddo 1991).  The basis
may come out short, long or singular and its point infeasible; the start
repairs these as above, and one with a positive phase-one optimum is
dropped for the slack basis.

Repricing.  Every solve is a start (``_started``) followed by one loop
(``_solve``): phase two, the final check, the restarts and the solution.
When only the costs change, as along a radius sweep (the radius enters a
reformulation only as one cost coefficient), a started engine needs no
new start: ``_Engine.reprice`` takes the new costs and keeps the basis,
its kernel and the point, which stay primal feasible (the parametric
cost simplex of Gass and Saaty 1955), and ``_solve`` runs the same loop
against the program at the new costs.  The engine copies the constraints
once for the whole sweep, and the kernel goes on being updated rather
than rebuilt; the count towards the next rebuild carries over.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalBreakdown
from .lp import GE, LE, LinearProgram, LpSolution, SolverConfig, _check_dense_size

__all__ = ["solve_lp"]

_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3

_OPTIMAL, _UNBOUNDED, _SINGULAR = 0, 1, 2

# pivots between rebuilds of the kernel of the basis inverse
REFACTOR_EVERY = 100


def _slack_bounds(relations) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([-np.inf if rel == GE else 0.0 for rel in relations], dtype=float)
    hi = np.array([np.inf if rel == LE else 0.0 for rel in relations], dtype=float)
    return lo, hi


def _independent(M: np.ndarray, rel_tol: float) -> np.ndarray:
    """Columns of M picked greedily by largest residual norm (Businger and
    Golub 1965) while it exceeds ``rel_tol`` times the largest column norm."""
    norms = np.einsum("ij,ij->j", M, M)
    floor = rel_tol**2 * norms.max(initial=0.0)
    picked = []
    while len(picked) < min(M.shape) and norms.max() > floor:
        k = int(np.argmax(norms))
        picked.append(k)
        M = M - np.outer(M[:, k], M[:, k] @ M) / norms[k]
        norms = np.einsum("ij,ij->j", M, M)
        norms[picked] = 0.0
    return np.array(picked, dtype=np.int64)


class _Engine:
    def __init__(self, lp: LinearProgram, cfg: SolverConfig):
        self.cfg = cfg
        self.flip = lp.sense == "max"
        m, n = lp.n_rows, lp.n_vars
        _check_dense_size(m, n)
        self.m, self.n_struct = m, n

        # Columns are numbered: the structural ones, one slack per row, then
        # the one artificial column that restart() fills with a residual.
        # Slack j is the unit column e_(j-n) and is never stored; A holds
        # the structural columns with the artificial one after them.
        slack_lo, slack_hi = _slack_bounds(lp.row_relations)
        self.n_tot = n_tot = n + m + 1
        self.art = n + m
        self.A = np.zeros((m, n + 1))
        self.A[:, :n] = lp.row_coeffs
        self.b = lp.row_rhs.copy()
        self.lo = np.concatenate([lp.lower, slack_lo, [0.0]])
        self.hi = np.concatenate([lp.upper, slack_hi, [0.0]])
        self.fixed = self.lo == self.hi
        self.x = np.zeros(n_tot)
        self.status = np.full(n_tot, _AT_LOWER, dtype=np.int8)
        # The slack basis, every other column at its finite bound nearest zero.
        self.slack_start = (
            n + np.arange(m),
            np.abs(self.hi[: n + m]) < np.abs(self.lo[: n + m]),
        )

        c_int = -lp.costs if self.flip else lp.costs
        self.cost = np.concatenate([c_int, np.zeros(m + 1)])
        self.ph1_cost = np.zeros(n_tot)
        self.ph1_cost[self.art] = 1.0
        # Whether the start ended with a positive phase-one optimum.
        self.infeasible = False
        # Pivots since the kernel was last rebuilt, over phases and solves alike.
        self.since_rebuild = 0
        # Unbounded-exit scratch, set when _run returns _UNBOUNDED.
        self.ray_col = -1
        self.ray_sigma = 0.0
        self.ray_w = np.zeros(m)

    def _times(self, x: np.ndarray) -> np.ndarray:
        """[A | I | a] @ x."""
        n = self.n_struct
        return self.A @ np.append(x[:n], x[self.art]) + x[n : self.art]

    def _refactor(self, repair: bool = False) -> None:
        """Rebuild the kernel of B^-1 from the basis and recompute the basic
        values.  With S the basic slacks, J the other basic columns and R
        the rows no basic slack covers, only the block A[R, J] is inverted,
        by one np.linalg.inv.  The kernel is G = A[R, J]^-1 (k x k), AJ =
        A[:, J] (m x k), the positions J in G's row order and the rows R in
        its column order; slot i pairs position J[i] with row R[i].  ``pos``
        maps each row to a basis position, a covered row to its slack and
        row R[i] to J[i]; ``slot`` maps each position of J to its slot.
        Without ``repair``, a block that is not square or that
        np.linalg.inv refuses raises NumericalBreakdown."""
        m, n = self.m, self.n_struct
        basis = self.basis
        slack = (basis >= n) & (basis < self.art)
        S, J = slack.nonzero()[0], (~slack).nonzero()[0]
        rows_S = basis[S] - n
        uncovered = np.ones(m, dtype=bool)
        uncovered[rows_S] = False
        R = uncovered.nonzero()[0]
        # the artificial column (art > n) is stored as column n of A
        cols = self.A[:, np.minimum(basis[J], n)]
        G = None
        # A square block of a basis of m columns has no repeated slack.
        if basis.size == m and J.size == R.size:
            try:
                # the slack basis leaves nothing to invert
                G = np.linalg.inv(cols[R]) if J.size else np.zeros((0, 0))
            except np.linalg.LinAlgError:
                pass
        if G is None:
            if not repair:
                raise NumericalBreakdown("singular basis during refactorization")
            self._repair(basis[S], basis[J], cols[R], R)
            return self._refactor()
        k = J.size
        self._G, self._AJ, self._J, self._R = G, cols, J, R
        self._resize(k)
        self.pos = np.empty(m, dtype=np.int64)
        self.pos[rows_S], self.pos[R] = S, J
        self.slot = np.empty(m, dtype=np.int64)
        self.slot[J] = np.arange(k)
        self.since_rebuild = 0
        x_nb = self.x.copy()
        x_nb[basis] = 0.0
        self.x[basis] = self.inv_times(self.b - self._times(x_nb))

    def _grow(self) -> None:
        """Move the kernel to buffers with sixteen and a quarter more slots
        (at most m), so that a growing border moves it only now and then.
        The buffer of G is zero outside G."""
        k = self.k
        cap = min(self.m, k + 16 + k // 4)
        G, AJ = np.zeros((cap, cap)), np.empty((self.m, cap))
        J, R = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)
        G[:k, :k], AJ[:, :k], J[:k], R[:k] = self.G, self.AJ, self.J, self.R
        self._G, self._AJ, self._J, self._R = G, AJ, J, R

    def _resize(self, k: int) -> None:
        self.k = k
        self.G, self.AJ = self._G[:k, :k], self._AJ[:, :k]
        self.J, self.R = self._J[:k], self._R[:k]

    def _repair(self, slacks, others, block, R) -> None:
        """Complete the basis with slacks, as Bixby (1992) completes a crash
        basis.  Columns of ``others`` (J) independent in ``block`` = A[R, J]
        stay, with as many rows of R; the rest of J leave at their bound
        nearest zero, slacks of the other rows enter, repeated columns go."""
        keep = _independent(block, self.cfg.pivot_tol)
        rows = slice(None) if keep.size == R.size else _independent(block[:, keep].T, 0.0)
        out = np.delete(others, keep)
        self._to_bound(out, np.abs(self.hi[out]) < np.abs(self.lo[out]))
        enter = self.n_struct + np.delete(R, rows)
        self.basis = np.concatenate([np.unique(slacks), others[keep], enter])
        self.status[self.basis] = _BASIC

    def inv_times(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v from the kernel: w_J = G v_R, and the slack covering row s
        takes w_s = v_s - A[s, J] w_J."""
        # ndarray.dot: for the small kernels of small programs, matmul's
        # call costs more than the product
        w_J = self.G.dot(v[self.R])
        w = np.empty(self.m)
        w[self.pos] = v - self.AJ.dot(w_J)
        w[self.J] = w_J
        return w

    def ftran(self, j: int) -> np.ndarray:
        """B^-1 times column j of [A | I | a]."""
        n = self.n_struct
        if n <= j < self.art:
            col = np.zeros(self.m)
            col[j - n] = 1.0
            return self.inv_times(col)
        return self.inv_times(self.A[:, min(j, n)])

    def btran(self, c_basic: np.ndarray) -> np.ndarray:
        """Row duals y = B^-T c_B: y_R = c_J G, and y = 0 on the rows basic
        slacks cover.  That needs every basic slack to cost zero, which
        holds in both phases (slacks have no cost and phase one prices only
        the artificial column)."""
        y = np.zeros(self.m)
        y[self.R] = c_basic[self.J].dot(self.G)
        return y

    def _pivot_update(self, r: int, w: np.ndarray, leaving: int) -> None:
        """Update the kernel after column w = B^-1 a_j has entered at
        position r in place of ``leaving``; each case costs O(k^2) and
        at most two column copies:
        - a column of J gives way to another: row operations on G;
        - a column of J gives way to the slack of a row of R: J and R lose
          a slot each, by the Schur complement;
        - a basic slack gives way to a column: G gains a border;
        - a basic slack gives way to another, so one row of the block
          changes: a rank-one update of G."""
        n = self.n_struct
        j = int(self.basis[r])
        enters_slack = n <= j < self.art
        leaves_J = not n <= leaving < self.art
        G, J, R, pos, slot = self.G, self.J, self.R, self.pos, self.slot
        if leaves_J and not enters_slack:
            i = int(slot[r])
            G[i] /= w[r]
            w_J = w[J]
            w_J[i] = 0.0
            G -= w_J[:, None] * G[i]
            self.AJ[:, i] = self.A[:, min(j, n)]
        elif leaves_J:
            i = int(slot[r])
            s = j - n
            l = int(slot[pos[s]])
            G -= G[:, l, None] * (G[i] / G[i, l])
            # Row R[i] pairs with position J[l] in slot i; slot l goes.
            r2, s2 = int(J[l]), int(R[i])
            # r stays in slot l, so that moving the last slot there leaves
            # the slot of r2 alone when l is the last
            J[i], J[l] = r2, r
            slot[r2] = i
            G[i] = G[l]
            AJ = self.AJ
            AJ[:, i] = AJ[:, l]
            last = self.k - 1
            J[l], R[l] = J[last], R[last]
            slot[J[l]] = l
            G[l], G[:, l] = G[last], G[:, last]
            G[last], G[:, last] = 0.0, 0.0
            AJ[:, l] = AJ[:, last]
            self._resize(last)
            pos[s], pos[s2] = r, r2
        elif not enters_slack:
            s, k = leaving - n, self.k
            if k == self._J.size:
                self._grow()
            self._resize(k + 1)
            self.AJ[:, k] = self.A[:, min(j, n)]
            self.J[k], self.R[k] = r, s
            slot[r] = k
            # The new G is [[G, 0], [0, 0]] + p q^T, with p = (G a_R, -1)/w_r
            # and q = (A[s, J] G, -1); the buffer is zero in the new slot.
            p = w[self.J]
            p[k] = -1.0
            p /= w[r]
            q = self.AJ[s].dot(self.G)
            q[k] = -1.0
            self.G += p[:, None] * q
        else:
            s, s2 = leaving - n, j - n
            r2 = int(pos[s2])
            l = int(slot[r2])
            z = self.AJ[s].dot(G)
            z_l = z[l]
            z[l] -= 1.0
            z /= z_l
            G -= G[:, l, None] * z
            R[l] = s
            pos[s], pos[s2] = r2, r

    def _run(self, c: np.ndarray) -> int:
        cfg = self.cfg
        A, lo, hi, x, basis, st = self.A, self.lo, self.hi, self.x, self.basis, self.status
        n, m = self.n_struct, self.m
        # Pricing sign per column: a reduced cost d scores -d at the lower
        # bound and d at the upper one; basic and fixed columns score zero,
        # free nonbasic ones |d|.
        sign = np.where(st == _AT_UPPER, 1.0, np.where(st == _AT_LOWER, -1.0, 0.0))
        sign[self.fixed] = 0.0
        free = (st == _FREE).nonzero()[0]
        xb, lob, hob, cb = x[basis], lo[basis], hi[basis], c[basis]
        try:
            while True:
                if self.iterations >= cfg.max_iterations:
                    raise NumericalBreakdown("iteration limit reached")
                self.iterations += 1
                bland = self.iterations > self.bland_after

                y = self.btran(cb)
                # Rows covered by a basic slack have y = 0 exactly.
                rows = y.nonzero()[0]
                g = y[rows] @ A[rows]
                d = c - np.concatenate((g[:n], y, g[n:]))
                score = d * sign
                if free.size:
                    score[free] = np.abs(d[free])
                if bland:
                    eligible = np.flatnonzero(score > cfg.opt_tol)
                    if not eligible.size:
                        return _OPTIMAL
                    j = int(eligible[0])
                else:
                    j = int(np.argmax(score))
                    if not score[j] > cfg.opt_tol:
                        return _OPTIMAL
                if st[j] == _AT_LOWER:
                    sigma = 1.0
                elif st[j] == _AT_UPPER:
                    sigma = -1.0
                else:
                    sigma = 1.0 if d[j] < 0 else -1.0

                w = self.ftran(j)
                delta = -sigma * w
                # A pivot must be large relative to the entering column: a
                # relatively tiny one makes the update of the kernel (and
                # so of x) amplify rounding error without bound.  An
                # infinite bound gives an infinite step, never a blocking row.
                mag = np.abs(w)
                piv = cfg.pivot_tol * max(1.0, float(mag.max(initial=0.0)))
                room = np.where(delta < 0, xb - lob, hob - xb)
                t_rows = np.divide(
                    np.maximum(room, 0.0), mag, out=np.full(m, np.inf), where=mag > piv
                )

                t_flip = hi[j] - lo[j] if math.isfinite(lo[j]) and math.isfinite(hi[j]) else np.inf
                t_row_min = t_rows.min(initial=np.inf)
                t = min(t_row_min, t_flip)
                if not math.isfinite(t):
                    self.ray_col, self.ray_sigma, self.ray_w = j, sigma, w
                    return _UNBOUNDED

                xb += t * delta
                if t_flip <= t_row_min:
                    # Entering variable jumps to its other bound; basis unchanged.
                    if st[j] == _AT_LOWER:
                        x[j] = hi[j]
                        st[j] = _AT_UPPER
                    else:
                        x[j] = lo[j]
                        st[j] = _AT_LOWER
                    sign[j] = -sign[j]
                    continue

                cand = (t_rows <= t + 1e-12 * (1.0 + abs(t))).nonzero()[0]
                if cand.size > 1 and not bland:
                    mags = mag[cand]
                    cand = cand[mags >= mags.max() * (1.0 - 1e-9)]
                r = int(cand[np.argmin(basis[cand])]) if cand.size > 1 else int(cand[0])

                leaving = int(basis[r])
                if delta[r] < 0 or not math.isfinite(hi[leaving]):
                    x[leaving] = lo[leaving]
                    st[leaving] = _AT_LOWER
                    sign[leaving] = 0.0 if self.fixed[leaving] else -1.0
                else:
                    x[leaving] = hi[leaving]
                    st[leaving] = _AT_UPPER
                    sign[leaving] = 0.0 if self.fixed[leaving] else 1.0
                if st[j] == _FREE:
                    free = free[free != j]
                xb[r] = x[j] + sigma * t
                basis[r] = j
                st[j] = _BASIC
                sign[j] = 0.0
                lob[r], hob[r], cb[r] = lo[j], hi[j], c[j]
                self._pivot_update(r, w, leaving)
                self.since_rebuild += 1
                if self.since_rebuild >= REFACTOR_EVERY:
                    try:
                        self._refactor()
                    except NumericalBreakdown:
                        # xb, lob, hob and cb would not follow a repaired
                        # basis, so the caller restarts, which repairs it.
                        return _SINGULAR
                    xb = x[basis]
        finally:
            x[basis] = xb

    def phase_one(self) -> float:
        outcome = self._run(self.ph1_cost)
        if outcome == _UNBOUNDED:
            # The phase-one objective is bounded below by zero.
            raise NumericalBreakdown("phase one reported an unbounded direction")
        if outcome == _SINGULAR:
            raise NumericalBreakdown("singular basis during refactorization")
        return float(self.x[self.art])

    def _fix_artificial(self) -> None:
        art = self.art
        self.hi[art] = self.x[art] = 0.0
        self.fixed[art] = True
        self.status[art] = _AT_LOWER

    def drop_artificial(self) -> None:
        """Fix the artificial column at zero and take it out of the basis if
        phase one left it basic (at zero); the repair covers its row."""
        self._fix_artificial()
        self.basis = self.basis[self.basis != self.art]
        self._refactor(repair=True)

    def phase_two(self) -> int:
        return self._run(self.cost)

    def restart(self) -> float:
        """Rebuild the kernel of the current basis and make its point
        primal feasible again; return the phase-one optimum, 0 if the
        point needed no repair.  Basic values outside their bounds are
        clamped and the residual that leaves goes into the artificial
        column, which phase one then drives from one to zero.  A positive
        optimum leaves the phase-one basis in place, and its duals are an
        infeasibility certificate.  A basis that does not fit is repaired."""
        self._refactor(repair=True)
        xb = self.x[self.basis]
        clamped = np.clip(xb, self.lo[self.basis], self.hi[self.basis])
        if np.array_equal(clamped, xb):
            return 0.0
        self.x[self.basis] = clamped
        art = self.art
        self.A[:, self.n_struct] = self.b - self._times(self.x)
        self.x[art] = self.hi[art] = 1.0
        self.status[art] = _AT_UPPER
        self.fixed[art] = False
        infeasibility = self.phase_one()
        if infeasibility <= self.cfg.feas_tol:
            self.drop_artificial()
        return infeasibility

    def _to_bound(self, cols, at_upper: np.ndarray) -> None:
        """Make ``cols`` nonbasic at a finite bound, the upper one where
        ``at_upper`` says so or the lower is infinite; free ones at zero."""
        lo, hi = self.lo[cols], self.hi[cols]
        up = np.isfinite(hi) & (at_upper | ~np.isfinite(lo))
        down = np.isfinite(lo) & ~up
        self.x[cols] = np.where(up, hi, np.where(down, lo, 0.0))
        self.status[cols] = np.where(up, _AT_UPPER, np.where(down, _AT_LOWER, _FREE))

    def basis_of(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The start basis of the structural point ``x``: every column and
        slack farther than feas_tol * (1 + |bound|) from each finite bound
        is basic, and every other one sits at the bound it touches."""
        n, m = self.n_struct, self.m
        v = np.concatenate([x, self.b - self.A[:, :n] @ x])
        lo, hi, tol = self.lo[: n + m], self.hi[: n + m], self.cfg.feas_tol
        at_lo = np.isfinite(lo) & (v - lo <= tol * (1.0 + np.abs(lo)))
        at_hi = np.isfinite(hi) & (hi - v <= tol * (1.0 + np.abs(hi)))
        return np.flatnonzero(~(at_lo | at_hi)), ~at_lo

    def start(self, basis: np.ndarray, at_upper: np.ndarray) -> float:
        """Begin a solve from ``basis``, each other column at a bound (the
        upper one where ``at_upper`` says so), and return the phase-one
        optimum of restart(); raises NumericalBreakdown if phase one
        breaks down."""
        self.iterations = 0
        self.bland_after = SolverConfig.bland_after(self.n_struct, self.m)
        self._fix_artificial()
        self._to_bound(slice(0, self.n_struct + self.m), at_upper)
        self.basis = basis.astype(np.int64)
        self.status[self.basis] = _BASIC
        return self.restart()

    def reprice(self, lp: LinearProgram) -> None:
        """Begin a new solve of the same constraints under ``lp``'s costs.
        The basis, its kernel and the point stay, still primal feasible,
        so phase two starts from the last optimum; the iteration count and
        the switch to Bland's rule start afresh, as in start()."""
        self.cost[: self.n_struct] = -lp.costs if self.flip else lp.costs
        self.iterations = 0
        self.bland_after = SolverConfig.bland_after(self.n_struct, self.m)

    def raw_duals(self, c: np.ndarray) -> np.ndarray:
        return self.btran(c[self.basis])

    def ray(self) -> np.ndarray:
        r = np.zeros(self.n_tot)
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
    """Start ``eng`` from the basis ``warm``; False if phase one fails."""
    try:
        return eng.start(*warm) <= eng.cfg.feas_tol
    except NumericalBreakdown:
        return False


def _started(lp: LinearProgram, near=None) -> _Engine:
    """An engine for ``lp`` started from the basis of the point ``near``,
    or from the slack basis when ``near`` is None or that does not start."""
    eng = _Engine(lp, SolverConfig())
    if near is None or not _start_warm(eng, eng.basis_of(near)):
        eng.infeasible = eng.start(*eng.slack_start) > eng.cfg.feas_tol
    return eng


def _solve(eng: _Engine, lp: LinearProgram) -> LpSolution:
    """The loop every solve ends with: phase two from the engine's basis,
    the check against ``lp``, up to two restarts, and the solution.  ``lp``
    is the program the engine was started on, or the one it was repriced
    to by :meth:`_Engine.reprice`."""
    cfg = eng.cfg
    if eng.infeasible:
        return LpSolution(
            status="infeasible",
            objective_value=float("nan"),
            primal=None,
            duals=eng.raw_duals(eng.ph1_cost),
            ray=None,
            iterations=eng.iterations,
        )

    # Restart after a failed check or a singular rebuild in phase two; the
    # second restart runs under Bland's rule.
    for attempt in range(3):
        outcome = eng.phase_two()
        y = eng.raw_duals(eng.cost)
        primal = eng.x[: eng.n_struct].copy()
        if outcome == _UNBOUNDED or (
            outcome == _OPTIMAL and _certifies_optimal(lp, primal, y, cfg)
        ):
            break
        if attempt == 2:
            raise NumericalBreakdown(
                "solution failed verification against the original program"
            )
        if attempt == 1:
            eng.bland_after = 0
        if eng.restart() > cfg.feas_tol:
            raise NumericalBreakdown("could not restore primal feasibility")
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
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a dense LP from the slack basis; see the module docstring
    for conventions.

    Returns an optimal basic solution with row duals, an infeasibility
    verdict carrying the phase-one multipliers as a Farkas-style
    certificate, or a feasible point plus an improving ray when the
    program is unbounded.
    """
    return _solve(_started(lp), lp)
