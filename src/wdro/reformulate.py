"""Finite linear-program reformulations of worst-case expectations over a
1-Wasserstein ball around the empirical distribution.

Supported loss families, each with its own builder:

* max of affine pieces (convex piecewise affine),
* min of affine pieces (concave piecewise affine),
* indicator losses bounding the probability of leaving an open polytope
  (worst case) or of lying in a closed polytope (best case),
* two-stage linear recourse with objective-side or right-hand-side
  uncertainty,
* stagewise-separable losses under the additive process norm.

Every program comes from one duality step: a budget multiplier lam >= 0
with cost radius, one epigraph variable s_i per sample with cost 1/N, and
per (sample, piece) block support multipliers gamma >= 0 tied to the
piece's slope by a dual-norm row ||C'gamma + v||_dual <= lam.  The private
``_Assembler`` alone writes that step; each builder validates its loss,
checks the reformulation's hypotheses and supplies per-block data: its
local variables (theta, y or none), the epigraph terms and right-hand
side, its part v of the norm vector, and extra rows (the theta simplex
row, the recourse rows W y >= h).

Every builder returns a plain :class:`LinearProgram` whose optimal value
is the worst-case expectation; ``worst_case_value`` dispatches, solves
and maps an unbounded program to +inf.  At radius zero every program
collapses to the sample-average value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DualPolytopeUnbounded,
    EmptySupport,
    HypothesisViolated,
    RecourseSetUnbounded,
    SampleOutsideSupport,
    SupportNotFullSpace,
    UnboundedPolyhedron,
    WdroError,
)
from .geometry import (
    GroundNorm,
    Polytope,
    _polytope_lp,
    dual_norm_value,
    enumerate_vertices,
    nearest_point,
    norm_value,
)
from .lp import LinearProgram, LpBuilder, LpSolution
from .simplex import solve_lp

__all__ = [
    "PiecewiseAffineLoss",
    "EventIndicator",
    "TwoStageLoss",
    "SeparableLoss",
    "DroProblem",
    "build_max_affine",
    "build_min_affine",
    "build_uq_worst",
    "build_uq_best",
    "build_two_stage",
    "build_separable",
    "convex_closed_form",
    "worst_case_value",
]

# largest support violation of a sample that is projected back, not refused
MEMBERSHIP_TOL = 1e-6


@dataclass(frozen=True)
class PiecewiseAffineLoss:
    """max (kind="max") or min (kind="min") over pieces <a_k, x> + b_k."""

    slopes: np.ndarray
    intercepts: np.ndarray
    kind: str = "max"

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        c = np.asarray(self.intercepts, dtype=float).reshape(-1)
        if a.shape[0] != c.shape[0]:
            raise DimensionMismatch("one intercept per piece required")
        if a.shape[0] == 0:
            raise DimensionMismatch("at least one affine piece required")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c))):
            raise DimensionMismatch("piece data must be finite")
        if self.kind not in ("max", "min"):
            raise DimensionMismatch(f"unknown composition kind {self.kind!r}")
        object.__setattr__(self, "slopes", a)
        object.__setattr__(self, "intercepts", c)

    @property
    def n_pieces(self) -> int:
        return self.slopes.shape[0]

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    def _kept(self) -> list[int]:
        """Indices of the pieces whose (slope, intercept) no earlier piece has."""
        keep: list[int] = []
        for k in range(self.n_pieces):
            if not any(np.array_equal(self.slopes[k], self.slopes[j])
                       and self.intercepts[k] == self.intercepts[j] for j in keep):
                keep.append(k)
        return keep

    def deduplicated(self) -> "PiecewiseAffineLoss":
        """Drop pieces whose (slope, intercept) replicates an earlier one."""
        keep = self._kept()
        if len(keep) == self.n_pieces:
            return self
        return PiecewiseAffineLoss(self.slopes[keep], self.intercepts[keep], self.kind)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = pts @ self.slopes.T + self.intercepts
        return vals.max(axis=1) if self.kind == "max" else vals.min(axis=1)


@dataclass(frozen=True)
class EventIndicator:
    """Probability-of-event loss for a polytopal region {x : A x <= b}.

    sense="outside": the region is read as open and the worst-case program
    bounds sup Q[x outside region] from above.  sense="inside": the region
    is closed and the program bounds sup Q[x in region].
    """

    region: Polytope
    sense: str = "outside"

    def __post_init__(self):
        if self.sense not in ("outside", "inside"):
            raise DimensionMismatch(f"unknown event sense {self.sense!r}")


@dataclass(frozen=True)
class TwoStageLoss:
    """Linear recourse loss.

    variant="objective":  loss(x) = min_y { <y, Q x> : W y >= h }
    variant="rhs":        loss(x) = min_y { <q, y> : W y >= H x + h }
    """

    variant: str
    W: np.ndarray
    h: np.ndarray
    Q: np.ndarray | None = None
    q: np.ndarray | None = None
    H: np.ndarray | None = None

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        h = np.asarray(self.h, dtype=float).reshape(-1)
        if W.shape[0] != h.shape[0]:
            raise DimensionMismatch("recourse rhs length does not match row count")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "h", h)
        if self.variant == "objective":
            if self.Q is None:
                raise DimensionMismatch("objective-uncertain recourse needs Q")
            Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
            if Q.shape[0] != W.shape[1]:
                raise DimensionMismatch("Q must have one row per recourse variable")
            object.__setattr__(self, "Q", Q)
        elif self.variant == "rhs":
            if self.q is None or self.H is None:
                raise DimensionMismatch("rhs-uncertain recourse needs q and H")
            q = np.asarray(self.q, dtype=float).reshape(-1)
            H = np.atleast_2d(np.asarray(self.H, dtype=float))
            if q.shape[0] != W.shape[1]:
                raise DimensionMismatch("q length does not match recourse variables")
            if H.shape[0] != W.shape[0]:
                raise DimensionMismatch("H must have one row per recourse constraint")
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "H", H)
        else:
            raise DimensionMismatch(f"unknown recourse variant {self.variant!r}")

    @property
    def dim(self) -> int:
        return self.Q.shape[1] if self.variant == "objective" else self.H.shape[1]


@dataclass(frozen=True)
class SeparableLoss:
    """Sum over stages of per-stage max-affine losses; samples are the
    concatenated per-stage vectors and transport cost is the sum of
    per-stage ground norms."""

    stages: tuple[tuple[PiecewiseAffineLoss, Polytope], ...]

    def __post_init__(self):
        if len(self.stages) == 0:
            raise DimensionMismatch("at least one stage required")
        for loss, support in self.stages:
            if loss.kind != "max":
                raise DimensionMismatch("stage losses must be max-affine")
            if loss.dim != support.dim:
                raise DimensionMismatch("stage loss and support dimensions differ")
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def dim(self) -> int:
        return sum(loss.dim for loss, _ in self.stages)

    def stage_slices(self) -> list[slice]:
        out, start = [], 0
        for loss, _ in self.stages:
            out.append(slice(start, start + loss.dim))
            start += loss.dim
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        total = np.zeros(pts.shape[0])
        for (loss, _), sl in zip(self.stages, self.stage_slices()):
            total += loss(pts[:, sl])
        return total


Loss = PiecewiseAffineLoss | EventIndicator | TwoStageLoss | SeparableLoss


def _check_samples(samples, radius: float = 0.0) -> np.ndarray:
    """``samples`` as a 2-d float array, once checked: at least one sample,
    every entry finite, and ``radius`` finite and nonnegative."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[0] == 0:
        raise DimensionMismatch("at least one sample required")
    if not np.all(np.isfinite(X)):
        raise DimensionMismatch("samples must be finite")
    _check_radius(radius)
    return X


def _check_radius(radius: float) -> None:
    if not (np.isfinite(radius) and radius >= 0.0):
        raise DimensionMismatch("radius must be finite and nonnegative")


def _admit(X: np.ndarray, support: Polytope, cols: slice, norm: GroundNorm) -> np.ndarray:
    """``X`` with its columns ``cols`` in ``support``, projecting rows that
    violate it by at most ``MEMBERSHIP_TOL``.  The warning names the line
    three frames up: the one that made a ``DroProblem`` (through its
    ``__init__`` and ``__post_init__``) or called a portfolio entry point
    (through the entry point and ``experiments._admit_portfolio``)."""
    viol = support.violation(X[:, cols])
    worst = float(viol.max())
    if worst <= 1e-12:
        return X
    if worst > MEMBERSHIP_TOL:
        if not support.nonempty():
            raise EmptySupport("support polytope is empty")
        raise SampleOutsideSupport(
            f"sample violates the support by {worst:.3e}, "
            f"tolerance is {MEMBERSHIP_TOL:.3e}"
        )
    outside = np.flatnonzero(viol > 1e-12)
    X = X.copy()
    for i in outside:
        _, X[i, cols] = nearest_point(support, X[i, cols], norm)
    warnings.warn(
        f"projected {outside.size} sample(s) onto the support "
        f"(worst violation {worst:.3e})",
        stacklevel=4,
    )
    return X


@dataclass(frozen=True)
class DroProblem:
    """Samples, support, ball radius and ground norm plus a loss.

    Every sample lies in the support, so the support is nonempty and the
    builders do not check it again.  A sample violating the support by at
    most ``MEMBERSHIP_TOL`` is projected onto it (with a warning); a larger
    violation raises SampleOutsideSupport, or EmptySupport when the
    support is empty.  For separable losses the support is the product of
    the per-stage supports, each applied to its stage's coordinates, and
    ``support`` must be the free space.
    """

    samples: np.ndarray
    support: Polytope
    radius: float
    norm: GroundNorm
    loss: Loss

    def __post_init__(self):
        X = _check_samples(self.samples, self.radius)
        if X.shape[1] != self.support.dim:
            raise DimensionMismatch("sample dimension does not match support")
        loss_dim = getattr(self.loss, "dim", None)
        if isinstance(self.loss, EventIndicator):
            loss_dim = self.loss.region.dim
        if loss_dim != X.shape[1]:
            raise DimensionMismatch("loss dimension does not match samples")
        blocks = [(self.support, slice(None))]
        if isinstance(self.loss, SeparableLoss):
            if not self.support.is_free:
                raise DimensionMismatch(
                    "separable losses carry per-stage supports; use a free overall support"
                )
            blocks = zip((s for _, s in self.loss.stages), self.loss.stage_slices())
        for support, cols in blocks:
            X = _admit(X, support, cols, self.norm)
        object.__setattr__(self, "samples", X)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _combination(vs, M: np.ndarray):
    """The vector M v over the columns ``vs``, one ({column: coeff}, 0.0)
    pair per row of M, in the form ``LpBuilder.add_norm_le`` takes."""
    return [({v: c for v, c in zip(vs, row) if c != 0.0}, 0.0) for row in M]


class _Assembler:
    """The duality step behind every program in this module:

        min  lam * radius + sum over groups of (1/N) sum_i s_i
        s.t. <loss terms> + <gamma, d - C xi_i> - s_i <= rhs     per block
             ||C' gamma + v||_dual <= lam                         per block
             lam >= 0, gamma >= 0

    A block is one (sample, piece) pair: the builder supplies the loss's
    epigraph terms and right-hand side and its part v of the norm vector
    (a list of ({column: coeff}, const) pairs), and creates its own local
    variables through ``b`` before calling :meth:`block`.  Every variable
    is a column index of ``b``; ``lam`` is the budget multiplier's, set by
    the first :meth:`epigraph`.  Each block adds its columns as local
    variables, gamma, then norm auxiliaries, and its rows as the epigraph
    row, then the dual-norm rows.

    On a free support there is no gamma, and two norm vectors reduce.  One
    that does not depend on the block (``shared``) gets its rows once per
    key, emitted when the group of epigraph variables closes.  One that is
    a nonnegative multiple of a fixed vector c (``scale``) becomes the
    single row ||c||_dual * scale <= lam.

    ``norm_rows`` records the first dual-norm row of each block under its
    tag, or of each shared key under that key, for reading the duals.
    """

    def __init__(self, radius: float, norm: GroundNorm):
        self.b = LpBuilder("min")
        self.radius = radius
        self.dual = norm.dual
        self.lam: int | None = None
        self.obj: dict = {}
        self._shared: dict = {}
        self.norm_rows: dict[str, int] = {}

    def epigraph(self, n: int, name: str = "s", lb: float = -np.inf) -> list[int]:
        """A group of n epigraph variables with cost 1/n each.  The first
        group also creates lam, after any variables the caller made."""
        self._flush()
        if self.lam is None:
            lam = self.lam = self.b.var("lam", lb=0.0)
            self.obj = {lam: self.radius}
        s = self.b.vars(name, n, lb=lb)
        self.obj.update((si, 1.0 / n) for si in s)
        return s

    def block(self, s_i, support, xi, terms, rhs, part, tag, shared=None, scale=None):
        """The epigraph row terms + <gamma, d - C xi> - s_i <= rhs and the
        dual-norm rows ||C'gamma + part||_dual <= lam of one block; ``tag``
        names its gamma and norm auxiliaries.  Returns the epigraph row."""
        b = self.b
        row = dict(terms)
        if support.is_free:
            vec = part
        else:
            C = support.C
            g = b.vars(f"gamma{tag}", support.n_rows, lb=0.0)
            row.update(zip(g, support.d - C @ xi))
            vec = [
                ({g[r]: C[r, j] for r in range(support.n_rows) if C[r, j] != 0.0} | t, c)
                for j, (t, c) in enumerate(part)
            ]
        row[s_i] = -1.0
        epigraph = b.add_le(row, rhs)
        if support.is_free and shared is not None:
            self._shared.setdefault(shared, part)
        elif support.is_free and scale is not None:
            c = np.array([t.get(scale, 0.0) for t, _ in part])
            b.add_le({scale: norm_value(c, self.dual), self.lam: -1.0}, 0.0)
        else:
            self.norm_rows[tag] = b.add_norm_le(vec, self.lam, self.dual, tag=tag)
        return epigraph

    def _flush(self) -> None:
        for key, part in self._shared.items():
            self.norm_rows[key] = self.b.add_norm_le(part, self.lam, self.dual, tag=key)
        self._shared.clear()

    def build(self) -> LinearProgram:
        self._flush()
        self.b.set_objective(self.obj)
        return self.b.build()


def _max_affine_blocks(a: _Assembler, s, loss, support, samples, pre: str = "") -> list:
    """One block per (sample, piece) of a max-affine loss; its norm vector
    -a_k does not depend on the sample, and a repeated piece gets no
    blocks.  Returns (sample, piece of ``loss``, epigraph row, key of the
    norm rows in ``a.norm_rows``) per block."""
    keep, loss = loss._kept(), loss.deduplicated()
    blocks = []
    for i, xi in enumerate(samples):
        base = loss.slopes @ xi + loss.intercepts
        for k, piece in enumerate(keep):
            tag, key = f"[{pre}{i},{k}]", f"[{pre}{k}]"
            row = a.block(s[i], support, xi, {}, -base[k],
                          [({}, -c) for c in loss.slopes[k]], tag, shared=key)
            blocks.append((i, piece, row, key if support.is_free else tag))
    return blocks


def build_max_affine(p: DroProblem) -> LinearProgram:
    """Epigraph program for sup E[max-affine loss] over the ball.

    One row per (sample, piece) plus dual-norm rows tying the support
    multipliers to the piece slopes.  With a free support the dual-norm
    rows do not depend on the sample and are emitted once per piece.
    """
    if not isinstance(p.loss, PiecewiseAffineLoss) or p.loss.kind != "max":
        raise DimensionMismatch("build_max_affine expects a max-affine loss")
    a = _Assembler(p.radius, p.norm)
    _max_affine_blocks(a, a.epigraph(p.n_samples), p.loss, p.support, p.samples)
    return a.build()


def build_min_affine(p: DroProblem) -> LinearProgram:
    """Epigraph program for sup E[min-affine loss] over the ball.

    One convex-combination weight vector per sample replaces the per-piece
    rows of the max-affine case."""
    if not isinstance(p.loss, PiecewiseAffineLoss) or p.loss.kind != "min":
        raise DimensionMismatch("build_min_affine expects a min-affine loss")
    loss = p.loss.deduplicated()
    K = loss.n_pieces
    a = _Assembler(p.radius, p.norm)
    s = a.epigraph(p.n_samples)
    for i, xi in enumerate(p.samples):
        th = a.b.vars(f"theta[{i}]", K, lb=0.0)
        a.b.add_eq({t: 1.0 for t in th}, 1.0)
        base = loss.slopes @ xi + loss.intercepts
        a.block(s[i], p.support, xi, dict(zip(th, base)), 0.0,
                _combination(th, -loss.slopes.T), f"[{i}]")
    return a.build()


def _halfspace_meets_support(a: np.ndarray, rhs: float, support: Polytope) -> bool:
    """Does {x : <a, x> >= rhs} intersect the support?"""
    if support.is_free:
        if np.any(a != 0.0):
            return True
        return 0.0 >= rhs
    C = np.vstack([support.C, -a])
    return _polytope_lp(C, np.append(support.d, -rhs)).status == "optimal"


def build_uq_worst(p: DroProblem) -> LinearProgram:
    """Program for sup Q[x outside the open region {A x < b}].

    Each boundary halfspace {<a_k, x> >= b_k} must meet the support, per
    the reformulation's hypothesis.  With a free support the dual-norm
    block for piece k collapses to ||a_k||_dual * theta_ik <= lam.
    """
    if not isinstance(p.loss, EventIndicator) or p.loss.sense != "outside":
        raise DimensionMismatch("build_uq_worst expects an outside-event loss")
    region = p.loss.region
    A, bv = region.C, region.d

    for k in range(region.n_rows):
        if not _halfspace_meets_support(A[k], bv[k], p.support):
            raise HypothesisViolated(
                f"halfspace {k} of the region never meets the support"
            )

    a = _Assembler(p.radius, p.norm)
    s = a.epigraph(p.n_samples, lb=0.0)
    for i, xi in enumerate(p.samples):
        margins = bv - A @ xi
        for k in range(region.n_rows):
            th = a.b.var(f"theta[{i},{k}]", lb=0.0)
            a.block(s[i], p.support, xi, {th: -margins[k]}, -1.0,
                    _combination([th], -A[k][:, None]), f"[{i},{k}]", scale=th)
    return a.build()


def build_uq_best(p: DroProblem) -> LinearProgram:
    """Program for sup Q[x in the closed region {A x <= b}].

    Requires the region to meet the support."""
    if not isinstance(p.loss, EventIndicator) or p.loss.sense != "inside":
        raise DimensionMismatch("build_uq_best expects an inside-event loss")
    region = p.loss.region
    A, bv = region.C, region.d

    C = np.vstack([p.support.C, A])
    if not Polytope(C, np.concatenate([p.support.d, bv]), p.dim).nonempty():
        raise HypothesisViolated(
            "the region is empty" if p.support.is_free
            else "the region never meets the support"
        )

    a = _Assembler(p.radius, p.norm)
    s = a.epigraph(p.n_samples, lb=0.0)
    for i, xi in enumerate(p.samples):
        th = a.b.vars(f"theta[{i}]", region.n_rows, lb=0.0)
        a.block(s[i], p.support, xi, dict(zip(th, bv - A @ xi)), -1.0,
                _combination(th, A.T), f"[{i}]")
    return a.build()


def _recourse_bounded(W: np.ndarray, h: np.ndarray) -> None:
    """{y : Wy >= h} must be nonempty and bounded (checked by LPs in each
    +-coordinate direction)."""
    n_y = W.shape[1]
    for coord in range(n_y):
        for sign in (1.0, -1.0):
            status = _polytope_lp(-W, -h, -sign * np.eye(n_y)[coord]).status
            if status == "infeasible":
                raise RecourseSetUnbounded("the recourse set {y : Wy >= h} is empty")
            if status == "unbounded":
                raise RecourseSetUnbounded(
                    f"the recourse set is unbounded in coordinate {coord}"
                )


def build_two_stage(p: DroProblem) -> LinearProgram:
    """Reformulation for linear recourse losses.

    Objective-side uncertainty keeps one recourse copy per sample inside
    the program.  Right-hand-side uncertainty enumerates the vertices of
    the dual feasible set and writes the max-affine program of the
    induced pieces <H'v_k, x> + <v_k, h>.
    """
    if not isinstance(p.loss, TwoStageLoss):
        raise DimensionMismatch("build_two_stage expects a two-stage loss")
    loss = p.loss

    if loss.variant == "rhs":
        try:
            verts = enumerate_vertices(loss.W.T, loss.q)
        except UnboundedPolyhedron as exc:
            raise DualPolytopeUnbounded(str(exc)) from exc
        if verts.shape[0] == 0:
            raise RecourseSetUnbounded(
                "the dual feasible set {theta >= 0 : W'theta = q} is empty, "
                "so the recourse loss is not finite-valued"
            )
        pieces = PiecewiseAffineLoss(verts @ loss.H, verts @ loss.h, "max")
        a = _Assembler(p.radius, p.norm)
        _max_affine_blocks(a, a.epigraph(p.n_samples), pieces, p.support, p.samples)
        return a.build()

    _recourse_bounded(loss.W, loss.h)
    Q, W, h = loss.Q, loss.W, loss.h
    a = _Assembler(p.radius, p.norm)
    s = a.epigraph(p.n_samples)
    for i, xi in enumerate(p.samples):
        y = a.b.vars(f"y[{i}]", W.shape[1])
        for r in range(W.shape[0]):
            a.b.add_ge({v: c for v, c in zip(y, W[r]) if c != 0.0}, h[r])
        a.block(s[i], p.support, xi, dict(zip(y, Q @ xi)), 0.0,
                _combination(y, -Q.T), f"[{i}]")
    return a.build()


def _separable_program(p: DroProblem, sep: SeparableLoss) -> tuple[_Assembler, list]:
    """The assembler of the reformulation of ``sep`` on the samples of
    ``p`` and, per stage, its loss, support, columns and the blocks of
    ``_max_affine_blocks``."""
    a = _Assembler(p.radius, p.norm)
    out = []
    for t, ((loss, support), sl) in enumerate(zip(sep.stages, sep.stage_slices())):
        s = a.epigraph(p.n_samples, f"s[{t}]")
        blocks = _max_affine_blocks(a, s, loss, support, p.samples[:, sl], f"{t},")
        out.append((loss, support, sl, blocks))
    return a, out


def build_separable(p: DroProblem) -> LinearProgram:
    """Stagewise-separable reformulation under the additive process norm:
    a single transport budget multiplier is shared across stages while
    epigraph and dual-norm rows are per (stage, sample, piece)."""
    if not isinstance(p.loss, SeparableLoss):
        raise DimensionMismatch("build_separable expects a separable loss")
    return _separable_program(p, p.loss)[0].build()


def convex_closed_form(p: DroProblem) -> float:
    """Exact worst case for a max-affine loss on unconstrained support:
    radius times the largest dual norm of a slope plus the sample average."""
    if not isinstance(p.loss, PiecewiseAffineLoss) or p.loss.kind != "max":
        raise DimensionMismatch("closed form requires a max-affine loss")
    if not p.support.is_free:
        raise SupportNotFullSpace(
            "the closed form holds only for support equal to the whole space"
        )
    kappa = max(dual_norm_value(a, p.norm) for a in p.loss.slopes)
    return float(p.radius * kappa + p.loss(p.samples).mean())


def _builder_for(loss: Loss):
    if isinstance(loss, PiecewiseAffineLoss):
        return build_max_affine if loss.kind == "max" else build_min_affine
    if isinstance(loss, EventIndicator):
        return build_uq_worst if loss.sense == "outside" else build_uq_best
    if isinstance(loss, TwoStageLoss):
        return build_two_stage
    if isinstance(loss, SeparableLoss):
        return build_separable
    raise DimensionMismatch(f"unsupported loss type {type(loss).__name__}")


def _solve_program(lp: LinearProgram) -> tuple[float, LpSolution]:
    """Solve a reformulation; an unbounded program means the worst-case
    expectation is +inf."""
    sol = solve_lp(lp)
    if sol.status == "optimal":
        return sol.objective_value, sol
    if sol.status == "unbounded":
        return float("inf"), sol
    raise WdroError(
        "reformulation LP reported infeasible; inputs passed validation, "
        "so this indicates a numerical failure"
    )


def worst_case_value(p: DroProblem) -> float:
    """Build, solve and interpret the reformulation of ``p``."""
    return _solve_program(_builder_for(p.loss)(p))[0]
