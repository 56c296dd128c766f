"""Worst-case distributions for max-affine and separable losses.

The dual of the worst-case expectation program decides, per (sample,
piece) pair, how much probability alpha_ik moves and by which
displacement q_ik, subject to the shared transport budget and to the
homogenized support rows C(alpha_ik xi_i - q_ik) <= alpha_ik d.  For a
stagewise-separable loss this transport program is a product of
per-stage blocks under one budget, and a plain max-affine loss is its
one-stage case: ``_transport`` alone builds, solves and reads it.  Pairs
with alpha_ik above ``ATOM_TOL`` become atoms xi_i - q_ik/alpha_ik; pairs
with vanishing alpha but nonvanishing displacement witness mass that
attains the supremum only along an unbounded sequence and are reported as
escape rays instead of atoms.

When rays are present the supremum is not attained; the reported
escaping mass is then floored at ``ATOM_TOL`` so that callers can detect
the situation numerically, and the returned distribution holds only the
renormalized retained part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EscapingMassPresent, WdroError
from .geometry import GroundNorm, Polytope, norm_value
from .lp import LpBuilder
from .reformulate import DroProblem, PiecewiseAffineLoss, SeparableLoss
from .simplex import solve_lp
from .wasserstein import DiscreteDistribution, merge_atoms, wasserstein_distance

__all__ = [
    "ATOM_TOL",
    "EscapeRay",
    "ExtremalResult",
    "MembershipReport",
    "worst_case_distribution",
    "worst_case_distribution_separable",
    "verify_membership",
]

ATOM_TOL = 1e-7


@dataclass(frozen=True)
class EscapeRay:
    """Mass escaping from sample ``sample`` along ``direction`` (unit in
    the ground norm); the loss grows at rate ``slope`` per unit distance
    along the ray through piece ``piece``."""

    sample: int
    piece: int
    direction: np.ndarray
    slope: float


@dataclass(frozen=True)
class ExtremalResult:
    distribution: DiscreteDistribution
    escaping_mass: float
    escape_rays: tuple[EscapeRay, ...]
    objective_value: float


@dataclass(frozen=True)
class MembershipReport:
    """Transport distance of a worst-case distribution from the empirical
    one, against the ball radius."""

    distance: float
    radius: float
    tolerance: float = 1e-6

    @property
    def within_ball(self) -> bool:
        return self.distance <= self.radius + self.tolerance


def _transport_block(b: LpBuilder, m: int, norm: GroundNorm, tag: str):
    """Displacement variables for one (sample, piece) pair plus budget
    carriers whose sum measures the ground norm of the displacement: one
    carrier per component for the 1-norm, one shared by all components for
    the max-norm."""
    q = b.vars(f"q{tag}", m)
    if norm is GroundNorm.L1:
        carriers = b.vars(f"u{tag}", m, lb=0.0)
        bounding = carriers
    else:
        carriers = [b.var(f"r{tag}", lb=0.0)]
        bounding = carriers * m
    for qj, c in zip(q, bounding):
        b.add_le({qj: 1.0, c: -1.0}, 0.0)
        b.add_le({qj: -1.0, c: -1.0}, 0.0)
    return q, carriers


def _add_support_rows(b: LpBuilder, support: Polytope, xi, alpha, q) -> None:
    if support.is_free:
        return
    slack = support.C @ xi - support.d
    for r in range(support.n_rows):
        row = {alpha: slack[r]}
        for j in range(support.dim):
            if support.C[r, j] != 0.0:
                row[q[j]] = -support.C[r, j]
        b.add_le(row, 0.0)


def _stage_blocks(b, samples, support, norm, loss, stage_tag, weight):
    """Objective terms, simplex rows, support rows and budget carriers for
    one max-affine stage; returns the alpha/q handles and budget terms."""
    N = samples.shape[0]
    m, K = loss.dim, loss.n_pieces
    obj, budget = {}, []
    alpha = [[None] * K for _ in range(N)]
    qvars = [[None] * K for _ in range(N)]
    for i in range(N):
        xi = samples[i]
        base = loss.slopes @ xi + loss.intercepts
        row = {}
        for k in range(K):
            a = b.var(f"alpha{stage_tag}[{i},{k}]", lb=0.0)
            q, carriers = _transport_block(b, m, norm, f"{stage_tag}[{i},{k}]")
            alpha[i][k], qvars[i][k] = a, q
            budget.extend(carriers)
            obj[a] = base[k] * weight
            for j in range(m):
                if loss.slopes[k, j] != 0.0:
                    obj[q[j]] = -loss.slopes[k, j] * weight
            row[a] = 1.0
            _add_support_rows(b, support, xi, a, q)
        b.add_eq(row, 1.0)
    return obj, budget, alpha, qvars


def _extract(samples, norm, loss, sol, alpha, qvars, dim, offset):
    """Atoms, raw weights and rays from one stage's solved variables.

    Ray directions live in the full sample space: the stage's displacement
    is embedded at ``offset`` within ``dim`` zero components."""
    N = samples.shape[0]
    m, K = loss.dim, loss.n_pieces
    atoms = [[] for _ in range(N)]
    rays = []
    for i in range(N):
        for k in range(K):
            a = sol.primal[alpha[i][k].index]
            q = np.array([sol.primal[v.index] for v in qvars[i][k]])
            if a > ATOM_TOL:
                atoms[i].append((samples[i] - q / a, a))
            else:
                qn = norm_value(q, norm)
                if qn > ATOM_TOL:
                    direction = np.zeros(dim)
                    direction[offset : offset + m] = -q / qn
                    slope = float(loss.slopes[k] @ direction[offset : offset + m])
                    rays.append(EscapeRay(i, k, direction, slope))
    return atoms, rays


def _transport(p: DroProblem, stages) -> ExtremalResult:
    """Build, solve and read the transport program of a sum of max-affine
    stages, given as (loss, support) pairs over consecutive coordinate
    blocks of the samples.  Per-stage blocks share one budget; the atoms
    of each sample are all combinations of its per-stage conditional
    atoms."""
    N = p.n_samples
    b = LpBuilder("max")
    obj, budget, handles = {}, [], []
    start = 0
    for t, (loss, support) in enumerate(stages):
        block = slice(start, start + loss.dim)
        start = block.stop
        o, carriers, alpha, qvars = _stage_blocks(
            b, p.samples[:, block], support, p.norm, loss, f"[{t}]", 1.0 / N
        )
        obj.update(o)
        budget.extend(carriers)
        handles.append((block, loss, alpha, qvars))
    b.add_le({v: 1.0 for v in budget}, N * p.radius)
    b.set_objective(obj)
    sol = solve_lp(b.build())
    if not sol.is_optimal:
        raise WdroError(f"transport program ended {sol.status}")

    per_stage_atoms, rays = [], []
    for block, loss, alpha, qvars in handles:
        atoms_t, rays_t = _extract(
            p.samples[:, block], p.norm, loss, sol, alpha, qvars, p.dim, block.start
        )
        per_stage_atoms.append(atoms_t)
        rays.extend(rays_t)

    points, weights = [], []
    for i in range(N):
        combos = [(np.empty(0), 1.0)]
        for atoms_t in per_stage_atoms:
            combos = [
                (np.concatenate([pt, pt_t]), w * w_t)
                for pt, w in combos
                for pt_t, w_t in atoms_t[i]
            ]
        for pt, w in combos:
            points.append(pt)
            weights.append(w / N)
    if not points:
        raise WdroError("no atoms survived thresholding; degenerate program")
    weights = np.asarray(weights)
    raw_retained = float(weights.sum())
    escaping = max(1.0 - raw_retained, ATOM_TOL) if rays else 0.0
    dist = merge_atoms(DiscreteDistribution(np.asarray(points), weights / raw_retained))
    return ExtremalResult(
        distribution=dist,
        escaping_mass=escaping,
        escape_rays=tuple(rays),
        objective_value=sol.objective_value,
    )


def worst_case_distribution(p: DroProblem) -> ExtremalResult:
    """Solve the transport-form program for a max-affine loss and read
    off atoms, escape rays and the escaping mass."""
    if not isinstance(p.loss, PiecewiseAffineLoss) or p.loss.kind != "max":
        raise DimensionMismatch(
            "worst-case distributions are built for max-affine losses"
        )
    return _transport(p, ((p.loss, p.support),))


def worst_case_distribution_separable(p: DroProblem) -> ExtremalResult:
    """Product-form worst case for a separable loss: per-stage transport
    programs share one budget; the returned atoms are all combinations of
    the per-stage conditional atoms of each sample."""
    if not isinstance(p.loss, SeparableLoss):
        raise DimensionMismatch("expected a separable loss")
    return _transport(p, p.loss.stages)


def verify_membership(result: ExtremalResult, p: DroProblem) -> MembershipReport:
    """Exact transport distance between the empirical distribution and the
    worst-case one.  Only meaningful when all mass is retained."""
    empirical = DiscreteDistribution.empirical(p.samples)
    if result.escaping_mass > 0.0:
        cost = wasserstein_distance(empirical, result.distribution, p.norm)
        raise EscapingMassPresent(
            "the worst case is attained only asymptotically; "
            f"the retained part sits at transport cost {cost:.6g}",
            retained_cost=cost,
        )
    distance = wasserstein_distance(empirical, result.distribution, p.norm)
    return MembershipReport(distance=distance, radius=p.radius)
