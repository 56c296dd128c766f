"""Worst-case distributions for max-affine and separable losses.

The worst case is read off an optimal dual solution of the reformulation
``worst_case_value`` solves, which ``_transport`` builds as
``build_separable`` does (a plain max-affine loss is its one-stage case)
and solves once.  With N samples and y the row duals, each (sample,
piece) block gives a mass alpha_ik = -N y at its epigraph row and a
displacement q_ik = -N (y+ - y-) from its dual-norm row pairs; pairs with
alpha above ``ATOM_TOL`` become atoms xi_i - q_ik/alpha_ik.

Displacement that no held mass carries moves the piece's held mass: each
held pair moves by it divided by the piece's total held alpha.  That is
the displacement of a piece's shared norm rows on a free support, and of
blocks with vanishing alpha on a polytope, where its negative is a
recession direction of the support.  The cost does not grow (triangle
inequality) and the expected loss stays the same.  Only a piece that
holds no mass reports escape rays: its mass attains the supremum only
along an unbounded sequence.  When rays are present the escaping mass is
floored at ``ATOM_TOL`` so that callers can detect the situation
numerically, and the returned distribution holds only the renormalized
retained part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EscapingMassPresent, WdroError
from .geometry import norm_value
from .lp import _norm_pair_duals
from .reformulate import DroProblem, PiecewiseAffineLoss, SeparableLoss, _separable_program
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


def _stage_read(p: DroProblem, sol, norm_rows, loss, support, sl, blocks):
    """Conditional atoms per sample and escape rays of one stage, read off
    the duals by the rules in the module docstring."""
    N, m = p.n_samples, loss.dim
    disp = {key: -N * _norm_pair_duals(sol, norm_rows[key], m) for *_, key in blocks}
    pieces: dict[int, list] = {}
    for i, k, row, key in blocks:
        pieces.setdefault(k, []).append((i, -N * sol.duals[row], key))
    atoms = [[] for _ in range(N)]
    rays = []
    for k, pairs in pieces.items():
        loose: dict[str, int] = {}
        for i, alpha, key in pairs:
            if support.is_free or alpha <= ATOM_TOL:
                loose.setdefault(key, i)
        held = [(i, alpha, key) for i, alpha, key in pairs if alpha > ATOM_TOL]
        if held:
            shift = sum((disp[key] for key in loose), np.zeros(m))
            shift /= sum(alpha for _, alpha, _ in held)
            for i, alpha, key in held:
                own = 0.0 if key in loose else disp[key] / alpha
                atoms[i].append((p.samples[i, sl] - own - shift, alpha))
            continue
        for key, i in loose.items():
            qn = norm_value(disp[key], p.norm)
            if qn > ATOM_TOL:
                direction = np.zeros(p.dim)
                direction[sl] = -disp[key] / qn
                rays.append(EscapeRay(i, k, direction, float(loss.slopes[k] @ direction[sl])))
    return atoms, rays


def _transport(p: DroProblem, sep: SeparableLoss) -> ExtremalResult:
    """Solve the reformulation of ``sep`` on the samples of ``p`` and read
    the worst case off its duals.  The atoms of each sample are all
    combinations of its per-stage conditional atoms."""
    N = p.n_samples
    a, stages = _separable_program(p, sep)
    sol = solve_lp(a.build())
    if not sol.is_optimal:
        raise WdroError(f"reformulation ended {sol.status}")

    per_stage_atoms, rays = [], []
    for loss, support, sl, blocks in stages:
        atoms_t, rays_t = _stage_read(p, sol, a.norm_rows, loss, support, sl, blocks)
        per_stage_atoms.append(atoms_t)
        rays.extend(rays_t)

    points, weights = [], []
    for i in range(N):
        for combo in itertools.product(*(atoms_t[i] for atoms_t in per_stage_atoms)):
            points.append(np.concatenate([pt for pt, _ in combo]))
            weights.append(math.prod(w for _, w in combo) / N)
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
    """Solve the reformulation of a max-affine loss and read atoms,
    escape rays and the escaping mass off its duals."""
    if not isinstance(p.loss, PiecewiseAffineLoss) or p.loss.kind != "max":
        raise DimensionMismatch(
            "worst-case distributions are built for max-affine losses"
        )
    return _transport(p, SeparableLoss(((p.loss, p.support),)))


def worst_case_distribution_separable(p: DroProblem) -> ExtremalResult:
    """Product-form worst case for a separable loss: the stages share one
    budget; the returned atoms are all combinations of the per-stage
    conditional atoms of each sample."""
    if not isinstance(p.loss, SeparableLoss):
        raise DimensionMismatch("expected a separable loss")
    return _transport(p, p.loss)


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
