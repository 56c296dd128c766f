"""Discrete distributions and exact 1-Wasserstein distances.

Distances between finitely supported distributions are transportation
LPs solved on the embedded simplex, which keeps a single solver to trust
across the package.  Instances are capped at 200 x 200 atoms; that is
far beyond anything the desk-scale studies produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .geometry import GroundNorm
from .lp import LpBuilder
from .simplex import solve_lp

__all__ = [
    "DiscreteDistribution",
    "merge_atoms",
    "wasserstein_distance",
]

_MAX_ATOMS = 200

# max-norm distance within which two atoms are one
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely many atoms with probability weights summing to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise DimensionMismatch("one weight per atom required")
        if pts.shape[0] == 0:
            raise DimensionMismatch("a distribution needs at least one atom")
        if not np.all(np.isfinite(pts)):
            raise DimensionMismatch("atom coordinates must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < -1e-12):
            raise DimensionMismatch("weights must be finite and nonnegative")
        w = np.clip(w, 0.0, None)
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise DimensionMismatch(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def empirical(cls, samples: np.ndarray) -> "DiscreteDistribution":
        pts = np.atleast_2d(np.asarray(samples, dtype=float))
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def merge_atoms(dist: DiscreteDistribution) -> DiscreteDistribution:
    """Collapse atoms whose coordinates agree within ``MERGE_TOL``
    (max-norm), summing their weights.  Keeps first-seen order."""
    kept_pts: list[np.ndarray] = []
    kept_w: list[float] = []
    for p, w in zip(dist.points, dist.weights):
        for k, q in enumerate(kept_pts):
            if np.max(np.abs(p - q)) <= MERGE_TOL:
                kept_w[k] += w
                break
        else:
            kept_pts.append(p)
            kept_w.append(float(w))
    return DiscreteDistribution(np.array(kept_pts), np.array(kept_w))


def wasserstein_distance(
    p: DiscreteDistribution, q: DiscreteDistribution, norm: GroundNorm
) -> float:
    """Exact 1-Wasserstein distance between two discrete distributions for
    the given ground norm."""
    if p.dim != q.dim:
        raise DimensionMismatch("distributions live in different dimensions")
    p = merge_atoms(p)
    q = merge_atoms(q)
    ns, nt = p.n_atoms, q.n_atoms
    if ns > _MAX_ATOMS or nt > _MAX_ATOMS:
        raise TooLarge(f"transport instances capped at {_MAX_ATOMS} atoms per side")

    dist = np.empty((ns, nt))
    for i in range(ns):
        diff = q.points - p.points[i]
        if norm is GroundNorm.L1:
            dist[i] = np.sum(np.abs(diff), axis=1)
        else:
            dist[i] = np.max(np.abs(diff), axis=1)

    b = LpBuilder("min")
    f = [[b.var(f"f[{i},{j}]", lb=0.0) for j in range(nt)] for i in range(ns)]
    b.set_objective({f[i][j]: dist[i, j] for i in range(ns) for j in range(nt)})
    for i in range(ns):
        b.add_eq({f[i][j]: 1.0 for j in range(nt)}, p.weights[i])
    for j in range(nt):
        b.add_eq({f[i][j]: 1.0 for i in range(ns)}, q.weights[j])
    sol = solve_lp(b.build())
    if sol.status != "optimal":
        # Balanced marginals always admit a product plan.
        raise TooLarge("transportation solve failed unexpectedly")
    flow = sol.primal.reshape(ns, nt)  # f[i][j] were created row by row
    return float(np.sum(flow * dist))
