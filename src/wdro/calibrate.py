"""Radius selection for the Wasserstein ball.

Three routes: a concentration-style a-priori formula (a reference curve;
its constants are configuration, not estimated), holdout selection on a
candidate grid, and k-fold cross validation which averages the per-fold
holdout choices.  A variant for probability bounds picks per side the
smallest radius whose training-data bound covers the validation-data
frequency; its two bound evaluators are an input (on the free support,
``experiments.fast_uq_bounds`` gives both in closed form).

Data-driven selections always tie-break toward the smaller radius (less
conservatism).  Validation scores within ``SCORE_TIE_RTOL * (1 + |best|)``
(1e-9 relative) of the best score are ties: optimal decisions are
piecewise constant in the radius, so neighbouring radii often return the
same decision, and their scores then differ only by rounding.  The
averaged k-fold radius may fall between grid points; per-fold radii are
always grid members and are recorded alongside the shuffled partition so
a run can be audited and reproduced from (seed, grid, k) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from .errors import (
    DatasetTooSmall,
    DimensionMismatch,
    GridEmpty,
    InvalidBeta,
    NoCoveringRadius,
)
from .geometry import Polytope
from .reformulate import _check_samples

__all__ = [
    "DEFAULT_GRID",
    "SCORE_TIE_RTOL",
    "ConcentrationConfig",
    "CalibrationResult",
    "UqBound",
    "DecisionProblem",
    "radius_a_priori",
    "calibrate_holdout",
    "calibrate_kfold",
    "calibrate_uq_kfold",
]

# documented default; override via the grid argument of any calibrator
DEFAULT_GRID = tuple(float(x) for x in np.geomspace(1e-4, 1.0, 30))

# relative tolerance under which validation scores tie; see the module docstring
SCORE_TIE_RTOL = 1e-9

# absolute slack with which a uq bound covers a validation frequency
DOMINANCE_TOL = 1e-12

# absolute slack with which a sample counts as inside a closed region
FREQUENCY_TOL = 1e-12


class DecisionProblem(Protocol):
    """What the data-driven calibrators need from a decision problem:
    fit a decision at a given radius, and score a decision on held-out
    samples by a plain sample-average estimate (lower is better)."""

    def train(self, samples: np.ndarray, epsilon: float) -> Any: ...

    def score(self, decision: Any, samples: np.ndarray) -> float: ...


@dataclass(frozen=True)
class ConcentrationConfig:
    """Constants of the a-priori radius formula; all user-supplied."""

    c1: float
    c2: float
    a: float
    m: int

    def __post_init__(self):
        if not (np.isfinite(self.c1) and self.c1 > 0):
            raise DimensionMismatch("c1 must be finite and positive")
        if not (np.isfinite(self.c2) and self.c2 > 0):
            raise DimensionMismatch("c2 must be finite and positive")
        if not (np.isfinite(self.a) and self.a > 1):
            raise DimensionMismatch("tail exponent a must exceed 1")
        if self.m < 1:
            raise DimensionMismatch("dimension must be at least 1")


@dataclass(frozen=True)
class UqBound:
    """One side of a calibrated probability bracket."""

    side: str
    radius: float
    value: float
    fold_radii: tuple[float, ...]


@dataclass(frozen=True)
class CalibrationResult:
    radius: float
    method: str
    table: tuple[tuple[float, float], ...] = ()
    fold_radii: tuple[float, ...] = ()
    partition: tuple[tuple[int, ...], ...] = ()
    decision: Any = None
    bounds: tuple[UqBound, ...] = ()


def radius_a_priori(N: int, beta: float, cfg: ConcentrationConfig) -> float:
    """Radius for which the ball holds the unknown distribution with
    probability 1 - beta, per the finite-sample concentration bound.

    The slow branch exponent 1/max(m, 2) applies for N past
    log(c1/beta)/c2; below that the tail exponent a takes over.
    """
    if N < 1:
        raise DimensionMismatch("sample count must be at least 1")
    if not (0.0 < beta < 1.0) or not np.isfinite(beta):
        raise InvalidBeta(f"confidence level beta must lie in (0, 1), got {beta!r}")
    log_term = float(np.log(cfg.c1 / beta))
    if log_term <= 0.0:
        return 0.0
    base = log_term / (cfg.c2 * N)
    if N >= log_term / cfg.c2:
        return float(base ** (1.0 / max(cfg.m, 2)))
    return float(base ** (1.0 / cfg.a))


def _clean_grid(grid) -> tuple[float, ...]:
    if grid is None:
        return DEFAULT_GRID
    points = [float(e) for e in grid]
    if not points:
        raise GridEmpty("candidate radius grid is empty")
    if not all(np.isfinite(e) and e >= 0 for e in points):
        raise GridEmpty("candidate radii must be finite and nonnegative")
    return tuple(sorted(set(points)))


def _check_folds(k: int, N: int) -> None:
    """The rule of k-fold validation: k >= 2 folds of N samples, none empty."""
    if k < 2:
        raise DimensionMismatch("cross validation needs k >= 2")
    if N < k:
        raise DatasetTooSmall(f"need at least k={k} samples, got {N}")


def _check_split(split: float) -> None:
    if not (0.0 < split < 1.0):
        raise DimensionMismatch("split fraction must lie strictly in (0, 1)")


def _folds(data: np.ndarray, k: int, seed):
    """The k contiguous blocks of a seeded shuffle, as index tuples, and
    per block the (training, validation) samples that hold it out."""
    N = data.shape[0]
    _check_folds(k, N)
    blocks = np.array_split(np.random.default_rng(seed).permutation(N), k)
    pairs = []
    for block in blocks:
        mask = np.ones(N, dtype=bool)
        mask[block] = False
        pairs.append((data[mask], data[block]))
    return tuple(tuple(int(i) for i in b) for b in blocks), pairs


def _argmin_smallest(grid, scores) -> float:
    """The smallest radius whose score is within SCORE_TIE_RTOL of the best."""
    best = min(scores)
    tol = SCORE_TIE_RTOL * (1.0 + abs(best))
    return next(eps for eps, sc in zip(grid, scores) if sc <= best + tol)


def _grid_scores(problem: DecisionProblem, train_data, val_data, grid):
    """The decisions trained on ``train_data`` at each radius of the grid
    in turn, and their scores on ``val_data``."""
    decisions, scores = [], []
    for eps in grid:
        decisions.append(problem.train(train_data, eps))
        scores.append(float(problem.score(decisions[-1], val_data)))
    return decisions, scores


def calibrate_holdout(
    data: np.ndarray,
    problem: DecisionProblem,
    grid=None,
    split: float = 0.8,
    seed: int = 0,
) -> CalibrationResult:
    """Train at every candidate radius on a shuffled training part, score
    on the rest, keep the radius with the best validation score (ties,
    within SCORE_TIE_RTOL, go to the smallest radius).  The returned
    decision is the one trained on the training part at the selected
    radius."""
    data = _check_samples(data)
    grid = _clean_grid(grid)
    _check_split(split)
    N = data.shape[0]
    if N < 2:
        raise DatasetTooSmall("holdout needs at least two samples")
    n_train = min(max(int(round(split * N)), 1), N - 1)
    perm = np.random.default_rng(seed).permutation(N)
    train_idx, val_idx = perm[:n_train], perm[n_train:]

    decisions, scores = _grid_scores(problem, data[train_idx], data[val_idx], grid)
    best = _argmin_smallest(grid, scores)
    return CalibrationResult(
        radius=best,
        method="holdout",
        table=tuple(zip(grid, scores)),
        fold_radii=(best,),
        partition=(tuple(int(i) for i in val_idx),),
        decision=decisions[grid.index(best)],
    )


def calibrate_kfold(
    data: np.ndarray,
    problem: DecisionProblem,
    grid=None,
    k: int = 5,
    seed: int = 0,
) -> CalibrationResult:
    """Holdout selection with each of k contiguous shuffled blocks as the
    validation part in turn; the final radius is the average of the fold
    selections and the decision is retrained on all data at that radius."""
    data = _check_samples(data)
    grid = _clean_grid(grid)
    partition, folds = _folds(data, k, seed)

    fold_radii = []
    score_sums = np.zeros(len(grid))
    for train_data, val_data in folds:
        _, scores = _grid_scores(problem, train_data, val_data, grid)
        fold_radii.append(_argmin_smallest(grid, scores))
        score_sums += scores
    radius = float(np.mean(fold_radii))
    return CalibrationResult(
        radius=radius,
        method="kfold",
        table=tuple(zip(grid, score_sums / k)),
        fold_radii=tuple(fold_radii),
        partition=partition,
        decision=problem.train(data, radius),
    )


def empirical_frequency(samples: np.ndarray, region: Polytope) -> float:
    """Fraction of samples in the closed region {Gx <= g}, within
    ``FREQUENCY_TOL``."""
    return float(np.mean(region.violation(samples) <= FREQUENCY_TOL))


def _covers(side: str, value: float, freq: float) -> bool:
    """Whether a bound on ``side`` covers a validation frequency."""
    if side == "upper":
        return value >= freq - DOMINANCE_TOL
    return value <= freq + DOMINANCE_TOL


def calibrate_uq_kfold(
    data: np.ndarray,
    safe_set: Polytope,
    grid=None,
    k: int = 5,
    seed: int = 0,
    *,
    bound_fns,
) -> CalibrationResult:
    """Probability-bracket calibration.

    ``bound_fns`` is the pair of evaluators (samples, eps) -> value for
    the upper bound (best-case probability of the closed region) and the
    lower bound (one minus the worst-case probability of leaving it).
    Per fold and per side, the selected radius is the smallest grid point
    whose training-data bound covers the validation frequency of the
    region: upper bound >= frequency, lower bound <= frequency (within
    ``DOMINANCE_TOL``).  Fold radii are averaged per side and the
    full-data bounds are evaluated at the averaged radii.  ``bounds``
    holds the upper side, then the lower; ``radius`` and ``fold_radii``
    are the upper side's.
    """
    data = _check_samples(data)
    if safe_set.dim != data.shape[1]:
        raise DimensionMismatch("region dimension does not match data columns")
    grid = _clean_grid(grid)
    partition, folds = _folds(data, k, seed)
    j_plus, j_minus = bound_fns
    sides = (("upper", j_plus), ("lower", j_minus))

    fold_radii = {"upper": [], "lower": []}
    for f, (train_data, val_data) in enumerate(folds):
        freq = empirical_frequency(val_data, safe_set)
        for side, bound in sides:
            covering = (
                eps for eps in grid if _covers(side, bound(train_data, eps), freq)
            )
            chosen = next(covering, None)
            if chosen is None:
                raise NoCoveringRadius(
                    f"no candidate radius covers fold {f} on the {side} side; "
                    "extend the grid upward"
                )
            fold_radii[side].append(chosen)

    bounds = []
    for side, bound in sides:
        radius = float(np.mean(fold_radii[side]))
        bounds.append(
            UqBound(
                side=side,
                radius=radius,
                value=float(bound(data, radius)),
                fold_radii=tuple(fold_radii[side]),
            )
        )
    return CalibrationResult(
        radius=bounds[0].radius,
        method="uq-kfold",
        fold_radii=bounds[0].fold_radii,
        partition=partition,
        bounds=tuple(bounds),
    )
