"""Desk-scale simulation studies on a synthetic Gaussian market.

The decision problem is a mean-CVaR portfolio over the probability
simplex, written as a two-piece worst-case expectation jointly convex in
the weights and the CVaR threshold.  Out-of-sample quality is evaluated
in closed form under the market model; in-sample validation uses the
exact empirical mean-CVaR.  The probability study brackets the chance of
an outperformance event between best- and worst-case bounds, compared
against the exact Gaussian probability from a deterministic orthant
oracle: the bivariate orthant in closed form through Owen's T, and the
trivariate one by conditioning on one coordinate and integrating the
bivariate orthant of the other two with one adaptive quadrature.

Every study is driven by one master seed through a splittable scheme
(one child sequence per run, then per sample-size arm), so reports and
CSV files are byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
from scipy import integrate
from scipy.special import ndtr, ndtri, owens_t

from .calibrate import _check_folds, _check_split, _clean_grid
from .calibrate import calibrate_holdout, calibrate_kfold, calibrate_uq_kfold
from .errors import (
    DimensionMismatch,
    EmptySupport,
    HypothesisViolated,
    WdroError,
)
from .geometry import GroundNorm, Polytope, dual_norm_value, nearest_point
from .lp import EQ, LE, LinearProgram, _check_dense_size
from .reformulate import _Assembler, _admit, _check_radius, _check_samples
from .simplex import _solve, _started, solve_lp

__all__ = [
    "MarketModel",
    "PortfolioSpec",
    "PortfolioResult",
    "build_portfolio_dro",
    "solve_portfolio",
    "empirical_cvar",
    "portfolio_empirical_objective",
    "out_of_sample_objective",
    "PortfolioDecisionProblem",
    "gaussian_orthant_upper",
    "outperformance_region",
    "fast_uq_bounds",
    "PortfolioStudyConfig",
    "UqStudyConfig",
    "StudyReport",
    "run_portfolio_study",
    "run_uq_study",
]


@dataclass(frozen=True)
class MarketModel:
    """Synthetic market: asset i returns psi + zeta_i with one systematic
    factor psi ~ N(0, systematic 2%) shared by all assets and independent
    idiosyncratic factors zeta_i ~ N(i*3%, i*2.5%), i = 1..m.

    Percent figures are read as standard deviations by default
    (``scale_interpretation="std"``); set ``"variance"`` to read them as
    variances instead.
    """

    m: int = 10
    systematic_scale: float = 0.02
    idio_mean_step: float = 0.03
    idio_scale_step: float = 0.025
    scale_interpretation: str = "std"

    def __post_init__(self):
        if self.m < 1:
            raise DimensionMismatch("need at least one asset")
        steps = (self.systematic_scale, self.idio_mean_step, self.idio_scale_step)
        if not np.all(np.isfinite(steps)):
            raise DimensionMismatch("scales and mean step must be finite")
        if self.systematic_scale <= 0 or self.idio_scale_step <= 0:
            raise DimensionMismatch("scales must be positive")
        if self.scale_interpretation not in ("std", "variance"):
            raise DimensionMismatch(
                f"unknown scale interpretation {self.scale_interpretation!r}"
            )

    def _stds(self):
        idx = np.arange(1, self.m + 1, dtype=float)
        sys_sd = self.systematic_scale
        idio_sd = self.idio_scale_step * idx
        if self.scale_interpretation == "variance":
            sys_sd = float(np.sqrt(sys_sd))
            idio_sd = np.sqrt(idio_sd)
        return sys_sd, idio_sd

    def mean(self) -> np.ndarray:
        return self.idio_mean_step * np.arange(1, self.m + 1, dtype=float)

    def covariance(self) -> np.ndarray:
        sys_sd, idio_sd = self._stds()
        return sys_sd**2 * np.ones((self.m, self.m)) + np.diag(idio_sd**2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        sys_sd, idio_sd = self._stds()
        psi = rng.normal(0.0, sys_sd, size=(n, 1))
        zeta = rng.normal(self.mean(), idio_sd, size=(n, self.m))
        return psi + zeta


@dataclass(frozen=True)
class PortfolioSpec:
    """Mean-CVaR objective E[-<x, xi>] + rho * CVaR_alpha(-<x, xi>) over
    the probability simplex, written as the two affine pieces
    a1 = -1, b1 = rho and a2 = -1 - rho/alpha, b2 = rho(1 - 1/alpha)
    applied to (<x, xi>, tau).  ``support=None`` means the whole space."""

    m: int = 10
    rho: float = 10.0
    alpha: float = 0.2
    support: Polytope | None = None
    ground_norm: GroundNorm = GroundNorm.L1

    def __post_init__(self):
        if self.m < 1:
            raise DimensionMismatch("need at least one asset")
        if not (0.0 < self.alpha <= 1.0):
            raise DimensionMismatch("CVaR level alpha must lie in (0, 1]")
        if not (np.isfinite(self.rho) and self.rho >= 0.0):
            raise DimensionMismatch("risk aversion rho must be finite and nonnegative")
        if self.support is not None and self.support.dim != self.m:
            raise DimensionMismatch("support dimension does not match asset count")

    def resolved_support(self) -> Polytope:
        return self.support if self.support is not None else Polytope.free(self.m)

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Scalar coefficients (a_k, b_k) of the two pieces."""
        a = np.array([-1.0, -1.0 - self.rho / self.alpha])
        b = np.array([self.rho, self.rho * (1.0 - 1.0 / self.alpha)])
        return a, b


@dataclass(frozen=True)
class PortfolioResult:
    """Optimal weights, CVaR threshold and certificate of one solve."""

    weights: np.ndarray
    tau: float
    certificate: float


def _admit_portfolio(spec: PortfolioSpec, data, epsilon: float) -> np.ndarray:
    """The samples as an (N, m) array, admitted as a ``DroProblem`` admits
    them: checked by ``_check_samples``, then projected onto the support
    or refused by ``_admit``, whose warning names the line that called
    this function's caller."""
    data = _check_samples(data, epsilon)
    if data.shape[1] != spec.m:
        raise DimensionMismatch("data dimension does not match asset count")
    return _admit(data, spec.resolved_support(), slice(None), spec.ground_norm)


def build_portfolio_dro(
    spec: PortfolioSpec, data: np.ndarray, epsilon: float
) -> LinearProgram:
    """Joint program over (x, tau, lam, s_i, multipliers): epigraph rows
    b_k tau + a_k <x, xi_i> + <gamma_ik, d - C xi_i> <= s_i with dual-norm
    rows ||C'gamma_ik - a_k x||_* <= lam and the simplex constraint on x.
    The weights occupy the first m coordinates of the optimizer."""
    return _joint_program(spec, _admit_portfolio(spec, data, epsilon), epsilon)


def _joint_program(spec: PortfolioSpec, data: np.ndarray, epsilon: float) -> LinearProgram:
    """:func:`build_portfolio_dro` on admitted ``data``."""
    N, m = data.shape
    support = spec.resolved_support()
    a_coef, b_coef = spec.pieces()

    a = _Assembler(epsilon, spec.ground_norm)
    x = a.b.vars("x", m, lb=0.0)
    tau = a.b.var("tau")
    s = a.epigraph(N)
    a.b.add_eq({xj: 1.0 for xj in x}, 1.0)
    for i, xi in enumerate(data):
        for k in range(2):
            terms = {tau: b_coef[k]}
            terms.update((x[j], a_coef[k] * xi[j]) for j in range(m) if xi[j] != 0.0)
            part = [({x[j]: -a_coef[k]}, 0.0) for j in range(m)]
            a.block(s[i], support, xi, terms, 0.0, part, f"[{i},{k}]", shared=f"[{k}]")
    return a.build()


def _free_program(spec, data, epsilon) -> LinearProgram:
    """Free-support shortcut: the optimal multiplier is known to be
    max_k |a_k| times the dual norm of x, so the program shrinks to the
    sample mean-CVaR plus a norm-of-weights penalty.  Equivalent to the
    joint program (tested); roughly halves the row count.

    The program's layout: columns x (m, >= 0), tau (free), t (>= 0, the
    dual norm of x), then one hinge z_i (>= 0) per sample; rows sum(x) = 1,
    then -xi_i.x - tau - z_i <= 0 per sample, then the dual-norm epigraph
    (x >= 0 keeps it one-sided), x_j - t <= 0 per asset for the L1 ground
    norm or sum(x) - t <= 0 for Linf.  So sample i owns row 1 + i and
    column m + 2 + i.
    ``0.0 - data``, not ``-data``, keeps a zero sample at +0.0."""
    N, m = data.shape
    n_norm = m if spec.ground_norm is GroundNorm.L1 else 1
    n_rows, n_cols = 1 + N + n_norm, m + 2 + N
    _check_dense_size(n_rows, n_cols)
    A = np.zeros((n_rows, n_cols))
    A[0, :m] = 1.0
    A[1 : N + 1, :m] = 0.0 - data
    A[1 : N + 1, m] = -1.0
    A[np.arange(1, N + 1), np.arange(m + 2, n_cols)] = -1.0
    A[N + 1 :, :m] = np.eye(m) if n_norm == m else 1.0
    A[N + 1 :, m + 1] = -1.0
    # a column at a time: np.mean(data, axis=0) sums in another order
    means = np.array([np.mean(data[:, j]) for j in range(m)])
    radius_cost = epsilon * _radius_cost(spec)
    costs = np.concatenate([0.0 - means, [spec.rho, radius_cost], np.zeros(N)])
    costs[m + 2 :] = spec.rho / (spec.alpha * N)
    names = [f"x[{j}]" for j in range(m)] + ["tau", "t"] + [f"z[{i}]" for i in range(N)]
    return LinearProgram(
        sense="min",
        costs=costs,
        row_coeffs=A,
        row_relations=(EQ,) + (LE,) * (N + n_norm),
        row_rhs=np.concatenate([[1.0], np.zeros(n_rows - 1)]),
        lower=np.concatenate([np.zeros(m), [-np.inf], np.zeros(1 + N)]),
        upper=np.full(n_cols, np.inf),
        names=tuple(names),
    )


def _free_point(spec: PortfolioSpec, old: PortfolioResult, samples) -> np.ndarray:
    """The point of :func:`_free_program` on ``samples`` at the weights and
    threshold of ``old``: t the dual norm of the weights, each hinge its
    sample's loss above the threshold or zero."""
    x, tau = old.weights, old.tau
    hinges = np.maximum((0.0 - samples) @ x - tau, 0.0)
    return np.concatenate([x, [tau, dual_norm_value(x, spec.ground_norm)], hinges])


def _radius_cost(spec: PortfolioSpec) -> float:
    """The cost per unit radius of column m + 1, the one column whose cost
    depends on the radius: the free program's t or the joint program's lam."""
    if spec.resolved_support().is_free:
        return float(np.max(np.abs(spec.pieces()[0])))
    return 1.0


def _portfolio_program(spec: PortfolioSpec, data: np.ndarray, epsilon: float) -> LinearProgram:
    """The program :func:`solve_portfolio` solves on admitted ``data``."""
    if spec.resolved_support().is_free:
        return _free_program(spec, data, epsilon)
    return _joint_program(spec, data, epsilon)


def _at_radius(spec: PortfolioSpec, lp: LinearProgram, epsilon: float) -> LinearProgram:
    """``lp``, a program of :func:`_portfolio_program`, at radius ``epsilon``:
    the program that function builds there, bit for bit."""
    costs = lp.costs.copy()
    costs[spec.m + 1] = epsilon * _radius_cost(spec)
    return replace(lp, costs=costs)


def _portfolio_result(sol, m: int) -> PortfolioResult:
    """The result of a solve of a portfolio program whose first m + 1
    columns are (x, tau)."""
    if not sol.is_optimal:
        raise WdroError(f"portfolio program ended {sol.status}")
    return PortfolioResult(
        weights=sol.primal[:m].copy(),
        tau=float(sol.primal[m]),
        certificate=sol.objective_value,
    )


def solve_portfolio(
    spec: PortfolioSpec, data: np.ndarray, epsilon: float
) -> PortfolioResult:
    """Optimal weights, CVaR threshold and certificate at one radius, by
    one cold solve.  A sweep over radii on the same data goes faster
    through :meth:`PortfolioDecisionProblem.train`, which reprices one
    live engine."""
    lp = _portfolio_program(spec, _admit_portfolio(spec, data, epsilon), epsilon)
    return _portfolio_result(solve_lp(lp), spec.m)


def empirical_cvar(losses: np.ndarray, alpha: float) -> float:
    """Exact sample CVaR: the threshold functional is piecewise linear
    with breakpoints at the sample losses, so minimizing over those
    breakpoints is exact."""
    L = np.asarray(losses, dtype=float).reshape(-1)
    if L.size == 0:
        raise DimensionMismatch("need at least one loss value")
    if not (0.0 < alpha <= 1.0):
        raise DimensionMismatch("CVaR level alpha must lie in (0, 1]")
    D = np.sort(L)[::-1]
    idx = np.arange(D.size)
    prefix = np.concatenate([[0.0], np.cumsum(D)[:-1]])  # sum of strictly larger losses
    vals = D + (prefix - idx * D) / (alpha * D.size)
    return float(np.min(vals))


def portfolio_empirical_objective(
    spec: PortfolioSpec, weights: np.ndarray, samples: np.ndarray
) -> float:
    """Sample mean-CVaR objective of fixed weights."""
    L = -np.atleast_2d(samples) @ np.asarray(weights, dtype=float)
    return float(np.mean(L) + spec.rho * empirical_cvar(L, spec.alpha))


def out_of_sample_objective(
    weights: np.ndarray, spec: PortfolioSpec, market: MarketModel
) -> float:
    """Closed-form objective under the Gaussian market: the loss
    -<x, xi> is normal, and the CVaR of a normal is
    mean + sd * pdf(quantile(1-alpha)) / alpha."""
    x = np.asarray(weights, dtype=float).reshape(-1)
    mu_l = -float(x @ market.mean())
    var_l = float(x @ market.covariance() @ x)
    sd_l = float(np.sqrt(max(var_l, 0.0)))
    if spec.alpha >= 1.0:
        cvar = mu_l
    else:
        q = ndtri(1.0 - spec.alpha)
        pdf = np.exp(-q**2 / 2.0) / np.sqrt(2.0 * np.pi)
        cvar = mu_l + sd_l * float(pdf / spec.alpha)
    return mu_l + spec.rho * cvar


class PortfolioDecisionProblem:
    """Calibration adapter: train at a radius, score by the validation
    sample mean-CVaR.

    The adapter keeps the simplex engine of its last training samples
    alive.  On samples with the same bytes, as in a radius sweep, the
    program differs only in the radius cost, so :meth:`train` reprices
    that engine and phase two goes on from the last optimum, which stays
    primal feasible; the samples are not admitted again, the radius is
    checked before the engine is touched.  Other samples (a fold, a
    holdout split, the full-data refit, the next run) are admitted once
    and get a fresh engine.  On the free support it starts from the point,
    on their program, of the result last solved at the nearest radius
    (:func:`_free_point`), and the engine reads its basis off that point;
    the joint program of a polytope support starts cold.  Every answer
    passes the simplex's final check against the program at its own
    radius, so neither route changes it beyond solver tolerance.  A solve
    that raises leaves no engine to go on from.  The memory lives on the
    instance, so separate instances never share a starting point."""

    def __init__(self, spec: PortfolioSpec):
        self.spec = spec
        self._given: np.ndarray | None = None
        self._engine = None
        self._lp: LinearProgram | None = None
        self._by_radius: dict[float, PortfolioResult] = {}

    def train(self, samples, epsilon) -> PortfolioResult:
        spec, given = self.spec, np.array(samples, dtype=float)
        if (self._engine is not None and given.shape == self._given.shape
                and given.tobytes() == self._given.tobytes()):
            _check_radius(epsilon)
            engine, lp = self._engine, _at_radius(spec, self._lp, epsilon)
            engine.reprice(lp)
        else:
            admitted = _admit_portfolio(spec, given, epsilon)
            near = None
            if self._by_radius and spec.resolved_support().is_free:
                old = self._by_radius[min(self._by_radius, key=lambda e: abs(e - epsilon))]
                near = _free_point(spec, old, admitted)
            # dropped first: two live engines would raise the peak memory
            self._engine = self._lp = None
            lp = _portfolio_program(spec, admitted, epsilon)
            engine = _started(lp, near)
            self._given, self._by_radius = given, {}
        self._engine = None  # until the solve returns
        sol = _solve(engine, lp)
        result = _portfolio_result(sol, spec.m)
        self._engine, self._lp = engine, lp
        self._by_radius[float(epsilon)] = result
        return result

    def score(self, decision: PortfolioResult, samples) -> float:
        return portfolio_empirical_objective(self.spec, decision.weights, samples)


# absolute accuracy of the orthant oracle, recorded in uq study manifests
ORTHANT_TOL = 1e-6


def _tail(mean, sd) -> float:
    """P[N(mean, sd^2) >= 0]; an sd below 1e-12 is a point mass."""
    return float(mean >= 0.0) if sd < 1e-12 else float(ndtr(mean / sd))


def _orthant2(mu, cov) -> float:
    """P[Z >= 0] for Z ~ N(mu, cov) in dimension 2 by Owen's (1956) closed
    form Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta, with h and k
    the standardized means, r the correlation and T Owen's T function."""
    s = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if s.min() < 1e-12:
        i = int(np.argmin(s))
        return float(mu[i] >= 0.0) * _tail(mu[1 - i], s[1 - i])
    h, k = mu / s
    r = float(np.clip(cov[0, 1] / (s[0] * s[1]), -1.0, 1.0))
    if r == 1.0:
        return float(ndtr(min(h, k)))
    if r == -1.0:
        return max(float(ndtr(h) + ndtr(k)) - 1.0, 0.0)
    if h == 0.0 and k == 0.0:
        return 0.25 + float(np.arcsin(r)) / (2.0 * np.pi)
    q = np.sqrt(1.0 - r * r)
    a_h = (k - r * h) / (h * q) if h != 0.0 else np.copysign(np.inf, k)
    a_k = (h - r * k) / (k * q) if k != 0.0 else np.copysign(np.inf, h)
    beta = 0.5 if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0) else 0.0
    t = owens_t(h, a_h) + owens_t(k, a_k)
    return float(0.5 * (ndtr(h) + ndtr(k)) - t - beta)


def gaussian_orthant_upper(mu, cov) -> float:
    """P[Z >= 0] for Z ~ N(mu, cov) in dimension 1 to 3, for any positive
    semidefinite covariance.  Dimension 2 is the closed-form bivariate
    orthant; dimension 3 conditions on its coordinate of largest variance
    and integrates the other two's bivariate orthant with one adaptive
    quadrature.  Deterministic; absolute accuracy well under ORTHANT_TOL."""
    mu = np.asarray(mu, dtype=float).reshape(-1)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    n = mu.size
    if cov.shape != (n, n):
        raise DimensionMismatch("covariance shape does not match mean")
    if n == 1:
        return _tail(mu[0], np.sqrt(max(cov[0, 0], 0.0)))
    if n == 2:
        return _orthant2(mu, cov)
    if n != 3:
        raise DimensionMismatch("orthant oracle supports dimensions 1 to 3")
    j = int(np.argmax(np.diag(cov)))
    sd = float(np.sqrt(max(cov[j, j], 0.0)))
    if sd < 1e-12:
        return float(np.all(mu >= 0.0))
    rest = [i for i in range(3) if i != j]
    slope = cov[rest, j] / sd
    rest_cov = cov[np.ix_(rest, rest)] - np.outer(slope, slope)

    def integrand(x):
        return np.exp(-0.5 * x * x) * _orthant2(mu[rest] + slope * x, rest_cov)

    # Z_j >= 0 from x = -mu_j / sd on; the density is below 1e-300 past 40
    lo, hi = float(np.clip(-mu[j] / sd, -40.0, 40.0)), 40.0
    # P[Z_i >= 0 | x] is below Phi(-40) unless the conditional mean
    # mu_i + slope_i x reaches -40 sd_i, which bounds x on one side.  It
    # climbs from Phi(-8) to Phi(8) between the two x where that mean is
    # -+8 sd_i; a climb narrower than the density's unit scale goes to quad
    # as those two breakpoints, so that it is seen whole
    points = []
    for m_i, b, s in zip(mu[rest], slope, np.sqrt(np.maximum(np.diag(rest_cov), 0.0))):
        if b == 0.0:
            if m_i < -40.0 * s:
                return 0.0
            continue
        edge = (-40.0 * s - m_i) / b
        if b > 0.0:
            lo = max(lo, edge)
        else:
            hi = min(hi, edge)
        if 16.0 * s < abs(b):
            points += [(-8.0 * s - m_i) / b, (8.0 * s - m_i) / b]
    if lo >= hi:
        return 0.0
    points = [p for p in points if lo < p < hi]
    val, _ = integrate.quad(
        integrand, lo, hi, points=points or None,
        epsabs=ORTHANT_TOL * 1e-2, epsrel=1e-10, limit=200,
    )
    return float(val / np.sqrt(2.0 * np.pi))


def outperformance_region(weights: np.ndarray, assets) -> Polytope:
    """Region where the portfolio return beats every listed asset:
    rows (e_i - x)' xi <= 0."""
    x = np.asarray(weights, dtype=float).reshape(-1)
    m = x.size
    assets = list(assets)
    if not all(
        isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < m
        for i in assets
    ):
        raise DimensionMismatch(f"asset indices must be integers in [0, {m})")
    return Polytope(np.eye(m)[assets] - x, np.zeros(len(assets)), m)


def fast_uq_bounds(region: Polytope, norm: GroundNorm = GroundNorm.L1):
    """Closed-form probability bound evaluators for unconstrained
    support.

    Only the ground-norm distance from each sample to the region (upper
    bound) or to its complement (lower bound) matters, and the optimal
    multiplier of the one-dimensional dual sits on a breakpoint 1/d_i.
    Distances to the region are LPs cached per sample, so sweeping radii
    or folds solves one LP per distinct sample outside the region;
    distances to the complement are closed form.  Matches the generic
    programs (equality-tested on small instances).  Both evaluators check
    their samples, radius and sample dimension as a ``DroProblem`` does.
    """
    if region.n_rows and not region.nonempty():
        raise HypothesisViolated("the region is empty")
    dual_norms = np.array(
        [dual_norm_value(region.C[k], norm) for k in range(region.n_rows)]
    )
    cache: dict[bytes, float] = {}

    def region_distances(X: np.ndarray) -> np.ndarray:
        d = np.zeros(X.shape[0])
        if region.n_rows:
            for i in np.flatnonzero(region.violation(X) > 0.0):
                key = X[i].tobytes()
                if key not in cache:
                    try:
                        cache[key] = nearest_point(region, X[i], norm)[0]
                    except EmptySupport:
                        raise HypothesisViolated("the region is empty") from None
                d[i] = cache[key]
        return d

    def complement_distances(X: np.ndarray) -> np.ndarray:
        cols = []
        for k in range(region.n_rows):
            if dual_norms[k] == 0.0:
                if region.d[k] <= 0.0:
                    cols.append(np.zeros(X.shape[0]))
                continue  # empty halfspace contributes nothing
            margin = region.d[k] - X @ region.C[k]
            cols.append(np.maximum(0.0, margin) / dual_norms[k])
        if not cols:
            raise HypothesisViolated(
                "no boundary halfspace of the region is reachable"
            )
        return np.min(np.column_stack(cols), axis=1)

    def breakpoint_min(eps: float, d: np.ndarray) -> float:
        positive = np.unique(d[d > 0.0])
        lams = np.concatenate([[0.0], 1.0 / positive[::-1]])
        vals = lams * eps + np.maximum(0.0, 1.0 - np.outer(lams, d)).mean(axis=1)
        return float(vals.min())

    def admitted(samples, eps) -> np.ndarray:
        X = _check_samples(samples, eps)
        if X.shape[1] != region.dim:
            raise DimensionMismatch("sample dimension does not match the region")
        return X

    def j_plus(samples, eps) -> float:
        X = admitted(samples, eps)
        return breakpoint_min(float(eps), region_distances(X))

    def j_minus(samples, eps) -> float:
        X = admitted(samples, eps)
        if region.is_free:
            return 1.0  # the complement is empty
        return 1.0 - breakpoint_min(float(eps), complement_distances(X))

    return j_plus, j_minus


def _csv_write(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


@dataclass(frozen=True)
class StudyReport:
    """Raw per-run rows plus aggregated summaries and a replay manifest.
    ``tables`` maps a file stem to (header, rows)."""

    manifest: dict
    tables: dict

    def write(self, out_dir) -> dict:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        for stem, (header, rows) in sorted(self.tables.items()):
            path = out / f"{stem}.csv"
            _csv_write(path, header, rows)
            paths[stem] = path
        manifest_path = out / "manifest.json"
        manifest_path.write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        )
        paths["manifest"] = manifest_path
        return paths


def _geom(lo, hi, count):
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


def _check_shared(config, arms, *grids) -> None:
    """The checks of the fields both study configs share, with the sample
    sizes ``arms`` it calibrates on and its radius ``grids`` checked by the
    calibrators' rules."""
    if config.runs < 1:
        raise DimensionMismatch("need at least one run")
    # NaN fails both comparisons
    if not config.epsilons or not all(0.0 <= e < np.inf for e in config.epsilons):
        raise DimensionMismatch("radius sweep must be nonempty, finite and nonnegative")
    if config.market.m != config.portfolio.m:
        raise DimensionMismatch("market and portfolio dimensions differ")
    for grid in grids:
        _clean_grid(grid)
    for N in arms:
        _check_folds(config.k_folds, N)


@dataclass(frozen=True)
class PortfolioStudyConfig:
    """Defaults are desk-scale; ``full_scale`` restores the original run
    counts (hours of runtime on one core)."""

    runs: int = 100
    n_curve: tuple = (30,)
    n_calibration: tuple = (30, 300)
    epsilons: tuple = (0.0, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0)
    calibration_grid: tuple = field(default_factory=lambda: _geom(1e-3, 1.0, 7))
    k_folds: int = 5
    holdout_split: float = 0.8
    master_seed: int = 20230517
    market: MarketModel = field(default_factory=MarketModel)
    portfolio: PortfolioSpec = field(default_factory=PortfolioSpec)

    @classmethod
    def full_scale(cls) -> "PortfolioStudyConfig":
        return cls(
            runs=200,
            n_curve=(30, 300),
            n_calibration=(30, 300, 3000),
            calibration_grid=_geom(1e-4, 1.0, 30),
        )

    def validate(self):
        _check_shared(self, self.n_calibration, self.calibration_grid)
        _check_split(self.holdout_split)


@dataclass(frozen=True)
class UqStudyConfig:
    """Probability-bracket study around the cross-validation calibrated
    portfolio; the event is outperforming the ``risky_assets`` assets
    with the largest index (the riskiest ones)."""

    runs: int = 40
    n_values: tuple = (30,)
    epsilons: tuple = (0.0, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3)
    portfolio_grid: tuple = field(default_factory=lambda: _geom(1e-3, 1.0, 7))
    uq_grid: tuple = field(default_factory=lambda: _geom(1e-4, 0.3, 8))
    k_folds: int = 5
    risky_assets: int = 3
    master_seed: int = 20230518
    market: MarketModel = field(default_factory=MarketModel)
    portfolio: PortfolioSpec = field(default_factory=PortfolioSpec)

    def validate(self):
        _check_shared(self, self.n_values, self.portfolio_grid, self.uq_grid)
        if not (1 <= self.risky_assets <= min(3, self.market.m)):
            raise DimensionMismatch("risky asset count must lie in 1 to min(3, market.m)")
        if not self.portfolio.resolved_support().is_free:
            raise DimensionMismatch(
                "the probability study uses unconstrained support"
            )


def _arms(config, arms):
    """The seed scheme of both studies: ``SeedSequence(master_seed)``
    spawns one child per run, each run one per arm (sample size N, in the
    order of ``arms``) and each arm three.  The first of the three draws
    the arm's N samples from the market; the other two are the arm's
    ``seeds``.  Yields (run, N, data, seeds)."""
    run_seqs = np.random.SeedSequence(config.master_seed).spawn(config.runs)
    for r, run_seq in enumerate(run_seqs):
        for N, arm_seq in zip(arms, run_seq.spawn(len(arms))):
            data_seq, *seeds = arm_seq.spawn(3)
            yield r, N, config.market.sample(N, np.random.default_rng(data_seq)), seeds


def _per_radius(rows, ns, epsilons, stats):
    """One summary row (N, radius, *stats(cols)) per sample size N and
    radius, from the per-run ``rows`` (run, N, radius, ...) at that pair;
    ``cols[j]`` is their column j as a float array."""
    summary = []
    for N in ns:
        for eps in map(float, epsilons):
            sel = [row for row in rows if row[1] == N and row[2] == eps]
            cols = np.array(list(zip(*sel)), dtype=float)
            summary.append((N, eps, *(float(v) for v in stats(cols))))
    return summary


def _manifest(config, study: str, purposes, **fields) -> dict:
    """The replay record of a study: the config fields both studies share,
    the seed scheme (``purposes`` names the two ``seeds`` of an arm) and
    the package versions, plus the study's own ``fields``."""
    from . import __version__

    spec = config.portfolio
    support = spec.resolved_support()
    return {
        "study": study,
        "master_seed": config.master_seed,
        "seed_scheme": "SeedSequence spawn: run -> arm -> (data, {}, {})".format(*purposes),
        "runs": config.runs,
        "epsilons": list(map(float, config.epsilons)),
        "k_folds": config.k_folds,
        "market": asdict(config.market),
        "portfolio": {
            "rho": spec.rho,
            "alpha": spec.alpha,
            "ground_norm": spec.ground_norm.value,
            "support": "free" if support.is_free
            else {"C": support.C.tolist(), "d": support.d.tolist()},
        },
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "wdro": __version__,
        },
        **fields,
    }


def run_portfolio_study(config: PortfolioStudyConfig) -> StudyReport:
    """Radius sweep, holdout and cross-validation calibration against the
    plain sample-average baseline, all scored in closed form out of
    sample."""
    config.validate()
    spec, market = config.portfolio, config.market
    template = PortfolioDecisionProblem(spec)
    curve_rows, cal_rows = [], []
    arms = sorted(set(config.n_curve) | set(config.n_calibration))
    for r, N, data, (hold_seq, cv_seq) in _arms(config, arms):
        if N in config.n_curve:
            for eps in config.epsilons:
                res = template.train(data, eps)
                oos = out_of_sample_objective(res.weights, spec, market)
                curve_rows.append(
                    (r, N, float(eps), res.certificate, oos,
                     int(oos <= res.certificate))
                )
        if N in config.n_calibration:
            hold = calibrate_holdout(
                data, template, config.calibration_grid,
                split=config.holdout_split, seed=hold_seq,
            )
            cv = calibrate_kfold(
                data, template, config.calibration_grid,
                k=config.k_folds, seed=cv_seq,
            )
            saa = template.train(data, 0.0)
            scores = [out_of_sample_objective(x.weights, spec, market)
                      for x in (hold.decision, cv.decision, saa)]
            cal_rows.append((r, N, hold.radius, cv.radius, *scores))

    # columns 3, 4, 5: certificate, out-of-sample objective, covers
    summary_rows = _per_radius(
        curve_rows, config.n_curve, config.epsilons,
        lambda c: (c[4].mean(), *np.quantile(c[4], [0.2, 0.8]), c[3].mean(), c[5].mean()),
    )
    radii_rows = []
    for N in config.n_calibration:
        sel = [row for row in cal_rows if row[1] == N]
        cols = np.array([[row[2], row[3], row[4], row[5], row[6]] for row in sel])
        radii_rows.append((N, *[float(v) for v in cols.mean(axis=0)]))

    manifest = _manifest(
        config, "portfolio", ("holdout", "cv"),
        n_curve=list(config.n_curve),
        n_calibration=list(config.n_calibration),
        calibration_grid=list(map(float, config.calibration_grid)),
        holdout_split=config.holdout_split,
        quantile_estimator="numpy linear interpolation",
    )
    tables = {
        "fig4_oos": (
            ["run", "n_samples", "epsilon", "certificate", "oos_objective",
             "certificate_covers"],
            curve_rows,
        ),
        "fig5_reliability": (
            ["n_samples", "epsilon", "oos_mean", "oos_q20", "oos_q80",
             "certificate_mean", "reliability"],
            summary_rows,
        ),
        "fig6_calibration": (
            ["run", "n_samples", "holdout_radius", "cv_radius", "oos_holdout",
             "oos_cv", "oos_saa"],
            cal_rows,
        ),
        "fig9_radii": (
            ["n_samples", "mean_holdout_radius", "mean_cv_radius",
             "mean_oos_holdout", "mean_oos_cv", "mean_oos_saa"],
            radii_rows,
        ),
    }
    return StudyReport(manifest=manifest, tables=tables)


def run_uq_study(config: UqStudyConfig) -> StudyReport:
    """Bracket the probability of outperforming the riskiest assets:
    per run, calibrate the portfolio by cross validation, sweep the
    bound radii, and compare with the exact Gaussian probability."""
    config.validate()
    spec, market = config.portfolio, config.market
    template = PortfolioDecisionProblem(spec)
    assets = list(range(market.m - config.risky_assets, market.m))
    curve_rows, cal_rows = [], []
    for r, N, data, (cv_seq, uq_seq) in _arms(config, config.n_values):
        cv = calibrate_kfold(
            data, template, config.portfolio_grid, k=config.k_folds, seed=cv_seq
        )
        region = outperformance_region(cv.decision.weights, assets)
        G, mu, cov = region.C, market.mean(), market.covariance()
        p_true = gaussian_orthant_upper(-G @ mu, G @ cov @ G.T)
        bounds = fast_uq_bounds(region, spec.ground_norm)
        j_plus, j_minus = bounds
        for eps in config.epsilons:
            hi = j_plus(data, eps)
            lo = j_minus(data, eps)
            curve_rows.append(
                (r, N, float(eps), lo, hi, p_true, int(lo <= p_true <= hi))
            )
        cal = calibrate_uq_kfold(
            data,
            region,
            config.uq_grid,
            k=config.k_folds,
            seed=uq_seq,
            bound_fns=bounds,
        )
        hi_b, lo_b = cal.bounds
        cal_rows.append(
            (
                r, N,
                hi_b.radius, lo_b.radius,
                hi_b.value, lo_b.value,
                p_true,
                int(lo_b.value <= p_true <= hi_b.value),
            )
        )

    # columns 3, 4, 5, 6: lower bound, upper bound, true probability, covers
    summary_rows = _per_radius(
        curve_rows, config.n_values, config.epsilons,
        lambda c: (c[3].mean(), c[4].mean(),
                   *np.quantile(c[3] - c[5], [0.2, 0.8]),
                   *np.quantile(c[4] - c[5], [0.2, 0.8]),
                   c[6].mean()),
    )

    manifest = _manifest(
        config, "uq", ("cv", "uq"),
        n_values=list(config.n_values),
        portfolio_grid=list(map(float, config.portfolio_grid)),
        uq_grid=list(map(float, config.uq_grid)),
        risky_assets=config.risky_assets,
        orthant_oracle_tol=ORTHANT_TOL,
    )
    tables = {
        "fig10_uq_curves": (
            ["run", "n_samples", "epsilon", "lower_bound", "upper_bound",
             "true_probability", "bracket_covers"],
            curve_rows,
        ),
        "fig10_summary": (
            ["n_samples", "epsilon", "lower_mean", "upper_mean",
             "lower_gap_q20", "lower_gap_q80", "upper_gap_q20", "upper_gap_q80",
             "bracket_reliability"],
            summary_rows,
        ),
        "fig11_calibrated": (
            ["run", "n_samples", "upper_radius", "lower_radius", "upper_bound",
             "lower_bound", "true_probability", "bracket_covers"],
            cal_rows,
        ),
    }
    return StudyReport(manifest=manifest, tables=tables)
