"""Market model, portfolio programs, probability brackets and the study
harnesses.

Oracles: the sample-average anchor is checked against a directly coded
mean-CVaR linear program solved by scipy; the closed-form out-of-sample
objective against Monte Carlo; the orthant oracle against product and
zero-mean closed forms and a one-dimensional quadrature; the fast
probability bounds against the generic worst-/best-case programs.
"""

import dataclasses
import json

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import linprog
from scipy.stats import multivariate_normal, norm

import wdro.experiments as experiments
import wdro.simplex as simplex
from wdro.calibrate import calibrate_kfold, calibrate_uq_kfold
from wdro.errors import (
    DimensionMismatch,
    EmptySupport,
    HypothesisViolated,
    NumericalBreakdown,
    SampleOutsideSupport,
    WdroError,
)
from wdro.experiments import (
    MarketModel,
    PortfolioDecisionProblem,
    PortfolioSpec,
    PortfolioStudyConfig,
    UqStudyConfig,
    build_portfolio_dro,
    empirical_cvar,
    fast_uq_bounds,
    gaussian_orthant_upper,
    out_of_sample_objective,
    outperformance_region,
    portfolio_empirical_objective,
    run_portfolio_study,
    run_uq_study,
    solve_portfolio,
)
from wdro.geometry import GroundNorm, Polytope
from wdro.lp import LpBuilder, SolverConfig
from wdro.reformulate import DroProblem, EventIndicator, worst_case_value
from wdro.simplex import solve_lp


def saa_mean_cvar_oracle(spec, data):
    """Rockafellar-Uryasev sample LP solved by scipy: variables
    (x, tau, u) with u_i >= -<x, xi_i> - tau, u >= 0."""
    data = np.atleast_2d(data)
    N, m = data.shape
    c = np.concatenate(
        [-data.mean(axis=0), [spec.rho], np.full(N, spec.rho / (spec.alpha * N))]
    )
    A_ub = np.hstack([-data, -np.ones((N, 1)), -np.eye(N)])
    b_ub = np.zeros(N)
    A_eq = np.concatenate([np.ones(m), [0.0], np.zeros(N)]).reshape(1, -1)
    bounds = [(0, None)] * m + [(None, None)] + [(0, None)] * N
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=bounds)
    assert res.status == 0
    return res.fun, res.x[:m]


class TestMarketModel:
    def test_moments_match_construction(self):
        mkt = MarketModel()
        idx = np.arange(1, 11, dtype=float)
        assert np.allclose(mkt.mean(), 0.03 * idx)
        expected = 0.02**2 * np.ones((10, 10)) + np.diag((0.025 * idx) ** 2)
        assert np.allclose(mkt.covariance(), expected)

    def test_sample_moments_agree(self):
        mkt = MarketModel(m=4)
        X = mkt.sample(60_000, np.random.default_rng(11))
        assert np.max(np.abs(X.mean(axis=0) - mkt.mean())) < 5e-3
        assert np.max(np.abs(np.cov(X.T) - mkt.covariance())) < 5e-4

    def test_variance_interpretation_squares_less(self):
        mkt = MarketModel(m=2, scale_interpretation="variance")
        assert np.allclose(
            np.diag(mkt.covariance()), 0.02 + 0.025 * np.array([1.0, 2.0])
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(DimensionMismatch):
            MarketModel(m=0)
        with pytest.raises(DimensionMismatch):
            MarketModel(scale_interpretation="sd")

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("systematic_scale", "idio_mean_step", "idio_scale_step")
         for v in (np.nan, np.inf)] + [("idio_mean_step", -np.inf)],
    )
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(DimensionMismatch):
            MarketModel(**{field: value})


class TestPortfolioSpec:
    def test_piece_coefficients(self):
        a, b = PortfolioSpec(rho=10.0, alpha=0.2).pieces()
        assert np.allclose(a, [-1.0, -51.0])
        assert np.allclose(b, [10.0, -40.0])

    def test_pieces_encode_mean_cvar_integrand(self):
        # max_k (a_k r + b_k tau) == -r + rho tau + (rho/alpha)(-r - tau)+
        spec = PortfolioSpec(rho=3.0, alpha=0.4)
        a, b = spec.pieces()
        rng = np.random.default_rng(0)
        for r, tau in rng.normal(size=(50, 2)):
            direct = -r + spec.rho * tau + spec.rho / spec.alpha * max(0.0, -r - tau)
            assert np.max(a * r + b * tau) == pytest.approx(direct, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DimensionMismatch):
            PortfolioSpec(alpha=0.0)
        with pytest.raises(DimensionMismatch):
            PortfolioSpec(rho=-1.0)
        with pytest.raises(DimensionMismatch):
            PortfolioSpec(m=3, support=Polytope.free(2))

    @pytest.mark.parametrize(
        "fields", [{"rho": np.nan}, {"rho": np.inf}, {"m": 0}, {"m": -1}],
        ids=["rho-nan", "rho-inf", "m-0", "m-negative"],
    )
    def test_rejects_non_finite_rho_and_no_assets(self, fields):
        with pytest.raises(DimensionMismatch):
            PortfolioSpec(**fields)


class TestSampleAverageAnchor:
    def test_zero_radius_matches_scipy_rockafellar_uryasev(self):
        mkt = MarketModel(m=5)
        spec = PortfolioSpec(m=5)
        data = mkt.sample(40, np.random.default_rng(3))
        oracle, _ = saa_mean_cvar_oracle(spec, data)
        res = solve_portfolio(spec, data, 0.0)
        assert res.certificate == pytest.approx(oracle, abs=1e-9)

    def test_zero_radius_with_polytope_support(self):
        mkt = MarketModel(m=3)
        sup = Polytope(-np.eye(3), np.ones(3), 3)
        spec = PortfolioSpec(m=3, support=sup)
        data = mkt.sample(15, np.random.default_rng(4))
        assert np.all(data >= -1.0)
        oracle, _ = saa_mean_cvar_oracle(spec, data)
        res = solve_portfolio(spec, data, 0.0)
        assert res.certificate == pytest.approx(oracle, abs=1e-9)


class TestJointVersusReduced:
    def test_free_support_routes_agree(self):
        rng = np.random.default_rng(5)
        for norm_g in (GroundNorm.L1, GroundNorm.LINF):
            for _ in range(5):
                m = int(rng.integers(2, 5))
                spec = PortfolioSpec(
                    m=m, rho=float(rng.uniform(0.5, 5.0)),
                    alpha=float(rng.uniform(0.1, 0.9)), ground_norm=norm_g,
                )
                data = rng.normal(0.05, 0.2, size=(int(rng.integers(4, 10)), m))
                eps = float(rng.uniform(0.0, 0.5))
                reduced = solve_portfolio(spec, data, eps)
                joint = solve_lp(build_portfolio_dro(spec, data, eps))
                assert joint.status == "optimal"
                assert reduced.certificate == pytest.approx(
                    joint.objective_value, abs=1e-8
                )

    def test_joint_builder_rejects_outside_samples(self):
        sup = Polytope(-np.eye(2), np.zeros(2), 2)  # xi >= 0
        spec = PortfolioSpec(m=2, support=sup)
        with pytest.raises(SampleOutsideSupport):
            build_portfolio_dro(spec, np.array([[0.5, -0.5]]), 0.1)

    @pytest.mark.parametrize("route", [solve_portfolio, build_portfolio_dro],
                             ids=["solve", "build"])
    def test_slightly_outside_sample_is_projected(self, route):
        # the rule of DroProblem: a violation up to MEMBERSHIP_TOL is
        # projected with one warning naming the caller's line
        spec = PortfolioSpec(m=2, support=Polytope.box(-np.ones(2), np.ones(2)))
        data = np.array([[1.0 + 1e-8, 0.5], [0.0, -0.25]])
        with pytest.warns(UserWarning, match="projected") as record:
            got = route(spec, data, 0.1)
        assert [w.filename for w in record] == [__file__]
        if route is solve_portfolio:
            inside = solve_portfolio(spec, np.array([[1.0, 0.5], [0.0, -0.25]]), 0.1)
            assert got.certificate == pytest.approx(inside.certificate, abs=1e-12)

    @pytest.mark.parametrize("route", [solve_portfolio, build_portfolio_dro],
                             ids=["solve", "build"])
    def test_support_faults_are_refused(self, route):
        box = PortfolioSpec(m=1, support=Polytope.box([-1.0], [1.0]))
        with pytest.raises(SampleOutsideSupport):
            route(box, np.array([[1.0 + 1e-5]]), 0.1)
        empty = PortfolioSpec(m=1, support=Polytope([[1.0], [-1.0]], [0.0, -1.0], 1))
        with pytest.raises(EmptySupport):
            route(empty, np.array([[0.5]]), 0.1)

    @pytest.mark.parametrize("boxed", [False, True], ids=["free", "joint"])
    def test_both_routes_check_the_asset_count(self, boxed):
        box = Polytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6), 3)
        spec = PortfolioSpec(m=3, support=box if boxed else None)
        with pytest.raises(DimensionMismatch):
            solve_portfolio(spec, np.zeros((4, 2)), 0.1)

    @pytest.mark.parametrize("boxed", [False, True], ids=["free", "joint"])
    @pytest.mark.parametrize(
        "data, epsilon",
        [
            (np.zeros((0, 2)), 0.1),
            (np.array([[np.nan, 0.0], [0.0, 0.0]]), 0.1),
            (np.array([[0.0, np.inf]]), 0.1),
            (np.zeros((3, 2)), np.nan),
            (np.zeros((3, 2)), np.inf),
            (np.zeros((3, 2)), -1.0),
        ],
        ids=["no-samples", "nan-sample", "inf-sample", "nan-radius", "inf-radius",
             "negative-radius"],
    )
    def test_inputs_are_admitted_before_any_solve(self, monkeypatch, boxed, data, epsilon):
        def no_solve(*args):
            raise AssertionError("an LP was solved")

        box = Polytope.box(-np.ones(2), np.ones(2))
        spec = PortfolioSpec(m=2, support=box if boxed else None)
        trained = PortfolioDecisionProblem(spec)
        trained.train(np.array([[0.5, -0.5], [0.0, 0.25]]), 0.1)
        for name in ("solve_lp", "_started", "_solve"):
            monkeypatch.setattr(experiments, name, no_solve)
        with pytest.raises(DimensionMismatch):
            trained.train(data, epsilon)
        with pytest.raises(DimensionMismatch):
            solve_portfolio(spec, data, epsilon)
        with pytest.raises(DimensionMismatch):
            build_portfolio_dro(spec, data, epsilon)


def row_by_row_free_program(spec, data, epsilon):
    """The free-support program entered one row at a time through
    LpBuilder: the reference for the block form solve_portfolio writes."""
    N, m = data.shape
    kappa = float(np.max(np.abs(spec.pieces()[0])))
    b = LpBuilder("min")
    x = b.vars("x", m, lb=0.0)
    tau = b.var("tau")
    t = b.var("t", lb=0.0)
    z = b.vars("z", N, lb=0.0)
    obj = {t: epsilon * kappa, tau: spec.rho}
    for j in range(m):
        obj[x[j]] = 0.0 - float(np.mean(data[:, j]))
    for zi in z:
        obj[zi] = spec.rho / (spec.alpha * N)
    b.set_objective(obj)
    b.add_eq({xj: 1.0 for xj in x}, 1.0)
    for i in range(N):
        row = {z[i]: -1.0, tau: -1.0}
        for j in range(m):
            if data[i, j] != 0.0:
                row[x[j]] = 0.0 - data[i, j]
        b.add_le(row, 0.0)
    if spec.ground_norm is GroundNorm.L1:
        for j in range(m):
            b.add_le({x[j]: 1.0, t: -1.0}, 0.0)
    else:
        b.add_le({xj: 1.0 for xj in x} | {t: -1.0}, 0.0)
    return b.build()


class TestFreeSupportProgram:
    @pytest.mark.parametrize("norm_g", [GroundNorm.L1, GroundNorm.LINF])
    @pytest.mark.parametrize("N", [1, 30, 300])
    def test_block_form_is_bit_identical_to_row_by_row(self, monkeypatch, norm_g, N):
        data = np.random.default_rng(N).normal(0.05, 0.2, size=(N, 4))
        data[0, 0] = 0.0
        data[-1, 1] = -0.0
        spec = PortfolioSpec(m=4, rho=3.0, alpha=0.3, ground_norm=norm_g)
        solved = []

        def capture(lp):
            solved.append(lp)
            return solve_lp(lp)

        monkeypatch.setattr(experiments, "solve_lp", capture)
        solve_portfolio(spec, data, 0.07)
        (got,) = solved
        want = row_by_row_free_program(spec, data, 0.07)
        for part in ("costs", "row_coeffs", "row_rhs", "lower", "upper"):
            assert getattr(got, part).shape == getattr(want, part).shape
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part
        assert got.row_relations == want.row_relations
        assert got.names == want.names
        assert got.sense == want.sense


class TestEqualWeightLimit:
    def test_large_radius_forces_equal_weights(self):
        # the norm-of-weights penalty dominates, minimized at x = e/m
        mkt = MarketModel()
        spec = PortfolioSpec()
        data = mkt.sample(12, np.random.default_rng(6))
        res = solve_portfolio(spec, data, 10.0)
        assert np.max(np.abs(res.weights - 0.1)) <= 1e-4


class TestEmpiricalCvar:
    def test_alpha_one_is_the_mean(self):
        L = np.array([3.0, -1.0, 2.0, 0.5])
        assert empirical_cvar(L, 1.0) == pytest.approx(L.mean(), abs=1e-12)

    def test_small_alpha_is_the_maximum(self):
        L = np.array([3.0, -1.0, 2.0, 0.5])
        assert empirical_cvar(L, 0.25) == pytest.approx(3.0, abs=1e-12)

    def test_matches_fine_grid_scan(self):
        rng = np.random.default_rng(7)
        L = rng.normal(size=40)
        grid = np.linspace(L.min() - 1, L.max() + 1, 20_001)
        vals = grid + np.maximum(0.0, L[None, :] - grid[:, None]).mean(axis=1) / 0.3
        assert empirical_cvar(L, 0.3) == pytest.approx(vals.min(), abs=1e-6)
        assert empirical_cvar(L, 0.3) <= vals.min() + 1e-12

    def test_objective_combines_mean_and_cvar(self):
        spec = PortfolioSpec(m=2, rho=2.0, alpha=0.5)
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        w = np.array([0.5, 0.5])
        L = -X @ w  # (-0.5, -0.5, 0.5, 0.5)
        expected = L.mean() + 2.0 * empirical_cvar(L, 0.5)
        assert portfolio_empirical_objective(spec, w, X) == pytest.approx(expected)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.0])
    def test_level_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(DimensionMismatch):
            empirical_cvar(np.array([3.0, -1.0]), alpha)


class TestOutOfSampleObjective:
    def test_matches_monte_carlo(self):
        mkt = MarketModel(m=6)
        spec = PortfolioSpec(m=6)
        w = np.full(6, 1.0 / 6.0)
        analytic = out_of_sample_objective(w, spec, mkt)
        X = mkt.sample(400_000, np.random.default_rng(8))
        mc = portfolio_empirical_objective(spec, w, X)
        L = -X @ w
        se = L.std() / np.sqrt(L.size) * (1.0 + spec.rho / spec.alpha)
        assert abs(analytic - mc) < 4.0 * se + 1e-3

    def test_alpha_one_collapses_to_scaled_mean(self):
        mkt = MarketModel(m=3)
        spec = PortfolioSpec(m=3, rho=2.0, alpha=1.0)
        w = np.array([0.2, 0.3, 0.5])
        mu_l = -w @ mkt.mean()
        assert out_of_sample_objective(w, spec, mkt) == pytest.approx(3.0 * mu_l)

    def test_risk_neutral_reduces_to_mean_loss(self):
        mkt = MarketModel(m=3)
        spec = PortfolioSpec(m=3, rho=0.0)
        w = np.array([1.0, 0.0, 0.0])
        assert out_of_sample_objective(w, spec, mkt) == pytest.approx(-0.03)

    def test_cvar_closed_form_is_bit_identical_to_scipy_stats(self):
        # the normal density at the quantile is written out with ndtri, so
        # that the module loads no scipy.stats; it must not move a bit
        mkt = MarketModel(m=3)
        w = np.array([0.2, 0.3, 0.5])
        mu_l = -float(w @ mkt.mean())
        sd_l = float(np.sqrt(max(float(w @ mkt.covariance() @ w), 0.0)))
        levels = np.concatenate([
            np.linspace(0.0, 1.0, 2002)[1:-1],
            np.geomspace(1e-300, 1e-3, 200),
            1.0 - np.geomspace(1e-16, 1e-3, 100),
        ])
        for alpha in levels:
            spec = PortfolioSpec(m=3, rho=1.5, alpha=float(alpha))
            cvar = mu_l + sd_l * float(norm.pdf(norm.ppf(1.0 - alpha)) / alpha)
            assert out_of_sample_objective(w, spec, mkt) == mu_l + 1.5 * cvar


class TestOrthantOracle:
    def test_dimension_one_is_a_normal_cdf(self):
        assert gaussian_orthant_upper([0.3], [[4.0]]) == pytest.approx(
            norm.cdf(0.15), abs=1e-12
        )

    def test_diagonal_covariance_factorizes(self):
        v2 = gaussian_orthant_upper([0.5, -0.2], np.diag([1.0, 2.0]))
        assert v2 == pytest.approx(
            norm.cdf(0.5) * norm.cdf(-0.2 / np.sqrt(2.0)), abs=1e-8
        )
        v3 = gaussian_orthant_upper([0.5, -0.2, 0.1], np.diag([1.0, 2.0, 0.5]))
        expected = (
            norm.cdf(0.5)
            * norm.cdf(-0.2 / np.sqrt(2.0))
            * norm.cdf(0.1 / np.sqrt(0.5))
        )
        assert v3 == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize(
        "C",
        [
            *[np.full((3, 3), rho) + (1.0 - rho) * np.eye(3)
              for rho in (0.0, 0.3, 0.7, -0.2)],
            np.array([[6.64, 7.23, -0.12], [7.23, 8.29, -0.24], [-0.12, -0.24, 1.0]]),
            np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 9.0]]),
            np.ones((3, 3)),
        ],
        ids=["rho0", "rho0.3", "rho0.7", "rho-0.2", "strong-unequal",
             "perfect-pair", "rank-one"],
    )
    def test_zero_mean_closed_form(self, C):
        # P[Z >= 0] = 1/8 + (asin r01 + asin r02 + asin r12) / (4 pi) for
        # zero-mean trivariate normals, r_ij the pairwise correlations
        sd = np.sqrt(np.diag(C))
        r = C / np.outer(sd, sd)
        expected = 0.125 + (
            np.arcsin(r[0, 1]) + np.arcsin(r[0, 2]) + np.arcsin(r[1, 2])
        ) / (4.0 * np.pi)
        v = gaussian_orthant_upper(np.zeros(3), C)
        assert v == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "mu", [[0.4, -0.7], [0.0, 0.5]], ids=["mixed-signs", "zero-mean"]
    )
    def test_bivariate_against_quadrature(self, mu):
        # condition on the first coordinate: P = int_0^inf density_1 *
        # P[Z_2 >= 0 | Z_1 = z] dz, a normal pdf times a normal cdf
        C = np.array([[1.5, -0.9], [-0.9, 2.0]])
        slope = C[1, 0] / C[0, 0]
        sd2 = np.sqrt(C[1, 1] - slope * C[1, 0])
        expected, _ = integrate.quad(
            lambda z: norm.pdf(z, mu[0], np.sqrt(C[0, 0]))
            * norm.cdf((mu[1] + slope * (z - mu[0])) / sd2),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
        )
        assert gaussian_orthant_upper(mu, C) == pytest.approx(expected, abs=1e-10)

    def test_deterministic_and_bounded_dimensions(self):
        C = np.full((3, 3), 0.4)
        np.fill_diagonal(C, 1.0)
        mu = np.array([0.1, -0.3, 0.2])
        assert gaussian_orthant_upper(mu, C) == gaussian_orthant_upper(mu, C)
        with pytest.raises(DimensionMismatch):
            gaussian_orthant_upper(np.zeros(4), np.eye(4))


    @pytest.mark.parametrize(
        "weights, zero_row",
        [({7: 1.0}, 0), ({8: 1.0}, 1), ({7: 0.4, 8: 0.6}, None)],
        ids=["e7", "e8", "e7-e8-mix"],
    )
    def test_singular_leading_block(self, weights, zero_row):
        # outperforming assets 7, 8, 9 with weights on 7 and 8 only: the
        # first two event rows are zero or collinear, so the leading 2x2
        # covariance block is singular
        market = MarketModel()
        x = np.zeros(market.m)
        for i, w in weights.items():
            x[i] = w
        G = outperformance_region(x, (7, 8, 9)).C
        mu, cov = -G @ market.mean(), G @ market.covariance() @ G.T
        got = gaussian_orthant_upper(mu, cov)
        if zero_row is None:
            # Z_0 and Z_1 are opposite multiples of one normal: both are
            # nonnegative only on a null set
            expected = 0.0
        else:
            # the zero row has mean 0 and variance 0, so it holds surely
            keep = [r for r in range(3) if r != zero_row]
            expected = multivariate_normal(
                mean=-mu[keep], cov=cov[np.ix_(keep, keep)]
            ).cdf(np.zeros(2))
            assert 0.01 < expected < 0.99
        assert got == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("asset, zero_row", [(8, 0), (9, 1)], ids=["e8", "e9"])
    def test_two_assets_with_one_zero_row(self, asset, zero_row):
        # outperforming assets 8 and 9 while holding one of them: that
        # asset's event row is zero, so one coordinate has variance 0
        market = MarketModel()
        x = np.zeros(market.m)
        x[asset] = 1.0
        G = outperformance_region(x, (8, 9)).C
        mu, cov = -G @ market.mean(), G @ market.covariance() @ G.T
        assert cov[zero_row, zero_row] == 0.0 and mu[zero_row] == 0.0
        # the zero row holds surely; the other is a normal tail
        other = 1 - zero_row
        expected = norm.cdf(mu[other] / np.sqrt(cov[other, other]))
        assert 0.01 < expected < 0.99
        got = gaussian_orthant_upper(mu, cov)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_narrow_integrand_after_conditioning(self):
        # a UQ study instance: given the third coordinate, the other two
        # have a covariance eigenvalue of 3.9e-8, so the integrand lives on
        # a short interval from the lower limit x = 0.089 on
        mu = np.array([0.03404868, 0.00404868, -0.02595132])
        cov = np.array([[0.07882978, -0.00483588, 0.03029034],
                        [-0.00483588, 0.00212346, -0.01337532],
                        [0.03029034, -0.01337532, 0.0842509]])
        expected = multivariate_normal(
            mean=-mu, cov=cov, seed=0, abseps=1e-7, maxpts=10_000_000
        ).cdf(np.zeros(3))
        assert expected == pytest.approx(1.483e-4, abs=1e-6)
        assert gaussian_orthant_upper(mu, cov) == pytest.approx(expected, abs=1e-6)


class TestFastUqBounds:
    def test_calibration_solves_one_lp_per_distinct_sample(self, monkeypatch):
        from wdro.calibrate import calibrate_uq_kfold

        calls = []
        nearest = experiments.nearest_point

        def counting(region, point, norm_g):
            calls.append(1)
            return nearest(region, point, norm_g)

        monkeypatch.setattr(experiments, "nearest_point", counting)
        market = MarketModel()
        data = market.sample(30, np.random.default_rng(12))
        region = outperformance_region(np.full(market.m, 0.1), (7, 8, 9))
        outside = {row.tobytes() for row in data[region.violation(data) > 0.0]}
        assert len(outside) >= 5
        calibrate_uq_kfold(
            data, region, (1e-3, 1e-2, 1e-1), k=5, seed=3,
            bound_fns=fast_uq_bounds(region, GroundNorm.L1),
        )
        assert 0 < len(calls) <= len(outside)

    def test_agrees_with_generic_programs(self):
        rng = np.random.default_rng(9)
        cases = []
        while len(cases) < 10:
            m = int(rng.integers(1, 3))
            K = int(rng.integers(1, 3))
            region = Polytope(rng.normal(size=(K, m)), rng.normal(size=K), m)
            if not region.nonempty():
                continue
            X = rng.normal(size=(int(rng.integers(2, 6)), m))
            norm_g = GroundNorm.L1 if rng.random() < 0.5 else GroundNorm.LINF
            cases.append((region, X, norm_g))
        # the free region: certain event, empty complement
        cases.append((Polytope.free(2), rng.normal(size=(3, 2)), GroundNorm.L1))
        for region, X, norm_g in cases:
            j_plus, j_minus = fast_uq_bounds(region, norm_g)
            free = Polytope.free(region.dim)
            for eps in (0.0, 0.1, 0.6):
                p_best = DroProblem(
                    X, free, eps, norm_g, EventIndicator(region, "inside")
                )
                assert j_plus(X, eps) == pytest.approx(
                    worst_case_value(p_best), abs=1e-8
                )
                p_worst = DroProblem(
                    X, free, eps, norm_g, EventIndicator(region, "outside")
                )
                assert j_minus(X, eps) == pytest.approx(
                    1.0 - worst_case_value(p_worst), abs=1e-8
                )

    def test_zero_radius_reduces_to_frequencies(self):
        # the boundary sample 0 counts for the closed region (upper) and
        # for the closed complement (lower), so the bounds differ at
        # radius zero exactly by the boundary mass
        region = Polytope(np.array([[1.0]]), np.array([0.0]), 1)
        X = np.array([[-1.0], [-0.5], [2.0], [0.0]])
        j_plus, j_minus = fast_uq_bounds(region, GroundNorm.L1)
        assert j_plus(X, 0.0) == pytest.approx(0.75)
        assert j_minus(X, 0.0) == pytest.approx(0.5)
        interior = X - 0.25
        j_plus2, j_minus2 = fast_uq_bounds(region, GroundNorm.L1)
        assert j_plus2(interior, 0.0) == pytest.approx(j_minus2(interior, 0.0))

    def test_bounds_are_monotone_and_bracketing(self):
        region = Polytope(np.array([[1.0, 1.0]]), np.array([0.5]), 2)
        X = np.random.default_rng(10).normal(size=(8, 2))
        j_plus, j_minus = fast_uq_bounds(region, GroundNorm.LINF)
        prev_hi, prev_lo = 0.0, 1.0
        for eps in (0.0, 0.05, 0.2, 1.0):
            hi, lo = j_plus(X, eps), j_minus(X, eps)
            assert lo <= hi + 1e-12
            assert hi >= prev_hi - 1e-12 and lo <= prev_lo + 1e-12
            prev_hi, prev_lo = hi, lo
        assert j_plus(X, 50.0) == pytest.approx(1.0)
        assert j_minus(X, 50.0) == pytest.approx(0.0)

    def test_evaluators_refuse_bad_samples_and_radii(self):
        # a NaN sample once counted as inside for the upper bound and
        # turned the lower bound into NaN
        j_plus, j_minus = fast_uq_bounds(Polytope([[1.0]], [0.0], 1))
        X = np.linspace(-1.0, 1.0, 10).reshape(-1, 1)
        bad = X.copy()
        bad[3, 0] = np.nan
        for bound in (j_plus, j_minus):
            with pytest.raises(DimensionMismatch, match="finite"):
                bound(bad, 0.1)
            for eps in (-0.1, np.nan, np.inf):
                with pytest.raises(DimensionMismatch, match="radius"):
                    bound(X, eps)
            with pytest.raises(DimensionMismatch, match="dimension"):
                bound(np.zeros((3, 2)), 0.1)

    def test_empty_region_is_rejected(self):
        empty = Polytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]), 1)
        with pytest.raises(HypothesisViolated):
            fast_uq_bounds(empty, GroundNorm.L1)

    def test_unreachable_complement_is_rejected(self):
        everything = Polytope(np.array([[0.0, 0.0]]), np.array([1.0]), 2)
        j_plus, j_minus = fast_uq_bounds(everything, GroundNorm.L1)
        X = np.zeros((3, 2))
        assert j_plus(X, 0.3) == pytest.approx(1.0)
        with pytest.raises(HypothesisViolated):
            j_minus(X, 0.3)


class TestOutperformanceRegion:
    def test_rows_compare_portfolio_to_assets(self):
        w = np.array([0.5, 0.5, 0.0])
        region = outperformance_region(w, [2])
        assert np.allclose(region.C, [[-0.5, -0.5, 1.0]])
        assert np.allclose(region.d, [0.0])
        # xi with portfolio return 1.0 and asset-3 return 0.5 qualifies
        assert region.violation(np.array([1.0, 1.0, 0.5]))[0] <= 0.0
        assert region.violation(np.array([0.0, 0.0, 0.5]))[0] > 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: outperformance_region(np.ones(3) / 3, [5]),
            lambda: outperformance_region(np.ones(3) / 3, [-1]),
            lambda: outperformance_region(np.ones(3) / 3, [1.0]),
            lambda: outperformance_region(np.ones(3) / 3, [True]),
            lambda: calibrate_uq_kfold(
                np.random.default_rng(0).normal(size=(20, 3)),
                Polytope([[1.0, -1.0]], [0.0], 2),
                k=2,
                bound_fns=fast_uq_bounds(Polytope([[1.0, -1.0]], [0.0], 2)),
            ),
        ],
        ids=["index-past-end", "index-negative", "index-float", "index-bool",
             "region-dimension"],
    )
    def test_uq_inputs_name_their_fault(self, call):
        with pytest.raises(DimensionMismatch):
            call()

    def test_gaussian_reduction_matches_monte_carlo(self):
        mkt = MarketModel(m=4)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        region = outperformance_region(w, [2, 3])
        G = region.C
        p = gaussian_orthant_upper(-G @ mkt.mean(), G @ mkt.covariance() @ G.T)
        X = mkt.sample(400_000, np.random.default_rng(12))
        freq = float(np.mean(np.all(X @ G.T <= 0.0, axis=1)))
        se = np.sqrt(max(freq * (1 - freq), 1e-8) / X.shape[0])
        assert abs(p - freq) < 4.0 * se + 1e-4


class TestDecisionAdapter:
    def test_trained_adapter_refuses_another_asset_count(self):
        problem = PortfolioDecisionProblem(PortfolioSpec(m=2))
        problem.train(np.array([[0.5, -0.5], [0.0, 0.25]]), 0.1)
        with pytest.raises(DimensionMismatch):
            problem.train(np.zeros((3, 3)), 0.1)

    def test_train_and_score_round_trip(self):
        mkt = MarketModel(m=3)
        spec = PortfolioSpec(m=3)
        problem = PortfolioDecisionProblem(spec)
        data = mkt.sample(12, np.random.default_rng(13))
        decision = problem.train(data, 0.05)
        assert decision.weights.shape == (3,)
        assert decision.weights.min() >= -1e-9
        assert np.sum(decision.weights) == pytest.approx(1.0, abs=1e-9)
        score = problem.score(decision, data)
        assert score == pytest.approx(
            portfolio_empirical_objective(spec, decision.weights, data)
        )


    def test_kfold_radii_do_not_depend_on_warm_starts(self, monkeypatch):
        spec = PortfolioSpec()
        data = MarketModel().sample(40, np.random.default_rng(19))
        grid = tuple(np.geomspace(1e-3, 1.0, 7))
        warm = calibrate_kfold(data, PortfolioDecisionProblem(spec), grid, seed=2)
        monkeypatch.setattr(experiments, "_solve", lambda eng, lp: solve_lp(lp))
        cold = calibrate_kfold(data, PortfolioDecisionProblem(spec), grid, seed=2)
        assert warm.fold_radii == cold.fold_radii
        assert warm.radius == cold.radius

    @pytest.mark.parametrize("boxed", [False, True], ids=["free", "polytope"])
    def test_train_warm_starts_on_other_samples_only_on_free_support(
        self, monkeypatch, boxed
    ):
        seen, solves = [], []

        def recording(lp, warm=None):
            seen.append(warm is not None)
            return simplex._started(lp, warm)

        def counting(eng, lp):
            solves.append(eng)
            return simplex._solve(eng, lp)

        monkeypatch.setattr(experiments, "_started", recording)
        monkeypatch.setattr(experiments, "_solve", counting)
        support = Polytope.box(-np.ones(3), np.ones(3)) if boxed else None
        problem = PortfolioDecisionProblem(PortfolioSpec(m=3, support=support))
        data = MarketModel(m=3).sample(16, np.random.default_rng(13))
        superset = np.vstack([data, MarketModel(m=3).sample(4, np.random.default_rng(14))])
        for samples, eps in (
            (data, 0.1),
            (data.copy(), 0.2),  # equal
            (data[:-3], 0.2),  # subset
            (data[::-1], 0.05),  # permuted
            (superset, 0.3),  # superset
            (superset.copy(), 0.1),  # equal
        ):
            problem.train(samples, eps)
        # equal samples step the live engine and start none
        other = not boxed
        assert seen == [False, other, other, other]
        assert len(solves) == 6
        assert solves[1] is solves[0] and solves[5] is solves[4]


class TestMappedWarmStarts:
    """A basis mapped onto other samples starts the solve (no fallback to
    the slack basis) and ends at the cold solve's answer."""

    GRID = (0.001, 0.01, 0.1, 1.0)

    @staticmethod
    def _count_starts(monkeypatch):
        starts, start_warm = [], simplex._start_warm

        def recording(eng, warm):
            starts.append(start_warm(eng, warm))
            return starts[-1]

        monkeypatch.setattr(simplex, "_start_warm", recording)
        return starts

    @pytest.mark.parametrize("norm_g", [GroundNorm.L1, GroundNorm.LINF])
    def test_mapped_starts_match_cold_solves(self, monkeypatch, norm_g):
        spec = PortfolioSpec(ground_norm=norm_g)
        market = MarketModel()
        data = market.sample(40, np.random.default_rng(21))
        perm = np.random.default_rng(22).permutation(40)
        sets = [np.delete(data, block, axis=0) for block in np.array_split(perm, 5)]
        sets.append(data[perm[:32]])  # a permuted holdout split
        sets.append(np.vstack([data, data[[3, 3, 17]]]))  # duplicated samples
        sets.append(np.vstack([data, market.sample(10, np.random.default_rng(23))]))

        starts = self._count_starts(monkeypatch)
        problem = PortfolioDecisionProblem(spec)
        gap_tol = SolverConfig().gap_tol
        for samples in sets:
            for eps in self.GRID:
                got = problem.train(samples, eps)
                cold = solve_portfolio(spec, samples, eps)
                assert abs(got.certificate - cold.certificate) <= gap_tol * (
                    1.0 + abs(cold.certificate)
                )
                assert np.max(np.abs(got.weights - cold.weights)) <= 1e-9
        # every sample set after the first, and no cold solve, passed a
        # basis; the other radii stepped the set's engine
        assert starts == [True] * (len(sets) - 1)

    @pytest.mark.parametrize(
        "run, make_config",
        [(run_portfolio_study, PortfolioStudyConfig), (run_uq_study, UqStudyConfig)],
        ids=["portfolio", "uq"],
    )
    def test_one_run_study_makes_one_cold_solve(self, monkeypatch, run, make_config):
        cold = []

        def recording(start):
            def recorded(lp, warm=None):
                cold.append(warm is None)
                return start(lp, warm)
            return recorded

        monkeypatch.setattr(experiments, "solve_lp", recording(solve_lp))
        monkeypatch.setattr(experiments, "_started", recording(simplex._started))
        starts = self._count_starts(monkeypatch)
        run(make_config(runs=1))
        assert sum(cold) == 1
        assert starts == [True] * (len(cold) - 1)


STEP_CASES = {
    "free-l1": (PortfolioSpec(), 60),
    "free-linf": (PortfolioSpec(ground_norm=GroundNorm.LINF), 60),
    "box": (PortfolioSpec(m=3, support=Polytope.box(-np.ones(3), np.ones(3))), 20),
}

# four sweeps of a fine grid: a long path of short steps
FINE = tuple(np.geomspace(1e-3, 3.0, 40))
LONG_PATH = (FINE + FINE[::-1]) * 2


class TestSteppedEngine:
    """On samples with the same bytes, train reprices its live engine
    rather than starting one (ROADMAP item 8)."""

    @staticmethod
    def _events(monkeypatch):
        """One "p" per pivot and one "r" per rebuild of B^-1, over every engine."""
        log = []
        pivot, rebuild = simplex._Engine._pivot_update, simplex._Engine._refactor

        def pivoting(eng, *args):
            log.append("p")
            return pivot(eng, *args)

        def rebuilding(eng, *args, **kwargs):
            log.append("r")
            return rebuild(eng, *args, **kwargs)

        monkeypatch.setattr(simplex._Engine, "_pivot_update", pivoting)
        monkeypatch.setattr(simplex._Engine, "_refactor", rebuilding)
        return log

    @staticmethod
    def _count_engines(monkeypatch):
        started = []

        def recording(lp, warm=None):
            started.append(warm)
            return simplex._started(lp, warm)

        monkeypatch.setattr(experiments, "_started", recording)
        return started

    @staticmethod
    def _assert_matches_cold(spec, data, eps, got):
        cold = solve_portfolio(spec, data, eps)
        gap_tol = SolverConfig().gap_tol
        assert abs(got.certificate - cold.certificate) <= gap_tol * (
            1.0 + abs(cold.certificate)
        )
        assert np.max(np.abs(got.weights - cold.weights)) <= 1e-9

    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_repriced_program_is_the_program_at_that_radius(self, case):
        spec, N = STEP_CASES[case]
        data = MarketModel(m=spec.m).sample(N, np.random.default_rng(3))
        lp = experiments._portfolio_program(spec, data, 0.05)
        for eps in (0.0, 0.013, 2.5):
            got = experiments._at_radius(spec, lp, eps)
            want = experiments._portfolio_program(spec, data, eps)
            for part in ("costs", "row_coeffs", "row_rhs", "lower", "upper"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part
            assert (got.row_relations, got.names) == (want.row_relations, want.names)

    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_stepped_decisions_match_cold_solves(self, monkeypatch, case):
        spec, N = STEP_CASES[case]
        data = MarketModel(m=spec.m).sample(N, np.random.default_rng(3))
        problem = PortfolioDecisionProblem(spec)
        problem.train(data, 0.05)
        started = self._count_engines(monkeypatch)
        log = self._events(monkeypatch)
        ascending = (0.001, 0.01, 0.1, 1.0)
        jump_down = (0.3, 0.0)  # a refit radius, then the sample-average refit
        stepped, pivots = [], 0
        for eps in ascending + jump_down + LONG_PATH:
            before = len(log)
            stepped.append((eps, problem.train(data.copy(), eps)))
            pivots += log[before:].count("p")
        assert not started
        # under the Linf ground norm the penalty eps * ||x||_1 is constant
        # on the simplex, so the decision never moves
        if case != "free-linf":
            assert pivots > simplex.REFACTOR_EVERY
        for eps, got in stepped:
            self._assert_matches_cold(spec, data, eps, got)

    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_certificate_path_is_concave_and_nondecreasing(self, case):
        # J(eps) is a minimum of functions affine and nondecreasing in eps
        spec, N = STEP_CASES[case]
        data = MarketModel(m=spec.m).sample(N, np.random.default_rng(3))
        problem = PortfolioDecisionProblem(spec)
        eps = np.array((0.0,) + FINE)
        J = np.array([problem.train(data, e).certificate for e in eps])
        # each certificate within tol of its optimum
        tol = SolverConfig().gap_tol * (1.0 + np.abs(J).max())
        assert np.all(np.diff(J) >= -2 * tol)
        step = np.diff(eps)
        slopes = np.diff(J) / step
        assert np.all(np.diff(slopes) <= 2 * tol * (1 / step[:-1] + 1 / step[1:]))

    @pytest.mark.parametrize("case", ["free-l1", "box"])
    def test_rebuilds_count_pivots_across_steps(self, monkeypatch, case):
        spec, N = STEP_CASES[case]
        data = MarketModel(m=spec.m).sample(N, np.random.default_rng(3))
        problem = PortfolioDecisionProblem(spec)
        problem.train(data, LONG_PATH[0])
        log = self._events(monkeypatch)
        per_step = []
        for eps in LONG_PATH[1:]:
            before = len(log)
            problem.train(data, eps)
            per_step.append(log[before:].count("p"))
        # no step reaches REFACTOR_EVERY pivots alone, the path does
        assert max(per_step) < simplex.REFACTOR_EVERY < sum(per_step)
        between = "".join(log).split("r")
        assert max(map(len, between)) <= simplex.REFACTOR_EVERY

    def test_a_step_is_checked_at_its_own_radius(self, monkeypatch):
        spec = PortfolioSpec()
        data = MarketModel().sample(40, np.random.default_rng(5))
        problem = PortfolioDecisionProblem(spec)
        problem.train(data, 0.01)
        checked, restarts = [], []
        restart = simplex._Engine.restart

        def rejecting(lp, x, y, cfg):
            checked.append(lp.costs.copy())
            return False

        def counted(eng):
            restarts.append(eng)
            return restart(eng)

        with monkeypatch.context() as patch:
            patch.setattr(simplex, "_certifies_optimal", rejecting)
            patch.setattr(simplex._Engine, "restart", counted)
            with pytest.raises(NumericalBreakdown):
                problem.train(data, 0.2)
        want = experiments._portfolio_program(spec, data, 0.2).costs
        assert len(checked) == 3 and len(restarts) == 2
        assert all(costs.tobytes() == want.tobytes() for costs in checked)
        # the failed step left no engine: the next train starts one
        started = self._count_engines(monkeypatch)
        got = problem.train(data, 0.2)
        assert len(started) == 1
        self._assert_matches_cold(spec, data, 0.2, got)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -1.0])
    def test_bad_radius_on_equal_samples_leaves_the_engine(self, monkeypatch, epsilon):
        spec = PortfolioSpec(m=2)
        samples = np.array([[0.5, -0.5], [0.0, 0.25]])
        problem = PortfolioDecisionProblem(spec)
        problem.train(samples, 0.1)

        def untouched(*args):
            raise AssertionError("the engine was touched")

        with monkeypatch.context() as patch:
            patch.setattr(simplex._Engine, "reprice", untouched)
            for name in ("_started", "_solve", "_admit_portfolio"):
                patch.setattr(experiments, name, untouched)
            with pytest.raises(DimensionMismatch):
                problem.train(samples, epsilon)
        started = self._count_engines(monkeypatch)
        got = problem.train(samples, 0.2)
        assert not started
        self._assert_matches_cold(spec, samples, 0.2, got)

    @pytest.mark.parametrize("boxed", [False, True], ids=["free", "polytope"])
    def test_each_sample_set_is_admitted_once(self, monkeypatch, boxed):
        admitted = []
        admit = experiments._admit_portfolio

        def counting(spec, data, epsilon):
            admitted.append(data)
            return admit(spec, data, epsilon)

        monkeypatch.setattr(experiments, "_admit_portfolio", counting)
        support = Polytope.box(-np.ones(3), np.ones(3)) if boxed else None
        spec = PortfolioSpec(m=3, support=support)
        data = MarketModel(m=3).sample(12, np.random.default_rng(4))
        problem = PortfolioDecisionProblem(spec)
        for samples in (data, data.copy(), data[:-2]):
            for eps in (0.01, 0.1, 1.0):
                problem.train(samples, eps)
        assert len(admitted) == 2
        solve_portfolio(spec, data, 0.1)
        build_portfolio_dro(spec, data, 0.1)
        assert len(admitted) == 4

    def test_projection_warns_once_per_sample_set(self):
        spec = PortfolioSpec(m=2, support=Polytope.box(-np.ones(2), np.ones(2)))
        data = np.array([[1.0 + 1e-8, 0.5], [0.0, -0.25]])
        problem = PortfolioDecisionProblem(spec)
        with pytest.warns(UserWarning, match="projected") as record:
            for eps in (0.01, 0.1, 1.0):
                problem.train(data, eps)
        assert [w.filename for w in record] == [__file__]


@pytest.fixture(scope="module")
def report():
    cfg = PortfolioStudyConfig(
        runs=4, n_calibration=(20,), n_curve=(20,),
        epsilons=(0.0, 0.01, 0.1, 1.0),
        calibration_grid=(0.001, 0.01, 0.1), master_seed=99,
    )
    return cfg, run_portfolio_study(cfg)


@pytest.fixture(scope="module")
def uq_report():
    cfg = UqStudyConfig(
        runs=3, n_values=(25,), epsilons=(0.0, 0.01, 0.1),
        portfolio_grid=(0.001, 0.01, 0.1),
        uq_grid=(0.0001, 0.001, 0.01, 0.05, 0.2), master_seed=17,
    )
    return cfg, run_uq_study(cfg)


class TestPortfolioStudy:
    def test_tables_have_expected_shape(self, report):
        cfg, rep = report
        assert len(rep.tables["fig4_oos"][1]) == cfg.runs * len(cfg.epsilons)
        assert len(rep.tables["fig5_reliability"][1]) == len(cfg.epsilons)
        assert len(rep.tables["fig6_calibration"][1]) == cfg.runs
        assert len(rep.tables["fig9_radii"][1]) == 1

    def test_certificate_covers_at_large_radius(self, report):
        _, rep = report
        rows = rep.tables["fig4_oos"][1]
        assert all(row[5] == 1 for row in rows if row[2] == 1.0)

    def test_write_is_byte_reproducible(self, report, tmp_path):
        cfg, rep = report
        first, second = tmp_path / "a", tmp_path / "b"
        paths_a = rep.write(first)
        paths_b = run_portfolio_study(cfg).write(second)
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_warm_starts_change_nothing_beyond_tolerance(self, report, monkeypatch):
        cfg, warm = report
        monkeypatch.setattr(experiments, "_solve", lambda eng, lp: solve_lp(lp))
        cold = run_portfolio_study(cfg)
        for name, radius_cols, value_cols in (
            ("fig4_oos", (), (3, 4)),
            ("fig6_calibration", (2, 3), (4, 5, 6)),
        ):
            for w, c in zip(warm.tables[name][1], cold.tables[name][1]):
                assert [w[i] for i in radius_cols] == [c[i] for i in radius_cols]
                for i in value_cols:
                    assert w[i] == pytest.approx(c[i], rel=1e-9)

    def test_manifest_records_replay_inputs(self, report):
        cfg, rep = report
        assert rep.manifest["master_seed"] == cfg.master_seed
        assert rep.manifest["calibration_grid"] == list(cfg.calibration_grid)
        assert "versions" in rep.manifest

    def test_config_validation(self):
        with pytest.raises(DimensionMismatch):
            PortfolioStudyConfig(runs=0).validate()
        with pytest.raises(DimensionMismatch):
            PortfolioStudyConfig(market=MarketModel(m=3)).validate()


class TestUqStudy:
    def test_rows_bracket_in_order(self, uq_report):
        cfg, rep = uq_report
        rows = rep.tables["fig10_uq_curves"][1]
        assert len(rows) == cfg.runs * len(cfg.epsilons)
        for _, _, eps, lo, hi, p_true, covered in rows:
            assert lo <= hi + 1e-12
            assert 0.0 <= p_true <= 1.0
            assert covered == int(lo <= p_true <= hi)
            if eps == 0.0:
                assert lo == pytest.approx(hi)

    def test_calibrated_rows_use_both_sides(self, uq_report):
        cfg, rep = uq_report
        rows = rep.tables["fig11_calibrated"][1]
        assert len(rows) == cfg.runs
        for _, _, up_r, lo_r, hi, lo, p_true, covered in rows:
            assert up_r in cfg.uq_grid or up_r > 0  # averaged fold radii
            assert lo <= hi + 1e-12
            assert covered == int(lo <= p_true <= hi)

    def test_reproducible(self, uq_report):
        cfg, rep = uq_report
        again = run_uq_study(cfg)
        assert again.tables["fig11_calibrated"][1] == rep.tables["fig11_calibrated"][1]

    def test_config_validation(self):
        with pytest.raises(DimensionMismatch):
            UqStudyConfig(risky_assets=0).validate()
        with pytest.raises(DimensionMismatch):
            UqStudyConfig(
                portfolio=PortfolioSpec(support=Polytope.box(-np.ones(10), np.ones(10)))
            ).validate()


def test_explicit_free_support_is_free_support():
    spec = PortfolioSpec(m=4, support=Polytope.free(4))
    market = MarketModel(m=4)
    for config, purposes in (
        (PortfolioStudyConfig(market=market, portfolio=spec), ("holdout", "cv")),
        (UqStudyConfig(market=market, portfolio=spec), ("cv", "uq")),
    ):
        config.validate()
        manifest = experiments._manifest(config, "study", purposes)
        assert manifest["portfolio"]["support"] == "free"


@pytest.mark.parametrize(
    "make_config", [PortfolioStudyConfig, UqStudyConfig], ids=["portfolio", "uq"]
)
@pytest.mark.parametrize(
    "fields",
    [{"runs": 0}, {"epsilons": ()}, {"epsilons": (-0.5, 0.0)},
     {"epsilons": (0.0, np.nan)}, {"epsilons": (np.inf,)},
     {"market": MarketModel(m=3)}],
    ids=["no-runs", "no-radii", "negative-radius", "nan-radius", "inf-radius",
         "m-mismatch"],
)
def test_both_study_configs_check_their_shared_fields(make_config, fields):
    with pytest.raises(DimensionMismatch):
        make_config(**fields).validate()


def config_from_manifest(make_config, manifest):
    """A study config rebuilt from its manifest alone; every config field
    must be recorded there."""
    market = MarketModel(**manifest["market"])
    spec = manifest["portfolio"]
    support = None
    if spec["support"] != "free":
        support = Polytope(spec["support"]["C"], spec["support"]["d"], market.m)
    portfolio = PortfolioSpec(
        m=market.m, rho=spec["rho"], alpha=spec["alpha"], support=support,
        ground_norm=GroundNorm(spec["ground_norm"]),
    )
    names = {f.name for f in dataclasses.fields(make_config)} - {"market", "portfolio"}
    assert names <= set(manifest)
    fields = {
        name: tuple(manifest[name]) if isinstance(manifest[name], list) else manifest[name]
        for name in names
    }
    return make_config(**fields, market=market, portfolio=portfolio)


REPLAY_MARKET = MarketModel(m=4, systematic_scale=0.03)
BOX3 = Polytope.box(-np.ones(3), np.ones(3))


@pytest.mark.parametrize(
    "run, config",
    [
        (run_portfolio_study, PortfolioStudyConfig(
            runs=2, n_curve=(15,), n_calibration=(15, 20), epsilons=(0.0, 0.1),
            calibration_grid=(0.01, 0.1), k_folds=3, master_seed=7,
            market=REPLAY_MARKET, portfolio=PortfolioSpec(m=4, rho=5.0),
        )),
        (run_uq_study, UqStudyConfig(
            runs=2, n_values=(15, 20), epsilons=(0.0, 0.1),
            portfolio_grid=(0.01, 0.1), uq_grid=(0.001, 0.01), k_folds=3,
            risky_assets=2, master_seed=8, market=REPLAY_MARKET,
            portfolio=PortfolioSpec(m=4, alpha=0.3, ground_norm=GroundNorm.LINF),
        )),
        (run_portfolio_study, PortfolioStudyConfig(
            runs=1, n_curve=(12,), n_calibration=(12,), epsilons=(0.0, 0.1),
            calibration_grid=(0.01, 0.1), k_folds=3, master_seed=9,
            market=MarketModel(m=3), portfolio=PortfolioSpec(m=3, support=BOX3),
        )),
    ],
    ids=["portfolio", "uq", "portfolio-box"],
)
def test_manifest_alone_replays_the_study(tmp_path, run, config):
    first = run(config).write(tmp_path / "first")
    manifest = json.loads(first["manifest"].read_text())
    replayed = config_from_manifest(type(config), manifest)
    support = config.portfolio.support
    if support is not None:
        # a Polytope's array fields make the generated __eq__ raise
        rebuilt = replayed.portfolio.support
        assert np.array_equal(rebuilt.C, support.C)
        assert np.array_equal(rebuilt.d, support.d)
        replayed = dataclasses.replace(
            replayed, portfolio=dataclasses.replace(replayed.portfolio, support=support)
        )
    assert replayed == config
    second = run(replayed).write(tmp_path / "second")
    for stem, path in first.items():
        assert path.read_bytes() == second[stem].read_bytes(), stem


class TestBracketCoverage:
    def test_calibrated_bracket_covers_most_runs(self):
        # scaled-down version of the probability study: the k-fold
        # calibrated bracket should contain the true Gaussian probability
        # in a clear majority of runs
        cfg = UqStudyConfig(
            runs=10, n_values=(80,), epsilons=(0.01,),
            portfolio_grid=(0.003, 0.03), k_folds=3, master_seed=23,
        )
        rep = run_uq_study(cfg)
        rows = rep.tables["fig11_calibrated"][1]
        coverage = np.mean([row[7] for row in rows])
        assert coverage >= 0.7
