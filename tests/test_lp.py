"""Engine and program-structure tests.

The randomized blocks compare the embedded simplex against two
independent routes: direct vertex enumeration on fully bounded instances
and scipy HiGHS on general ones.  Dual conventions, certificates, rays,
determinism and the documented failure modes are each pinned by a
dedicated case.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import brute_force_lp, random_bounded_lp, random_general_lp, solve_with_scipy

import wdro
import wdro.experiments as experiments
import wdro.simplex as simplex
from wdro.errors import MalformedProgram, NumericalBreakdown, TooLarge
from wdro.experiments import MarketModel, PortfolioSpec, build_portfolio_dro
from wdro.geometry import Polytope
from wdro.lp import EQ, GE, LE, LinearProgram, LpBuilder, SolverConfig, dump_program
from wdro.simplex import solve_lp


# complementary-slackness residual accepted by the duality checks
COMP_TOL = 1e-8


def _lp(sense, c, rows, rels, rhs, lo, hi):
    return LinearProgram(
        sense=sense,
        costs=np.array(c, float),
        row_coeffs=np.array(rows, float).reshape(len(rels), len(c)),
        row_relations=tuple(rels),
        row_rhs=np.array(rhs, float),
        lower=np.array(lo, float),
        upper=np.array(hi, float),
    )


class TestBasicOutcomes:
    def test_two_sided_single_variable(self):
        lp = _lp("min", [1.0], [[1.0], [1.0]], [GE, LE], [3.0, 10.0], [-np.inf], [np.inf])
        s = solve_lp(lp)
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(3.0, abs=1e-12)
        assert s.duals[0] == pytest.approx(1.0, abs=1e-12)
        assert s.duals[1] == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_box(self):
        lp = _lp("min", [1.0], [[1.0], [1.0]], [GE, LE], [4.0, 2.0], [-np.inf], [np.inf])
        s = solve_lp(lp)
        assert s.status == "infeasible"
        assert s.primal is None
        assert s.duals is not None

    def test_unbounded_with_ray(self):
        lp = _lp("max", [1.0], [[1.0]], [GE], [0.0], [-np.inf], [np.inf])
        s = solve_lp(lp)
        assert s.status == "unbounded"
        assert s.ray is not None
        # The ray improves the objective and preserves feasibility.
        assert float(lp.costs @ s.ray) > 0
        assert (lp.row_coeffs @ s.ray).item() >= 0

    def test_no_rows_bounded_by_boxes(self):
        lp = _lp("max", [2.0, -1.0], np.zeros((0, 2)), [], [], [0.0, -1.0], [3.0, 5.0])
        s = solve_lp(lp)
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(7.0)
        assert np.allclose(s.primal, [3.0, -1.0])

    def test_fixed_variables(self):
        lp = _lp("min", [1.0, 1.0], [[1.0, 1.0]], [GE], [3.0], [2.0, 0.0], [2.0, np.inf])
        s = solve_lp(lp)
        assert s.status == "optimal"
        assert np.allclose(s.primal, [2.0, 1.0])

    def test_equality_with_bounds(self):
        lp = _lp("min", [1.0, 2.0], [[1.0, 1.0]], [EQ], [2.0], [0.0, 0.0], [1.5, 1.5])
        s = solve_lp(lp)
        assert s.status == "optimal"
        assert np.allclose(s.primal, [1.5, 0.5])
        assert s.objective_value == pytest.approx(2.5)


class TestValidation:
    def test_nan_cost_rejected(self):
        with pytest.raises(MalformedProgram):
            _lp("min", [np.nan], np.zeros((0, 1)), [], [], [0.0], [1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MalformedProgram):
            LinearProgram(
                sense="min",
                costs=np.zeros(2),
                row_coeffs=np.zeros((1, 3)),
                row_relations=(LE,),
                row_rhs=np.zeros(1),
                lower=np.zeros(2),
                upper=np.ones(2),
            )

    def test_crossed_bounds_rejected(self):
        with pytest.raises(MalformedProgram):
            _lp("min", [1.0], np.zeros((0, 1)), [], [], [2.0], [1.0])

    def test_bad_relation_rejected(self):
        with pytest.raises(MalformedProgram):
            _lp("min", [1.0], [[1.0]], ["<"], [1.0], [0.0], [1.0])

    def test_infinite_rhs_rejected(self):
        with pytest.raises(MalformedProgram):
            _lp("min", [1.0], [[1.0]], [LE], [np.inf], [0.0], [1.0])


class TestAgainstVertexEnumeration:
    """Independent oracle: enumerate candidate vertices from active sets."""

    def test_random_polytopes(self):
        rng = np.random.default_rng(20260823)
        checked = 0
        for _ in range(150):
            lp = random_bounded_lp(rng)
            expect, _ = brute_force_lp(lp)
            got = solve_lp(lp)
            if expect is None:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal"
                assert got.objective_value == pytest.approx(expect, abs=1e-7)
                checked += 1
        assert checked > 60  # the generator must exercise the optimal path


class TestAgainstScipy:
    def test_random_general_instances(self):
        rng = np.random.default_rng(7)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(250):
            lp = random_general_lp(rng)
            ref_status, ref_val, _ = solve_with_scipy(lp)
            got = solve_lp(lp)
            if ref_status == "other":
                continue
            assert got.status == ref_status
            statuses[ref_status] += 1
            if ref_status == "optimal":
                assert got.objective_value == pytest.approx(ref_val, abs=1e-6)
        assert min(statuses.values()) > 5  # all three outcomes exercised

    def test_transportation_with_redundant_equalities(self):
        # Classic rank-deficient system: one marginal row is implied by the
        # others.  The engine must park the artificial on the redundant row.
        supplies = np.array([0.5, 0.5])
        demands = np.array([0.3, 0.45, 0.25])
        cost = np.array([[1.0, 2.0, 3.0], [2.5, 0.5, 1.5]])
        b = LpBuilder("min")
        f = [[b.var(f"f[{i},{j}]", lb=0.0) for j in range(3)] for i in range(2)]
        b.set_objective({f[i][j]: cost[i, j] for i in range(2) for j in range(3)})
        for i in range(2):
            b.add_eq({f[i][j]: 1.0 for j in range(3)}, supplies[i])
        for j in range(3):
            b.add_eq({f[i][j]: 1.0 for i in range(2)}, demands[j])
        lp = b.build()
        got = solve_lp(lp)
        ref_status, ref_val, _ = solve_with_scipy(lp)
        assert got.status == ref_status == "optimal"
        assert got.objective_value == pytest.approx(ref_val, abs=1e-9)


def _dual_quantities(lp, sol):
    """Reduced costs z = c - A'y in the user sense and the bound-aware dual
    objective value.  A positive reduced cost pins the variable to its lower
    bound when minimizing and to its upper bound when maximizing."""
    y = sol.duals
    z = lp.costs - lp.row_coeffs.T @ y
    dual_obj = float(lp.row_rhs @ y)
    minimizing = lp.sense == "min"
    for j in range(lp.n_vars):
        if z[j] == 0.0:
            continue
        pick_lower = (z[j] > 0) == minimizing
        bound = lp.lower[j] if pick_lower else lp.upper[j]
        if np.isfinite(bound):
            dual_obj += z[j] * bound
    return z, dual_obj


class TestDualityProperties:
    def test_strong_duality_and_complementarity(self):
        rng = np.random.default_rng(99)
        cfg = SolverConfig()
        seen = 0
        for _ in range(150):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            seen += 1
            z, dual_obj = _dual_quantities(lp, sol)
            sign = 1.0 if lp.sense == "min" else -1.0
            # Dual feasibility: multiplier signs per relation.
            for i, rel in enumerate(lp.row_relations):
                if rel == GE:
                    assert sign * sol.duals[i] >= -COMP_TOL
                elif rel == LE:
                    assert sign * sol.duals[i] <= COMP_TOL
            # Reduced-cost signs against active bounds.
            x = sol.primal
            for j in range(lp.n_vars):
                interior_lo = x[j] > lp.lower[j] + 1e-7
                interior_hi = x[j] < lp.upper[j] - 1e-7
                if interior_lo and interior_hi:
                    assert abs(z[j]) <= COMP_TOL
                elif interior_lo:
                    assert sign * z[j] <= COMP_TOL
                elif interior_hi:
                    assert sign * z[j] >= -COMP_TOL
            # Row complementary slackness.
            if lp.n_rows:
                slack = lp.row_rhs - lp.row_coeffs @ x
                assert np.max(np.abs(sol.duals * slack)) <= COMP_TOL
            # Strong duality within the relative gap tolerance.
            gap = abs(sol.objective_value - dual_obj)
            assert gap <= cfg.gap_tol * (1.0 + abs(sol.objective_value))
        assert seen > 60

    def test_primal_feasibility_residuals(self):
        rng = np.random.default_rng(4242)
        cfg = SolverConfig()
        for _ in range(100):
            lp = random_general_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            x = sol.primal
            assert np.all(x >= lp.lower - cfg.feas_tol)
            assert np.all(x <= lp.upper + cfg.feas_tol)
            r = lp.row_coeffs @ x
            for i, rel in enumerate(lp.row_relations):
                if rel == LE:
                    assert r[i] <= lp.row_rhs[i] + cfg.feas_tol * (1 + abs(lp.row_rhs[i]))
                elif rel == GE:
                    assert r[i] >= lp.row_rhs[i] - cfg.feas_tol * (1 + abs(lp.row_rhs[i]))
                else:
                    assert abs(r[i] - lp.row_rhs[i]) <= cfg.feas_tol * (1 + abs(lp.row_rhs[i]))


class TestInfeasibilityCertificate:
    def test_farkas_style_certificate(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(250):
            lp = random_general_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "infeasible":
                continue
            found += 1
            y = sol.duals
            # y prices rows; aggregated with the best the box allows, the
            # system still misses b by a positive amount.
            combo = lp.row_coeffs.T @ y
            supported = 0.0
            ok = True
            for j in range(lp.n_vars):
                if combo[j] > 1e-11:
                    if not np.isfinite(lp.upper[j]):
                        ok = False
                        break
                    supported += combo[j] * lp.upper[j]
                elif combo[j] < -1e-11:
                    if not np.isfinite(lp.lower[j]):
                        ok = False
                        break
                    supported += combo[j] * lp.lower[j]
            if not ok:
                continue
            gap = float(lp.row_rhs @ y) - supported
            assert gap > 1e-10
        assert found > 10


class TestDegeneracy:
    def test_beale_cycling_example_terminates(self):
        # Highly degenerate program that famously cycles under naive
        # Dantzig pricing; the Bland fallback must finish it.
        lp = _lp(
            "min",
            [-0.75, 150.0, -0.02, 6.0],
            [
                [0.25, -60.0, -1.0 / 25.0, 9.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            [LE, LE, LE],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
            [np.inf] * 4,
        )
        s = solve_lp(lp)
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(-0.05, abs=1e-9)

    def test_massively_degenerate_vertex(self):
        # Many redundant rows meeting at the same point.
        b = LpBuilder("min")
        x = b.var("x", lb=0.0)
        y = b.var("y", lb=0.0)
        b.set_objective({x: -1.0, y: -1.0})
        for k in range(12):
            b.add_le({x: 1.0 + 1e-12 * k, y: 1.0}, 1.0)
        s = solve_lp(b.build())
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_artificial_left_basic_by_phase_one_is_pivoted_out(self, monkeypatch):
        drop = simplex._Engine.drop_artificial
        basic = []

        def spying_drop(eng):
            basic.append(eng.art in eng.basis)
            drop(eng)

        monkeypatch.setattr(simplex._Engine, "drop_artificial", spying_drop)
        rng = np.random.default_rng(0)
        seen = 0
        for _ in range(300):
            # Small integer data make phase one end on ties.
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            lp = _lp(
                "min",
                rng.integers(-2, 3, size=n),
                rng.integers(-2, 3, size=(m, n)),
                [(LE, GE, EQ)[int(k)] for k in rng.integers(3, size=m)],
                rng.integers(-2, 3, size=m),
                np.where(rng.random(n) < 0.7, 0.0, -np.inf),
                np.where(rng.random(n) < 0.5, 2.0, np.inf),
            )
            basic.clear()
            got = solve_lp(lp)
            ref_status, ref_val, _ = solve_with_scipy(lp)
            assert got.status == ref_status
            if ref_status == "optimal":
                assert got.objective_value == pytest.approx(ref_val, abs=1e-9)
                assert got.basis[0].max() < lp.n_vars + lp.n_rows
                seen += any(basic)
        assert seen > 5


class TestDeterminism:
    def test_bit_identical_resolves(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lp = random_general_lp(rng)
            a = solve_lp(lp)
            b = solve_lp(lp)
            assert a.status == b.status
            if a.primal is not None:
                assert np.array_equal(a.primal, b.primal)
            if a.duals is not None:
                assert np.array_equal(a.duals, b.duals)
            assert a.iterations == b.iterations


def _engine(lp):
    return simplex._Engine(lp, SolverConfig())


def _basis_matrix(eng, lp, basis):
    """Columns ``basis`` of [A | I | a], with a the engine's artificial column."""
    full = np.hstack([lp.row_coeffs, np.eye(lp.n_rows), eng.A[:, [eng.n_struct]]])
    return full[:, basis]


def _refactored(eng, basis, repair=False):
    """B^-1 after refactoring ``basis``, one column per unit vector."""
    eng.basis = np.asarray(basis, dtype=np.int64)
    eng._refactor(repair)
    return np.column_stack([eng.inv_times(e) for e in np.eye(eng.m)])


def _dense_lp(rng, m, n):
    return LinearProgram(
        sense="min", costs=rng.uniform(-1, 1, n), row_coeffs=rng.uniform(-3, 3, (m, n)),
        row_relations=(LE,) * m, row_rhs=rng.uniform(-1, 1, m),
        lower=np.zeros(n), upper=np.full(n, np.inf),
    )


class TestBasisInverse:
    """The engine's kernel of B^-1, G = A[R, J]^-1: the four pivot updates,
    and the refactorization that inverts only the block of the basis no
    basic slack covers."""

    def test_every_kind_of_pivot_keeps_the_kernel_an_inverse(self):
        rng = np.random.default_rng(53)
        kinds = Counter()
        for m, n in ((3, 2), (12, 9), (30, 40)):
            lp = _dense_lp(rng, m, n)
            eng = _engine(lp)
            _refactored(eng, n + np.arange(m))
            for _ in range(5 * m):
                # a structural column or a slack enters, even odds
                nonbasic = np.setdiff1d(np.arange(n + m), eng.basis)
                kind = nonbasic[(nonbasic >= n) == (rng.random() < 0.5)]
                j = int(rng.choice(kind if kind.size else nonbasic))
                w = eng.ftran(j)
                # a slack or a column of J leaves, even odds, at a pivot at
                # least half the largest
                big = np.abs(w) >= 0.5 * np.abs(w).max()
                kind = big & ((eng.basis >= n) == (rng.random() < 0.5))
                r = int(rng.choice(np.flatnonzero(kind if kind.any() else big)))
                leaving = int(eng.basis[r])
                kinds[leaving >= n, j >= n] += 1
                eng.basis[r] = j
                eng._pivot_update(r, w, leaving)

                cols = eng.basis[eng.J]
                assert np.array_equal(eng.AJ, lp.row_coeffs[:, cols])
                block = lp.row_coeffs[np.ix_(eng.R, cols)]
                assert np.allclose(eng.G @ block, np.eye(eng.k), atol=1e-9)
                B = _basis_matrix(eng, lp, eng.basis)
                probe = int(rng.integers(n + m))
                col = np.hstack([lp.row_coeffs, np.eye(m)])[:, probe]
                assert np.allclose(eng.ftran(probe), np.linalg.solve(B, col), atol=1e-9)
                c_B = np.where(eng.basis < n, rng.standard_normal(m), 0.0)
                assert np.allclose(eng.btran(c_B), np.linalg.solve(B.T, c_B), atol=1e-9)
        # (slack leaves, slack enters): J swap, Schur complement, border, row swap
        assert set(kinds) == {(False, False), (False, True), (True, False), (True, True)}
        assert min(kinds.values()) >= 10

    def test_refactor_inverts_every_kind_of_basis(self):
        rng = np.random.default_rng(59)
        bases = []
        for m, n in ((1, 3), (6, 9), (25, 30)):
            lp = _dense_lp(rng, m, n)
            eng = _engine(lp)
            eng.A[:, n] = rng.uniform(-1, 1, m)  # the artificial column
            slack_only = n + np.arange(m)
            all_structural = rng.permutation(n)[:m]
            # Slack-heavy: the artificial and k - 1 structural columns take
            # the rows that no basic slack covers.
            k = max(1, m // 4)
            rows = rng.permutation(m)
            mixed = np.concatenate([[n + m], rng.permutation(n)[: k - 1], n + rows[k:]])
            bases += [(eng, lp, b) for b in (slack_only, all_structural, rng.permutation(mixed))]
        checked = 0
        while checked < 30:
            lp = random_general_lp(rng, n_max=8, m_max=8)
            sol = solve_lp(lp)
            if sol.is_optimal:
                bases.append((_engine(lp), lp, sol.basis[0]))
                checked += 1
        for eng, lp, basis in bases:
            B_inv = _refactored(eng, basis)
            B = _basis_matrix(eng, lp, basis)
            assert np.allclose(B_inv @ B, np.eye(lp.n_rows), atol=1e-9)

    def test_repeated_slack_or_singular_block_raises(self):
        # rows 0 and 1 are equal, so columns 0 and 1 cannot both be basic
        lp = _lp("min", [1, 1, 1], [[1, 2, 0], [1, 2, 0], [0, 1, 1]], [LE] * 3,
                 [1, 1, 1], [0] * 3, [np.inf] * 3)
        n = lp.n_vars
        for basis in ([n, n, n + 2], [n + 1, n + 1, 2], [0, 1, n + 2], [2, 2, n]):
            with pytest.raises(NumericalBreakdown):
                _refactored(_engine(lp), basis)

    def test_repair_fits_repeated_or_singular_bases(self):
        # the bases of the test above, refactored as a restart does
        lp = _lp("min", [1, 1, 1], [[1, 2, 0], [1, 2, 0], [0, 1, 1]], [LE] * 3,
                 [1, 1, 1], [0] * 3, [np.inf] * 3)
        n = lp.n_vars
        for basis in ([n, n, n + 2], [n + 1, n + 1, 2], [0, 1, n + 2], [2, 2, n]):
            eng = _engine(lp)
            B_inv = _refactored(eng, basis, repair=True)
            assert np.unique(eng.basis).size == eng.basis.size == lp.n_rows
            B = _basis_matrix(eng, lp, eng.basis)
            assert np.allclose(B_inv @ B, np.eye(lp.n_rows), atol=1e-12)

    def test_repair_keeps_as_many_columns_as_the_rank(self):
        rng = np.random.default_rng(61)
        tol = SolverConfig().pivot_tol
        for _ in range(40):
            m = int(rng.integers(2, 12))
            n, rank = m + 3, int(rng.integers(1, m))
            coeffs = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
            assert simplex._independent(coeffs, tol).size == rank
            # too short or too long, so always repaired; some columns slacks
            size = m + int(rng.choice([-2, -1, 1, 2]))
            basis = rng.permutation(n + m)[:size]
            lp = _with(_dense_lp(rng, m, n), row_coeffs=coeffs)
            eng = _engine(lp)
            B_inv = _refactored(eng, basis, repair=True)
            structural, slacks = basis[basis < n], basis[basis >= n] - n
            rows = np.setdiff1d(np.arange(m), slacks)
            kept = np.count_nonzero(eng.basis < n)
            assert kept == np.linalg.matrix_rank(coeffs[np.ix_(rows, structural)])
            assert np.unique(eng.basis).size == eng.basis.size == m
            B = _basis_matrix(eng, lp, eng.basis)
            assert np.allclose(B_inv @ B, np.eye(m), atol=1e-8)


def _with(lp, **changes):
    fields = dict(
        sense=lp.sense, costs=lp.costs, row_coeffs=lp.row_coeffs,
        row_relations=lp.row_relations, row_rhs=lp.row_rhs,
        lower=lp.lower, upper=lp.upper,
    )
    return LinearProgram(**{**fields, **changes})


def _same_solution(a, b):
    assert a.status == b.status
    assert a.iterations == b.iterations
    for x, y in ((a.primal, b.primal), (a.duals, b.duals)):
        assert (x is None) == (y is None)
        if x is not None:
            assert np.array_equal(x, y)
    assert (a.basis is None) == (b.basis is None)
    if a.basis is not None:
        assert all(np.array_equal(x, y) for x, y in zip(a.basis, b.basis))


def _warm(lp, basis):
    """A solve of ``lp`` started from ``basis``."""
    return simplex._solve(simplex._started(lp, basis), lp)


class TestWarmStart:
    def test_cost_change_matches_cold_solve(self):
        rng = np.random.default_rng(31)
        cfg = SolverConfig()
        checked = 0
        for _ in range(120):
            lp = random_general_lp(rng, n_max=7, m_max=7)
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            assert first.basis is not None
            new = _with(lp, costs=np.round(rng.uniform(-2, 2, size=lp.n_vars), 2))
            cold = solve_lp(new)
            warm = _warm(new, first.basis)
            assert warm.status == cold.status
            if cold.is_optimal:
                obj = cold.objective_value
                assert abs(warm.objective_value - obj) <= cfg.gap_tol * (1.0 + abs(obj))
                y = -warm.duals if new.sense == "max" else warm.duals
                assert simplex._certifies_optimal(new, warm.primal, y, cfg)
                checked += 1
        assert checked > 15

    def test_repriced_engine_matches_cold_solves(self):
        # one engine through a chain of cost changes, whatever each ends in
        rng = np.random.default_rng(37)
        cfg = SolverConfig()
        seen = set()
        for _ in range(60):
            lp = random_general_lp(rng, n_max=7, m_max=7)
            eng = simplex._started(lp)
            got = simplex._solve(eng, lp)
            for _ in range(4):
                cold = solve_lp(lp)
                assert got.status == cold.status
                seen.add(got.status)
                if cold.is_optimal:
                    obj = cold.objective_value
                    assert abs(got.objective_value - obj) <= cfg.gap_tol * (1.0 + abs(obj))
                    y = -got.duals if lp.sense == "max" else got.duals
                    assert simplex._certifies_optimal(lp, got.primal, y, cfg)
                lp = _with(lp, costs=np.round(rng.uniform(-2, 2, size=lp.n_vars), 2))
                eng.reprice(lp)
                got = simplex._solve(eng, lp)
        assert seen == {"optimal", "infeasible", "unbounded"}

    def test_rhs_change_repairs_the_old_basis(self, monkeypatch):
        restart = simplex._Engine.restart
        repairs = []

        def counted_restart(eng):
            # Only a restart that runs phase one spends iterations.
            before = eng.iterations
            infeasibility = restart(eng)
            repairs.append(eng.iterations > before)
            return infeasibility

        monkeypatch.setattr(simplex._Engine, "restart", counted_restart)
        rng = np.random.default_rng(37)
        repaired = 0
        for _ in range(200):
            lp = random_general_lp(rng, n_max=7, m_max=7)
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            new = _with(lp, row_rhs=lp.row_rhs + np.round(rng.uniform(-1, 1, lp.n_rows), 2))
            repairs.clear()
            warm = _warm(new, first.basis)
            ref_status, ref_val, _ = solve_with_scipy(new)
            assert warm.status == ref_status
            if ref_status == "optimal":
                assert warm.objective_value == pytest.approx(ref_val, abs=1e-7)
                repaired += bool(repairs) and repairs[0]
        assert repaired > 5  # the old basis was infeasible and restart() fixed it

    def test_short_or_singular_bases_are_repaired(self):
        cfg = SolverConfig()
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(20):
            lp = random_general_lp(rng)
            cold = solve_lp(lp)
            if not cold.is_optimal:
                continue
            basis, at_upper = cold.basis
            assert simplex._start_warm(_engine(lp), (basis[:-1], at_upper))
            got = _warm(lp, (basis[:-1], at_upper))
            obj = cold.objective_value
            assert abs(got.objective_value - obj) <= cfg.gap_tol * (1.0 + abs(obj))
            checked += 1
        assert checked > 5

        # x and y are basic at the optimum of the first program; in the
        # second, same-shaped program their columns are parallel.
        first = _lp("max", [1, 1], [[1, 0], [0, 1]], [LE, LE], [1, 1], [0, 0], [np.inf] * 2)
        second = _lp("max", [1, 2], [[1, 1], [2, 2]], [LE, LE], [1, 2], [0, 0], [np.inf] * 2)
        sol = solve_lp(first)
        assert sorted(sol.basis[0]) == [0, 1]
        assert _engine(second).start(*sol.basis) <= cfg.feas_tol
        assert simplex._start_warm(_engine(second), sol.basis)
        got = _warm(second, sol.basis)
        assert got.objective_value == pytest.approx(2.0, abs=cfg.gap_tol * 3.0)

    def test_cold_solve_is_a_start_from_the_slack_basis(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            lp = random_general_lp(rng)
            n, m = lp.n_vars, lp.n_rows
            s_lo, s_hi = simplex._slack_bounds(lp.row_relations)
            lo = np.concatenate([lp.lower, s_lo])
            hi = np.concatenate([lp.upper, s_hi])
            slack = (n + np.arange(m), np.abs(hi) < np.abs(lo))
            _same_solution(solve_lp(lp), _warm(lp, slack))

    def test_bit_identical_warm_resolves(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            lp = random_general_lp(rng)
            first = solve_lp(lp)
            if not first.is_optimal:
                continue
            new = _with(lp, costs=lp.costs[::-1].copy())
            _same_solution(_warm(new, first.basis), _warm(new, first.basis))

    def test_neighbouring_radius_takes_fewer_pivots(self, monkeypatch):
        solves = []

        def recording(solve):
            def recorded(*args):
                sol = solve(*args)
                solves.append(sol)
                return sol
            return recorded

        monkeypatch.setattr(experiments, "_solve", recording(simplex._solve))
        monkeypatch.setattr(experiments, "solve_lp", recording(solve_lp))
        spec = PortfolioSpec()
        data = MarketModel().sample(300, np.random.default_rng(5))
        problem = experiments.PortfolioDecisionProblem(spec)
        problem.train(data, 0.01)
        warm = problem.train(data, 0.0316)  # reprices the engine of 0.01
        cold = experiments.solve_portfolio(spec, data, 0.0316)
        first, repriced, cold_sol = solves
        assert first.primal.size == 10 + 2 + 300  # the free-support shortcut
        assert repriced.iterations < cold_sol.iterations
        gap_tol = SolverConfig().gap_tol
        assert abs(warm.certificate - cold.certificate) <= gap_tol * (1.0 + abs(cold.certificate))


class TestSizeGuard:
    def test_engine_refuses_before_allocating(self):
        m = 20_000  # no columns, but the engine's slacks and inverse need > 9 GB
        lp = LinearProgram(
            sense="min", costs=np.zeros(0), row_coeffs=np.zeros((m, 0)),
            row_relations=(LE,) * m, row_rhs=np.zeros(m),
            lower=np.zeros(0), upper=np.zeros(0),
        )
        with pytest.raises(TooLarge):
            solve_lp(lp)

    def test_boxed_portfolio_program_at_300_samples_fails_fast(self):
        # 12601 x 6312: the row matrix alone would take 636 MB
        data = MarketModel().sample(300, np.random.default_rng(3))
        support = Polytope(-np.eye(10), np.ones(10), 10)
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            build_portfolio_dro(PortfolioSpec(support=support), data, 0.1)
        assert time.perf_counter() - start < 1.0


class TestBuilder:
    def test_columns_are_indices_into_the_primal(self):
        b = LpBuilder("max")
        x = b.var("x", ub=2.0)
        y = b.vars("y", 3, lb=0.0, ub=1.0)
        assert [x, *y] == [0, 1, 2, 3]
        b.set_objective({x: 1.0, y[0]: 2.0, y[1]: -1.0, y[2]: 0.5})
        b.add_le({x: 1.0, y[0]: 1.0}, 2.5)
        lp = b.build()
        assert [lp.names[v] for v in (x, *y)] == ["x", "y[0]", "y[1]", "y[2]"]
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        expected = {x: 1.5, y[0]: 1.0, y[1]: 0.0, y[2]: 1.0}
        for v, value in expected.items():
            assert sol.primal[v] == pytest.approx(value, abs=1e-12)


class TestDump:
    def test_round_trip_exact_floats(self):
        b = LpBuilder("min")
        x = b.var("x", lb=0.1, ub=0.3)
        b.set_objective({x: 1.0 / 3.0})
        b.add_le({x: 2.0 / 3.0}, 0.2)
        text = dump_program(b.build())
        assert repr(1.0 / 3.0) in text
        assert repr(2.0 / 3.0) in text
        assert "<=" in text and "bounds" in text


class TestBreakdownPath:
    def test_iteration_cap_raises(self):
        eng = simplex._Engine(
            LinearProgram(
                sense="min",
                costs=np.ones(3),
                row_coeffs=np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
                row_relations=(GE, GE),
                row_rhs=np.array([5.0, 1.0]),
                lower=np.zeros(3),
                upper=np.full(3, np.inf),
            ),
            SolverConfig(max_iterations=1),
        )
        with pytest.raises(NumericalBreakdown, match="iteration limit"):
            eng.start(*eng.slack_start)
            eng.phase_two()


class TestFinalCheck:
    """A point is reported optimal only after the check against the
    original program passes; a failing point is recovered or refused."""

    def test_check_accepts_optimum_and_rejects_perturbations(self):
        lp = _lp("min", [1.0, 2.0], [[1.0, 1.0]], [EQ], [2.0], [0.0, 0.0], [1.5, 1.5])
        cfg = SolverConfig()
        sol = solve_lp(lp)
        x, y = sol.primal, sol.duals
        assert simplex._certifies_optimal(lp, x, y, cfg)
        # row residual
        assert not simplex._certifies_optimal(lp, x + [1e-6, 0.0], y, cfg)
        # bound violation that keeps the row satisfied
        assert not simplex._certifies_optimal(lp, np.array([1.5 + 1e-6, 0.5 - 1e-6]), y, cfg)
        # feasible but not optimal: the gap exposes it
        assert not simplex._certifies_optimal(lp, np.array([1.0, 1.0]), y, cfg)
        # dual pointing at an infinite bound
        free = _lp("min", [0.0], [[1.0]], [GE], [1.0], [-np.inf], [np.inf])
        assert not simplex._certifies_optimal(free, np.array([1.0]), np.array([1.0]), cfg)
        assert not simplex._certifies_optimal(lp, np.array([np.nan, 0.5]), y, cfg)

    def test_stale_point_is_recomputed_from_the_basis(self, monkeypatch):
        run = simplex._Engine.phase_two
        calls = []

        def corrupt(eng):
            # Shift the basic structural values away from what the basis
            # determines, as an inverse update gone wrong would.
            outcome = run(eng)
            structural = eng.basis[eng.basis < eng.n_struct] if not calls else []
            eng.x[structural] += 1.0
            calls.append(len(structural))
            return outcome

        monkeypatch.setattr(simplex._Engine, "phase_two", corrupt)
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(40):
            lp = random_general_lp(rng)
            calls.clear()
            got = solve_lp(lp)
            ref_status, ref_val, _ = solve_with_scipy(lp)
            if ref_status != "optimal":
                continue
            assert got.status == "optimal"
            assert got.objective_value == pytest.approx(ref_val, abs=1e-7)
            if calls[0]:
                assert len(calls) >= 2  # the corrupted point was not returned
                checked += 1
        assert checked > 5

    def test_infeasible_basis_is_repaired_by_phase_one(self, monkeypatch):
        run = simplex._Engine.phase_two
        phase_twos, restarts = [], []

        def swap_in_column(eng):
            # Exchange a nonbasic column into the basis without a ratio
            # test, which generally leaves the basic point out of bounds.
            outcome = run(eng)
            phase_twos.append(outcome)
            if len(phase_twos) > 1 or outcome != simplex._OPTIMAL:
                return outcome
            for j in range(eng.n_struct):
                if eng.status[j] == simplex._BASIC:
                    continue
                w = eng.ftran(j)
                r = int(np.argmax(np.abs(w)))
                leaving = int(eng.basis[r])
                if abs(w[r]) < 0.1 or eng.fixed[leaving]:
                    continue
                if np.isfinite(eng.lo[leaving]):
                    eng.status[leaving], eng.x[leaving] = simplex._AT_LOWER, eng.lo[leaving]
                elif np.isfinite(eng.hi[leaving]):
                    eng.status[leaving], eng.x[leaving] = simplex._AT_UPPER, eng.hi[leaving]
                else:
                    continue
                eng.basis[r] = j
                eng.status[j] = simplex._BASIC
                eng._refactor()
                break
            return outcome

        restart = simplex._Engine.restart

        def counted_restart(eng):
            # Restarts of the final check only; a start restarts too.  Only
            # a restart that runs phase one spends iterations.
            before = eng.iterations
            infeasibility = restart(eng)
            if phase_twos:
                restarts.append(eng.iterations > before)
            return infeasibility

        monkeypatch.setattr(simplex._Engine, "phase_two", swap_in_column)
        monkeypatch.setattr(simplex._Engine, "restart", counted_restart)
        rng = np.random.default_rng(23)
        repaired = 0
        for _ in range(80):
            lp = random_general_lp(rng)
            phase_twos.clear()
            restarts.clear()
            got = solve_lp(lp)
            ref_status, ref_val, _ = solve_with_scipy(lp)
            if ref_status != "optimal":
                continue
            assert got.status == "optimal"
            assert got.objective_value == pytest.approx(ref_val, abs=1e-7)
            repaired += any(restarts)
        assert repaired > 5  # the restart's phase one was exercised

    def test_singular_basis_is_repaired_on_restart(self):
        # A structural basic column overwritten by a copy of a basic slack
        # leaves the basis singular: the restart repairs it.
        cfg = SolverConfig()
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(60):
            lp = random_general_lp(rng)
            ref_status, ref_val, _ = solve_with_scipy(lp)
            eng = _engine(lp)
            if ref_status != "optimal" or eng.start(*eng.slack_start) > cfg.feas_tol:
                continue
            assert eng.phase_two() == simplex._OPTIMAL
            structural = np.flatnonzero(eng.basis < lp.n_vars)
            slack = np.flatnonzero(eng.basis >= lp.n_vars)
            if not (structural.size and slack.size):
                continue
            r = int(structural[0])
            gone = int(eng.basis[r])
            eng.basis[r] = eng.basis[slack[0]]
            eng._to_bound([gone], np.array([False]))
            assert eng.restart() <= cfg.feas_tol
            assert eng.phase_two() == simplex._OPTIMAL
            assert np.unique(eng.basis).size == lp.n_rows
            x = eng.x[: lp.n_vars]
            assert simplex._certifies_optimal(lp, x, eng.raw_duals(eng.cost), cfg)
            assert lp.costs @ x == pytest.approx(ref_val, abs=1e-7)
            checked += 1
        assert checked > 5

    def test_singular_rebuild_in_phase_two_restarts(self, monkeypatch):
        # The origin is feasible, so every pivot is in phase two.
        rng = np.random.default_rng(71)
        m, n = 40, 60
        lp = LinearProgram(
            sense="max", costs=rng.uniform(-1, 1, n), row_coeffs=rng.standard_normal((m, n)),
            row_relations=(LE,) * m, row_rhs=rng.uniform(1, 2, m),
            lower=np.zeros(n), upper=np.ones(n),
        )
        inv, refactor, restart = np.linalg.inv, simplex._Engine._refactor, simplex._Engine.restart
        refused, restarts = [], []
        armed = [False]

        def refusing(a):
            if armed[0]:
                armed[0] = False
                refused.append(True)
                raise np.linalg.LinAlgError("refused once")
            return inv(a)

        def rebuilding(eng, repair=False):
            # only the periodic rebuild inside a phase refactors without repair
            periodic = not repair and eng.since_rebuild >= simplex.REFACTOR_EVERY
            armed[0] = periodic and not refused
            return refactor(eng, repair)

        def counted(eng):
            restarts.append(eng.iterations)
            return restart(eng)

        monkeypatch.setattr(np.linalg, "inv", refusing)
        monkeypatch.setattr(simplex._Engine, "_refactor", rebuilding)
        monkeypatch.setattr(simplex._Engine, "restart", counted)
        got = solve_lp(lp)
        assert refused == [True]
        # the start's restart, then the one after the refused rebuild
        assert len(restarts) == 2 and restarts[0] == 0 < restarts[1]
        ref_status, ref_val, _ = solve_with_scipy(lp)
        assert got.status == ref_status == "optimal"
        cfg = SolverConfig()
        assert abs(got.objective_value - ref_val) <= cfg.gap_tol * (1.0 + abs(ref_val))
        assert simplex._certifies_optimal(lp, got.primal, -got.duals, cfg)

    def test_point_that_never_verifies_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_certifies_optimal", lambda *args: False)
        lp = _lp("min", [1.0], [[1.0], [1.0]], [GE, LE], [3.0, 10.0], [-np.inf], [np.inf])
        with pytest.raises(NumericalBreakdown):
            solve_lp(lp)


_BOXED_PORTFOLIO_CHILD = """
import json
import numpy as np
from wdro.experiments import MarketModel, PortfolioSpec, build_portfolio_dro
from wdro.geometry import Polytope
from wdro.simplex import solve_lp

data = MarketModel().sample(30, np.random.default_rng([20230515, 8]))
support = Polytope(-np.eye(10), np.ones(10), 10)
sol = solve_lp(build_portfolio_dro(PortfolioSpec(support=support), data, 10.0))
print(json.dumps({"status": sol.status, "value": sol.objective_value,
                  "weights": sol.primal[:10].tolist()}))
"""


def test_boxed_portfolio_lp_independent_of_blas_threads():
    """The boxed-support portfolio LP of acceptance criterion 8 (1261 rows,
    642 columns).  Under two OpenBLAS threads the rounding once led the
    ratio test to a pivot 1e-14 of its column's scale, and the engine
    returned an infeasible point as optimal.  Each thread count runs in its
    own process because OpenBLAS reads the setting at load time."""
    data = MarketModel().sample(30, np.random.default_rng([20230515, 8]))
    support = Polytope(-np.eye(10), np.ones(10), 10)
    lp = build_portfolio_dro(PortfolioSpec(support=support), data, 10.0)
    ref_status, ref_val, _ = solve_with_scipy(lp)
    assert ref_status == "optimal"

    src = str(Path(wdro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _BOXED_PORTFOLIO_CHILD],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    }
    gap_tol = SolverConfig().gap_tol
    try:
        for threads, child in children.items():
            out, _ = child.communicate(timeout=600)
            assert child.returncode == 0, f"child with {threads} thread(s) failed"
            got = json.loads(out)
            assert got["status"] == "optimal"
            assert abs(got["value"] - ref_val) <= gap_tol * (1.0 + abs(ref_val))
            assert np.max(np.abs(np.array(got["weights"]) - 0.1)) <= 1e-4
    finally:
        for child in children.values():
            child.kill()
            child.wait()
