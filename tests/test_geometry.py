"""Norm, polytope and vertex-enumeration tests.

Box supports admit closed-form projections, which give exact oracles;
vertex enumeration is checked against an LP solve over the same set
(optimum must be attained at an enumerated vertex).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import solve_with_scipy

from wdro import geometry, simplex
from wdro.errors import (
    DimensionMismatch,
    EmptySupport,
    NormUnsupported,
    TooLarge,
    UnboundedPolyhedron,
)
from wdro.geometry import (
    GroundNorm,
    Polytope,
    dual_norm_value,
    enumerate_vertices,
    nearest_point,
    norm_value,
)
from wdro.lp import LpBuilder
from wdro.simplex import solve_lp

L1, LINF = GroundNorm.L1, GroundNorm.LINF


class TestNorms:
    def test_values(self):
        x = np.array([3.0, -4.0, 0.5])
        assert norm_value(x, L1) == pytest.approx(7.5)
        assert norm_value(x, LINF) == pytest.approx(4.0)
        assert dual_norm_value(x, L1) == pytest.approx(4.0)
        assert dual_norm_value(x, LINF) == pytest.approx(7.5)

    def test_duality_is_an_involution(self):
        assert L1.dual is LINF
        assert LINF.dual is L1
        assert L1.dual.dual is L1

    def test_parse(self):
        assert GroundNorm.parse("l1") is L1
        assert GroundNorm.parse("linf") is LINF
        with pytest.raises(NormUnsupported):
            GroundNorm.parse("l2")

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=6),
        st.lists(st.floats(-100, 100), min_size=1, max_size=6),
        st.sampled_from([GroundNorm.L1, GroundNorm.LINF]),
    )
    @settings(max_examples=200, deadline=None)
    def test_norm_axioms_and_hoelder(self, xs, ys, norm):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        nx, ny = norm_value(x, norm), norm_value(y, norm)
        assert nx >= 0
        assert norm_value(x + y, norm) <= nx + ny + 1e-9 * (1 + nx + ny)
        assert norm_value(2.5 * x, norm) == pytest.approx(2.5 * nx, rel=1e-12, abs=1e-12)
        # Hoelder pairing with the dual norm.
        assert abs(x @ y) <= nx * dual_norm_value(y, norm) * (1 + 1e-12) + 1e-12


class TestPolytope:
    def test_box_membership(self):
        p = Polytope.box([-1.0, 0.0], [2.0, 1.0])
        assert p.violation(np.array([0.0, 0.5])).item() <= 0.0
        assert p.violation(np.array([0.0, 1.5])).item() > 0.0
        assert p.violation(np.array([[3.0, 0.0]])).item() == pytest.approx(1.0)

    def test_free_support(self):
        p = Polytope.free(3)
        assert p.is_free
        assert p.violation(np.array([1e6, -1e6, 0.0])).item() <= 0.0

    def test_emptiness_detection(self):
        p = Polytope([[1.0], [-1.0]], [-1.0, -1.0], 1)  # x <= -1 and x >= 1
        assert not p.nonempty()

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            Polytope(np.ones((1, 2)), np.ones(1), dim=3)
        with pytest.raises(DimensionMismatch):
            Polytope.box([0.0], [1.0, 2.0])


class TestNearestPoint:
    def test_box_clamp_oracle(self):
        rng = np.random.default_rng(61)
        for norm in (L1, LINF):
            for _ in range(20):
                dim = int(rng.integers(1, 4))
                lo = rng.uniform(-2, 0, dim)
                hi = lo + rng.uniform(0.5, 2, dim)
                pt = rng.uniform(-4, 4, dim)
                per_axis = np.maximum(np.maximum(lo - pt, pt - hi), 0.0)
                expect = per_axis.sum() if norm is L1 else per_axis.max()
                dist, proj = nearest_point(Polytope.box(lo, hi), pt, norm)
                assert dist == pytest.approx(float(expect), abs=1e-8)
                assert np.all(proj >= lo - 1e-8) and np.all(proj <= hi + 1e-8)

    def test_inside_point_projects_to_itself(self):
        p = Polytope.box([0.0, 0.0], [1.0, 1.0])
        dist, proj = nearest_point(p, np.array([0.25, 0.75]), L1)
        assert dist == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(proj, [0.25, 0.75], atol=1e-8)


def primal_distance_lp(p: Polytope, point, norm):
    """min ||x - point|| over {Cx <= d}, the program nearest_point dualizes."""
    b = LpBuilder("min")
    x = b.vars("x", p.dim)
    t = b.var("t", lb=0.0)
    b.set_objective({t: 1.0})
    b.add_norm_le([({x[j]: 1.0}, -point[j]) for j in range(p.dim)], t, norm)
    for row, rhs in zip(p.C, p.d):
        b.add_le(dict(zip(x, row)), rhs)
    return b.build()


class TestNearestPointOnPolytopes:
    """General (non-box) polytopes, checked against HiGHS on the primal
    distance program."""

    @pytest.fixture(autouse=True)
    def no_phase_one(self, monkeypatch):
        # the dual's slack basis is feasible, so phase one never runs
        def refuse(engine):
            raise AssertionError("phase one ran")

        monkeypatch.setattr(simplex._Engine, "phase_one", refuse)

    @pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
    def test_random_polytopes_against_highs(self, norm):
        rng = np.random.default_rng(18)
        for _ in range(40):
            dim = int(rng.integers(1, 5))
            C = rng.normal(size=(int(rng.integers(1, 7)), dim))
            center = rng.normal(size=dim)
            p = Polytope(C, C @ center + rng.uniform(0.1, 1.0, C.shape[0]), dim)
            point = center + rng.normal(scale=3.0, size=dim)
            dist, proj = nearest_point(p, point, norm)
            assert np.all(p.C @ proj <= p.d + 1e-9)
            assert norm_value(proj - point, norm) == pytest.approx(dist, abs=1e-9)
            status, value, _ = solve_with_scipy(primal_distance_lp(p, point, norm))
            assert status == "optimal"
            assert dist == pytest.approx(value, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
    def test_empty_polytope_raises(self, norm):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            a = rng.normal(size=dim)
            # a'x <= -1 and a'x >= 1 under some other rows
            C = np.vstack([rng.normal(size=(2, dim)), a, -a])
            d = np.concatenate([rng.uniform(0.0, 1.0, 2), [-1.0, -1.0]])
            with pytest.raises(EmptySupport):
                nearest_point(Polytope(C, d, dim), rng.normal(size=dim), norm)


class TestEnumerateVertices:
    def test_probability_simplex(self):
        A = np.ones((1, 4))
        verts = enumerate_vertices(A, np.array([1.0]))
        assert verts.shape == (4, 4)
        expect = {tuple(np.eye(4)[i]) for i in range(4)}
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == expect

    def test_two_row_interval_flow(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        verts = enumerate_vertices(A, np.array([1.0, 1.0]))
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == {(1.0, 0.0, 1.0), (0.0, 1.0, 0.0)}

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedPolyhedron):
            enumerate_vertices(np.array([[1.0, -1.0]]), np.array([0.0]))

    def test_too_large_raises(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_BASES", 10)
        A = np.vstack([np.ones(30), np.arange(30.0)])
        with pytest.raises(TooLarge):
            enumerate_vertices(A, np.array([1.0, 1.0]))

    def test_inconsistent_system_is_empty(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        verts = enumerate_vertices(A, np.array([1.0, 3.0]))
        assert verts.shape == (0, 2)

    def test_duplicate_rows_unchanged(self):
        A = np.ones((1, 3))
        A2 = np.vstack([A, A])
        v1 = enumerate_vertices(A, np.array([1.0]))
        v2 = enumerate_vertices(A2, np.array([1.0, 1.0]))
        assert {tuple(np.round(v, 9)) for v in v1} == {tuple(np.round(v, 9)) for v in v2}

    def test_lp_optimum_attained_at_a_vertex(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, min(n, 4)))
            A = np.round(rng.uniform(-2, 2, size=(r, n)), 2)
            theta0 = np.round(rng.uniform(0, 2, size=n), 2)
            A = np.vstack([A, np.ones(n)])  # forces boundedness
            b = A @ theta0
            verts = enumerate_vertices(A, b)
            assert verts.shape[0] >= 1
            c = np.round(rng.uniform(-1, 1, size=n), 2)

            bld = LpBuilder("min")
            th = bld.vars("theta", n, lb=0.0)
            bld.set_objective({th[j]: c[j] for j in range(n)})
            for i in range(A.shape[0]):
                bld.add_eq({th[j]: A[i, j] for j in range(n)}, b[i])
            sol = solve_lp(bld.build())
            assert sol.status == "optimal"
            assert min(verts @ c) == pytest.approx(sol.objective_value, abs=1e-6)
