"""Worst-case expectation programs against independent oracles.

The main oracle discretizes the 1-d problem: mass moves from the samples
onto a fine grid subject to the transport budget, and scipy maximizes the
expected loss over the grid.  For Lipschitz losses the discretization
error is at most the Lipschitz constant times the grid step.  Recourse
losses are evaluated per sample with scipy as well.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from wdro.errors import (
    DimensionMismatch,
    DualPolytopeUnbounded,
    EmptySupport,
    HypothesisViolated,
    RecourseSetUnbounded,
    SampleOutsideSupport,
    SupportNotFullSpace,
)
from wdro.experiments import MarketModel, PortfolioSpec, build_portfolio_dro, solve_portfolio
from wdro.geometry import GroundNorm, Polytope, dual_norm_value
from wdro.reformulate import (
    DroProblem,
    EventIndicator,
    PiecewiseAffineLoss,
    SeparableLoss,
    TwoStageLoss,
    build_max_affine,
    build_min_affine,
    build_separable,
    build_two_stage,
    build_uq_best,
    build_uq_worst,
    convex_closed_form,
)
from wdro.simplex import solve_lp

L1 = GroundNorm.L1
LINF = GroundNorm.LINF


def grid_transport_oracle(samples, loss_fn, lo, hi, eps, h=1e-3):
    """Best expected loss reachable by moving sample mass onto the grid
    lo..hi (step h) with mean transport cost at most eps.  Exact up to
    discretization; scalar problems only, where both ground norms agree.

    Variables are the transported masses T[i, g]; rows force each sample
    to ship exactly 1/N and the summed |x_i - g| cost to stay within eps.
    The samples themselves are added to the grid so a zero budget stays
    feasible.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    grid = np.union1d(np.round(np.arange(lo, hi + h / 2, h), 9), samples)
    N, G = samples.size, grid.size
    losses = np.asarray([loss_fn(g) for g in grid], dtype=float)
    c = -np.tile(losses, N)
    A_eq = np.zeros((N, N * G))
    for i in range(N):
        A_eq[i, i * G : (i + 1) * G] = 1.0
    b_eq = np.full(N, 1.0 / N)
    cost = np.abs(samples[:, None] - grid[None, :]).reshape(-1)
    res = linprog(
        c,
        A_ub=cost[None, :],
        b_ub=[eps],
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def recourse_value(loss: TwoStageLoss, x):
    """Evaluate a linear recourse loss at one point with scipy."""
    x = np.asarray(x, dtype=float).reshape(-1)
    n_y = loss.W.shape[1]
    if loss.variant == "objective":
        c = loss.Q @ x
        rhs = loss.h
    else:
        c = loss.q
        rhs = loss.H @ x + loss.h
    res = linprog(
        c, A_ub=-loss.W, b_ub=-rhs, bounds=[(None, None)] * n_y, method="highs"
    )
    assert res.status == 0, res.message
    return res.fun


def value_of(problem):
    lp = {
        PiecewiseAffineLoss: lambda q: (
            build_max_affine(q) if q.loss.kind == "max" else build_min_affine(q)
        ),
        EventIndicator: lambda q: (
            build_uq_worst(q) if q.loss.sense == "outside" else build_uq_best(q)
        ),
        TwoStageLoss: build_two_stage,
        SeparableLoss: build_separable,
    }[type(problem.loss)](problem)
    sol = solve_lp(lp)
    assert sol.is_optimal, sol.status
    return sol.objective_value


class TestLossTypes:
    def test_max_affine_evaluation(self):
        loss = PiecewiseAffineLoss([[1.0, 0.0], [0.0, -1.0]], [0.0, 1.0])
        np.testing.assert_allclose(
            loss(np.array([[2.0, 0.5], [-3.0, -1.0]])), [2.0, 2.0]
        )

    def test_min_affine_evaluation(self):
        loss = PiecewiseAffineLoss([[1.0], [-1.0]], [0.0, 0.0], kind="min")
        np.testing.assert_allclose(loss(np.array([[2.0], [-0.5]])), [-2.0, -0.5])

    def test_duplicate_pieces_dropped(self):
        loss = PiecewiseAffineLoss([[1.0], [1.0], [2.0]], [0.0, 0.0, 1.0])
        assert loss.deduplicated().n_pieces == 2

    def test_same_slope_different_intercept_kept(self):
        loss = PiecewiseAffineLoss([[1.0], [1.0]], [0.0, 1.0])
        assert loss.deduplicated().n_pieces == 2

    def test_piece_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PiecewiseAffineLoss([[1.0], [2.0]], [0.0])

    def test_bad_kind(self):
        with pytest.raises(DimensionMismatch):
            PiecewiseAffineLoss([[1.0]], [0.0], kind="median")

    def test_event_bad_sense(self):
        with pytest.raises(DimensionMismatch):
            EventIndicator(Polytope.free(1), sense="near")

    def test_two_stage_requires_matrices(self):
        with pytest.raises(DimensionMismatch):
            TwoStageLoss("objective", W=[[1.0]], h=[0.0])
        with pytest.raises(DimensionMismatch):
            TwoStageLoss("rhs", W=[[1.0]], h=[0.0], q=[1.0])

    def test_separable_needs_max_stages(self):
        stage = PiecewiseAffineLoss([[1.0]], [0.0], kind="min")
        with pytest.raises(DimensionMismatch):
            SeparableLoss(((stage, Polytope.free(1)),))

    def test_separable_evaluation(self):
        relu = PiecewiseAffineLoss([[0.0], [1.0]], [0.0, 0.0])
        sep = SeparableLoss(((relu, Polytope.free(1)), (relu, Polytope.free(1))))
        np.testing.assert_allclose(sep(np.array([[1.0, 2.0], [-1.0, 3.0]])), [3.0, 3.0])


class TestProblemValidation:
    LOSS = PiecewiseAffineLoss([[1.0]], [0.0])

    def test_slightly_outside_sample_is_projected(self):
        box = Polytope.box([-1.0], [1.0])
        with pytest.warns(UserWarning, match="projected"):
            p = DroProblem(
                np.array([[1.0 + 5e-7], [0.0]]), box, 0.1, L1, self.LOSS
            )
        np.testing.assert_allclose(p.samples[:, 0], [1.0, 0.0], atol=1e-9)

    def test_far_outside_sample_rejected(self):
        box = Polytope.box([-1.0], [1.0])
        with pytest.raises(SampleOutsideSupport):
            DroProblem(np.array([[1.5]]), box, 0.1, L1, self.LOSS)

    def test_negative_radius(self):
        with pytest.raises(DimensionMismatch):
            DroProblem(np.zeros((1, 1)), Polytope.free(1), -0.5, L1, self.LOSS)

    def test_loss_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DroProblem(np.zeros((1, 2)), Polytope.free(2), 0.1, L1, self.LOSS)

    def test_empty_support(self):
        empty = Polytope([[1.0], [-1.0]], [0.0, -1.0], 1)
        with pytest.raises(EmptySupport):
            DroProblem(np.array([[0.5]]), empty, 0.1, L1, self.LOSS)

    def test_projection_warning_names_the_callers_line(self):
        box = Polytope.box([-1.0], [1.0])
        sep = SeparableLoss(((self.LOSS, Polytope.free(1)), (self.LOSS, box)))
        for support, loss, sample in (
            (box, self.LOSS, [[1.0 + 5e-7]]),
            (Polytope.free(2), sep, [[0.0, 1.0 + 5e-7]]),
        ):
            with pytest.warns(UserWarning, match="projected") as record:
                DroProblem(np.array(sample), support, 0.1, L1, loss)
            assert [w.filename for w in record] == [__file__]


def test_builders_do_not_recheck_the_support(monkeypatch):
    # admission proves the support nonempty; only build_uq_best asks a
    # polytope question of its own (does the region meet the support?)
    box = Polytope.box([-2.0, -2.0], [2.0, 2.0])
    region = Polytope.box([-1.0, -1.0], [1.0, 1.0])
    X = np.array([[0.0, 0.5], [-0.5, 1.5]])
    pieces = PiecewiseAffineLoss([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.5])
    W = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
    cases = [
        (build_max_affine, box, pieces),
        (build_min_affine, box, PiecewiseAffineLoss(pieces.slopes, pieces.intercepts, "min")),
        (build_uq_worst, box, EventIndicator(region, "outside")),
        (build_uq_best, box, EventIndicator(region, "inside")),
        (build_two_stage, box,
         TwoStageLoss("objective", W=W, h=[-1.0, -1.0, -3.0], Q=np.eye(2))),
        (build_two_stage, box,
         TwoStageLoss("rhs", W=np.abs(W), h=[-1.0, -1.0, 0.5], q=[1.0, 2.0],
                      H=np.eye(3, 2))),
        (build_separable, Polytope.free(2), SeparableLoss(
            ((PiecewiseAffineLoss([[1.0]], [0.0]), Polytope.box([-2.0], [2.0])),) * 2
        )),
    ]
    calls = []
    nonempty = Polytope.nonempty
    monkeypatch.setattr(
        Polytope, "nonempty", lambda self: calls.append(1) or nonempty(self)
    )
    for build, support, loss in cases:
        p = DroProblem(X, support, 0.3, L1, loss)
        calls.clear()
        build(p)
        assert len(calls) == (build is build_uq_best), build.__name__


class TestSampleAverageAnchor:
    """Radius zero must reproduce the plain sample average for every
    builder; no transport budget means no ambiguity."""

    def test_max_affine(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m, N, K = rng.integers(1, 4), int(rng.integers(1, 7)), int(rng.integers(1, 4))
            loss = PiecewiseAffineLoss(
                rng.normal(size=(K, m)), rng.normal(size=K)
            )
            X = rng.normal(size=(N, m))
            for support in (Polytope.free(m), Polytope.box([-9.0] * m, [9.0] * m)):
                for norm in (L1, LINF):
                    p = DroProblem(X, support, 0.0, norm, loss)
                    assert value_of(p) == pytest.approx(loss(X).mean(), abs=1e-9)

    def test_min_affine(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m, N, K = rng.integers(1, 4), int(rng.integers(1, 7)), int(rng.integers(2, 4))
            loss = PiecewiseAffineLoss(
                rng.normal(size=(K, m)), rng.normal(size=K), kind="min"
            )
            X = rng.normal(size=(N, m))
            for support in (Polytope.free(m), Polytope.box([-9.0] * m, [9.0] * m)):
                p = DroProblem(X, support, 0.0, L1, loss)
                assert value_of(p) == pytest.approx(loss(X).mean(), abs=1e-9)

    def test_uq_worst(self):
        rng = np.random.default_rng(9)
        region = Polytope([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], 2)
        X = rng.normal(size=(8, 2))
        outside = np.mean((X @ region.C.T >= region.d - 1e-15).any(axis=1))
        p = DroProblem(X, Polytope.free(2), 0.0, L1, EventIndicator(region, "outside"))
        assert value_of(p) == pytest.approx(outside, abs=1e-9)

    def test_uq_best(self):
        rng = np.random.default_rng(10)
        region = Polytope([[1.0, 1.0]], [0.5], 2)
        X = rng.normal(size=(8, 2))
        inside = np.mean((X @ region.C.T <= region.d + 1e-15).all(axis=1))
        p = DroProblem(X, Polytope.free(2), 0.0, LINF, EventIndicator(region, "inside"))
        assert value_of(p) == pytest.approx(inside, abs=1e-9)

    def test_two_stage_objective(self):
        rng = np.random.default_rng(11)
        # recourse polytope: 0 <= y <= 1 componentwise, so bounded
        n_y, m = 2, 2
        W = np.vstack([np.eye(n_y), -np.eye(n_y)])
        h = np.concatenate([np.zeros(n_y), -np.ones(n_y)])
        loss = TwoStageLoss("objective", W=W, h=h, Q=rng.normal(size=(n_y, m)))
        X = rng.normal(size=(4, m))
        expect = np.mean([recourse_value(loss, x) for x in X])
        p = DroProblem(X, Polytope.free(m), 0.0, L1, loss)
        assert value_of(p) == pytest.approx(expect, abs=1e-9)

    def test_two_stage_rhs(self):
        # min y s.t. y >= x1 + x2, y >= 0: a two-piece max
        loss = TwoStageLoss(
            "rhs",
            W=[[1.0], [1.0]],
            h=[0.0, 0.0],
            q=[1.0],
            H=[[1.0, 1.0], [0.0, 0.0]],
        )
        X = np.array([[1.0, 2.0], [-4.0, 1.0], [0.5, -0.25]])
        expect = np.mean([recourse_value(loss, x) for x in X])
        p = DroProblem(X, Polytope.free(2), 0.0, LINF, loss)
        assert value_of(p) == pytest.approx(expect, abs=1e-9)

    def test_separable(self):
        rng = np.random.default_rng(12)
        stages = []
        for _ in range(3):
            K = int(rng.integers(1, 4))
            stages.append(
                (
                    PiecewiseAffineLoss(rng.normal(size=(K, 1)), rng.normal(size=K)),
                    Polytope.box([-9.0], [9.0]),
                )
            )
        sep = SeparableLoss(tuple(stages))
        X = rng.normal(size=(5, 3))
        p = DroProblem(X, Polytope.free(3), 0.0, L1, sep)
        assert value_of(p) == pytest.approx(sep(X).mean(), abs=1e-9)


class TestHandValues:
    """Small instances whose worst case is known exactly."""

    def test_hinge_at_origin_value_is_radius(self):
        # loss max(0, x - 1), one sample at 0, whole line: the optimum
        # pushes vanishing mass far out along the unit-slope piece and the
        # value equals the radius exactly.
        loss = PiecewiseAffineLoss([[0.0], [1.0]], [0.0, -1.0])
        for eps in (0.1, 0.5, 1.0):
            p = DroProblem(np.array([[0.0]]), Polytope.free(1), eps, L1, loss)
            assert value_of(p) == pytest.approx(eps, abs=1e-10)

    def test_two_stage_objective_hand_value(self):
        # loss(x) = min(0, x); moving the sample at -1 halfway to zero
        # spends the whole budget, value -0.25
        loss = TwoStageLoss("objective", W=[[1.0], [-1.0]], h=[0.0, -1.0], Q=[[1.0]])
        p = DroProblem(
            np.array([[1.0], [-1.0]]),
            Polytope.box([-2.0], [2.0]),
            0.25,
            L1,
            loss,
        )
        assert value_of(p) == pytest.approx(-0.25, abs=1e-9)

    def test_uq_worst_hand_value(self):
        # open safe region {x < 1}, samples 0 and 1.5, radius 0.25:
        # shift a quarter of the mass at 0 to the boundary -> 0.75
        region = Polytope([[1.0]], [1.0], 1)
        p = DroProblem(
            np.array([[0.0], [1.5]]),
            Polytope.free(1),
            0.25,
            L1,
            EventIndicator(region, "outside"),
        )
        assert value_of(p) == pytest.approx(0.75, abs=1e-9)

    def test_uq_best_hand_value(self):
        # closed region {x <= 1}: the sample at 1.5 moves in at cost
        # 0.5 * 0.5 = 0.25, so everything fits -> 1.0
        region = Polytope([[1.0]], [1.0], 1)
        p = DroProblem(
            np.array([[0.0], [1.5]]),
            Polytope.free(1),
            0.25,
            L1,
            EventIndicator(region, "inside"),
        )
        assert value_of(p) == pytest.approx(1.0, abs=1e-9)

    def test_separable_hand_value(self):
        # two relu stages, one sample at the origin: the budget flows into
        # a single stage, value = radius
        relu = PiecewiseAffineLoss([[0.0], [1.0]], [0.0, 0.0])
        sep = SeparableLoss(((relu, Polytope.free(1)), (relu, Polytope.free(1))))
        p = DroProblem(np.zeros((1, 2)), Polytope.free(2), 0.5, L1, sep)
        assert value_of(p) == pytest.approx(0.5, abs=1e-10)

    def test_separable_budget_goes_to_steepest_stage(self):
        steep = PiecewiseAffineLoss([[0.0], [2.0]], [0.0, 0.0])
        relu = PiecewiseAffineLoss([[0.0], [1.0]], [0.0, 0.0])
        sep = SeparableLoss(((steep, Polytope.free(1)), (relu, Polytope.free(1))))
        p = DroProblem(np.zeros((1, 2)), Polytope.free(2), 0.5, L1, sep)
        assert value_of(p) == pytest.approx(1.0, abs=1e-10)

    def test_uq_boundary_sample_counts_as_outside(self):
        # open region: a sample exactly on the boundary is already outside
        region = Polytope([[1.0]], [1.0], 1)
        p = DroProblem(
            np.array([[1.0]]), Polytope.free(1), 0.0, L1,
            EventIndicator(region, "outside"),
        )
        assert value_of(p) == pytest.approx(1.0, abs=1e-9)


class TestGridTransportOracle:
    def test_max_affine_scalar(self):
        rng = np.random.default_rng(21)
        box = Polytope.box([-2.0], [2.0])
        for trial in range(3):
            N = int(rng.integers(1, 4))
            K = int(rng.integers(1, 4))
            loss = PiecewiseAffineLoss(
                rng.uniform(-2, 2, size=(K, 1)), rng.uniform(-1, 1, size=K)
            )
            X = np.round(rng.uniform(-1, 1, size=(N, 1)), 3)
            kappa = max(abs(a[0]) for a in loss.slopes)
            for eps in (0.0, 0.1, 0.3):
                got = value_of(DroProblem(X, box, eps, L1, loss))
                want = grid_transport_oracle(
                    X, lambda g: loss(np.array([[g]]))[0], -2.0, 2.0, eps
                )
                assert got == pytest.approx(want, abs=kappa * 1e-3 + 1e-6)

    def test_min_affine_scalar(self):
        rng = np.random.default_rng(22)
        box = Polytope.box([-2.0], [2.0])
        loss = PiecewiseAffineLoss(
            [[1.0], [-0.5]], [0.0, 0.25], kind="min"
        )
        X = rng.uniform(-1, 1, size=(3, 1))
        for eps in (0.05, 0.4):
            got = value_of(DroProblem(X, box, eps, L1, loss))
            want = grid_transport_oracle(
                X, lambda g: loss(np.array([[g]]))[0], -2.0, 2.0, eps
            )
            assert got == pytest.approx(want, abs=1e-3 + 1e-6)

    def test_uq_worst_scalar(self):
        # boundary at 1.0 lies on the grid, so the oracle is exact here
        region = Polytope([[1.0]], [1.0], 1)
        box = Polytope.box([-2.0], [2.0])
        X = np.array([[0.2], [0.9], [1.4]])
        for eps in (0.05, 0.2):
            p = DroProblem(X, box, eps, L1, EventIndicator(region, "outside"))
            want = grid_transport_oracle(
                X, lambda g: float(g >= 1.0), -2.0, 2.0, eps
            )
            assert value_of(p) == pytest.approx(want, abs=1e-6)

    def test_uq_best_scalar(self):
        region = Polytope([[-1.0]], [-1.0], 1)  # {x >= 1}
        box = Polytope.box([-2.0], [2.0])
        X = np.array([[0.5], [1.2]])
        for eps in (0.1, 0.6):
            p = DroProblem(X, box, eps, L1, EventIndicator(region, "inside"))
            want = grid_transport_oracle(
                X, lambda g: float(g >= 1.0), -2.0, 2.0, eps
            )
            assert value_of(p) == pytest.approx(want, abs=1e-6)

    def test_two_stage_objective_scalar(self):
        loss = TwoStageLoss("objective", W=[[1.0], [-1.0]], h=[0.0, -1.0], Q=[[1.0]])
        box = Polytope.box([-2.0], [2.0])
        X = np.array([[1.0], [-1.0], [0.3]])
        for eps in (0.1, 0.5):
            got = value_of(DroProblem(X, box, eps, L1, loss))
            want = grid_transport_oracle(
                X, lambda g: min(0.0, g), -2.0, 2.0, eps
            )
            assert got == pytest.approx(want, abs=1e-3 + 1e-6)


class TestClosedForm:
    def test_matches_program_on_random_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            K = int(rng.integers(1, 5))
            loss = PiecewiseAffineLoss(
                rng.normal(size=(K, 2)), rng.normal(size=K)
            )
            X = rng.normal(size=(int(rng.integers(1, 6)), 2))
            eps = float(rng.uniform(0, 2))
            for norm in (L1, LINF):
                p = DroProblem(X, Polytope.free(2), eps, norm, loss)
                assert value_of(p) == pytest.approx(
                    convex_closed_form(p), abs=1e-8
                )

    def test_requires_free_support(self):
        loss = PiecewiseAffineLoss([[1.0]], [0.0])
        p = DroProblem(
            np.zeros((1, 1)), Polytope.box([-1.0], [1.0]), 0.1, L1, loss
        )
        with pytest.raises(SupportNotFullSpace):
            convex_closed_form(p)

    def test_requires_max_kind(self):
        loss = PiecewiseAffineLoss([[1.0], [2.0]], [0.0, 0.0], kind="min")
        p = DroProblem(np.zeros((1, 1)), Polytope.free(1), 0.1, L1, loss)
        with pytest.raises(DimensionMismatch):
            convex_closed_form(p)


class TestStructuralRelations:
    def test_value_nondecreasing_in_radius(self):
        rng = np.random.default_rng(40)
        loss = PiecewiseAffineLoss(rng.normal(size=(3, 2)), rng.normal(size=3))
        X = rng.normal(size=(4, 2))
        box = Polytope.box([-4.0, -4.0], [4.0, 4.0])
        vals = [
            value_of(DroProblem(X, box, eps, LINF, loss))
            for eps in (0.0, 0.1, 0.5, 1.0)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_single_piece_min_equals_max(self):
        rng = np.random.default_rng(41)
        a, c = rng.normal(size=(1, 2)), rng.normal(size=1)
        X = rng.normal(size=(3, 2))
        box = Polytope.box([-5.0, -5.0], [5.0, 5.0])
        pmax = DroProblem(X, box, 0.3, L1, PiecewiseAffineLoss(a, c))
        pmin = DroProblem(X, box, 0.3, L1, PiecewiseAffineLoss(a, c, kind="min"))
        assert value_of(pmax) == pytest.approx(value_of(pmin), abs=1e-8)

    def test_min_never_exceeds_max_composition(self):
        rng = np.random.default_rng(42)
        a, c = rng.normal(size=(3, 2)), rng.normal(size=3)
        X = rng.normal(size=(3, 2))
        box = Polytope.box([-5.0, -5.0], [5.0, 5.0])
        vmin = value_of(DroProblem(X, box, 0.2, L1, PiecewiseAffineLoss(a, c, "min")))
        vmax = value_of(DroProblem(X, box, 0.2, L1, PiecewiseAffineLoss(a, c, "max")))
        assert vmin <= vmax + 1e-9

    def test_single_stage_separable_matches_plain(self):
        rng = np.random.default_rng(43)
        loss = PiecewiseAffineLoss(rng.normal(size=(3, 2)), rng.normal(size=3))
        X = rng.normal(size=(4, 2))
        box = Polytope.box([-6.0, -6.0], [6.0, 6.0])
        plain = DroProblem(X, box, 0.3, L1, loss)
        sep = DroProblem(
            X, Polytope.free(2), 0.3, L1, SeparableLoss(((loss, box),))
        )
        assert value_of(sep) == pytest.approx(value_of(plain), abs=1e-9)

    def test_two_stage_separable_matches_product_pieces(self):
        # under the 1-norm a sum of scalar max-affine stages is itself
        # max-affine over all piece combinations
        rng = np.random.default_rng(44)
        s1 = PiecewiseAffineLoss(rng.normal(size=(2, 1)), rng.normal(size=2))
        s2 = PiecewiseAffineLoss(rng.normal(size=(3, 1)), rng.normal(size=3))
        slopes, intercepts = [], []
        for k1 in range(2):
            for k2 in range(3):
                slopes.append([s1.slopes[k1, 0], s2.slopes[k2, 0]])
                intercepts.append(s1.intercepts[k1] + s2.intercepts[k2])
        product = PiecewiseAffineLoss(slopes, intercepts)
        X = rng.normal(size=(3, 2))
        sep = SeparableLoss(((s1, Polytope.free(1)), (s2, Polytope.free(1))))
        vs = value_of(DroProblem(X, Polytope.free(2), 0.4, L1, sep))
        vp = value_of(DroProblem(X, Polytope.free(2), 0.4, L1, product))
        assert vs == pytest.approx(vp, abs=1e-8)

    def test_rhs_recourse_matches_vertex_pieces(self):
        # the builder reduces rhs uncertainty to max-affine pieces taken
        # from dual vertices; check the same value comes from building
        # those pieces by hand
        from wdro.geometry import enumerate_vertices

        loss = TwoStageLoss(
            "rhs",
            W=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            h=[-1.0, -1.0, 0.5],
            q=[1.0, 2.0],
            H=[[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]],
        )
        verts = enumerate_vertices(loss.W.T, loss.q)
        pieces = PiecewiseAffineLoss(verts @ loss.H, verts @ loss.h)
        X = np.array([[0.2, -0.3], [1.0, 0.4]])
        box = Polytope.box([-3.0, -3.0], [3.0, 3.0])
        v_two = value_of(DroProblem(X, box, 0.3, L1, loss))
        v_pieces = value_of(DroProblem(X, box, 0.3, L1, pieces))
        assert v_two == pytest.approx(v_pieces, abs=1e-10)
        for x in X:
            assert recourse_value(loss, x) == pytest.approx(
                pieces(x[None, :])[0], abs=1e-9
            )

    def test_tighter_support_never_increases_value(self):
        rng = np.random.default_rng(45)
        loss = PiecewiseAffineLoss(rng.normal(size=(2, 2)), rng.normal(size=2))
        X = rng.uniform(-0.5, 0.5, size=(3, 2))
        small = Polytope.box([-1.0, -1.0], [1.0, 1.0])
        large = Polytope.box([-3.0, -3.0], [3.0, 3.0])
        v_small = value_of(DroProblem(X, small, 0.4, L1, loss))
        v_large = value_of(DroProblem(X, large, 0.4, L1, loss))
        v_free = value_of(DroProblem(X, Polytope.free(2), 0.4, L1, loss))
        assert v_small <= v_large + 1e-9 <= v_free + 2e-9


class TestHypothesisChecks:
    def test_uq_worst_unreachable_halfspace(self):
        region = Polytope([[1.0]], [5.0], 1)  # needs x >= 5
        box = Polytope.box([0.0], [1.0])
        p = DroProblem(
            np.array([[0.5]]), box, 0.1, L1, EventIndicator(region, "outside")
        )
        with pytest.raises(HypothesisViolated):
            build_uq_worst(p)

    def test_uq_best_region_misses_support(self):
        region = Polytope([[-1.0]], [-5.0], 1)  # {x >= 5}
        box = Polytope.box([0.0], [1.0])
        p = DroProblem(
            np.array([[0.5]]), box, 0.1, L1, EventIndicator(region, "inside")
        )
        with pytest.raises(HypothesisViolated):
            build_uq_best(p)

    def test_uq_best_empty_region(self):
        region = Polytope([[1.0], [-1.0]], [0.0, -1.0], 1)
        p = DroProblem(
            np.array([[0.5]]), Polytope.free(1), 0.1, L1,
            EventIndicator(region, "inside"),
        )
        with pytest.raises(HypothesisViolated):
            build_uq_best(p)

    def test_empty_recourse_set(self):
        loss = TwoStageLoss(
            "objective", W=[[1.0], [-1.0]], h=[1.0, 0.0], Q=[[1.0]]
        )
        p = DroProblem(np.zeros((1, 1)), Polytope.free(1), 0.1, L1, loss)
        with pytest.raises(RecourseSetUnbounded):
            build_two_stage(p)

    def test_unbounded_recourse_set(self):
        loss = TwoStageLoss("objective", W=[[1.0]], h=[0.0], Q=[[1.0]])
        p = DroProblem(np.zeros((1, 1)), Polytope.free(1), 0.1, L1, loss)
        with pytest.raises(RecourseSetUnbounded):
            build_two_stage(p)

    def test_unbounded_dual_polytope(self):
        loss = TwoStageLoss(
            "rhs", W=[[1.0], [-1.0]], h=[0.0, -2.0], q=[0.0], H=[[1.0], [0.0]]
        )
        p = DroProblem(np.zeros((1, 1)), Polytope.free(1), 0.1, L1, loss)
        with pytest.raises(DualPolytopeUnbounded):
            build_two_stage(p)

    def test_empty_dual_polytope(self):
        loss = TwoStageLoss(
            "rhs", W=[[1.0], [1.0]], h=[0.0, 0.0], q=[-1.0], H=[[1.0], [0.0]]
        )
        p = DroProblem(np.zeros((1, 1)), Polytope.free(1), 0.1, L1, loss)
        with pytest.raises(RecourseSetUnbounded):
            build_two_stage(p)


class TestFreeSupportDedup:
    def test_norm_rows_emitted_once_per_piece(self):
        loss = PiecewiseAffineLoss(np.eye(2), np.zeros(2))
        X = np.zeros((6, 2))
        free = build_max_affine(
            DroProblem(X, Polytope.free(2), 0.1, L1, loss)
        )
        boxed = build_max_affine(
            DroProblem(X, Polytope.box([-9, -9], [9, 9]), 0.1, L1, loss)
        )
        assert free.n_rows < boxed.n_rows
        # free program: N*K epigraph rows plus 2*m rows per piece
        assert free.n_rows == 6 * 2 + 2 * 2 * 2

    def test_free_and_huge_box_agree(self):
        rng = np.random.default_rng(50)
        loss = PiecewiseAffineLoss(rng.normal(size=(3, 2)), rng.normal(size=3))
        X = rng.normal(size=(4, 2))
        huge = Polytope.box([-1e6, -1e6], [1e6, 1e6])
        for norm in (L1, LINF):
            v_free = value_of(DroProblem(X, Polytope.free(2), 0.3, norm, loss))
            v_box = value_of(DroProblem(X, huge, 0.3, norm, loss))
            assert v_free == pytest.approx(v_box, abs=1e-6)

    def test_uq_collapsed_rows_match_boxed_program(self):
        rng = np.random.default_rng(51)
        C, d = rng.normal(size=(2, 2)), rng.normal(size=2)
        X = rng.normal(size=(5, 2))
        huge = Polytope.box([-1e5, -1e5], [1e5, 1e5])
        # every sample lies outside the first region and inside the second
        for region in (Polytope(C, d, 2), Polytope(C, d + 3.5, 2)):
            for norm in (L1, LINF):
                for sense in ("outside", "inside"):
                    ind = EventIndicator(region, sense)
                    v_free = value_of(DroProblem(X, Polytope.free(2), 0.2, norm, ind))
                    v_box = value_of(DroProblem(X, huge, 0.2, norm, ind))
                    assert v_free == pytest.approx(v_box, abs=1e-6)

    @pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
    @pytest.mark.parametrize(
        "kind", ["min_affine", "two_stage_objective", "two_stage_rhs", "separable"]
    )
    def test_free_and_huge_box_agree_for_every_builder(self, kind, norm):
        rng = np.random.default_rng(52)
        X = rng.uniform(-1.0, 1.0, size=(4, 3))
        free, huge = Polytope.free(3), Polytope.box([-1e3] * 3, [1e3] * 3)
        if kind == "min_affine":
            loss = PiecewiseAffineLoss(rng.normal(size=(3, 3)), rng.normal(size=3), "min")
            losses = [loss, loss]
        elif kind == "two_stage_objective":
            W = np.vstack([np.eye(2), -np.eye(2)])
            loss = TwoStageLoss("objective", W, -np.ones(4), Q=rng.normal(size=(2, 3)))
            losses = [loss, loss]
        elif kind == "two_stage_rhs":
            loss = TwoStageLoss(
                "rhs", rng.uniform(0.5, 1.5, size=(3, 1)), rng.normal(size=3),
                q=[1.0], H=rng.normal(size=(3, 3)),
            )
            losses = [loss, loss]
        else:
            # the box goes on each stage; the overall support stays free
            stages = [
                PiecewiseAffineLoss(rng.normal(size=(2, 1)), rng.normal(size=2))
                for _ in range(3)
            ]
            losses = [
                SeparableLoss(tuple((st, sup) for st in stages))
                for sup in (Polytope.free(1), Polytope.box([-1e3], [1e3]))
            ]
            huge = free
        v_free = value_of(DroProblem(X, free, 0.3, norm, losses[0]))
        v_box = value_of(DroProblem(X, huge, 0.3, norm, losses[1]))
        assert v_free == pytest.approx(v_box, abs=1e-6)

    @pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
    def test_portfolio_joint_program_matches_shortcut_and_huge_box(self, norm):
        market = MarketModel(m=4)
        data = market.sample(6, np.random.default_rng(53))
        free = PortfolioSpec(m=4, ground_norm=norm)
        boxed = PortfolioSpec(m=4, ground_norm=norm, support=Polytope.box([-1e3] * 4, [1e3] * 4))
        for eps in (0.0, 0.02, 0.3):
            joint = solve_lp(build_portfolio_dro(free, data, eps))
            assert joint.is_optimal
            shortcut = solve_portfolio(free, data, eps).certificate
            in_box = solve_portfolio(boxed, data, eps).certificate
            assert joint.objective_value == pytest.approx(shortcut, abs=1e-7)
            assert in_box == pytest.approx(shortcut, abs=1e-6)
