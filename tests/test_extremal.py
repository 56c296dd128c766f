"""Worst-case distribution construction.

The worst case is read off the duals of the reformulation that
``worst_case_value`` solves, so its objective is that value.  The
independent checks are HiGHS on the same reformulation against the
expected loss at the atoms, the atoms' support membership and the exact
transportation LP for ball membership.
"""

import numpy as np
import pytest
from conftest import solve_with_scipy

from wdro import extremal
from wdro.errors import DimensionMismatch, EscapingMassPresent
from wdro.extremal import (
    ATOM_TOL,
    ExtremalResult,
    worst_case_distribution,
    worst_case_distribution_separable,
    verify_membership,
)
from wdro.geometry import GroundNorm, Polytope
from wdro.reformulate import (
    DroProblem,
    PiecewiseAffineLoss,
    SeparableLoss,
    build_max_affine,
    build_separable,
    worst_case_value,
)
from wdro.simplex import solve_lp
from wdro.wasserstein import DiscreteDistribution, merge_atoms, wasserstein_distance

L1 = GroundNorm.L1
LINF = GroundNorm.LINF


def random_compact_instance(rng):
    m = int(rng.integers(1, 4))
    N = int(rng.integers(1, 6))
    K = int(rng.integers(1, 4))
    loss = PiecewiseAffineLoss(rng.normal(size=(K, m)), rng.normal(size=K))
    if rng.integers(2):
        lo, hi = -1.0 - rng.random(m), 1.0 + rng.random(m)
        support = Polytope.box(lo, hi)
        X = rng.uniform(lo, hi, size=(N, m))
    else:
        # standard simplex: x >= 0, sum x <= 1
        support = Polytope(
            np.vstack([-np.eye(m), np.ones((1, m))]),
            np.concatenate([np.zeros(m), [1.0]]),
            m,
        )
        raw = rng.random((N, m))
        X = raw * rng.random((N, 1)) / raw.sum(axis=1, keepdims=True)
    eps = float(rng.uniform(0, 1))
    norm = L1 if rng.integers(2) else LINF
    return DroProblem(X, support, eps, norm, loss)


class TestStrongDuality:
    def test_transport_value_matches_epigraph_value(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            p = random_compact_instance(rng)
            primal = solve_lp(build_max_affine(p))
            assert primal.is_optimal
            res = worst_case_distribution(p)
            assert res.objective_value == pytest.approx(
                primal.objective_value, abs=1e-6
            )


class TestCompactSupport:
    def test_membership_and_expected_loss(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            p = random_compact_instance(rng)
            res = worst_case_distribution(p)
            assert res.escaping_mass == 0.0
            assert res.escape_rays == ()
            report = verify_membership(res, p)
            assert report.distance <= p.radius + 1e-6
            assert report.within_ball
            expected = res.distribution.weights @ p.loss(res.distribution.points)
            assert expected == pytest.approx(res.objective_value, abs=1e-6)

    def test_zero_radius_returns_empirical(self):
        rng = np.random.default_rng(62)
        X = rng.uniform(-1, 1, size=(4, 2))
        loss = PiecewiseAffineLoss(rng.normal(size=(2, 2)), rng.normal(size=2))
        p = DroProblem(X, Polytope.box([-2, -2], [2, 2]), 0.0, L1, loss)
        res = worst_case_distribution(p)
        assert res.escaping_mass == 0.0
        merged = merge_atoms(DiscreteDistribution.empirical(X))
        got = res.distribution
        assert got.n_atoms == merged.n_atoms
        order_a = np.lexsort(got.points.T)
        order_b = np.lexsort(merged.points.T)
        np.testing.assert_allclose(
            got.points[order_a], merged.points[order_b], atol=1e-9
        )
        np.testing.assert_allclose(
            got.weights[order_a], merged.weights[order_b], atol=1e-9
        )

    def test_single_piece_gives_one_atom_per_sample(self):
        rng = np.random.default_rng(63)
        X = rng.uniform(-0.5, 0.5, size=(3, 2))
        loss = PiecewiseAffineLoss([[1.0, -2.0]], [0.3])
        p = DroProblem(X, Polytope.box([-2, -2], [2, 2]), 0.2, L1, loss)
        res = worst_case_distribution(p)
        assert res.escaping_mass == 0.0
        assert res.distribution.n_atoms <= 3


class TestEscapingMass:
    def test_hinge_on_the_line(self):
        # max(0, x - 1) from a single sample at the origin on the whole
        # line: the optimum sends vanishing mass to +infinity
        loss = PiecewiseAffineLoss([[0.0], [1.0]], [0.0, -1.0])
        for eps in (0.1, 0.5, 1.0):
            p = DroProblem(np.array([[0.0]]), Polytope.free(1), eps, L1, loss)
            res = worst_case_distribution(p)
            assert res.objective_value == pytest.approx(eps, abs=1e-10)
            assert res.escaping_mass > 0.5 * ATOM_TOL
            assert res.escaping_mass > 0.0
            assert len(res.escape_rays) == 1
            ray = res.escape_rays[0]
            assert ray.sample == 0 and ray.piece == 1
            np.testing.assert_allclose(ray.direction, [1.0])
            assert ray.slope == pytest.approx(1.0)
            # retained part is the untouched sample
            np.testing.assert_allclose(res.distribution.points, [[0.0]])

    def test_affine_loss_moves_along_steepest_coordinate(self):
        # single affine piece <a, x> on the whole plane, 1-norm budget:
        # everything moves along the coordinate with the largest slope
        loss = PiecewiseAffineLoss([[2.0, -1.0]], [0.0])
        p = DroProblem(np.zeros((1, 2)), Polytope.free(2), 1.0, L1, loss)
        res = worst_case_distribution(p)
        assert res.escaping_mass == 0.0
        assert res.objective_value == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(res.distribution.points, [[1.0, 0.0]], atol=1e-9)

    def test_membership_raises_with_escaping_mass(self):
        loss = PiecewiseAffineLoss([[0.0], [1.0]], [0.0, -1.0])
        p = DroProblem(np.array([[0.0]]), Polytope.free(1), 0.5, L1, loss)
        res = worst_case_distribution(p)
        with pytest.raises(EscapingMassPresent) as info:
            verify_membership(res, p)
        assert info.value.retained_cost == pytest.approx(0.0, abs=1e-9)


class TestVerifyMembership:
    def test_corrupted_distribution_flagged(self):
        rng = np.random.default_rng(64)
        X = rng.uniform(-0.5, 0.5, size=(3, 1))
        loss = PiecewiseAffineLoss([[1.0]], [0.0])
        p = DroProblem(X, Polytope.box([-5.0], [5.0]), 0.1, L1, loss)
        res = worst_case_distribution(p)
        shifted = res.distribution.points.copy()
        shifted[0] += 2.0
        bad = ExtremalResult(
            distribution=DiscreteDistribution(shifted, res.distribution.weights),
            escaping_mass=0.0,
            escape_rays=(),
            objective_value=res.objective_value,
        )
        report = verify_membership(bad, p)
        assert not report.within_ball

    def test_zero_radius_distance_zero(self):
        X = np.array([[0.5], [-0.5]])
        loss = PiecewiseAffineLoss([[1.0]], [0.0])
        p = DroProblem(X, Polytope.box([-1.0], [1.0]), 0.0, L1, loss)
        report = verify_membership(worst_case_distribution(p), p)
        assert report.distance == pytest.approx(0.0, abs=1e-9)

    def test_rejects_min_composition(self):
        loss = PiecewiseAffineLoss([[1.0], [2.0]], [0.0, 0.0], kind="min")
        p = DroProblem(np.zeros((1, 1)), Polytope.free(1), 0.1, L1, loss)
        with pytest.raises(DimensionMismatch):
            worst_case_distribution(p)


class TestSeparable:
    def make_two_stage(self, rng, eps):
        s1 = PiecewiseAffineLoss(rng.normal(size=(2, 1)), rng.normal(size=2))
        s2 = PiecewiseAffineLoss(rng.normal(size=(2, 1)), rng.normal(size=2))
        box = Polytope.box([-2.0], [2.0])
        sep = SeparableLoss(((s1, box), (s2, box)))
        X = rng.uniform(-1, 1, size=(3, 2))
        return DroProblem(X, Polytope.free(2), eps, L1, sep)

    def test_single_stage_matches_plain(self):
        rng = np.random.default_rng(65)
        loss = PiecewiseAffineLoss(rng.normal(size=(2, 2)), rng.normal(size=2))
        box = Polytope.box([-3.0, -3.0], [3.0, 3.0])
        X = rng.uniform(-1, 1, size=(3, 2))
        plain = worst_case_distribution(
            DroProblem(X, box, 0.4, L1, loss)
        )
        sep = worst_case_distribution_separable(
            DroProblem(X, Polytope.free(2), 0.4, L1, SeparableLoss(((loss, box),)))
        )
        assert sep.objective_value == pytest.approx(
            plain.objective_value, abs=1e-9
        )
        dist = wasserstein_distance(sep.distribution, plain.distribution, L1)
        assert dist == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
    @pytest.mark.parametrize("boxed", [True, False], ids=["box", "free"])
    def test_plain_loss_is_the_one_stage_program(self, norm, boxed):
        # a plain max-affine loss and the one-stage separable loss over the
        # same support solve one transport program, so the results agree
        # bit for bit
        rng = np.random.default_rng(69)
        cases = [(PiecewiseAffineLoss([[0.0, 0.0], [1.0, 0.5]], [0.0, -1.0]),
                  np.zeros((1, 2)), 0.5)]  # escaping mass on a free support
        for _ in range(4):
            loss = PiecewiseAffineLoss(rng.normal(size=(3, 2)), rng.normal(size=3))
            X = rng.uniform(-1, 1, size=(4, 2))
            cases.append((loss, X, rng.uniform(0.05, 0.8)))
        support = Polytope.box([-2.0, -2.0], [2.0, 2.0]) if boxed else Polytope.free(2)
        escapes = 0
        for loss, X, eps in cases:
            plain = worst_case_distribution(DroProblem(X, support, eps, norm, loss))
            sep = worst_case_distribution_separable(
                DroProblem(X, Polytope.free(2), eps, norm,
                           SeparableLoss(((loss, support),)))
            )
            assert sep.objective_value == plain.objective_value
            assert sep.escaping_mass == plain.escaping_mass
            assert np.array_equal(sep.distribution.points, plain.distribution.points)
            assert np.array_equal(sep.distribution.weights, plain.distribution.weights)
            assert len(sep.escape_rays) == len(plain.escape_rays)
            for a, b in zip(sep.escape_rays, plain.escape_rays):
                assert (a.sample, a.piece, a.slope) == (b.sample, b.piece, b.slope)
                assert np.array_equal(a.direction, b.direction)
            escapes += len(plain.escape_rays) > 0
        assert escapes == 0 if boxed else escapes >= 1

    def test_two_stage_value_and_membership(self):
        rng = np.random.default_rng(66)
        for trial in range(5):
            p = self.make_two_stage(rng, eps=float(rng.uniform(0.05, 0.6)))
            res = worst_case_distribution_separable(p)
            sol = solve_lp(build_separable(p))
            assert res.objective_value == pytest.approx(
                sol.objective_value, abs=1e-6
            )
            assert res.escaping_mass == 0.0
            # under the 1-norm ground metric the stagewise transport cost
            # adds up, so the flat transportation LP applies unchanged
            report = verify_membership(res, p)
            assert report.within_ball
            expected = res.distribution.weights @ p.loss(res.distribution.points)
            assert expected == pytest.approx(res.objective_value, abs=1e-6)

    def test_zero_radius_is_empirical_product(self):
        rng = np.random.default_rng(67)
        p = self.make_two_stage(rng, eps=0.0)
        res = worst_case_distribution_separable(p)
        assert res.escaping_mass == 0.0
        merged = merge_atoms(DiscreteDistribution.empirical(p.samples))
        dist = wasserstein_distance(res.distribution, merged, L1)
        assert dist == pytest.approx(0.0, abs=1e-9)

    def test_atom_count_bounded_by_piece_combinations(self):
        rng = np.random.default_rng(68)
        p = self.make_two_stage(rng, eps=0.3)
        res = worst_case_distribution_separable(p)
        assert res.distribution.n_atoms <= 3 * 2 * 2

    def test_rejects_plain_loss(self):
        loss = PiecewiseAffineLoss([[1.0]], [0.0])
        p = DroProblem(np.zeros((1, 1)), Polytope.free(1), 0.1, L1, loss)
        with pytest.raises(DimensionMismatch):
            worst_case_distribution_separable(p)


def support_instance(rng, kind, norm):
    """A random max-affine problem on a box, the standard simplex, the
    halfspace x >= -2 or the free space."""
    m, N, K = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
    loss = PiecewiseAffineLoss(rng.normal(size=(K, m)), rng.normal(size=K))
    if kind == "box":
        lo, hi = -1.0 - rng.random(m), 1.0 + rng.random(m)
        support, X = Polytope.box(lo, hi), rng.uniform(lo, hi, size=(N, m))
    elif kind == "simplex":
        support = Polytope(np.vstack([-np.eye(m), np.ones((1, m))]),
                           np.concatenate([np.zeros(m), [1.0]]), m)
        raw = rng.random((N, m))
        X = raw * rng.random((N, 1)) / raw.sum(axis=1, keepdims=True)
    elif kind == "halfspace":
        support, X = Polytope(-np.eye(m), np.full(m, 2.0), m), rng.uniform(-2, 2, size=(N, m))
    else:
        support, X = Polytope.free(m), rng.normal(size=(N, m))
    return DroProblem(X, support, float(rng.uniform(0, 1)), norm, loss)


def assert_in_support(points, support):
    if not support.is_free:
        slack = points @ support.C.T - support.d
        assert np.all(slack <= 1e-9 * (1.0 + np.abs(support.d)))


class TestAgainstHighs:
    @pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
    @pytest.mark.parametrize("kind", ["box", "simplex", "halfspace", "free"])
    def test_expected_loss_and_support(self, kind, norm):
        rng = np.random.default_rng(70)
        attained = 0
        for _ in range(12):
            p = support_instance(rng, kind, norm)
            res = worst_case_distribution(p)
            assert res.objective_value == worst_case_value(p)
            if res.escaping_mass > 0.0:
                continue
            attained += 1
            status, value, _ = solve_with_scipy(build_max_affine(p))
            assert status == "optimal"
            points = res.distribution.points
            expected = res.distribution.weights @ p.loss(points)
            assert expected == pytest.approx(value, rel=1e-9, abs=1e-9)
            assert_in_support(points, p.support)
            assert verify_membership(res, p).within_ball
        assert attained >= 4

    @pytest.mark.parametrize("norm", [L1, LINF], ids=["l1", "linf"])
    def test_two_stage_separable(self, norm):
        rng = np.random.default_rng(71)
        stage_supports = (Polytope.box([-2.0], [2.0]), Polytope(-np.eye(1), [2.0], 1))
        for _ in range(6):
            stages = tuple(
                (PiecewiseAffineLoss(rng.normal(size=(2, 1)), rng.normal(size=2)), sup)
                for sup in stage_supports
            )
            p = DroProblem(rng.uniform(-1, 1, size=(3, 2)), Polytope.free(2),
                           float(rng.uniform(0.05, 0.6)), norm, SeparableLoss(stages))
            res = worst_case_distribution_separable(p)
            assert res.objective_value == worst_case_value(p)
            if res.escaping_mass > 0.0:
                continue
            status, value, _ = solve_with_scipy(build_separable(p))
            assert status == "optimal"
            points = res.distribution.points
            expected = res.distribution.weights @ p.loss(points)
            assert expected == pytest.approx(value, rel=1e-9, abs=1e-9)
            for (_, sup), sl in zip(stages, p.loss.stage_slices()):
                assert_in_support(points[:, sl], sup)


class TestOneProgram:
    def assert_same_program(self, got, want):
        assert got.sense == want.sense
        for field in ("costs", "row_coeffs", "row_rhs", "lower", "upper"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.row_relations == want.row_relations

    def solved_programs(self, monkeypatch, call, p):
        seen = []

        def spy(lp):
            seen.append(lp)
            return solve_lp(lp)

        monkeypatch.setattr(extremal, "solve_lp", spy)
        call(p)
        return seen

    @pytest.mark.parametrize("kind", ["box", "free"])
    def test_max_affine_solves_the_reformulation_once(self, monkeypatch, kind):
        p = support_instance(np.random.default_rng(72), kind, L1)
        seen = self.solved_programs(monkeypatch, worst_case_distribution, p)
        assert len(seen) == 1
        self.assert_same_program(seen[0], build_max_affine(p))

    def test_separable_solves_the_reformulation_once(self, monkeypatch):
        rng = np.random.default_rng(73)
        stages = tuple(
            (PiecewiseAffineLoss(rng.normal(size=(2, 1)), rng.normal(size=2)), sup)
            for sup in (Polytope.box([-2.0], [2.0]), Polytope.free(1))
        )
        p = DroProblem(rng.uniform(-1, 1, size=(3, 2)), Polytope.free(2), 0.3, LINF,
                       SeparableLoss(stages))
        seen = self.solved_programs(monkeypatch, worst_case_distribution_separable, p)
        assert len(seen) == 1
        self.assert_same_program(seen[0], build_separable(p))


class TestHeldMassCarriesLooseDisplacement:
    def test_attained_worst_case_is_not_reported_as_escaping(self):
        # the README problem: moving the sample at 1 to 1.5 attains 0.75 on
        # the halfspace x >= -2
        loss = PiecewiseAffineLoss([[0.0], [1.0]], [0.0, 0.0])
        support = Polytope([[-1.0]], [2.0], 1)
        p = DroProblem(np.array([[0.0], [1.0]]), support, 0.25, L1, loss)
        res = worst_case_distribution(p)
        assert res.objective_value == pytest.approx(0.75, abs=1e-12)
        assert res.escaping_mass == 0.0
        assert res.escape_rays == ()
        order = np.argsort(res.distribution.points[:, 0])
        np.testing.assert_allclose(res.distribution.points[order], [[0.0], [1.5]], atol=1e-12)
        np.testing.assert_allclose(res.distribution.weights[order], [0.5, 0.5], atol=1e-12)
        report = verify_membership(res, p)
        assert report.distance == pytest.approx(0.25, abs=1e-12)
        assert report.within_ball

    def test_escape_ray_names_the_callers_piece(self):
        # pieces 0 and 1 repeat each other, so the program has one block
        # for both; the ray still names piece 2 of the loss as given
        loss = PiecewiseAffineLoss([[0.0], [0.0], [1.0]], [0.0, 0.0, -1.0])
        p = DroProblem(np.zeros((1, 1)), Polytope.free(1), 0.5, L1, loss)
        res = worst_case_distribution(p)
        assert len(res.escape_rays) == 1
        ray = res.escape_rays[0]
        assert (ray.sample, ray.piece) == (0, 2)
        np.testing.assert_allclose(ray.direction, [1.0])
        assert ray.slope == pytest.approx(1.0)
