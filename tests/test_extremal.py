"""Worst-case distribution construction.

The transport-form program and the epigraph reformulation are a dual
pair, so their values must coincide; the returned distribution must sit
inside the ball (checked with the exact transportation LP) and reproduce
the objective as its expected loss whenever no mass escapes.
"""

import numpy as np
import pytest

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
