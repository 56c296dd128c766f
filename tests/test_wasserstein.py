"""Transport-distance tests.

Two independent oracles: the classical one-dimensional identity (the
distance equals the area between the two distribution functions) and a
scipy transportation solve.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from wdro.errors import DimensionMismatch
from wdro.geometry import GroundNorm
from wdro.wasserstein import (
    DiscreteDistribution,
    merge_atoms,
    wasserstein_distance,
)

L1, LINF = GroundNorm.L1, GroundNorm.LINF


def w1_line_oracle(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """1-d exact distance via the CDF-difference integral."""
    xs = np.concatenate([p.points[:, 0], q.points[:, 0]])
    grid = np.unique(xs)
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        fp = p.weights[p.points[:, 0] <= a + 1e-15].sum()
        fq = q.weights[q.points[:, 0] <= a + 1e-15].sum()
        total += abs(fp - fq) * (b - a)
    return float(total)


def scipy_transport_oracle(p, q, norm) -> float:
    ns, nt = p.n_atoms, q.n_atoms
    cost = np.empty((ns, nt))
    for i in range(ns):
        diff = q.points - p.points[i]
        cost[i] = (
            np.sum(np.abs(diff), axis=1) if norm is L1 else np.max(np.abs(diff), axis=1)
        )
    A_eq = np.zeros((ns + nt, ns * nt))
    for i in range(ns):
        A_eq[i, i * nt : (i + 1) * nt] = 1.0
    for j in range(nt):
        A_eq[ns + j, j::nt] = 1.0
    rhs = np.concatenate([p.weights, q.weights])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def random_distribution(rng, n_atoms, dim):
    pts = rng.uniform(-2, 2, size=(n_atoms, dim))
    w = rng.dirichlet(np.ones(n_atoms))
    return DiscreteDistribution(pts, w)


class TestDiscreteDistribution:
    def test_empirical_weights(self):
        d = DiscreteDistribution.empirical(np.arange(6.0).reshape(3, 2))
        assert np.allclose(d.weights, 1 / 3)
        assert d.dim == 2

    def test_rejects_bad_weights(self):
        with pytest.raises(DimensionMismatch):
            DiscreteDistribution(np.zeros((2, 1)), np.array([0.3, 0.3]))
        with pytest.raises(DimensionMismatch):
            DiscreteDistribution(np.zeros((2, 1)), np.array([1.5, -0.5]))
        with pytest.raises(DimensionMismatch):
            DiscreteDistribution(np.zeros((2, 1)), np.array([np.nan, 1.0]))

    def test_merge_atoms(self):
        d = DiscreteDistribution(
            np.array([[0.0], [0.0], [1.0]]), np.array([0.25, 0.25, 0.5])
        )
        m = merge_atoms(d)
        assert m.n_atoms == 2
        assert m.weights[0] == pytest.approx(0.5)


class TestWassersteinDistance:
    def test_identical_is_zero(self):
        d = DiscreteDistribution.empirical(np.array([[0.0, 1.0], [2.0, -1.0]]))
        dist = wasserstein_distance(d, d, L1)
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_two_diracs(self):
        a = DiscreteDistribution(np.array([[0.0, 0.0]]), np.array([1.0]))
        b = DiscreteDistribution(np.array([[1.0, 2.0]]), np.array([1.0]))
        d1 = wasserstein_distance(a, b, L1)
        di = wasserstein_distance(a, b, LINF)
        assert d1 == pytest.approx(3.0)
        assert di == pytest.approx(2.0)

    def test_half_mass_move(self):
        p = DiscreteDistribution(np.array([[0.0]]), np.array([1.0]))
        q = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        dist = wasserstein_distance(p, q, L1)
        assert dist == pytest.approx(0.5)

    def test_line_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_distribution(rng, int(rng.integers(1, 6)), 1)
            q = random_distribution(rng, int(rng.integers(1, 6)), 1)
            expect = w1_line_oracle(p, q)
            for norm in (L1, LINF):  # identical on the line
                got = wasserstein_distance(p, q, norm)
                assert got == pytest.approx(expect, abs=1e-8)

    def test_scipy_oracle_multidim(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            dim = int(rng.integers(1, 4))
            p = random_distribution(rng, int(rng.integers(2, 7)), dim)
            q = random_distribution(rng, int(rng.integers(2, 7)), dim)
            for norm in (L1, LINF):
                expect = scipy_transport_oracle(merge_atoms(p), merge_atoms(q), norm)
                got = wasserstein_distance(p, q, norm)
                assert got == pytest.approx(expect, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_distribution(rng, 4, 2)
            q = random_distribution(rng, 5, 2)
            ab = wasserstein_distance(p, q, LINF)
            ba = wasserstein_distance(q, p, LINF)
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_distribution(rng, 3, 2)
            q = random_distribution(rng, 4, 2)
            r = random_distribution(rng, 3, 2)
            pq = wasserstein_distance(p, q, L1)
            qr = wasserstein_distance(q, r, L1)
            pr = wasserstein_distance(p, r, L1)
            assert pr <= pq + qr + 1e-9

    def test_dimension_mismatch(self):
        a = DiscreteDistribution(np.zeros((1, 1)), np.array([1.0]))
        b = DiscreteDistribution(np.zeros((1, 2)), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            wasserstein_distance(a, b, L1)
