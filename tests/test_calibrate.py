"""Radius calibration: the a-priori formula against direct evaluation,
and the data-driven selectors on synthetic decision problems whose
optimal radius is known by construction."""

import numpy as np
import pytest

from wdro.calibrate import (
    DEFAULT_GRID,
    SCORE_TIE_RTOL,
    CalibrationResult,
    ConcentrationConfig,
    calibrate_holdout,
    calibrate_kfold,
    calibrate_uq_kfold,
    empirical_frequency,
    radius_a_priori,
)
from wdro.errors import (
    DatasetTooSmall,
    DimensionMismatch,
    GridEmpty,
    HypothesisViolated,
    InvalidBeta,
    NoCoveringRadius,
)
from wdro.experiments import fast_uq_bounds
from wdro.geometry import GroundNorm, Polytope
from wdro.reformulate import DroProblem, EventIndicator, worst_case_value


class TestAPrioriRadius:
    CFG = ConcentrationConfig(c1=1.0, c2=1.0, a=2.0, m=3)

    def test_direct_evaluation(self):
        got = radius_a_priori(100, np.exp(-1.0), self.CFG)
        assert got == pytest.approx(0.01 ** (1.0 / 3.0), abs=1e-12)

    def test_low_dimension_uses_square_root(self):
        cfg = ConcentrationConfig(c1=1.0, c2=1.0, a=2.0, m=1)
        assert radius_a_priori(100, np.exp(-1.0), cfg) == pytest.approx(0.1)

    def test_small_sample_branch_uses_tail_exponent(self):
        cfg = ConcentrationConfig(c1=float(np.exp(10.0)), c2=1.0, a=4.0, m=2)
        # log(c1/beta) = 11 > N = 5, so the 1/a branch applies
        got = radius_a_priori(5, np.exp(-1.0), cfg)
        assert got == pytest.approx((11.0 / 5.0) ** 0.25, abs=1e-12)

    def test_monotone_in_sample_count(self):
        radii = [radius_a_priori(n, 0.05, self.CFG) for n in (1, 2, 5, 20, 100, 1000)]
        assert all(b <= a + 1e-15 for a, b in zip(radii, radii[1:]))

    def test_monotone_in_beta(self):
        radii = [radius_a_priori(50, b, self.CFG) for b in (0.01, 0.05, 0.2, 0.9)]
        assert all(b <= a + 1e-15 for a, b in zip(radii, radii[1:]))

    def test_zero_when_log_term_nonpositive(self):
        cfg = ConcentrationConfig(c1=0.5, c2=1.0, a=2.0, m=2)
        assert radius_a_priori(10, 0.9, cfg) == 0.0

    def test_invalid_beta(self):
        for beta in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(InvalidBeta):
                radius_a_priori(10, beta, self.CFG)

    def test_bad_constants(self):
        with pytest.raises(DimensionMismatch):
            ConcentrationConfig(c1=-1.0, c2=1.0, a=2.0, m=1)
        with pytest.raises(DimensionMismatch):
            ConcentrationConfig(c1=1.0, c2=1.0, a=1.0, m=1)


class RadiusSeeking:
    """Toy template: training just remembers the radius; the validation
    score penalizes distance to a fixed target radius, so the selector
    must return the grid point nearest the target."""

    def __init__(self, target):
        self.target = target

    def train(self, samples, epsilon):
        return (float(np.mean(samples)), float(epsilon))

    def score(self, decision, samples):
        return (decision[1] - self.target) ** 2


class ValidationMeanSeeking:
    """Score depends on the validation fold, so different folds pick
    different radii."""

    def train(self, samples, epsilon):
        return float(epsilon)

    def score(self, decision, samples):
        return (decision - float(np.mean(samples))) ** 2


class FixedScores:
    """Training returns the radius; each radius has a fixed score."""

    def __init__(self, scores):
        self.scores = scores

    def train(self, samples, epsilon):
        return float(epsilon)

    def score(self, decision, samples):
        return self.scores[decision]


class TestScoreTies:
    DATA = np.linspace(-1.0, 1.0, 12).reshape(-1, 1)

    def test_rounding_noise_is_a_tie(self):
        # the larger radius scores 1 ulp better
        scores = {0.1: 1.0, 0.2: np.nextafter(1.0, 0.0), 0.4: 2.0}
        problem = FixedScores(scores)
        assert calibrate_holdout(self.DATA, problem, grid=list(scores)).radius == 0.1
        res = calibrate_kfold(self.DATA, problem, grid=list(scores), k=3)
        assert res.fold_radii == (0.1, 0.1, 0.1)

    def test_a_better_score_beyond_the_tolerance_wins(self):
        scores = {0.1: 1.0, 0.2: 1.0 - 3 * SCORE_TIE_RTOL, 0.4: 2.0}
        problem = FixedScores(scores)
        assert calibrate_holdout(self.DATA, problem, grid=list(scores)).radius == 0.2
        res = calibrate_kfold(self.DATA, problem, grid=list(scores), k=3)
        assert res.fold_radii == (0.2, 0.2, 0.2)


class TestHoldout:
    DATA = np.linspace(-1.0, 1.0, 12).reshape(-1, 1)

    def test_selects_grid_point_nearest_target(self):
        res = calibrate_holdout(
            self.DATA, RadiusSeeking(0.3), grid=[0.0, 0.25, 0.5, 1.0], seed=3
        )
        assert res.radius == 0.25
        assert res.method == "holdout"
        assert res.decision[1] == 0.25

    def test_tie_breaks_to_smaller_radius(self):
        # 0.25 and 0.5 are equally far from 0.375
        res = calibrate_holdout(
            self.DATA, RadiusSeeking(0.375), grid=[0.0, 0.25, 0.5, 1.0]
        )
        assert res.radius == 0.25

    def test_constant_score_returns_smallest(self):
        res = calibrate_holdout(self.DATA, RadiusSeeking(-10.0), grid=[0.1, 0.2, 0.4])
        assert res.radius == 0.1

    def test_singleton_zero_grid(self):
        res = calibrate_holdout(self.DATA, RadiusSeeking(0.5), grid=[0.0])
        assert res.radius == 0.0

    def test_score_table_covers_grid(self):
        grid = [0.0, 0.1, 0.2]
        res = calibrate_holdout(self.DATA, RadiusSeeking(0.1), grid=grid)
        assert [e for e, _ in res.table] == grid
        best_score = dict(res.table)[res.radius]
        assert all(best_score <= s + 1e-15 for _, s in res.table)

    def test_partition_is_recorded(self):
        res = calibrate_holdout(self.DATA, RadiusSeeking(0.1), grid=[0.1], split=0.75)
        (val_block,) = res.partition
        assert len(val_block) == 3  # N=12, split 0.75 -> 9 train, 3 validation
        assert set(val_block) <= set(range(12))

    def test_reproducible_under_seed(self):
        a = calibrate_holdout(self.DATA, RadiusSeeking(0.2), grid=[0.1, 0.3], seed=11)
        b = calibrate_holdout(self.DATA, RadiusSeeking(0.2), grid=[0.1, 0.3], seed=11)
        assert a == b

    def test_default_grid_used_when_omitted(self):
        res = calibrate_holdout(self.DATA, RadiusSeeking(1e-4))
        assert len(res.table) == len(DEFAULT_GRID)
        assert res.radius == DEFAULT_GRID[0]

    def test_errors(self):
        with pytest.raises(GridEmpty):
            calibrate_holdout(self.DATA, RadiusSeeking(0.1), grid=[])
        with pytest.raises(DatasetTooSmall):
            calibrate_holdout(self.DATA[:1], RadiusSeeking(0.1), grid=[0.1])
        with pytest.raises(DimensionMismatch):
            calibrate_holdout(self.DATA, RadiusSeeking(0.1), grid=[0.1], split=1.5)


class TestKFold:
    DATA = np.concatenate([np.zeros(6), np.ones(6)]).reshape(-1, 1)

    def test_identical_folds_average_to_common_choice(self):
        res = calibrate_kfold(self.DATA, RadiusSeeking(0.5), grid=[0.1, 0.5], k=3)
        assert res.fold_radii == (0.5, 0.5, 0.5)
        assert res.radius == 0.5
        assert res.method == "kfold"

    def test_average_may_leave_the_grid(self):
        res = calibrate_kfold(
            self.DATA, ValidationMeanSeeking(), grid=[0.0, 1.0], k=4, seed=5
        )
        assert res.radius == pytest.approx(float(np.mean(res.fold_radii)))
        assert all(r in (0.0, 1.0) for r in res.fold_radii)

    def test_decision_retrained_on_all_data(self):
        res = calibrate_kfold(self.DATA, RadiusSeeking(0.1), grid=[0.1], k=2)
        assert res.decision[0] == pytest.approx(0.5)  # mean of all 12 samples

    def test_partition_covers_everything_once(self):
        res = calibrate_kfold(self.DATA, RadiusSeeking(0.1), grid=[0.1], k=5, seed=9)
        flat = [i for block in res.partition for i in block]
        assert sorted(flat) == list(range(12))
        assert len(res.partition) == 5

    def test_reproducible_under_seed(self):
        a = calibrate_kfold(self.DATA, ValidationMeanSeeking(), grid=[0.0, 1.0], seed=2)
        b = calibrate_kfold(self.DATA, ValidationMeanSeeking(), grid=[0.0, 1.0], seed=2)
        assert a == b

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            calibrate_kfold(self.DATA, RadiusSeeking(0.1), grid=[0.1], k=1)
        with pytest.raises(DatasetTooSmall):
            calibrate_kfold(self.DATA[:3], RadiusSeeking(0.1), grid=[0.1], k=5)


class TestNonFiniteGrid:
    """A non-finite point anywhere in the grid is refused; a NaN must not
    be sorted into the middle, where a test of the last point misses it."""

    DATA = np.linspace(-1.0, 1.0, 12).reshape(-1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_every_calibrator_refuses_it(self, bad, where):
        grid = [0.1, 0.3]
        grid.insert(where, bad)
        with pytest.raises(GridEmpty):
            calibrate_holdout(self.DATA, RadiusSeeking(0.1), grid=grid)
        with pytest.raises(GridEmpty):
            calibrate_kfold(self.DATA, RadiusSeeking(0.1), grid=grid, k=2)
        region = Polytope([[1.0]], [0.0], 1)
        with pytest.raises(GridEmpty):
            calibrate_uq_kfold(
                self.DATA, region, grid=grid, k=2,
                bound_fns=fast_uq_bounds(region),
            )


class TestFolds:
    def test_both_kfold_calibrators_share_the_partition(self):
        data = np.random.default_rng(4).normal(size=(11, 1))
        region = Polytope([[1.0]], [0.0], 1)
        plain = calibrate_kfold(data, RadiusSeeking(0.1), grid=[0.1], k=3, seed=8)
        bracket = calibrate_uq_kfold(
            data, region, grid=[0.1, 5.0], k=3, seed=8,
            bound_fns=fast_uq_bounds(region),
        )
        assert plain.partition == bracket.partition
        blocks = np.array_split(np.random.default_rng(8).permutation(11), 3)
        assert plain.partition == tuple(tuple(b.tolist()) for b in blocks)

    def test_uq_kfold_errors(self):
        region = Polytope([[1.0]], [0.0], 1)
        bounds = fast_uq_bounds(region)
        with pytest.raises(DimensionMismatch):
            calibrate_uq_kfold(np.zeros((4, 1)), region, k=1, bound_fns=bounds)
        with pytest.raises(DatasetTooSmall):
            calibrate_uq_kfold(np.zeros((4, 1)), region, k=5, bound_fns=bounds)


class TestSampleCheck:
    """The calibrators check their samples as a DroProblem does before
    any fold is made."""

    REGION = Polytope([[1.0]], [0.0], 1)

    @pytest.mark.parametrize("fault", ["nan", "inf", "empty"])
    @pytest.mark.parametrize(
        "calibrate",
        [
            lambda X: calibrate_holdout(X, RadiusSeeking(0.1), grid=[0.1]),
            lambda X: calibrate_kfold(X, RadiusSeeking(0.1), grid=[0.1], k=2),
            lambda X: calibrate_uq_kfold(
                X, TestSampleCheck.REGION, k=2,
                bound_fns=fast_uq_bounds(TestSampleCheck.REGION),
            ),
        ],
        ids=["holdout", "kfold", "uq-kfold"],
    )
    def test_calibrators_refuse_bad_samples(self, calibrate, fault):
        X = np.linspace(-1.0, 1.0, 10).reshape(-1, 1)
        if fault == "empty":
            X = X[:0]
        else:
            X[3, 0] = np.nan if fault == "nan" else np.inf
        with pytest.raises(DimensionMismatch, match="sample"):
            calibrate(X)


class TestUqKFold:
    def test_region_containing_everything_has_no_lower_bound(self):
        # 0*x <= 1 always holds: its complement is empty and unreachable,
        # so the lower-bound program's hypothesis fails
        data = np.linspace(-1, 1, 8).reshape(-1, 1)
        whole = Polytope([[0.0]], [1.0], 1)
        with pytest.raises(HypothesisViolated):
            calibrate_uq_kfold(
                data, whole, grid=[0.05, 0.2], k=2, bound_fns=fast_uq_bounds(whole)
            )

    def test_bracket_orders_correctly(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(10, 1))
        region = Polytope([[1.0]], [0.4], 1)  # {x <= 0.4}
        res = calibrate_uq_kfold(
            data, region, grid=[0.0, 0.1, 0.3, 1.0], k=2, seed=1,
            bound_fns=fast_uq_bounds(region),
        )
        upper, lower = res.bounds
        assert (upper.side, lower.side) == ("upper", "lower")
        assert lower.value <= upper.value + 1e-9
        assert res.radius == upper.radius
        freq = empirical_frequency(data, region)
        assert lower.value <= freq + 0.5
        assert upper.value >= freq - 0.5

    def test_zero_radius_brackets_collapse_to_frequency(self):
        data = np.array([[-1.0], [0.0], [1.0], [2.0]])
        region = Polytope([[1.0]], [0.5], 1)
        free = Polytope.free(1)
        best = DroProblem(
            data, free, 0.0, GroundNorm.L1, EventIndicator(region, "inside")
        )
        worst = DroProblem(
            data, free, 0.0, GroundNorm.L1, EventIndicator(region, "outside")
        )
        assert worst_case_value(best) == pytest.approx(0.5, abs=1e-9)
        assert 1.0 - worst_case_value(worst) == pytest.approx(0.5, abs=1e-9)

    def test_no_covering_radius(self):
        data = np.array([[0.0], [0.0], [1.0]])
        region = Polytope([[1.0]], [0.5], 1)
        with pytest.raises(NoCoveringRadius):
            calibrate_uq_kfold(
                data, region, grid=[0.0], k=2, seed=0,
                bound_fns=fast_uq_bounds(region),
            )

    def test_injected_bound_functions_are_used(self):
        calls = []

        def j_plus(samples, eps):
            calls.append(("plus", eps))
            return 1.0

        def j_minus(samples, eps):
            calls.append(("minus", eps))
            return 0.0

        data = np.zeros((6, 1))
        region = Polytope([[1.0]], [0.5], 1)
        res = calibrate_uq_kfold(
            data, region, grid=[0.2], k=2, bound_fns=(j_plus, j_minus)
        )
        assert calls  # evaluators were exercised
        assert {b.side for b in res.bounds} == {"upper", "lower"}


class TestEmpiricalFrequency:
    def test_boundary_counts_inside(self):
        region = Polytope([[1.0]], [1.0], 1)
        assert empirical_frequency(np.array([[1.0], [2.0]]), region) == 0.5

    def test_free_region_is_certain(self):
        assert empirical_frequency(np.array([[5.0]]), Polytope.free(1)) == 1.0
