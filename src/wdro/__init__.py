"""Wasserstein distributionally robust optimization via finite linear programs.

The package reduces worst-case expectation problems over 1-Wasserstein
balls centered at an empirical distribution to finite linear programs,
solves them with an embedded simplex engine, reconstructs worst-case
(extremal) distributions, calibrates the ball radius from data, and ships
reproducible portfolio and uncertainty-quantification studies.
"""

from .calibrate import (
    DEFAULT_GRID,
    CalibrationResult,
    ConcentrationConfig,
    DecisionProblem,
    UqBound,
    calibrate_holdout,
    calibrate_kfold,
    calibrate_uq_kfold,
    radius_a_priori,
)
from .errors import WdroError
from .extremal import (
    ATOM_TOL,
    EscapeRay,
    ExtremalResult,
    MembershipReport,
    verify_membership,
    worst_case_distribution,
    worst_case_distribution_separable,
)
from .geometry import (
    GroundNorm,
    Polytope,
    dual_norm_value,
    enumerate_vertices,
    nearest_point,
    norm_value,
)
from .lp import LinearProgram, LpBuilder, LpSolution, SolverConfig, dump_program
from .reformulate import (
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
    worst_case_value,
)
from .simplex import solve_lp
from .wasserstein import (
    DiscreteDistribution,
    merge_atoms,
    wasserstein_distance,
)

__version__ = "0.1.0"

# The studies and oracles load scipy; their names resolve on first use
# so that ``import wdro`` loads numpy alone.
_EXPERIMENTS = frozenset({
    "MarketModel",
    "PortfolioDecisionProblem",
    "PortfolioResult",
    "PortfolioSpec",
    "PortfolioStudyConfig",
    "StudyReport",
    "UqStudyConfig",
    "build_portfolio_dro",
    "empirical_cvar",
    "fast_uq_bounds",
    "gaussian_orthant_upper",
    "out_of_sample_objective",
    "outperformance_region",
    "portfolio_empirical_objective",
    "run_portfolio_study",
    "run_uq_study",
    "solve_portfolio",
})

__all__ = [
    "WdroError",
    "LinearProgram",
    "LpBuilder",
    "LpSolution",
    "SolverConfig",
    "dump_program",
    "solve_lp",
    "GroundNorm",
    "norm_value",
    "dual_norm_value",
    "Polytope",
    "nearest_point",
    "enumerate_vertices",
    "DiscreteDistribution",
    "merge_atoms",
    "wasserstein_distance",
    "PiecewiseAffineLoss",
    "EventIndicator",
    "TwoStageLoss",
    "SeparableLoss",
    "DroProblem",
    "build_max_affine",
    "build_min_affine",
    "build_uq_worst",
    "build_uq_best",
    "build_two_stage",
    "build_separable",
    "convex_closed_form",
    "worst_case_value",
    "ATOM_TOL",
    "EscapeRay",
    "ExtremalResult",
    "MembershipReport",
    "worst_case_distribution",
    "worst_case_distribution_separable",
    "verify_membership",
    "DEFAULT_GRID",
    "ConcentrationConfig",
    "CalibrationResult",
    "UqBound",
    "DecisionProblem",
    "radius_a_priori",
    "calibrate_holdout",
    "calibrate_kfold",
    "calibrate_uq_kfold",
    *sorted(_EXPERIMENTS),
    "__version__",
]


def __getattr__(name: str):
    # not cached in this module's globals: ``wdro.experiments`` stays the one
    # binding, so rebinding a name there reaches ``wdro.<name>`` too
    if name in _EXPERIMENTS:
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _EXPERIMENTS)
