"""Wasserstein distributionally robust optimization via finite linear programs.

The package reduces worst-case expectation problems over 1-Wasserstein
balls centered at an empirical distribution to finite linear programs,
solves them with an embedded simplex engine, reconstructs worst-case
(extremal) distributions, calibrates the ball radius from data, and ships
reproducible portfolio and uncertainty-quantification studies.
"""

# Each module lists its public names in its own ``__all__``; the package
# re-exports those lists.
from . import calibrate, extremal, geometry, lp, reformulate, simplex, wasserstein
from .calibrate import *
from .errors import WdroError
from .extremal import *
from .geometry import *
from .lp import *
from .reformulate import *
from .simplex import *
from .wasserstein import *

__version__ = "0.1.0"

# The studies and oracles load scipy, so ``experiments`` is not imported
# here: its ``__all__`` is repeated below (a test keeps the two equal) and
# its names resolve on first use, so that ``import wdro`` loads numpy alone.
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
    *lp.__all__,
    *simplex.__all__,
    *geometry.__all__,
    *wasserstein.__all__,
    *reformulate.__all__,
    *extremal.__all__,
    *calibrate.__all__,
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
