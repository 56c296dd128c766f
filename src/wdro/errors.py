"""Exception types shared across the package.

Every error raised on a user-facing code path derives from ``WdroError`` so
callers can catch one base class.  Input-validation failures raise the most
specific subclass available; plain ``ValueError`` is reserved for programming
mistakes inside the package itself.
"""

from __future__ import annotations


class WdroError(Exception):
    """Base class for all package errors."""


class MalformedProgram(WdroError):
    """A linear program failed structural validation (NaN entries,
    mismatched shapes, lower bound above upper bound, unknown relation)."""


class NumericalBreakdown(WdroError):
    """The simplex engine could not produce a trustworthy answer: a basis
    turned singular in a phase's periodic refactorization (a start or
    restart repairs one instead), the hard iteration cap was reached,
    phase one reported an unbounded direction, or a solution kept failing
    the final check against the original program (residuals, reduced-cost
    signs, primal-dual gap) after the restarts from the current basis, the
    last one under Bland's rule."""


class EmptySupport(WdroError):
    """The support polytope contains no points."""


class UnboundedPolyhedron(WdroError):
    """Vertex enumeration was asked for a polyhedron with a nonzero
    recession cone."""


class TooLarge(WdroError):
    """A routine would exceed its size cap: a combinatorial enumeration, or
    a dense program past ``lp.MAX_DENSE_BYTES``."""


class NormUnsupported(WdroError):
    """A ground norm other than the 1-norm or the max-norm was requested."""


class DimensionMismatch(WdroError):
    """Arrays that must share a dimension do not."""


class HypothesisViolated(WdroError):
    """A structural precondition of a reformulation does not hold, e.g. a
    halfspace that never meets the support, or an empty target set."""


class RecourseSetUnbounded(WdroError):
    """The second-stage feasible set {y : Wy >= h} is empty or unbounded,
    so the two-stage loss is not finite-valued."""


class DualPolytopeUnbounded(WdroError):
    """The dual feasible set {theta >= 0 : W'theta = q} is unbounded, so it
    cannot be described by its vertices."""


class SampleOutsideSupport(WdroError):
    """A data point violates the support constraints by more than the
    membership tolerance."""


class EscapingMassPresent(WdroError):
    """Ball membership was requested for a worst-case description whose
    optimum is only attained asymptotically.  The exception carries the
    transport cost of the retained (finite) part in ``retained_cost``."""

    def __init__(self, message: str, retained_cost: float | None = None):
        super().__init__(message)
        self.retained_cost = retained_cost


class InvalidBeta(WdroError):
    """Confidence parameter outside (0, 1)."""


class GridEmpty(WdroError):
    """A calibration routine received an empty candidate grid."""


class DatasetTooSmall(WdroError):
    """Too few samples to split into the requested parts."""


class NoCoveringRadius(WdroError):
    """No candidate radius satisfies the calibration acceptance rule."""


class SupportNotFullSpace(WdroError):
    """A closed-form shortcut only valid for unconstrained support was
    invoked with a constrained support polytope."""


class SpecFileError(WdroError):
    """A problem-specification file failed validation.  ``field`` names the
    offending JSON path when known."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
