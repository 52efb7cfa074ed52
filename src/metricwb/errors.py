"""Exception types shared across the workbench."""


class MetricWbError(Exception):
    """Base class for all workbench-specific errors."""


class ParseError(MetricWbError, ValueError):
    """Raised on malformed input text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NotClosed(MetricWbError):
    """Operation requires a closed term but free variables remain."""


class NotAffine(MetricWbError):
    """Operation requires an affine term but a variable is used twice."""


class IsValue(MetricWbError):
    """Single-step reduction was asked for on a term that is already a value."""


class CoefficientOverflow(MetricWbError):
    """A distribution's total mass exceeds 1."""


class Unbounded(MetricWbError):
    """Linear program objective is unbounded."""


class BudgetExceeded(MetricWbError):
    """State-space construction hit its state cap."""


class NonConvergence(MetricWbError):
    """Fixpoint iteration failed to stabilise within the iteration cap.

    Only the all-pairs oracle bisim.bisim_metric raises it; bisim_distance
    solves cycles exactly and needs no cap."""


class InvalidAction(MetricWbError):
    """Tuple action or tuple template is malformed."""


class TypeCheckError(MetricWbError):
    """Term is not simply typable in the affine discipline."""
