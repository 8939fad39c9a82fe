"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems exit 1, analytic
no-transition/divergence conditions exit 2, enumeration budget overruns
exit 3.
"""


class VclabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(VclabError, ValueError):
    """Invalid argument, configuration value, or out-of-domain input."""


class DomainError(ValidationError):
    """Mathematical domain violation (e.g. an overlap outside [-1, 1])."""


class DimensionError(ValidationError):
    """Incompatible dimensions (e.g. more frame rows than the ambient space)."""


class OutOfGridError(ValidationError):
    """Requested (n, p) lies outside a computed count table."""


class BracketError(VclabError):
    """Root bracketing failed: the function has the same sign at both ends."""


class UnsupportedStructureError(VclabError):
    """No analytic recursion coefficients for this multiplet size."""


class InsufficientConditioningError(VclabError):
    """A conditional Monte Carlo estimate never observed its conditioning event."""


class NoTransitionError(VclabError):
    """The transition equation has no root in the admissible regime."""


class DivergenceError(NoTransitionError):
    """A closed-form threshold diverges at this parameter value."""


class NoCrossingError(NoTransitionError):
    """Two entropy curves do not cross inside the supplied load window."""


class BudgetError(VclabError):
    """An exact enumeration would exceed the configured work budget."""
