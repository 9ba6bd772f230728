"""Exception hierarchy shared by all solver and closed-form modules."""


class CknError(Exception):
    """Base class for all library errors."""


class ParameterDomainError(CknError):
    """Inputs outside the admissible parameter range (n < 2, q < 2, ...)."""


class SingularParameterError(ParameterDomainError):
    """A rescaling exponent hit the singular value 4 - n."""


class DivergentWeightError(CknError):
    """The power-law weight is not integrable at the origin."""


class IntegrandError(CknError):
    """The integrand returned NaN somewhere on the domain."""


class GridError(ParameterDomainError):
    """Bad grid: too coarse, wrong parity, or mismatched nodes."""


class SupportViolationError(CknError):
    """A profile is not compactly supported where the operation requires it."""


class SupportWarning(UserWarning):
    """Boundary values of a profile are not negligible."""


class UnconvergedResultError(CknError):
    """An operation refused to consume an unconverged solver result."""


class DegenerateIdentityError(ParameterDomainError):
    """An integral identity degenerates for the given parameters."""


class ConsistencyError(CknError):
    """Two routes to the same quantity disagree beyond rounding."""
