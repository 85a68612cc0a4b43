"""Exception hierarchy shared across the package.

Two families matter to callers: :class:`ValidationError` means the inputs
were rejected (CLI exit code 2), :class:`NumericalGuardError` means a
computation refused to return a meaningless value (CLI exit code 3).
"""


class RelBelError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RelBelError):
    """Invalid input data or parameters."""


class NumericalGuardError(RelBelError):
    """A numerical safeguard tripped; the result would be unreliable."""


# --- model validation -------------------------------------------------------

class NonStochasticRowError(ValidationError):
    """A likelihood row does not sum to 1 within tolerance."""


class NegativeMassError(ValidationError):
    """A probability mass or likelihood entry is negative."""


class PriorNotNormalizedError(ValidationError):
    """Prior masses do not sum to 1 within tolerance."""


class ImpossibleObservationError(ValidationError):
    """The observed outcome has zero prior-predictive mass."""


class EmptyFiberError(ValidationError):
    """A marginal value carries zero prior mass (empty or null fiber)."""


# --- grids ------------------------------------------------------------------

class BadRangeError(ValidationError):
    """Interval endpoints are not ordered, or the grid misses required support."""


class ZeroCellsError(ValidationError):
    """A grid must have at least one cell."""


class NegativeDensityError(ValidationError):
    """A density evaluated negative (or a CDF decreased)."""


class AllZeroMassError(ValidationError):
    """The density places no mass on the grid range."""


class IndexOutOfRangeError(ValidationError):
    """A cell or outcome index is outside the valid range."""


# --- evidence ---------------------------------------------------------------

class ZeroPriorPositivePosteriorError(ValidationError):
    """Posterior mass sits on a value with zero prior mass."""


class BadGammaError(ValidationError):
    """Credibility level must lie in [0, 1]."""


# --- decision ---------------------------------------------------------------

class ZeroPriorMassError(ValidationError):
    """Reciprocal-prior loss requires strictly positive prior masses."""


class BadEtaError(ValidationError):
    """The loss cap parameter must be strictly positive."""


class RuleSpaceTooLargeError(ValidationError):
    """Exhaustive rule enumeration exceeds the configured cap."""


# --- classify ---------------------------------------------------------------

class BothDensitiesZeroError(ValidationError):
    """Both class densities vanish at the observed point."""


# --- regression -------------------------------------------------------------

class RankDeficientError(ValidationError):
    """Design matrix is (numerically) rank deficient."""


class ZeroDirectionError(ValidationError):
    """The functional direction vector must be nonzero."""


# --- limit experiments ------------------------------------------------------

class TieAtMaximizerError(ValidationError):
    """The evidence maximizer is not unique, so the limit target is undefined."""


class NoAttainableGammaError(ValidationError):
    """No attainable posterior content matches the requested level."""


class TooManyCellsError(ValidationError):
    """A ladder or reference grid would have more cells than the cap."""


# --- numerical guards -------------------------------------------------------

class GridTooCoarseError(NumericalGuardError):
    """Grid resolution is too coarse for the requested check."""


class NearSingularMagnifierError(NumericalGuardError):
    """Posterior and prior spreads are too close; magnification is unstable."""


class SeparationViolatedError(NumericalGuardError):
    """The evidence function is flat; no separated maximizer exists."""


class RiskCrossCheckError(NumericalGuardError):
    """A direct prior risk disagrees with its closed form beyond 1e-9."""
