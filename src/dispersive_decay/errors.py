"""Exception types and warning categories shared across the package."""


class InvalidInputError(ValueError):
    """Input contains NaN/Inf or has the wrong shape for its grid."""


class OutOfBandError(ValueError):
    """Requested dyadic band exceeds the Nyquist frequency of the grid."""


class DomainTooSmallError(ValueError):
    """Wrap-around guard violation for the periodic spectral propagator.

    Carries the smallest admissible half-width for the requested evolution.
    """

    def __init__(self, message, min_half_width):
        super().__init__(message)
        self.min_half_width = float(min_half_width)


class AccuracyNotMetError(RuntimeError):
    """Oscillatory quadrature exhausted its refinement budget."""


class ParameterError(ValueError):
    """Parameter outside its documented range."""


class UndefinedRatioError(ArithmeticError):
    """A ratio check was requested on data whose denominator vanishes.

    Raised as a signal: suite drivers catch it and exclude the case from
    statistics rather than treating it as a failure.
    """


class SuiteDegenerateError(RuntimeError):
    """A suite has nothing to measure, or too many of its ratios are undefined."""


class BoundaryDecayWarning(UserWarning):
    """Data does not decay at the edge of the spatial or spectral grid."""
