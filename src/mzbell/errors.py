"""Exception types shared across the package.

The CLI maps them to exit codes: 2 for ``DimensionLimitError`` (and any
input error), 3 for the two degeneracy errors and 5 for
``RouteResidualError`` (``bell-scan`` only); 4 is retired.
"""


class MzBellError(Exception):
    """Base class for all package-specific errors."""


class DegenerateStateError(MzBellError, ValueError):
    """A channel has (numerically) zero mean photon number, so normalized
    coherence functions are undefined."""


class DegenerateDenominatorError(MzBellError, ValueError):
    """The sum-correlation denominator of the modulation depth vanished:
    there is no signal, which is distinct from zero correlation."""


class RouteResidualError(MzBellError, RuntimeError):
    """A numeric E route broke the phase covariance its trig-form
    coefficients rest on: a pointwise E, or an <S1 S2>, disagreed with
    them beyond roundoff (``homodyne.numeric_fringe_coefficients``). The
    CLI exits with code 5, from ``bell-scan`` only."""


class DimensionLimitError(MzBellError, ValueError):
    """A constructed state would exceed the configured basis-size limit."""
