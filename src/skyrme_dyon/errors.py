"""Exception types shared across the package."""


class SkyrmeDyonError(Exception):
    """Base class for all package errors."""


class ParameterError(SkyrmeDyonError, ValueError):
    """An argument lies outside its documented admissible range."""


class RegionError(ParameterError):
    """Model parameters lie outside the admissible (omega, q) region."""


class NumericError(SkyrmeDyonError, ValueError):
    """Non-finite data was encountered; the message names the offending node."""


class TestFunctionError(SkyrmeDyonError, ValueError):
    """A constraint test function violates its boundary requirement."""


class DecayWindowError(SkyrmeDyonError, RuntimeError):
    """The exponential-fit window is empty or too thin; enlarge the domain."""
