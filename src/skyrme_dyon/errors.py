"""Exception types shared across the package."""


class SkyrmeDyonError(Exception):
    """Base class for all package errors."""


class ParameterError(SkyrmeDyonError, ValueError):
    """An argument lies outside its documented admissible range."""


class RegionError(ParameterError):
    """Model parameters lie outside the admissible (omega, q) region."""


class NumericError(SkyrmeDyonError, ValueError):
    """Non-finite data was encountered, or a linear system cannot be solved; the message names the node or pivot where it can."""


class DecayWindowError(SkyrmeDyonError, RuntimeError):
    """The exponential-fit window is empty or too thin; enlarge the domain."""
