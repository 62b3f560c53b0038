"""Exception types shared across the package.

Each error family is one exit code of the command line (`cli.main` maps
them): RequestError 2, InsufficientData and BundleError 3,
DivergenceDetected 5, and any other LoadSynthError, a generation failure, 4.
DegenerateProfile and ShapeMismatch are such failures, kept apart because
the command line prints the class name.  Misuse of the library, an argument
no command-line input can produce, raises ValueError.
"""


class LoadSynthError(Exception):
    """Base class for all errors raised by this package: a generation failure."""


class RequestError(LoadSynthError):
    """The request or its arguments are invalid: a malformed or too-fine
    resolution or duration, or a request that breaks one of its invariants."""


class InsufficientData(LoadSynthError):
    """Input data is missing, malformed, or too short to extract or train something."""


class BundleError(LoadSynthError):
    """Model bundle is missing, incomplete, or from another format version."""


class DivergenceDetected(LoadSynthError):
    """GAN losses became non-finite even after the bounded retry."""


class DegenerateProfile(LoadSynthError):
    """Profile mean is too small (or negative) to rescale, or samples are non-finite."""


class ShapeMismatch(LoadSynthError):
    """Tensor shapes are incompatible with the layer configuration."""


class RankDeficientWarning(UserWarning):
    """Training matrix for the pattern model is numerically rank deficient."""
