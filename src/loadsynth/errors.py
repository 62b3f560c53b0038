"""Exception types shared across the package.

Everything derives from LoadSynthError so callers can catch the whole
family; the CLI maps subfamilies onto exit codes.
"""


class LoadSynthError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateProfile(LoadSynthError):
    """Profile mean is too small (or negative) to normalize or rescale."""


class EmptyInput(LoadSynthError):
    """An operation received an empty sample sequence."""


class InvalidFactor(LoadSynthError):
    """Downsampling factor is zero or otherwise unusable."""


class ParseError(LoadSynthError):
    """Text does not match the resolution/duration grammar."""


class ResolutionTooFine(LoadSynthError):
    """Requested effective sampling period is below the 1/30 s ceiling."""


class InsufficientData(LoadSynthError):
    """Input data is missing, malformed, or too short to extract or fit something."""


class MissingChannel(InsufficientData):
    """A phasor record lacks the voltage/current pair for some line."""


class WindowTooShort(LoadSynthError):
    """Detrending window does not cover the required five hours."""


class ShapeMismatch(LoadSynthError):
    """Tensor shapes are incompatible with the layer configuration."""


class DatasetTooSmall(LoadSynthError):
    """Training dataset smaller than the minimum for the configuration."""


class DivergenceDetected(LoadSynthError):
    """GAN losses became non-finite even after the bounded retry."""


class MissingLabelCoverage(LoadSynthError):
    """Conditional training data misses some (load class, season) combos."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(
            "label combinations with too few examples: "
            + ", ".join(str(m) for m in self.missing)
        )


class LabelRequired(LoadSynthError):
    """Conditional model invoked without conditioning labels."""


class SeamTooCloseToEdge(LoadSynthError):
    """Seam filtering needs two in-range neighbours on both sides."""


class NoSeams(LoadSynthError):
    """Seam statistics requested over an empty seam set."""


class SeriesTooShort(LoadSynthError):
    """Forecast series shorter than the autoregression needs."""


class DurationExceedsYear(LoadSynthError):
    """Single-year pipeline asked for more than one year of output."""


class RequestError(LoadSynthError):
    """GenerationRequest violates one of its invariants."""


class BundleError(LoadSynthError):
    """Model bundle is missing, incomplete, or from another format version."""


class RankDeficientWarning(UserWarning):
    """Training matrix for the pattern model is numerically rank deficient."""
