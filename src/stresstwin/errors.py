"""Typed errors raised across the package.

Grouped by the stage that raises them; everything derives from
:class:`StressTwinError` so callers (and the CLI) can catch one base class.
"""


class StressTwinError(Exception):
    """Base class for all errors raised by this package."""


# --- record ingest ---------------------------------------------------------

class MalformedHeader(StressTwinError):
    """Header text does not follow the expected record/signal line grammar."""


class UnsupportedFormat(StressTwinError):
    """Signal declares a storage format other than 212."""


class TruncatedData(StressTwinError):
    """Binary signal stream is shorter than the declared sample count."""


class LengthMismatch(StressTwinError):
    """Decoded sample count (or paired record length) disagrees."""


class InvalidParam(StressTwinError):
    """Parameter outside its documented range."""


# --- dsp -------------------------------------------------------------------

class InvalidBand(StressTwinError):
    """Frequency band edges are inconsistent or exceed Nyquist."""


class SignalTooShort(StressTwinError):
    """Input has too few samples for the requested operation."""


class ZeroVariance(StressTwinError):
    """Constant input where variation is required."""


class SegmentTooLong(StressTwinError):
    """PSD segment length exceeds the signal length."""


class EmptyBand(StressTwinError):
    """No spectral bins fall inside the requested band."""


# --- hrv -------------------------------------------------------------------

class TooFewIntervals(StressTwinError):
    """Not enough RR intervals for the statistic."""


class NoMeasurableBeats(StressTwinError):
    """No beat yielded a usable QT measurement."""


class InsufficientData(StressTwinError):
    """Buffer does not span enough time for a spectral estimate."""


class RecordTooShort(StressTwinError):
    """Record shorter than one analysis window."""


class NoValidWindows(StressTwinError):
    """No window of the record produced valid features."""


# --- scoring and labeling --------------------------------------------------

class NonFiniteInput(StressTwinError):
    """NaN or infinity where a finite value is required."""


class InvalidWindow(StressTwinError):
    """Operation requires a valid feature window."""


class OutOfRange(StressTwinError):
    """Score outside [0, 1]."""


class InvalidLevel(StressTwinError):
    """Stress level outside 1..5."""


# --- model and explanations ------------------------------------------------

class EmptyDataset(StressTwinError):
    """Dataset holds no samples."""


class DegenerateData(StressTwinError):
    """Training data contains a single class."""


class DimensionMismatch(StressTwinError):
    """Feature vector length differs from the model's feature count."""


class TooManyFeatures(StressTwinError):
    """Exhaustive subset enumeration limited to 15 features."""


# --- simulator / cli -------------------------------------------------------

class ConfigInvalid(StressTwinError):
    """Run configuration failed validation."""


class IoError(StressTwinError):
    """Filesystem failure while writing an artifact."""
