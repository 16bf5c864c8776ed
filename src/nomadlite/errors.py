"""Exception hierarchy shared across the package."""


class NomadError(Exception):
    """Base class for all package errors."""


class UnsupportedFormatError(NomadError):
    """WAV file is not RIFF PCM 16-bit mono."""


class CorruptHeaderError(NomadError):
    """WAV header could not be parsed."""


class SignalTooShortError(NomadError):
    """Signal shorter than one analysis window."""


class ShapeMismatchError(NomadError):
    """Spectrogram shapes disagree."""


class PatchTooLargeError(NomadError):
    """NSIM patch exceeds spectrogram dimensions."""


class DegenerateSignalError(NomadError):
    """Signal is constant where variation is required."""


class SilentInputError(NomadError):
    """Zero-power signal where energy is required."""


class UnsupportedBitrateError(NomadError):
    """Bitrate outside the supported level table."""


class MissingEncoderError(NomadError):
    """External codec command not configured or not found."""


class EncoderFailedError(NomadError):
    """External codec command exited nonzero."""


class EmptyCorpusError(NomadError):
    """No usable clean WAV files found."""


class TooFewEntriesError(NomadError):
    """Sample set too small to form triplets."""


class EmptyNegativeSetError(NomadError):
    """No valid negative exists for this anchor/positive pair."""


class ExhaustedSamplerError(NomadError):
    """Could not assemble the requested number of triplets."""


class BandMismatchError(NomadError):
    """Spectrogram band count differs from the encoder's input width."""


class CorruptCheckpointError(NomadError):
    """Checkpoint file failed validation."""


class EmptyPoolError(NomadError):
    """Reference pool has no members."""


class DegenerateInputError(NomadError):
    """Correlation undefined (constant input)."""


class JoinEmptyError(NomadError):
    """Score/MOS join produced no rows."""


class DataError(NomadError):
    """Input data invalid (empty or source-overlapping splits, a table repeating a clip)."""


class MalformedTableError(NomadError, ValueError):
    """CSV table has a wrong header, a row of the wrong width, or a bad cell."""
