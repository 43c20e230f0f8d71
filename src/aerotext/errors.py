"""Exception types shared across the toolkit."""


class AerotextError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidConfig(AerotextError, ValueError):
    """An option or config field out of its range; a ValueError as well,
    which the config dataclasses have always raised."""


class NonfiniteValue(AerotextError):
    """A NaN or infinity on its way into a JSON artifact or result line."""


# --- corpus ---------------------------------------------------------------

class MissingColumn(AerotextError):
    pass


class MalformedCsv(AerotextError):
    pass


class InvalidMapping(AerotextError):
    pass


class UnmappedOperator(AerotextError):
    pass


class TooFewRecords(AerotextError):
    pass


# --- textprep -------------------------------------------------------------

class EmptyCorpus(AerotextError):
    pass


# --- models ---------------------------------------------------------------

class ShapeMismatch(AerotextError):
    pass


class IdOutOfRange(AerotextError):
    pass


class KernelTooLarge(AerotextError):
    pass


# --- training -------------------------------------------------------------

class EmptySplit(AerotextError):
    pass


class NonfiniteLoss(AerotextError):
    pass


class VersionUnsupported(AerotextError):
    pass


class CorruptCheckpoint(AerotextError):
    pass


# --- evaluation -----------------------------------------------------------

class LengthMismatch(AerotextError):
    pass


class EmptyInput(AerotextError):
    pass


class EmptyMatrix(AerotextError):
    pass


class IoFailure(AerotextError):
    pass
