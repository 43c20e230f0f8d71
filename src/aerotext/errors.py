"""Exception types shared across the toolkit, and `read_utf8`, which raises them."""

from pathlib import Path


class AerotextError(Exception):
    """Base class for every error this package raises on purpose."""


def read_utf8(path: str | Path, error: type[AerotextError]) -> str:
    """The text of a UTF-8 file, newlines untranslated; `error`, naming the
    file and line, when it is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


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


class NonfiniteGradient(NonfiniteLoss):
    """A batch gradient with a NaN or an infinity, found before its step."""


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
