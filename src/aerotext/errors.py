"""Exception types shared across the toolkit, and the UTF-8 readers that raise them."""

from collections.abc import Iterator
from pathlib import Path


class AerotextError(Exception):
    """Base class for every error this package raises on purpose."""


def read_utf8_lines(path: str | Path, error: type[AerotextError]) -> Iterator[str]:
    """Each line of a UTF-8 file with its "\\n", "\\r\\n" or "\\r" end, decoded
    one at a time; `error`, naming the file and line, at the first line that
    is not UTF-8. No other character ends a line: `str.splitlines` would also
    split at U+2028, U+0085, "\\x0c" and others."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    for number, line in enumerate(lines, start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{number}: not UTF-8 text ({exc.reason})") from None


def read_utf8(path: str | Path, error: type[AerotextError]) -> str:
    """The text of a UTF-8 file, newlines untranslated; `error`, naming the
    file and line, when it is not UTF-8."""
    return "".join(read_utf8_lines(path, error))


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

