"""Operator/narrative record ingestion, 3-way annotation, cleaning, splits.

Raw records come from an RFC-4180 CSV with an operator column and a
narrative column. Operators are mapped onto the three target classes via
an external pattern file (the original data carries hundreds of distinct
operator labels), rows with blank fields or exact duplicates are dropped
with per-reason counts, and the labeled records are shuffled and split
80/10/10 by a documented PRNG so the split is reproducible anywhere.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .errors import (
    InvalidMapping,
    MalformedCsv,
    MissingColumn,
    TooFewRecords,
    UnmappedOperator,
    read_utf8,
)

DEFAULT_OPERATOR_COLUMN = "Operator"
DEFAULT_SUMMARY_COLUMN = "Summary"


class OperatorClass(IntEnum):
    """The three target classes. Codes are fixed by alphabetical order."""

    COMMERCIAL = 0
    MILITARY = 1
    PRIVATE = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_name(cls, name: str) -> "OperatorClass":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown class name {name!r}; expected one of "
                             f"{', '.join(c.label for c in cls)}") from None


@dataclass(frozen=True)
class RawRecord:
    operator: str
    summary: str


@dataclass(frozen=True)
class LabeledRecord:
    label: OperatorClass
    summary: str


def normalize_operator(operator: str) -> str:
    """Case-fold, trim, and collapse internal whitespace."""
    return " ".join(operator.casefold().split())


class OperatorMapping:
    """Ordered (pattern, class) entries with whole-word lookup.

    The longest pattern that occurs as a whole-word token span of the
    normalized operator wins; an exact match is the longest span. Ties
    go to the lower class code, then to the earlier entry.
    """

    def __init__(self, entries: Sequence[tuple[str, OperatorClass]]):
        # normalized pattern -> (-len, class code, entry index); the smallest key wins
        self._rank: dict[str, tuple[int, int, int]] = {}
        for index, (pattern, cls) in enumerate(entries):
            norm = normalize_operator(pattern)
            if not norm:
                raise InvalidMapping("empty pattern after normalization")
            if norm in self._rank:
                raise InvalidMapping(f"duplicate pattern {norm!r} after normalization")
            self._rank[norm] = (-len(norm), int(cls), index)
        self._max_tokens = max((len(norm.split()) for norm in self._rank), default=0)

    @classmethod
    def load(cls, path: str | Path) -> "OperatorMapping":
        """Read a UTF-8 TSV of `pattern<TAB>class-name`; `#` starts a comment."""
        entries = []
        for lineno, line in enumerate(read_utf8(path, InvalidMapping).splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "\t" not in stripped:
                raise InvalidMapping(f"{path}:{lineno}: expected pattern<TAB>class")
            pattern, _, name = stripped.partition("\t")
            try:
                entries.append((pattern, OperatorClass.from_name(name)))
            except ValueError as exc:
                raise InvalidMapping(f"{path}:{lineno}: {exc}") from None
        return cls(entries)

    def lookup(self, operator: str) -> OperatorClass:
        # a normalized pattern is the single-space join of its tokens, so it
        # occurs as a whole-word subsequence exactly when it equals a joined span
        tokens = normalize_operator(operator).split()
        spans = (" ".join(tokens[i:j]) for i in range(len(tokens))
                 for j in range(i + 1, min(i + self._max_tokens, len(tokens)) + 1))
        hits = [self._rank[span] for span in spans if span in self._rank]
        if not hits:
            raise UnmappedOperator(f"no mapping pattern matches operator {operator!r}")
        return OperatorClass(min(hits)[1])


def annotate(record: RawRecord, mapping: OperatorMapping) -> LabeledRecord:
    return LabeledRecord(mapping.lookup(record.operator), record.summary)


@dataclass
class AnnotationResult:
    labeled: list[LabeledRecord]
    unmapped: Counter  # normalized operator -> occurrence count


def annotate_records(records: Iterable[RawRecord], mapping: OperatorMapping) -> AnnotationResult:
    """Annotate everything, collecting unmapped operators into an audit
    counter instead of guessing."""
    labeled: list[LabeledRecord] = []
    unmapped: Counter = Counter()
    for record in records:
        try:
            labeled.append(annotate(record, mapping))
        except UnmappedOperator:
            unmapped[normalize_operator(record.operator)] += 1
    return AnnotationResult(labeled, unmapped)


# --- CSV ingestion ----------------------------------------------------------

def ingest_records(source: str | Path | TextIO | io.BufferedIOBase,
                   operator_column: str = DEFAULT_OPERATOR_COLUMN,
                   summary_column: str = DEFAULT_SUMMARY_COLUMN) -> list[RawRecord]:
    """Parse an RFC-4180 CSV with a header row into RawRecords, in file order.

    Quoted fields may embed commas and newlines. Raises MissingColumn if
    a named column is absent, MalformedCsv (with the row number) on
    unbalanced quoting or rows too short to hold both columns, and
    MalformedCsv naming the file on bytes that are not UTF-8.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return ingest_records(handle, operator_column, summary_column)
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
            hasattr(source, "read") and isinstance(source.read(0), bytes)):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")

    reader = csv.reader(source, strict=True)
    try:
        header = next(reader, None)
        if header is None:
            raise MissingColumn("empty input: no header row")
        indices = {}
        for name in (operator_column, summary_column):
            if name not in header:
                raise MissingColumn(f"column {name!r} not found in header {header}")
            indices[name] = header.index(name)
        needed = max(indices.values())
        records = []
        for row in reader:
            if not row:  # stray blank line
                continue
            if len(row) <= needed:
                raise MalformedCsv(f"row {reader.line_num}: {len(row)} fields, "
                                   f"need at least {needed + 1}")
            records.append(RawRecord(row[indices[operator_column]],
                                     row[indices[summary_column]]))
        return records
    except csv.Error as exc:
        raise MalformedCsv(f"row {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", "input")
        raise MalformedCsv(f"{name}: not UTF-8 text ({exc.reason})") from None


# --- cleaning ----------------------------------------------------------------

@dataclass
class CleanResult:
    kept: list[RawRecord]
    dropped: dict[str, int] = field(default_factory=dict)

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())


def clean_records(records: Iterable[RawRecord]) -> CleanResult:
    """Drop blank-field rows and exact duplicate pairs, keeping first
    occurrences; order is otherwise preserved. Idempotent."""
    kept: list[RawRecord] = []
    dropped = {"blank_operator": 0, "blank_summary": 0, "duplicate": 0}
    seen: set[tuple[str, str]] = set()
    for record in records:
        if not record.operator.strip():
            dropped["blank_operator"] += 1
            continue
        if not record.summary.strip():
            dropped["blank_summary"] += 1
            continue
        pair = (record.operator, record.summary)
        if pair in seen:
            dropped["duplicate"] += 1
            continue
        seen.add(pair)
        kept.append(record)
    return CleanResult(kept, dropped)


# --- seeded splitting ---------------------------------------------------------
# The shuffle PRNG is splitmix64 (documented in the README) so the split
# can be reproduced outside this package from the seed alone.

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; mix with two xor-multiply rounds."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def fisher_yates(items: list, rng: SplitMix64) -> None:
    """In-place Fisher-Yates; j = next_u64() % (i + 1), i from n-1 down to 1."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        items[i], items[j] = items[j], items[i]


@dataclass
class SplitDataset:
    train: list[LabeledRecord]
    validation: list[LabeledRecord]
    test: list[LabeledRecord]
    seed: int


def split_sizes(n: int) -> tuple[int, int, int]:
    """floor(0.8 n) / floor(0.1 n) / remainder-to-test, via exact integer math."""
    n_train = (n * 8) // 10
    n_val = n // 10
    return n_train, n_val, n - n_train - n_val


def split_dataset(records: Sequence[LabeledRecord], seed: int,
                  stratify: bool = False) -> SplitDataset:
    """Seeded shuffle then 80/10/10 partition (same seed -> same split).

    With stratify=True each class contributes proportionally, with
    largest-remainder rounding constrained so the global part sizes still
    equal the floor rule exactly.
    """
    n = len(records)
    if n < 10:
        raise TooFewRecords(f"need at least 10 records to split, got {n}")
    shuffled = list(records)
    fisher_yates(shuffled, SplitMix64(seed))
    n_train, n_val, n_test = split_sizes(n)

    if not stratify:
        return SplitDataset(shuffled[:n_train],
                            shuffled[n_train:n_train + n_val],
                            shuffled[n_train + n_val:], seed)

    pools = {cls: [r for r in shuffled if r.label == cls] for cls in OperatorClass}
    counts = [len(pools[cls]) for cls in OperatorClass]
    t_take = _largest_remainder(counts, 8, 10, n_train, caps=counts)
    after_train = [c - t for c, t in zip(counts, t_take)]
    v_take = _largest_remainder(counts, 1, 10, n_val, caps=after_train)

    train, validation, test = [], [], []
    for cls, t, v in zip(OperatorClass, t_take, v_take):
        pool = pools[cls]
        train.extend(pool[:t])
        validation.extend(pool[t:t + v])
        test.extend(pool[t + v:])
    return SplitDataset(train, validation, test, seed)


def _largest_remainder(counts: list[int], numer: int, denom: int,
                       total: int, caps: list[int]) -> list[int]:
    """Allocate `total` across groups near counts*numer/denom, floors first,
    remaining units by largest fractional remainder (ties by group index),
    never exceeding per-group caps."""
    alloc = [min((c * numer) // denom, cap) for c, cap in zip(counts, caps)]
    order = sorted(range(len(counts)),
                   key=lambda i: (-((counts[i] * numer) % denom), i))
    short = total - sum(alloc)
    while short > 0:
        progressed = False
        for i in order:
            if short == 0:
                break
            if alloc[i] < caps[i]:
                alloc[i] += 1
                short -= 1
                progressed = True
        if not progressed:
            raise ValueError("allocation infeasible: caps too small")
    return alloc
