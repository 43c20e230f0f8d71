"""Narrative text preparation: cleansing, vocabulary, encoding, statistics.

Cleansed text is lowercase with punctuation and special characters
replaced by spaces and stopwords removed. A special character is one that
is not `str.isalnum()`, the regex class `[\\W_]`; ASCII text is cleansed
through a translate table, which gives the same tokens as that regex. A
vocabulary fitted on the training split maps tokens to integer ids, with
0 reserved for padding and 1 for out-of-vocabulary tokens; sequences are
padded/truncated to a fixed length. Word-count statistics feed the
length-distribution plot data.
"""

from __future__ import annotations

import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import EmptyCorpus, InvalidConfig, MalformedCsv, read_utf8, read_utf8_lines

PAD_ID = 0
OOV_ID = 1
DEFAULT_MAX_LEN = 200
DEFAULT_VOCAB_SIZE = 20000
TRUNCATE = ("head", "tail")  # the side of a long sequence that is kept

# \w is isalnum() plus underscore, so [\W_] is exactly the characters
# that are not isalnum() (whitespace among them collapses in the split).
_NON_WORD = re.compile(r"[\W_]+", re.UNICODE)
# The same rule on ASCII as one translate table. Every entry is set, the
# letters and digits to themselves, because a character missing from the
# table is a failed lookup, which is slower than a hit.
_ASCII_NON_WORD = str.maketrans({c: c if c.isalnum() else " " for c in map(chr, range(128))})


def cleanse_text(raw: str, stopwords: frozenset[str] | set[str] = frozenset()) -> str:
    """Lowercase, strip punctuation/special characters, drop stopwords.

    Lowercased ASCII text goes through a translate table, which gives the
    tokens of the `[\\W_]` regex; text that holds a non-ASCII character goes
    through the regex itself, since `str.translate` on it looks up each
    character one at a time. Idempotent on its own output; may return the
    empty string.
    """
    text = raw.lower()
    if text.isascii():
        text = text.translate(_ASCII_NON_WORD)
    else:
        text = _NON_WORD.sub(" ", text)
    return " ".join([t for t in text.split() if t not in stopwords])


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a newline-delimited UTF-8 stopword file: one stopword per line,
    stripped and lowercased; blank lines skipped."""
    return frozenset(word for line in read_utf8_lines(path, InvalidConfig)
                     if (word := line.strip().lower()))


def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package (~150 common English words)."""
    return load_stopwords(Path(__file__).parent / "data" / "stopwords.txt")


@dataclass
class Vocabulary:
    """Token-to-id mapping; ids run 2..V+1 by descending corpus frequency.

    Ids 0 and 1 are reserved for padding and out-of-vocabulary tokens and
    never assigned to a token.
    """

    token_to_id: dict[str, int]
    max_size: int

    @property
    def size(self) -> int:
        """Number of kept tokens (excludes the two reserved ids)."""
        return len(self.token_to_id)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_tsv(), encoding="utf-8")

    def to_tsv(self) -> str:
        lines = [f"{token}\t{i}" for token, i in
                 sorted(self.token_to_id.items(), key=lambda kv: kv[1])]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_tsv(cls, text: str, max_size: int | None = None) -> "Vocabulary":
        """Parse `token<TAB>id` lines, which end only at "\\n", "\\r\\n" or
        "\\r". Raises ValueError unless the tokens are unique and the ids
        unique integers in [2, max_size + 1]; max_size defaults to the number
        of tokens."""
        mapping = {}
        for number, line in enumerate(io.StringIO(text, newline=""), start=1):
            if not line.strip():
                continue
            token, _, i = line.partition("\t")  # int() ignores the line end
            if token in mapping:
                raise ValueError(f"line {number}: token {token!r} repeats")
            try:
                mapping[token] = int(i)
            except ValueError:
                raise ValueError(f"line {number}: id {i.strip()!r} is not an integer") from None
        max_size = max_size if max_size is not None else max(len(mapping), 1)
        ids = list(mapping.values())
        if len(set(ids)) != len(ids) or not all(2 <= i <= max_size + 1 for i in ids):
            raise ValueError(f"vocabulary ids must be unique and in [2, {max_size + 1}]")
        return cls(mapping, max_size)

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        return cls.from_tsv(read_utf8(path, MalformedCsv))


def fit_vocabulary(corpus: Sequence[str], max_size: int = DEFAULT_VOCAB_SIZE) -> Vocabulary:
    """Count whitespace tokens over the (training) corpus and keep the
    `max_size` most frequent; ties go to the token seen first."""
    if not corpus:
        raise EmptyCorpus("cannot fit a vocabulary on an empty corpus")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    counts: Counter = Counter()
    for doc in corpus:
        counts.update(doc.split())
    # Counter preserves first-occurrence order; a stable sort on count
    # alone therefore breaks ties by first occurrence.
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])[:max_size]
    return Vocabulary({token: i for i, (token, _) in enumerate(ranked, start=2)}, max_size)


@dataclass
class TokenSequence:
    """Fixed-length id sequence; positions past true_length are padding zeros."""

    ids: list[int]
    true_length: int


def encode_sequence(text: str, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN,
                    truncate: str = "head") -> TokenSequence:
    """Map tokens to ids (missing -> 1), pad with trailing zeros, truncate
    at max_len. "head" keeps the first max_len tokens, "tail" the last."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if truncate not in TRUNCATE:
        raise ValueError(f"truncate must be one of {TRUNCATE}, got {truncate!r}")
    tokens = text.split()
    kept = tokens[:max_len] if truncate == "head" else tokens[-max_len:]
    get = vocab.token_to_id.get
    ids = [get(t, OOV_ID) for t in kept]
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return TokenSequence(ids, min(len(tokens), max_len))


@dataclass
class CorpusStats:
    histogram: dict[int, int]  # word count -> number of documents
    mean: float
    median: float
    p95: float
    max: int

    def to_json_dict(self) -> dict:
        return {
            "documents": sum(self.histogram.values()),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "max": self.max,
        }


def _nearest_rank(sorted_values: list[int], percentile: float) -> float:
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    return float(sorted_values[max(rank, 1) - 1])


def word_count_stats(corpus: Sequence[str]) -> CorpusStats:
    """Per-document token counts with nearest-rank median and p95."""
    if not corpus:
        raise EmptyCorpus("no documents to analyze")
    counts = [len(doc.split()) for doc in corpus]
    ordered = sorted(counts)
    return CorpusStats(
        histogram=dict(Counter(counts)),
        mean=sum(counts) / len(counts),
        median=_nearest_rank(ordered, 50.0),
        p95=_nearest_rank(ordered, 95.0),
        max=ordered[-1],
    )
