"""Narrative text preparation: cleansing, vocabulary, encoding, statistics.

Cleansed text is lowercase with punctuation and special characters
replaced by spaces and stopwords removed. A vocabulary fitted on the
training split maps tokens to integer ids, with 0 reserved for padding
and 1 for out-of-vocabulary tokens; sequences are padded/truncated to a
fixed length. Word-count statistics feed the length-distribution plot
data.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from . import jsonio
from .errors import EmptyCorpus, InvalidConfig, read_utf8

PAD_ID = 0
OOV_ID = 1
DEFAULT_MAX_LEN = 200
DEFAULT_VOCAB_SIZE = 20000
TRUNCATE = ("head", "tail")  # the side of a long sequence that is kept

# \w is isalnum() plus underscore, so [\W_] is exactly the characters
# outside letters/digits/whitespace (whitespace collapses in the split).
_NON_WORD = re.compile(r"[\W_]+", re.UNICODE)


def cleanse_text(raw: str, stopwords: frozenset[str] | set[str] = frozenset()) -> str:
    """Lowercase, strip punctuation/special characters, drop stopwords.

    Idempotent on its own output; may return the empty string.
    """
    tokens = _NON_WORD.sub(" ", raw.lower()).split()
    return " ".join(t for t in tokens if t not in stopwords)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a newline-delimited UTF-8 stopword file (lowercased entries)."""
    words = set()
    for line in read_utf8(path, InvalidConfig).splitlines():
        word = line.strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package (~150 common English words)."""
    text = resources.files("aerotext").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


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

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)

    def id_to_token(self) -> dict[int, str]:
        return {i: t for t, i in self.token_to_id.items()}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_tsv(), encoding="utf-8")

    def to_tsv(self) -> str:
        lines = [f"{token}\t{i}" for token, i in
                 sorted(self.token_to_id.items(), key=lambda kv: kv[1])]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_tsv(cls, text: str, max_size: int | None = None) -> "Vocabulary":
        """Parse `token<TAB>id` lines. Raises ValueError unless the ids are
        unique integers in [2, max_size + 1]; max_size defaults to the
        number of tokens."""
        mapping = {}
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            token, _, i = line.partition("\t")
            try:
                mapping[token] = int(i)
            except ValueError:
                raise ValueError(f"line {number}: id {i!r} is not an integer") from None
        max_size = max_size if max_size is not None else max(len(mapping), 1)
        ids = list(mapping.values())
        if len(set(ids)) != len(ids) or not all(2 <= i <= max_size + 1 for i in ids):
            raise ValueError(f"vocabulary ids must be unique and in [2, {max_size + 1}]")
        return cls(mapping, max_size)

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        return cls.from_tsv(Path(path).read_text(encoding="utf-8"))


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
    ids = [vocab.id_for(t) for t in kept]
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

    def to_json(self) -> str:
        return jsonio.dumps(self.to_json_dict())


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
