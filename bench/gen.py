"""Seeded generator of a Socrata-shaped aviation records CSV and its mapping.

The same seed gives byte-identical files. The generator knows the exact
outcome of `prepare` on what it writes: how many rows each drop rule
removes, the class of every kept row, and therefore the split sizes. It
never imports the package, so those counts are an independent check.

Make-up of one corpus (constants below):

- 4,995 raw rows: 4,863 unique labeled rows, plus 41 blank-operator,
  29 blank-summary and 62 exact duplicate (operator, summary) rows.
- Classes: a Commercial majority with Military and Private minorities,
  as the paper reports. The paper's abstract gives no shares; 58/16/26 is
  this generator's choice.
- Operators are drawn from ~80 mapping patterns and mostly decorated
  with words no pattern contains ("Inc", a city, a registration), so most
  rows are labeled by whole-word subsequence, not by exact match.
- Narratives: lognormal word counts with a tail of long ones past the
  default max_len of 200, stopwords, punctuation, numbers, capitals and the
  odd embedded newline; content words Zipf-distributed over a large
  pseudo-word lexicon; class cue words present with noise. No public
  source for the narrative lengths was at hand, so they follow the
  70-token narratives of the baseline in ROADMAP.md: about 71 cleansed
  tokens on average, median ~60, p95 ~155.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RAW_ROWS = 4995
BLANK_OPERATOR = 41
BLANK_SUMMARY = 29
DUPLICATES = 62
UNIQUE_ROWS = RAW_ROWS - BLANK_OPERATOR - BLANK_SUMMARY - DUPLICATES  # 4863

CLASSES = ("Commercial", "Military", "Private")
CLASS_SHARES = (0.58, 0.16, 0.26)

HEADER = ["Date", "Time", "Location", "Operator", "Flight #", "Route", "Type",
          "Registration", "cn/In", "Aboard", "Fatalities", "Ground", "Summary"]

GENERIC_PATTERNS = {
    "Military": [
        "u.s. air force", "us air force", "united states air force", "air force",
        "u.s. navy", "us navy", "navy", "u.s. army", "us army", "army",
        "u.s. marine corps", "marine corps", "marines", "air national guard",
        "national guard", "coast guard", "military", "royal air force",
        "department of defense", "air force reserve", "naval", "army air corps",
        "military air transport service", "royal navy", "strategic air command",
        "tactical air command",
    ],
    "Commercial": [
        "airlines", "air lines", "airways", "airline", "air cargo", "cargo",
        "air express", "express", "charter", "air charter", "commuter",
        "air taxi", "air service", "air services", "aviation services",
        "air transport", "commercial", "air freight", "regional airlines",
        "international airlines", "air mail", "airline company", "aerolineas",
        "cargo airlines",
    ],
    "Private": [
        "private", "private owner", "privately owned", "private pilot",
        "individual", "personal", "owner", "owner operator", "amateur",
        "experimental", "flying club", "aero club", "homebuilt", "private charter",
    ],
}
# Named patterns per class, built as "<pseudo-word> <suffix>".
NAMED = {"Commercial": (9, ["airlines", "air lines", "airways", "air cargo", "air express"]),
         "Military": (3, ["air force", "navy", "army"]),
         "Private": (4, ["flying club", "aero club"])}

PREFIXES = ["atlanta", "denver", "anchorage", "fresno", "tulsa", "bangor", "reno",
            "spokane", "duluth", "macon", "the", "dba", "nordic", "pacific rim",
            "great lakes", "sierra", "gulf", "prairie"]
SUFFIXES = ["inc", "inc.", "llc", "ltd", "ltd.", "corp", "corporation", "co",
            "firm", "s.a.", "gmbh", "group", "holdings", "enterprises",
            "(subsidiary)", "- division", "trust", "partners"]

CUES = {
    "Commercial": ["passengers", "gate", "captain", "scheduled", "airliner",
                   "stewardess", "jetliner", "boeing", "airbus", "dispatch",
                   "terminal", "route", "mail", "cabin"],
    "Military": ["squadron", "sortie", "bomber", "fighter", "troops", "base",
                 "reconnaissance", "tanker", "formation", "personnel", "soldiers",
                 "cadets", "mission", "ordnance"],
    "Private": ["student", "homebuilt", "cessna", "piper", "beechcraft", "hobby",
                "sightseeing", "family", "weekend", "ranch", "glider", "banner",
                "solo", "hangar"],
}
COMMON = ["aircraft", "plane", "engine", "runway", "landing", "takeoff", "crashed",
          "pilot", "crew", "approach", "weather", "fog", "mountain", "failure",
          "fire", "fuel", "altitude", "feet", "miles", "airport", "flight",
          "control", "lost", "struck", "terrain", "descent", "climb", "wing",
          "tail", "gear", "visibility", "storm", "ice", "stalled", "ground",
          "trees", "field", "water", "sea", "killed", "reported", "shortly",
          "radio", "tower", "emergency", "attempting", "conditions", "poor"]
# All of these are in the package's built-in stopword list.
STOPWORDS = ["the", "the", "the", "a", "of", "and", "to", "in", "was", "on", "at",
             "with", "after", "during", "while", "from", "into", "for", "by", "its",
             "it", "were"]
# Built-in stopwords a pseudo-word could spell; kept out of the lexicon so
# that every narrative keeps the content words it was given.
PSEUDO_STOPWORDS = ["haven", "before", "have", "here", "more", "same", "some"]

LEXICON_SIZE = 30000
ZIPF_EXPONENT = 1.4
ZIPF_OFFSET = 2.7
STOPWORD_SHARE = 0.38
LONG_SHARE = 0.015
LENGTH_MU, LENGTH_SIGMA = 3.95, 0.55  # log content words: mean ~71 cleansed tokens


@dataclass
class Corpus:
    """One generated corpus and everything `prepare` must report about it."""

    csv_text: str
    mapping_text: str
    counts: dict            # the manifest "counts" that prepare must write
    class_counts: dict      # class name -> kept rows of that class
    summaries: list[str]    # raw summaries of the kept rows, in file order


def _pseudo_words(rnd: random.Random, n: int, taken: set[str]) -> list[str]:
    consonants, vowels = "bcdfghjklmnprstvz", "aeiou"
    words: list[str] = []
    seen = set(taken)
    while len(words) < n:
        word = "".join(rnd.choice(consonants) + rnd.choice(vowels)
                       for _ in range(rnd.randrange(2, 5)))
        if rnd.random() < 0.4:
            word += rnd.choice(consonants)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _mapping(names: list[str]) -> dict[str, list[str]]:
    patterns = {cls: list(GENERIC_PATTERNS[cls]) for cls in CLASSES}
    names = iter(names)
    for cls, (count, suffixes) in NAMED.items():
        for i in range(count):
            patterns[cls].append(f"{next(names)} {suffixes[i % len(suffixes)]}")
    return patterns


def _mapping_text(patterns: dict[str, list[str]]) -> str:
    lines = ["# Operator mapping generated for the benchmark: pattern<TAB>class"]
    for cls in CLASSES:
        lines.append("")
        lines.append(f"# --- {cls}")
        lines.extend(f"{p}\t{cls}" for p in patterns[cls])
    return "\n".join(lines) + "\n"


def _operator(rnd: random.Random, pattern: str) -> str:
    """The pattern, mostly decorated with words that no pattern contains, so
    the pattern stays the longest one that matches."""
    words = pattern.split()
    roll = rnd.random()
    if roll < 0.15:
        pass  # exact match after normalization
    elif roll < 0.55:
        words = words + rnd.choice(SUFFIXES).split()
    elif roll < 0.8:
        words = rnd.choice(PREFIXES).split() + words
    else:
        words = [f"n{rnd.randrange(100, 99999)}{rnd.choice('abcdefghjk')}", "-"] + words
        words += rnd.choice(SUFFIXES).split()
    style = rnd.random()
    text = " ".join(words)
    if style < 0.3:
        text = text.upper()
    elif style < 0.8:
        text = text.title()
    if rnd.random() < 0.1:
        text = "  " + text.replace(" ", "  ") + " "
    return text


def _narrative(rnd: random.Random, cls: str, content: list[str]) -> str:
    """Raw narrative text around the given Zipf-drawn content words."""
    tokens = list(content)
    for _ in range(sum(rnd.random() < 0.5 for _ in range(3))):
        tokens.insert(rnd.randrange(len(tokens) + 1), rnd.choice(CUES[cls]))
    if rnd.random() < 0.35:
        other = CLASSES[(CLASSES.index(cls) + rnd.randrange(1, 3)) % 3]
        tokens.insert(rnd.randrange(len(tokens) + 1), rnd.choice(CUES[other]))
    words: list[str] = []
    sentence_start = True
    for tok in tokens:
        if rnd.random() < STOPWORD_SHARE:
            words.append(rnd.choice(STOPWORDS))
        roll = rnd.random()
        if roll < 0.03:
            words.append(f"{rnd.randrange(1, 40)},{rnd.randrange(100, 999)}")
        elif roll < 0.05:
            words.append(f"{rnd.randrange(24):02d}:{rnd.randrange(60):02d}")
        words.append(tok.capitalize() if sentence_start else tok)
        sentence_start = False
        roll = rnd.random()
        if roll < 0.08:
            words[-1] += "."
            sentence_start = True
        elif roll < 0.13:
            words[-1] += ","
    text = " ".join(words)
    if rnd.random() < 0.05:
        text = text.replace(" ", ' "', 1) + '"'
    if rnd.random() < 0.01:
        text = text.replace(" ", "\n", 1)
    return text if text.endswith(".") else text + "."


def _content_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    lengths = np.clip(np.rint(np.exp(rng.normal(LENGTH_MU, LENGTH_SIGMA, n))), 3, 199).astype(int)
    long = rng.random(n) < LONG_SHARE
    lengths[long] = rng.integers(215, 300, int(long.sum()))
    return lengths


def _other_columns(rnd: random.Random) -> list[str]:
    return [f"{rnd.randrange(1, 13):02d}/{rnd.randrange(1, 29):02d}/{rnd.randrange(1908, 2010)}",
            "" if rnd.random() < 0.4 else f"{rnd.randrange(24):02d}:{rnd.randrange(60):02d}",
            f"{rnd.choice(PREFIXES).title()}, Region {rnd.randrange(1, 60)}",
            "" if rnd.random() < 0.7 else str(rnd.randrange(1, 2000)),
            "" if rnd.random() < 0.5 else "Alpha - Bravo",
            rnd.choice(["Douglas DC-3", "Boeing 727", "Cessna 172", "Lockheed C-130"]),
            f"N{rnd.randrange(100, 99999)}", str(rnd.randrange(1, 50000)),
            str(rnd.randrange(1, 200)), str(rnd.randrange(50)), "0"]


def generate(seed: int) -> Corpus:
    rnd = random.Random(seed)
    rng = np.random.default_rng(seed)
    reserved = set(STOPWORDS + PSEUDO_STOPWORDS + COMMON)
    reserved |= {c for cues in CUES.values() for c in cues}
    decorations = {tok for text in PREFIXES + SUFFIXES for tok in text.split()}
    generic = {tok for pats in GENERIC_PATTERNS.values() for p in pats for tok in p.split()}
    # A decoration word inside a pattern could make a longer pattern match
    # than the one an operator was built from.
    if decorations & generic:
        raise ValueError(f"decoration words in patterns: {decorations & generic}")
    names = _pseudo_words(rnd, sum(n for n, _ in NAMED.values()), reserved | decorations | generic)
    patterns = _mapping(names)
    lexicon = COMMON + _pseudo_words(rnd, LEXICON_SIZE - len(COMMON),
                                     reserved | decorations | generic | set(names))

    weights = (np.arange(LEXICON_SIZE) + ZIPF_OFFSET) ** -ZIPF_EXPONENT
    classes = rng.choice(3, size=UNIQUE_ROWS, p=CLASS_SHARES)
    lengths = _content_lengths(rng, UNIQUE_ROWS)
    draws = rng.choice(LEXICON_SIZE, size=int(lengths.sum()), p=weights / weights.sum())
    offsets = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    draws = draws.tolist()
    # within each class a few operators recur often (Zipf over its patterns)
    pattern_weights = {cls: [(i + 1.0) ** -0.8 for i in range(len(patterns[cls]))]
                       for cls in CLASSES}

    unique_rows: list[tuple[str, str]] = []
    class_counts = dict.fromkeys(CLASSES, 0)
    seen: set[tuple[str, str]] = set()
    for i in range(UNIQUE_ROWS):
        cls = CLASSES[int(classes[i])]
        content = [lexicon[j] for j in draws[offsets[i]:offsets[i + 1]]]
        while True:
            pattern = rnd.choices(patterns[cls], weights=pattern_weights[cls])[0]
            row = (_operator(rnd, pattern), _narrative(rnd, cls, content))
            if row not in seen:
                break
        seen.add(row)
        unique_rows.append(row)
        class_counts[cls] += 1

    # Duplicates copy an earlier unique row and land after it; blank rows
    # land anywhere. Insert from the back so earlier positions stay valid.
    inserts: list[tuple[int, tuple[str, str]]] = []
    for pos in rnd.sample(range(1, UNIQUE_ROWS + 1), DUPLICATES):
        inserts.append((pos, unique_rows[rnd.randrange(pos)]))
    for _ in range(BLANK_OPERATOR):
        inserts.append((rnd.randrange(UNIQUE_ROWS + 1),
                        (" " * rnd.randrange(2), rnd.choice(unique_rows)[1])))
    for _ in range(BLANK_SUMMARY):
        inserts.append((rnd.randrange(UNIQUE_ROWS + 1),
                        (rnd.choice(unique_rows)[0], " " * rnd.randrange(3))))
    rows: list[tuple[str, str]] = list(unique_rows)
    for pos, row in sorted(inserts, key=lambda item: item[0], reverse=True):
        rows.insert(pos, row)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HEADER)
    for operator, summary in rows:
        other = _other_columns(rnd)
        writer.writerow(other[:3] + [operator] + other[3:] + [summary])

    n_train = UNIQUE_ROWS * 8 // 10
    n_val = UNIQUE_ROWS // 10
    counts = {
        "ingested": RAW_ROWS,
        "dropped": {"blank_operator": BLANK_OPERATOR, "blank_summary": BLANK_SUMMARY,
                    "duplicate": DUPLICATES},
        "after_cleaning": UNIQUE_ROWS,
        "unmapped_operators": 0,
        "unmapped_rows": 0,
        "empty_after_cleansing": 0,
        "labeled": UNIQUE_ROWS,
        "split_sizes": {"train": n_train, "validation": n_val,
                        "test": UNIQUE_ROWS - n_train - n_val},
    }
    return Corpus(buffer.getvalue(), _mapping_text(patterns), counts, class_counts,
                  [s for _, s in unique_rows])


def write(corpus: Corpus, directory: Path) -> tuple[Path, Path]:
    """Write records.csv and operators.tsv into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    csv_path, mapping_path = directory / "records.csv", directory / "operators.tsv"
    csv_path.write_text(corpus.csv_text, encoding="utf-8", newline="")
    mapping_path.write_text(corpus.mapping_text, encoding="utf-8")
    return csv_path, mapping_path
