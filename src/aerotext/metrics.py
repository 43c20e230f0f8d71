"""Confusion matrix, per-class precision/recall/F1, macro and weighted
averages, plus machine-readable exports of the evaluation suite.

Matrix orientation is fixed: rows are actual classes, columns are
predicted classes (and stamped into report.json to avoid transposition
mistakes). Precision and recall are defined as 0 when their denominator
is 0, so a class that is never predicted reports zeros instead of NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import jsonio, models
from .corpus import LabeledRecord, OperatorClass, write_csv
from .errors import EmptyInput, EmptyMatrix, LengthMismatch
from .textprep import TokenSequence, cleanse_text, encode_sequence
from .training import EpochRecord, ModelCheckpoint, write_history

CLASS_NAMES = tuple(c.label for c in OperatorClass)
MATRIX_ORIENTATION = "rows=actual,columns=predicted"
REPORT_SCHEMA_VERSION = 1


def confusion_matrix(predictions: Sequence, labels: Sequence) -> np.ndarray:
    """3x3 count table; counts[actual][predicted]."""
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise EmptyInput("nothing to tally")
    counts = np.zeros((3, 3), dtype=np.int64)
    for pred, actual in zip(predictions, labels):
        counts[int(actual), int(pred)] += 1
    return counts


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ClassificationReport:
    per_class: tuple[ClassMetrics, ClassMetrics, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    accuracy: float

    def to_json_dict(self) -> dict:
        return {
            "per_class": {
                name: {"precision": m.precision, "recall": m.recall,
                       "f1": m.f1, "support": m.support}
                for name, m in zip(CLASS_NAMES, self.per_class)
            },
            "macro": {"precision": self.macro_precision, "recall": self.macro_recall,
                      "f1": self.macro_f1},
            "weighted": {"precision": self.weighted_precision,
                         "recall": self.weighted_recall, "f1": self.weighted_f1},
            "accuracy": self.accuracy,
        }


def classification_report(counts: np.ndarray) -> ClassificationReport:
    counts = np.asarray(counts)
    if counts.shape != (3, 3):
        raise EmptyMatrix(f"expected a 3x3 matrix, got {counts.shape}")
    total = int(counts.sum())
    if total == 0:
        raise EmptyMatrix("confusion matrix has no entries")

    per_class = []
    for c in range(3):
        tp = int(counts[c, c])
        col = int(counts[:, c].sum())
        row = int(counts[c, :].sum())
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(ClassMetrics(precision, recall, f1, row))

    supports = [m.support for m in per_class]

    def macro(attr):
        return sum(getattr(m, attr) for m in per_class) / 3

    def weighted(attr):
        return sum(getattr(m, attr) * s for m, s in zip(per_class, supports)) / total

    accuracy = int(np.trace(counts)) / total
    return ClassificationReport(
        per_class=tuple(per_class),
        macro_precision=macro("precision"), macro_recall=macro("recall"),
        macro_f1=macro("f1"),
        weighted_precision=weighted("precision"),
        # support-weighted recall reduces to trace/total algebraically;
        # computing it in that form keeps the accuracy identity exact
        weighted_recall=accuracy,
        weighted_f1=weighted("f1"),
        accuracy=accuracy,
    )


# --- inference ---------------------------------------------------------------

class Predictor:
    """Applies a checkpoint's full preprocessing and forward pass to raw text."""

    def __init__(self, checkpoint: ModelCheckpoint):
        self.checkpoint = checkpoint
        self.params = models.fuse_checkpoint(checkpoint.config, checkpoint.tensors)

    def encode(self, text: str) -> TokenSequence:
        ckpt = self.checkpoint
        cleansed = cleanse_text(text, ckpt.stopwords)
        return encode_sequence(cleansed, ckpt.vocab, ckpt.config.max_len, ckpt.truncate)

    def probs(self, text: str) -> np.ndarray:
        return models.forward_probs(self.checkpoint.config, self.params, self.encode(text))

    def predict(self, text: str) -> tuple[OperatorClass, np.ndarray]:
        probs = self.probs(text)
        return models.predict_class(probs), probs


def evaluate_model(checkpoint: ModelCheckpoint,
                   records: Sequence[LabeledRecord]) -> tuple[np.ndarray, ClassificationReport]:
    """Predict every record with the checkpoint's own preprocessing and
    aggregate into (confusion matrix, classification report)."""
    if not records:
        raise EmptyInput("no records to evaluate")
    predictor = Predictor(checkpoint)
    probs = models.score(checkpoint.config, predictor.params,
                         [predictor.encode(r.summary) for r in records])
    predictions = np.argmax(probs, axis=1).tolist()  # ties toward the lowest class, as predict_class
    labels = [r.label for r in records]
    counts = confusion_matrix(predictions, labels)
    return counts, classification_report(counts)


# --- exports -------------------------------------------------------------------

def report_json_dict(report: ClassificationReport, counts: np.ndarray,
                     model_name: str) -> dict:
    body = report.to_json_dict()
    body.update({
        "schema_version": REPORT_SCHEMA_VERSION,
        "matrix_orientation": MATRIX_ORIENTATION,
        "model": model_name,
        "confusion_matrix": [[int(v) for v in row] for row in np.asarray(counts)],
    })
    return body


def export_reports(report: ClassificationReport, counts: np.ndarray,
                   history: Sequence[EpochRecord], directory: str | Path,
                   model_name: str = "model") -> dict[str, Path]:
    """Write report.json, per_class_metrics.csv, macro_summary.csv and, for
    a non-empty `history`, history.csv into `directory`; return the written
    paths by key. All outputs re-parse losslessly."""
    directory = Path(directory)
    blob = jsonio.dumps(report_json_dict(report, counts, model_name))
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": directory / "report.json",
        "per_class": directory / "per_class_metrics.csv",
        "macro": directory / "macro_summary.csv",
    }
    paths["report"].write_text(blob + "\n", encoding="utf-8")
    if history:
        paths["history"] = directory / "history.csv"
        write_history(paths["history"], history)

    write_csv(paths["per_class"], ["model", "class", "precision", "recall", "f1"],
              ([model_name, name, repr(m.precision), repr(m.recall), repr(m.f1)]
               for name, m in zip(CLASS_NAMES, report.per_class)))
    write_csv(paths["macro"], ["model", "macro_precision", "macro_recall", "macro_f1",
                               "accuracy"],
              [[model_name, repr(report.macro_precision), repr(report.macro_recall),
                repr(report.macro_f1), repr(report.accuracy)]])
    return paths
