"""Confusion matrix, per-class precision/recall/F1, macro and weighted
averages, plus machine-readable exports of the evaluation suite.

Matrix orientation is fixed: rows are actual classes, columns are
predicted classes (and stamped into report.json to avoid transposition
mistakes). Precision and recall are defined as 0 when their denominator
is 0, so a class that is never predicted reports zeros instead of NaN.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import models, training
from .corpus import LabeledRecord, OperatorClass
from .errors import EmptyInput, EmptyMatrix, IoFailure, LengthMismatch
from .textprep import cleanse_text, encode_sequence
from .training import EpochRecord, ModelCheckpoint

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
        models.check_parameter_shapes(checkpoint.config, checkpoint.tensors)
        self.checkpoint = checkpoint

    def probs(self, text: str) -> np.ndarray:
        ckpt = self.checkpoint
        cleansed = cleanse_text(text, ckpt.stopwords)
        seq = encode_sequence(cleansed, ckpt.vocab, ckpt.config.max_len, ckpt.truncate)
        return models.forward_probs(ckpt.config, ckpt.tensors, seq)

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
    predictions = [predictor.predict(r.summary)[0] for r in records]
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
    """Write report.json, history.csv, per_class_metrics.csv, and
    macro_summary.csv into `directory`. All outputs re-parse losslessly."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "report": directory / "report.json",
            "history": directory / "history.csv",
            "per_class": directory / "per_class_metrics.csv",
            "macro": directory / "macro_summary.csv",
        }
        blob = json.dumps(report_json_dict(report, counts, model_name),
                          sort_keys=True, separators=(",", ":"))
        paths["report"].write_text(blob + "\n", encoding="utf-8")
        paths["history"].write_text(training.history_to_csv(history), encoding="utf-8")

        with open(paths["per_class"], "w", encoding="utf-8", newline="\n") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["model", "class", "precision", "recall", "f1"])
            for name, m in zip(CLASS_NAMES, report.per_class):
                writer.writerow([model_name, name, repr(m.precision),
                                 repr(m.recall), repr(m.f1)])

        with open(paths["macro"], "w", encoding="utf-8", newline="\n") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["model", "macro_precision", "macro_recall",
                             "macro_f1", "accuracy"])
            writer.writerow([model_name, repr(report.macro_precision),
                             repr(report.macro_recall), repr(report.macro_f1),
                             repr(report.accuracy)])
        return paths
    except OSError as exc:
        raise IoFailure(f"failed writing reports to {directory}: {exc}") from None
