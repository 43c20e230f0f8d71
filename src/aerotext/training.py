"""Cross-entropy training loop, optimizers, and checkpoint serialization.

Training is fully deterministic given the seed: parameter init, the
per-epoch shuffle, batch order, and the gradient reduction order are all
fixed. Each epoch ends with a full pass over the train and validation
parts; the checkpoint with the best monitored metric (earliest epoch on
ties) is returned. The test part is never touched here.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import jsonio, models
from .corpus import LabeledRecord, SplitDataset
from .errors import (
    CorruptCheckpoint,
    EmptySplit,
    InvalidConfig,
    NonfiniteGradient,
    NonfiniteLoss,
    ShapeMismatch,
    VersionUnsupported,
)
from .models import ModelConfig
from .textprep import TRUNCATE, TokenSequence, Vocabulary, encode_sequence

CHECKPOINT_MAGIC = b"ATXC"
CHECKPOINT_VERSION = 1

OPTIMIZERS = ("adam", "sgd")
BEST_BY = ("validation_accuracy", "validation_loss")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    optimizer: str = "adam"
    seed: int = 0
    select_best_by: str = "validation_accuracy"

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfig(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("batch_size", "epochs", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        if self.batch_size < 1 or self.epochs < 1:
            raise InvalidConfig("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidConfig(f"optimizer must be one of {OPTIMIZERS}")
        if self.select_best_by not in BEST_BY:
            raise InvalidConfig(f"select_best_by must be one of {BEST_BY}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    validation_loss: float
    validation_accuracy: float


# --- optimizers ---------------------------------------------------------------

class Sgd:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr

    def step(self, grads: Mapping[str, np.ndarray | models.RowGrad]) -> None:
        for name, p in self.params.items():
            g = grads[name]
            if isinstance(g, tuple):
                rows, values = g
                p[rows] -= self.lr * values
            else:
                p -= self.lr * g


class Adam:
    """Bias-corrected Adam: the t=1 update is lr * g / (|g| + eps). Dense:
    every entry moves on every step, including embedding rows a batch does
    not read, whose moments still carry momentum.

    A table whose gradient comes in row form (`models.RowGrad`) is stepped
    only on the rows some batch has read. Every other row still has
    m = v = +0 and a zero gradient, so the dense update would subtract
    exactly +0 from it: skipping it changes no bit. Such a table's moments
    are packed in the order its rows were first read: row i of `m[name]`
    and `v[name]` belongs to table row `read[name][i]`, and the rows past
    `len(read[name])` are unused zeros. A step updates that leading slice of
    the moments in place and gathers and scatters only the read table rows.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}
        self.read: dict[str, np.ndarray] = {}   # row-form tables: rows in first-read order
        self.slot: dict[str, np.ndarray] = {}   # each row's place in `read`, -1 if unread

    def step(self, grads: Mapping[str, np.ndarray | models.RowGrad]) -> None:
        self.t += 1
        correct1 = 1.0 - self.BETA1 ** self.t
        correct2 = 1.0 - self.BETA2 ** self.t
        for name, p in self.params.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            if not isinstance(g, tuple):
                self._update(p, m, v, g, correct1, correct2)
                continue
            rows, values = g
            slot = self.slot.setdefault(name, np.full(len(p), -1))
            read = self.read.get(name, rows[:0])
            new = rows[slot[rows] < 0]
            slot[new] = np.arange(len(read), len(read) + len(new))
            read = self.read[name] = np.concatenate([read, new])
            dense = np.zeros((len(read), *p.shape[1:]))
            dense[slot[rows]] = values
            p_read = p[read]
            self._update(p_read, m[:len(read)], v[:len(read)], dense, correct1, correct2)
            p[read] = p_read

    def _update(self, p, m, v, g, correct1, correct2) -> None:
        # In place, with the operation order of beta * m + (1 - beta) * g and
        # lr * (m / correct1) / (sqrt(v / correct2) + eps), into two scratch
        # arrays: a temporary per operation on the embedding table's size left
        # the process's peak RSS varying by 8 MiB from one run to the next.
        t, u = np.empty_like(p), np.empty_like(p)
        m *= self.BETA1
        m += np.multiply(1.0 - self.BETA1, g, out=t)
        v *= self.BETA2
        v += np.multiply(np.multiply(1.0 - self.BETA2, g, out=t), g, out=t)
        np.multiply(self.lr, np.divide(m, correct1, out=t), out=t)
        np.add(np.sqrt(np.divide(v, correct2, out=u), out=u), self.EPS, out=u)
        p -= np.divide(t, u, out=t)


def _first_nonfinite(grads: Mapping[str, np.ndarray | models.RowGrad]) -> str | None:
    """The name of the first gradient, in table order, holding a NaN or an
    infinity, else None."""
    for name, g in grads.items():
        if not np.isfinite(g[1] if isinstance(g, tuple) else g).all():
            return name
    return None


# --- checkpoints ----------------------------------------------------------------

@dataclass
class ModelCheckpoint:
    """Everything needed to predict: config, preprocessing state, weights."""

    config: ModelConfig
    vocab: Vocabulary
    stopwords: frozenset[str]
    truncate: str
    tensors: dict[str, np.ndarray]   # by checkpoint name: one tensor per LSTM gate
    epoch: int


def save_checkpoint(ckpt: ModelCheckpoint, sink: str | Path | BinaryIO) -> None:
    """Binary layout: magic ATXC, u32 version, length-prefixed canonical
    JSON metadata, length-prefixed vocabulary TSV, then named tensors in
    the shared binary format. Little-endian throughout."""
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as handle:
            save_checkpoint(ckpt, handle)
        return
    meta = dict(ckpt.config.to_json_dict(), epoch=ckpt.epoch,
                truncate=ckpt.truncate, stopwords=sorted(ckpt.stopwords))
    meta_blob = jsonio.dumps(meta).encode("utf-8")
    vocab_blob = ckpt.vocab.to_tsv().encode("utf-8")
    sink.write(CHECKPOINT_MAGIC)
    sink.write(struct.pack("<I", CHECKPOINT_VERSION))
    sink.write(struct.pack("<Q", len(meta_blob)))
    sink.write(meta_blob)
    sink.write(struct.pack("<Q", len(vocab_blob)))
    sink.write(vocab_blob)
    names = sorted(ckpt.tensors)
    sink.write(struct.pack("<I", len(names)))
    for name in names:
        encoded = name.encode("utf-8")
        sink.write(struct.pack("<Q", len(encoded)))
        sink.write(encoded)
        ad.write_tensor(sink, ckpt.tensors[name])


def load_checkpoint(source: str | Path | BinaryIO) -> ModelCheckpoint:
    if isinstance(source, (str, Path)):
        # unbuffered: every read has an exact size, and the end-of-file check
        # of each read seeks, which would discard a read buffer
        with open(source, "rb", buffering=0) as handle:
            return load_checkpoint(handle)
    try:
        magic = ad._read_bytes(source, 4)
        if magic != CHECKPOINT_MAGIC:
            raise CorruptCheckpoint(f"bad magic {magic!r}")
        version = struct.unpack("<I", ad._read_bytes(source, 4))[0]
        if version != CHECKPOINT_VERSION:
            raise VersionUnsupported(f"checkpoint version {version} not supported")
        meta_len = struct.unpack("<Q", ad._read_bytes(source, 8))[0]
        meta = json.loads(ad._read_bytes(source, meta_len).decode("utf-8"))
        vocab_len = struct.unpack("<Q", ad._read_bytes(source, 8))[0]
        vocab_text = ad._read_bytes(source, vocab_len).decode("utf-8")
        n_tensors = struct.unpack("<I", ad._read_bytes(source, 4))[0]
        tensors = {}
        for _ in range(n_tensors):
            name_len = struct.unpack("<Q", ad._read_bytes(source, 8))[0]
            name = ad._read_bytes(source, name_len).decode("utf-8")
            tensors[name] = ad.read_tensor(source)
    except (EOFError, UnicodeDecodeError, json.JSONDecodeError, struct.error,
            OverflowError, MemoryError, RecursionError, ValueError) as exc:
        raise CorruptCheckpoint(f"truncated or garbled checkpoint: {exc}") from None

    if not isinstance(meta, dict):
        raise CorruptCheckpoint(f"metadata is a JSON {type(meta).__name__}, not an object")
    epoch = meta.pop("epoch", 0)
    truncate = meta.pop("truncate", "head")
    stopwords = meta.pop("stopwords", [])
    if type(epoch) is not int or truncate not in TRUNCATE or not (
            isinstance(stopwords, list) and all(isinstance(w, str) for w in stopwords)):
        raise CorruptCheckpoint(f"bad embedded metadata: epoch must be an integer, truncate one "
                                f"of {TRUNCATE} and stopwords a list of strings; got epoch "
                                f"{epoch!r}, truncate {truncate!r}")
    try:
        config = ModelConfig(**meta)
    except (TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"bad embedded config: {exc}") from None
    try:
        vocab = Vocabulary.from_tsv(vocab_text, max_size=config.vocab_size)
    except ValueError as exc:
        raise CorruptCheckpoint(f"bad embedded vocabulary: {exc}") from None
    try:
        models.check_parameter_shapes(config, tensors)
    except ShapeMismatch as exc:
        raise CorruptCheckpoint(f"tensors do not match the embedded config: {exc}") from None
    nonfinite = [name for name, array in sorted(tensors.items()) if not np.isfinite(array).all()]
    if nonfinite:
        raise CorruptCheckpoint(f"non-finite values in tensors {nonfinite}")
    return ModelCheckpoint(config, vocab, frozenset(stopwords), truncate, tensors, epoch)


# --- the loop -------------------------------------------------------------------

def _encode_all(records: Sequence[LabeledRecord], vocab: Vocabulary,
                max_len: int, truncate: str) -> list[TokenSequence]:
    return [encode_sequence(r.summary, vocab, max_len, truncate) for r in records]


def _dataset_metrics(config: ModelConfig, params: Mapping[str, np.ndarray],
                     sequences: Sequence[TokenSequence],
                     labels: Sequence[int]) -> tuple[float, float]:
    probs = models.score(config, params, sequences)
    total_loss = sum(ad.cross_entropy(p, label) for p, label in zip(probs, labels))
    correct = int(np.count_nonzero(np.argmax(probs, axis=1) == np.asarray(labels)))
    n = len(sequences)
    return total_loss / n, correct / n


def _improved(candidate: EpochRecord, best: EpochRecord | None, by: str) -> bool:
    if best is None:
        return True
    if by == "validation_loss":
        return candidate.validation_loss < best.validation_loss
    return candidate.validation_accuracy > best.validation_accuracy


def train(model_config: ModelConfig, train_config: TrainConfig, split: SplitDataset,
          vocab: Vocabulary, stopwords: frozenset[str] = frozenset(),
          truncate: str = "head") -> tuple[ModelCheckpoint, list[EpochRecord]]:
    """Train on split.train, monitor split.validation, return the best
    checkpoint and the per-epoch history.

    Record summaries are expected to be cleansed already (cleansing is
    idempotent, so passing raw text through the same cleanser first is
    equivalent). `stopwords` and `truncate` are embedded into the
    checkpoint so prediction can reproduce preprocessing exactly.
    """
    if not (len(split.train) and len(split.validation) and len(split.test)):
        raise EmptySplit("all three split parts must be non-empty")

    max_len = model_config.max_len
    train_seqs = _encode_all(split.train, vocab, max_len, truncate)
    train_labels = [int(r.label) for r in split.train]
    val_seqs = _encode_all(split.validation, vocab, max_len, truncate)
    val_labels = [int(r.label) for r in split.validation]

    params = models.init_params(model_config, train_config.seed)
    optimizer = (Sgd if train_config.optimizer == "sgd" else Adam)(
        params, train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    n = len(train_seqs)
    batch = train_config.batch_size

    history: list[EpochRecord] = []
    best: EpochRecord | None = None
    best_params: dict[str, np.ndarray] = {}

    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            chosen = order[start:start + batch]
            loss, grads = models.loss_and_grads(
                model_config, params, [train_seqs[i] for i in chosen],
                [train_labels[i] for i in chosen], _dropout_masks(model_config, rng, len(chosen)))
            if not math.isfinite(loss):
                raise NonfiniteLoss(f"loss is {loss} at epoch {epoch}, batch {start // batch}")
            bad = _first_nonfinite(grads)
            if bad is not None:
                raise NonfiniteGradient(f"gradient of {bad} is non-finite at epoch {epoch}, "
                                        f"batch {start // batch}")
            optimizer.step(grads)

        train_loss, train_acc = _dataset_metrics(model_config, params, train_seqs, train_labels)
        val_loss, val_acc = _dataset_metrics(model_config, params, val_seqs, val_labels)
        # the per-batch check sees each loss before its step, so a step that
        # poisons the parameters shows first here
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise NonfiniteLoss(f"scoring loss is non-finite after epoch {epoch}: "
                                f"train {train_loss}, validation {val_loss}")
        record = EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc)
        history.append(record)
        if _improved(record, best, train_config.select_best_by):
            best = record
            best_params = {name: p.copy() for name, p in params.items()}

    checkpoint = ModelCheckpoint(model_config, vocab, frozenset(stopwords), truncate,
                                 models.checkpoint_views(model_config, best_params), best.epoch)
    return checkpoint, history


def _dropout_masks(config: ModelConfig, rng: np.random.Generator,
                   batch: int) -> np.ndarray | None:
    """One inverted-dropout mask row per record, drawn record by record."""
    if config.dropout_rate <= 0.0:
        return None
    keep = 1.0 - config.dropout_rate
    return np.stack([(rng.random(config.head_units) < keep) / keep for _ in range(batch)])


# --- history CSV ------------------------------------------------------------------

HISTORY_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc"


def history_to_csv(history: Sequence[EpochRecord]) -> str:
    lines = [HISTORY_HEADER]
    for r in history:
        lines.append(f"{r.epoch},{r.train_loss!r},{r.train_accuracy!r},"
                     f"{r.validation_loss!r},{r.validation_accuracy!r}")
    return "\n".join(lines) + "\n"

