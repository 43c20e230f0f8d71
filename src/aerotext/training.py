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
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import BinaryIO, Mapping, Sequence

import numpy as np

from . import jsonio, models
from .corpus import LabeledRecord, SplitDataset, write_csv
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

# every key save_checkpoint writes; a checkpoint without one is refused
CHECKPOINT_KEYS = ("epoch", "truncate", "stopwords", *(f.name for f in fields(ModelConfig)))

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
    """Plain SGD over the embedding table, stepped on the rows its row-form
    gradient names, and the flat vector of every other parameter."""

    def __init__(self, table: np.ndarray, dense: np.ndarray, lr: float):
        self.table, self.dense, self.lr = table, dense, lr

    def step(self, table_grad: models.RowGrad, grad: np.ndarray) -> None:
        rows, values = table_grad
        self.table[rows] -= self.lr * values
        self.dense -= self.lr * grad


class Adam:
    """Bias-corrected Adam: the t=1 update is lr * g / (|g| + eps). Dense:
    every entry moves on every step, including embedding rows a batch does
    not read, whose moments still carry momentum.

    It steps the flat vector of every parameter but the embedding table as
    a whole, and the table from its row-form gradient (`models.RowGrad`)
    only on the rows some batch has read. Every other row still has
    m = v = +0 and a zero gradient, so the dense update would subtract
    exactly +0 from it: skipping it changes no bit. The table's moments are
    packed in the order its rows were first read: row i of `table_m` and
    `table_v` belongs to table row `read[i]`, and the rows past `len(read)`
    are unused zeros. A step updates that leading slice of the moments in
    place and gathers and scatters only the read table rows.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, table: np.ndarray, dense: np.ndarray, lr: float):
        self.table, self.dense, self.lr = table, dense, lr
        self.t = 0
        self.m, self.v = np.zeros_like(dense), np.zeros_like(dense)
        self.table_m, self.table_v = np.zeros_like(table), np.zeros_like(table)
        self.read = np.zeros(0, dtype=np.int64)   # table rows in first-read order
        self.slot = np.full(len(table), -1)       # each row's place in `read`, -1 if unread

    def step(self, table_grad: models.RowGrad, grad: np.ndarray) -> None:
        self.t += 1
        correct1 = 1.0 - self.BETA1 ** self.t
        correct2 = 1.0 - self.BETA2 ** self.t
        self._update(self.dense, self.m, self.v, grad, correct1, correct2)
        rows, values = table_grad
        new = rows[self.slot[rows] < 0]
        self.slot[new] = np.arange(len(self.read), len(self.read) + len(new))
        read = self.read = np.concatenate([self.read, new])
        g = np.zeros((len(read), *self.table.shape[1:]))
        g[self.slot[rows]] = values
        p_read = self.table[read]
        self._update(p_read, self.table_m[:len(read)], self.table_v[:len(read)], g,
                     correct1, correct2)
        self.table[read] = p_read

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


# Tensor layout: rank and dims as little-endian u64, then the values as
# little-endian f64 in row-major order.

def write_tensor(sink: BinaryIO, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype=np.float64)
    sink.write(struct.pack("<Q", arr.ndim))
    sink.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    sink.write(arr.astype("<f8", copy=False).tobytes())  # tobytes() is row-major


def read_tensor(buf: bytes, at: int) -> tuple[np.ndarray, int]:
    """The tensor at offset `at` of `buf`, and the offset past it. The dims
    and then the values are checked to fit in `buf` before they are read."""
    rank, at = _unpack("<Q", buf, at)
    values_at = _field(buf, at, 8 * rank)
    shape = struct.unpack_from(f"<{rank}Q", buf, at)
    count = math.prod(shape)  # math.prod: no int64 wrap-around
    end = _field(buf, values_at, 8 * count)
    values = np.frombuffer(buf, dtype="<f8", count=count, offset=values_at)
    return values.astype(np.float64).reshape(shape), end


def _field(buf: bytes, at: int, n: int) -> int:
    """The offset past an n-byte field at `at`; EOFError if fewer than n
    bytes are left, so a garbled length is refused before it is read."""
    if n > len(buf) - at:
        raise EOFError(f"expected {n} bytes at offset {at}, only {len(buf) - at} left")
    return at + n


def _unpack(fmt: str, buf: bytes, at: int) -> tuple[int, int]:
    """The one integer of struct format `fmt` at `at`, and the offset past it."""
    end = _field(buf, at, struct.calcsize(fmt))
    return struct.unpack_from(fmt, buf, at)[0], end


def _text(buf: bytes, at: int) -> tuple[str, int]:
    """The u64-length-prefixed UTF-8 text at `at`, and the offset past it."""
    n, at = _unpack("<Q", buf, at)
    end = _field(buf, at, n)
    return buf[at:end].decode("utf-8"), end


def save_checkpoint(ckpt: ModelCheckpoint, path: str | Path) -> None:
    """Binary layout: magic ATXC, u32 version, length-prefixed canonical
    JSON metadata, length-prefixed vocabulary TSV, then named tensors in
    the tensor layout above. Little-endian throughout."""
    meta = dict(ckpt.config.to_json_dict(), epoch=ckpt.epoch,
                truncate=ckpt.truncate, stopwords=sorted(ckpt.stopwords))
    meta_blob = jsonio.dumps(meta).encode("utf-8")
    vocab_blob = ckpt.vocab.to_tsv().encode("utf-8")
    with open(path, "wb") as sink:
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
            write_tensor(sink, ckpt.tensors[name])


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    """Load the checkpoint file at `path`, which may name a pipe. It reads the
    magic (in as many reads as a pipe needs), then the rest in one read, and
    parses every field from those bytes, each length checked against the
    bytes left before a field of that size is read. The last tensor must end
    the file: trailing bytes are refused."""
    # unbuffered: after read(4), a buffered reader's read() joins its
    # read-ahead to the rest, one more copy of the file (half the load time)
    with open(path, "rb", buffering=0) as source:
        magic = b""
        # a pipe may hand over the magic in pieces: read until 4 bytes or EOF
        while len(magic) < 4 and (piece := source.read(4 - len(magic))):
            magic += piece
        if magic != CHECKPOINT_MAGIC:
            raise CorruptCheckpoint(f"bad magic {magic!r}")
        buf = source.read()
    try:
        version, at = _unpack("<I", buf, 0)
        if version != CHECKPOINT_VERSION:
            raise VersionUnsupported(f"checkpoint version {version} not supported")
        meta_text, at = _text(buf, at)
        meta = json.loads(meta_text)
        vocab_text, at = _text(buf, at)
        n_tensors, at = _unpack("<I", buf, at)
        tensors = {}
        for _ in range(n_tensors):
            name, at = _text(buf, at)
            tensors[name], at = read_tensor(buf, at)
    except (EOFError, UnicodeDecodeError, json.JSONDecodeError, struct.error,
            OverflowError, MemoryError, RecursionError, ValueError) as exc:
        raise CorruptCheckpoint(f"truncated or garbled checkpoint: {exc}") from None
    if at != len(buf):
        raise CorruptCheckpoint(f"{len(buf) - at} bytes after the last tensor")

    if type(meta) is not dict:  # json.loads gives exact types
        raise CorruptCheckpoint(f"metadata is a JSON {type(meta).__name__}, not an object")
    missing = [key for key in CHECKPOINT_KEYS if key not in meta]
    if missing:
        raise CorruptCheckpoint(f"metadata has no {', '.join(missing)}")
    epoch, truncate, stopwords = meta.pop("epoch"), meta.pop("truncate"), meta.pop("stopwords")
    if type(epoch) is not int or truncate not in TRUNCATE or not (
            type(stopwords) is list and all(type(w) is str for w in stopwords)):
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
    correct = int(np.count_nonzero(np.argmax(probs, axis=1) == np.asarray(labels)))
    return models.cross_entropy(probs, labels), correct / len(sequences)


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

    flat = models.init_params(model_config, train_config.seed)
    params = models.parameter_views(model_config, flat)
    table = params["embedding.table"]
    optimizer = (Sgd if train_config.optimizer == "sgd" else Adam)(
        table, flat[table.size:], train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    n = len(train_seqs)
    batch = train_config.batch_size

    history: list[EpochRecord] = []
    best: EpochRecord | None = None
    best_flat = flat

    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            chosen = order[start:start + batch]
            loss, table_grad, grad = models.loss_and_grads(
                model_config, params, [train_seqs[i] for i in chosen],
                [train_labels[i] for i in chosen], _dropout_masks(model_config, rng, len(chosen)))
            if not math.isfinite(loss):
                raise NonfiniteLoss(f"loss is {loss} at epoch {epoch}, batch {start // batch}")
            if not (np.isfinite(table_grad[1]).all() and np.isfinite(grad).all()):
                # the tensor of the first such entry in the flat layout, table first
                at = (table.size + int(np.argmin(np.isfinite(grad)))
                      if np.isfinite(table_grad[1]).all() else 0)
                bad = next(name for name, p in params.items()
                           if np.shares_memory(p, flat[at:at + 1]))
                raise NonfiniteGradient(f"gradient of {bad} is non-finite at epoch {epoch}, "
                                        f"batch {start // batch}")
            optimizer.step(table_grad, grad)

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
            best_flat = flat.copy()

    checkpoint = ModelCheckpoint(model_config, vocab, frozenset(stopwords), truncate,
                                 models.checkpoint_views(model_config, best_flat), best.epoch)
    return checkpoint, history


def _dropout_masks(config: ModelConfig, rng: np.random.Generator,
                   batch: int) -> np.ndarray | None:
    """One inverted-dropout mask row per record, drawn record by record."""
    if config.dropout_rate <= 0.0:
        return None
    keep = 1.0 - config.dropout_rate
    return np.stack([(rng.random(config.head_units) < keep) / keep for _ in range(batch)])


# --- history CSV ------------------------------------------------------------------

HISTORY_HEADER = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")


def write_history(path: str | Path, history: Sequence[EpochRecord]) -> None:
    """One row per epoch, the fields of EpochRecord in order; the csv module
    writes a float as its repr, so the values re-parse exactly."""
    write_csv(path, HISTORY_HEADER, (astuple(record) for record in history))
