"""Plain-numpy reference forward pass for the benchmark's correctness checks.

Independent of the package: it reads checkpoint format v1 itself, cleanses
and encodes text by the documented rules, and runs the LSTM, BLSTM and CNN
encoders and the head as straight loops over numpy arrays, without the
autodiff tape. Its results agree with the package up to floating-point
summation order, so checks compare them within `TOLERANCE`.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9
_NON_WORD = re.compile(r"[\W_]+", re.UNICODE)


@dataclass
class Checkpoint:
    meta: dict
    vocab: dict[str, int]
    tensors: dict[str, np.ndarray]


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Parse a v1 checkpoint: magic, version, JSON meta, vocab TSV, tensors."""
    blob = Path(path).read_bytes()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"checkpoint truncated at byte {pos}")
        pos += n
        return blob[pos - n:pos]

    def u(fmt: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    if take(4) != b"ATXC" or u("<I") != 1:
        raise ValueError("not a version-1 ATXC checkpoint")
    meta = json.loads(take(u("<Q")).decode("utf-8"))
    vocab = {}
    for line in take(u("<Q")).decode("utf-8").splitlines():
        token, _, index = line.partition("\t")
        vocab[token] = int(index)
    tensors = {}
    for _ in range(u("<I")):
        name = take(u("<Q")).decode("utf-8")
        shape = tuple(u("<Q") for _ in range(u("<Q")))
        count = int(np.prod(shape)) if shape else 1
        tensors[name] = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape)
    if pos != len(blob):
        raise ValueError("trailing bytes after the last tensor")
    return Checkpoint(meta, vocab, tensors)


def encode(text: str, ckpt: Checkpoint) -> tuple[list[int], int]:
    """Cleanse raw or cleansed text and map it to (padded ids, true length)."""
    stopwords = set(ckpt.meta["stopwords"])
    tokens = [t for t in _NON_WORD.sub(" ", text.lower()).split() if t not in stopwords]
    max_len = ckpt.meta["max_len"]
    kept = tokens[:max_len] if ckpt.meta["truncate"] == "head" else tokens[-max_len:]
    ids = [ckpt.vocab.get(t, 1) for t in kept]
    return ids + [0] * (max_len - len(ids)), len(kept)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lstm(x: np.ndarray, w: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    hidden = w[f"{prefix}.b_f"].shape[0]
    h, c = np.zeros(hidden), np.zeros(hidden)
    for x_t in x:
        z = np.concatenate([h, x_t])
        f = _sigmoid(w[f"{prefix}.w_f"] @ z + w[f"{prefix}.b_f"])
        i = _sigmoid(w[f"{prefix}.w_i"] @ z + w[f"{prefix}.b_i"])
        o = _sigmoid(w[f"{prefix}.w_o"] @ z + w[f"{prefix}.b_o"])
        g = np.tanh(w[f"{prefix}.w_g"] @ z + w[f"{prefix}.b_g"])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def features(ckpt: Checkpoint, ids: list[int], length: int) -> np.ndarray:
    w = ckpt.tensors
    table = w["embedding.table"]
    arch = ckpt.meta["arch"]
    if arch == "cnn":
        x = table[ids]
        filters = w["cnn.filters"]
        positions = len(ids) - filters.shape[0] + 1
        conv = sum(x[j:j + positions] @ filters[j] for j in range(filters.shape[0]))
        return np.maximum(conv + w["cnn.bias"], 0.0).max(axis=0)
    x = table[ids[:length]]
    if arch == "lstm":
        return _lstm(x, w, "lstm")
    if arch == "blstm":
        return np.concatenate([_lstm(x, w, "blstm.fwd"), _lstm(x[::-1], w, "blstm.bwd")])
    raise ValueError(f"no reference for arch {arch!r}")


def probs(ckpt: Checkpoint, text: str) -> np.ndarray:
    """Class probabilities for one raw or cleansed text."""
    w = ckpt.tensors
    hidden = np.maximum(w["head.w1"] @ features(ckpt, *encode(text, ckpt)) + w["head.b1"], 0.0)
    logits = w["head.w2"] @ hidden + w["head.b2"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


def cross_entropy(p: np.ndarray, label: int) -> float:
    return -float(np.log(max(p[label], 1e-12)))
