"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against plain numpy (or bare
Python), not against the package, so the two sides of each comparison
share no code paths.
"""

from __future__ import annotations

import math
import re

import numpy as np


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def srnn_unroll(w: np.ndarray, b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Hand-unrolled h_t = tanh(W [h_{t-1}; x_t] + b) over the rows of xs."""
    h = np.zeros(w.shape[0])
    for x in xs:
        h = np.tanh(w @ np.concatenate([h, x]) + b)
    return h


def lstm_unroll(gates: dict[str, np.ndarray], xs: np.ndarray) -> np.ndarray:
    """Hand-unrolled standard LSTM; returns the final hidden state.

    `gates` holds w_f/w_i/w_o/w_g and b_f/b_i/b_o/b_g.
    """
    hidden = gates["w_f"].shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for x in xs:
        z = np.concatenate([h, x])
        f = sigmoid_np(gates["w_f"] @ z + gates["b_f"])
        i = sigmoid_np(gates["w_i"] @ z + gates["b_i"])
        o = sigmoid_np(gates["w_o"] @ z + gates["b_o"])
        g = np.tanh(gates["w_g"] @ z + gates["b_g"])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def report_from_lists(predictions, labels) -> dict:
    """Brute-force classification metrics straight from the two lists.

    No confusion matrix: every quantity is recomputed with count loops.
    """
    n = len(labels)
    per_class = {}
    for c in range(3):
        tp = sum(1 for p, a in zip(predictions, labels) if int(p) == c and int(a) == c)
        pred_c = sum(1 for p in predictions if int(p) == c)
        actual_c = sum(1 for a in labels if int(a) == c)
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / actual_c if actual_c else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[c] = {"precision": precision, "recall": recall, "f1": f1,
                        "support": actual_c}
    correct = sum(1 for p, a in zip(predictions, labels) if int(p) == int(a))
    out = {"per_class": per_class, "accuracy": correct / n}
    for metric in ("precision", "recall", "f1"):
        out[f"macro_{metric}"] = sum(per_class[c][metric] for c in range(3)) / 3
        out[f"weighted_{metric}"] = sum(
            per_class[c][metric] * per_class[c]["support"] for c in range(3)) / n
    # the support weights cancel: weighted recall is just the hit rate
    out["weighted_recall"] = correct / n
    return out


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def cleanse_reference(raw: str, stopwords=frozenset()) -> str:
    """The cleansing rule as one regex: every run of characters that are
    not letters or digits (underscore included) becomes a space, then the
    lowercased tokens that are not stopwords are joined with spaces."""
    tokens = re.sub(r"[\W_]+", " ", raw.lower()).split()
    return " ".join(t for t in tokens if t not in stopwords)


def operator_class_by_scan(entries, operator: str):
    """The two-tier operator lookup, by brute force; None when unmapped.

    An exact normalized match wins outright. Otherwise every pattern is
    tried as a whole-word token window of the normalized operator; the
    longest matching pattern wins, ties broken by class code and then
    entry order.
    """
    def normalize(text):
        return " ".join(text.casefold().split())

    norm = normalize(operator)
    patterns = [(normalize(pattern), cls) for pattern, cls in entries]
    for pattern, cls in patterns:
        if pattern == norm:
            return cls
    tokens = norm.split()
    best, best_cls = None, None
    for index, (pattern, cls) in enumerate(patterns):
        words = pattern.split()
        if any(tokens[i:i + len(words)] == words
               for i in range(len(tokens) - len(words) + 1)):
            key = (-len(pattern), int(cls), index)
            if best is None or key < best:
                best, best_cls = key, cls
    return best_cls


def per_id_product(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w as the package's input layer takes it, once per distinct id:
    each row as the first row of a 4-row block of zeros, times a contiguous
    w, so its bits are those of a row of the package's block products."""
    w = np.ascontiguousarray(w)
    block = np.zeros((4, rows.shape[1]))
    out = np.empty((len(rows), w.shape[1]))
    for i, row in enumerate(rows):
        block[0] = row
        out[i] = (block @ w)[0]
    return out


def _unroll_one(x, params, prefix):
    """One record's recurrence as a batch of one, product by product: the
    input projection of each row by `per_id_product` against a contiguous
    w_xᵀ, and each step as a 4-row block times a contiguous w_hᵀ, the state
    in the block's first row and zeros in the others. The LSTM's sigmoid
    gates are 1/2 + tanh(z/2)/2, with one tanh over the fused row."""
    names = ["w"] if f"{prefix}.w" in params else [f"w_{g}" for g in "fiog"]
    w = np.concatenate([params[f"{prefix}.{name}"] for name in names])
    b = np.concatenate([params[f"{prefix}.b{name[1:]}"] for name in names])
    hidden = w.shape[1] - x.shape[1]
    w_h_t = np.ascontiguousarray(w[:, :hidden].T)
    z = per_id_product(x, w[:, hidden:].T) + b
    block = np.zeros((4, hidden))
    c = np.zeros((1, hidden))
    for t in range(len(x)):
        a = z[t:t + 1] + (block @ w_h_t)[:1]
        if len(names) == 1:
            block[:1] = np.tanh(a)
            continue
        a[:, :3 * hidden] *= 0.5
        act = np.tanh(a)
        act[:, :3 * hidden] = act[:, :3 * hidden] * 0.5 + 0.5
        f, i, o, g = (act[:, k * hidden:(k + 1) * hidden] for k in range(4))
        c = f * c + i * g
        block[:1] = o * np.tanh(c)
    return block[:1].copy()


def forward_probs_per_record(arch: str, params, ids, true_length: int) -> np.ndarray:
    """One record's probabilities from its checkpoint tensors, with the
    package's documented products (`per_id_product`, the 4-row step blocks,
    one gemv per head row) on a batch of one, so its output is the scorer's
    bit for bit. The CNN convolves the whole padded record."""
    table = params["embedding.table"]
    if arch == "cnn":
        features = cnn_full_length(table, np.asarray([ids], dtype=np.int64),
                                   params["cnn.filters"], params["cnn.bias"])[0]
    else:
        length = min(true_length, len(ids))
        x = table[np.asarray(ids[:length], dtype=np.int64)]
        if arch == "blstm":
            features = np.concatenate([_unroll_one(x, params, "blstm.fwd"),
                                       _unroll_one(x[::-1].copy(), params, "blstm.bwd")], axis=1)
        else:
            features = _unroll_one(x, params, arch)
    hidden = np.maximum(features @ params["head.w1"].T + params["head.b1"], 0.0)
    logits = (hidden @ params["head.w2"].T + params["head.b2"])[0]
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def cnn_full_length(table: np.ndarray, ids: np.ndarray, filters: np.ndarray, bias: np.ndarray):
    """The convolution over every window of the padded records `ids` (B, T),
    trailing windows that read only padding included: each window is the
    sum over the offsets j of its j-th id's row of `per_id_product` with the
    (d, k*F) matrix of all k offsets of the (k, d, F) `filters`, then the
    bias; ReLU, max over the P positions. Returns the pooled (B, F) and
    back(d_out) -> (d_x (B, T, d), {"cnn.filters" (k, d, F), "cnn.bias"}),
    the gradient of each pooled value going to its first maximum and on
    through k shifted (B*P, d) @ (d, F) window products."""
    x = table[ids]
    batch, t_max, d = x.shape
    k, _, n_filters = filters.shape
    positions = t_max - k + 1
    offsets = per_id_product(x.reshape(-1, d), filters.transpose(1, 0, 2).reshape(d, -1))
    offsets = offsets.reshape(batch, t_max, k, n_filters)
    conv = offsets[:, :positions, 0]
    for j in range(1, k):
        conv = conv + offsets[:, j:j + positions, j]
    conv = conv + bias
    act = np.maximum(conv, 0.0)

    def back(d_out):
        windows = [x[:, j:j + positions].reshape(batch * positions, d) for j in range(k)]
        d_conv = np.zeros_like(conv)
        np.put_along_axis(d_conv, act.argmax(axis=1)[:, None], d_out[:, None], axis=1)
        d_conv = (d_conv * (conv > 0)).reshape(batch * positions, n_filters)
        d_x = np.zeros_like(x)
        for j in range(k):
            d_x[:, j:j + positions] += (d_conv @ filters[j].T).reshape(batch, positions, d)
        return d_x, {"cnn.filters": np.stack([window.T @ d_conv for window in windows]),
                     "cnn.bias": d_conv.sum(axis=0)}
    return act.max(axis=1), back
