"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against plain numpy (or bare
Python), not against the package, so the two sides of each comparison
share no code paths.
"""

from __future__ import annotations

import math

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


def _sigmoid_by_sign(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _unroll_one(x, params, prefix):
    """One record's recurrence as a batch of one, product by product."""
    names = ["w"] if f"{prefix}.w" in params else [f"w_{g}" for g in "fiog"]
    w = np.concatenate([params[f"{prefix}.{name}"] for name in names])
    b = np.concatenate([params[f"{prefix}.b{name[1:]}"] for name in names])
    hidden = w.shape[1] - x.shape[1]
    w_h, w_x = w[:, :hidden], w[:, hidden:]
    z = x @ w_x.T + b
    h = np.zeros((1, hidden))
    c = np.zeros_like(h)
    for t in range(len(x)):
        a = z[t:t + 1] + h @ w_h.T
        if len(names) == 1:
            h = np.tanh(a)
            continue
        act = np.empty_like(a)
        act[:, :3 * hidden] = _sigmoid_by_sign(a[:, :3 * hidden])
        act[:, 3 * hidden:] = np.tanh(a[:, 3 * hidden:])
        f, i, o, g = (act[:, k * hidden:(k + 1) * hidden] for k in range(4))
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def forward_probs_per_record(arch: str, params, ids, true_length: int) -> np.ndarray:
    """The scorer as it ran before records were scored in batches: the
    training forward on one record, with the same matrix products on the
    same memory layouts, so its output is the reference bit for bit."""
    table = params["embedding.table"]
    if arch == "cnn":
        x = table[np.asarray([ids], dtype=np.int64)]
        filters = params["cnn.filters"]
        k, d, n_filters = filters.shape
        positions = x.shape[1] - k + 1
        windows = [x[:, j:j + positions].reshape(positions, d) for j in range(k)]
        conv = windows[0] @ filters[0]
        for j in range(1, k):
            conv = conv + windows[j] @ filters[j]
        conv = (conv + params["cnn.bias"]).reshape(1, positions, n_filters)
        features = np.maximum(conv, 0.0).max(axis=1)
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
