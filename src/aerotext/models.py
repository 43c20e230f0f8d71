"""The four sequence architectures as fixed layer chains, with a
hand-derived backward per layer.

All share the same skeleton: an embedding layer turns token ids into
d-vectors, an architecture-specific encoder reduces each record to a
feature vector, and a ReLU hidden head plus softmax output produces the
3-class probability vector. Recurrent encoders iterate only over the true
(pre-padding) length and return the final state; the convolutional
encoder slides over the whole padded sequence and global-max-pools.

State updates:

    sRNN    h_t = tanh(W [h_{t-1}; x_t] + b)
    LSTM    f,i,o = sigmoid(W_* [h_{t-1}; x_t] + b_*)
            g     = tanh(W_g [h_{t-1}; x_t] + b_g)
            c_t   = f * c_{t-1} + i * g
            h_t   = o * tanh(c_t)
    BLSTM   concat(final h of forward pass, final h of reversed pass)
    CNN     relu(valid 1-d convolution + bias), max over positions

Parameters are one dict of arrays keyed by the `parameter_table` names,
which are the checkpoint names. Each layer function returns its output and
a closure, `back`, that maps the gradient of that output to the gradients
of the layer's input and parameters. `loss_and_grads` chains the layers
over a training batch. `score` runs the same forward without the backward
over any number of records, and gives each record bit-for-bit the
probabilities it gets when scored alone; `forward_probs` is `score` on one
record.

Recurrent layers are length-packed: the batch is sorted longest first and
laid out step-major, so step t touches only the rows still running. The
four LSTM gate matrices are concatenated into one on each call (Appleyard
et al., arXiv:1604.01946). Training computes the input projection of every
step as one matrix product before the loop and each step as one more. The
scorer cannot: a row of a (B, K) @ (K, N) BLAS product can change in its
last bits with B (with OpenBLAS 0.3.31 it does for B < 5 at the default
sizes and for larger B at smaller ones). So it projects each record's
inputs with one product on that record's rows, the product a batch of one
makes, and computes the step and head products row by row (`_rowwise`,
one gemv per row). The CNN is k shifted matrix products, a ReLU and a
max-pool (Kim, arXiv:1408.5882); the scorer runs it record by record.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import OperatorClass
from .errors import IdOutOfRange, InvalidConfig, KernelTooLarge, ShapeMismatch
from .textprep import TokenSequence

ARCHITECTURES = ("cnn", "srnn", "lstm", "blstm")
NUM_CLASSES = 3
LSTM_GATES = "fiog"  # gate order of the LSTM parameter names and of the fused matrix

Params = dict[str, np.ndarray]


@dataclass
class ModelConfig:
    arch: str
    vocab_size: int               # kept tokens V; embedding table has V+2 rows
    embedding_dim: int = 100
    hidden_units: int = 128
    head_units: int = 64
    num_classes: int = NUM_CLASSES
    max_len: int = 200
    conv_filters: int = 128
    conv_kernel: int = 5
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise InvalidConfig(f"arch must be one of {ARCHITECTURES}, got {self.arch!r}")
        for name in ("vocab_size", "embedding_dim", "hidden_units", "head_units",
                     "max_len", "conv_filters", "conv_kernel"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise InvalidConfig(f"{name} must be an integer >= 1, got {value!r}")
        if self.num_classes != NUM_CLASSES:
            raise InvalidConfig("this classifier is fixed at 3 classes")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout_rate must be in [0, 1)")
        if self.arch == "cnn" and self.conv_kernel > self.max_len:
            raise InvalidConfig("conv_kernel cannot exceed max_len")

    @property
    def feature_size(self) -> int:
        if self.arch == "cnn":
            return self.conv_filters
        if self.arch == "blstm":
            return 2 * self.hidden_units
        return self.hidden_units

    def to_json_dict(self) -> dict:
        return {
            "arch": self.arch, "vocab_size": self.vocab_size,
            "embedding_dim": self.embedding_dim, "hidden_units": self.hidden_units,
            "head_units": self.head_units, "num_classes": self.num_classes,
            "max_len": self.max_len, "conv_filters": self.conv_filters,
            "conv_kernel": self.conv_kernel, "dropout_rate": self.dropout_rate,
        }


# --- the parameter table ----------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One parameter tensor: its checkpoint name, shape and initial values.

    `init` is one of
      "glorot"       uniform within sqrt(6/(fan_in+fan_out)), fans given
      "embedding"    uniform in +-0.05, except the padding row 0, which
                     starts at zero so padded positions contribute nothing
                     to the convolution until trained
      "zeros"
      "forget_bias"  +1, so early training does not erase the LSTM cell state
    """

    name: str
    shape: tuple[int, ...]
    init: str
    fans: tuple[int, int] | None = None

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        if self.init == "glorot":
            fan_in, fan_out = self.fans
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, self.shape)
        if self.init == "embedding":
            table = rng.uniform(-0.05, 0.05, self.shape)
            table[0] = 0.0
            return table
        return np.full(self.shape, 1.0 if self.init == "forget_bias" else 0.0)


def parameter_table(config: ModelConfig) -> list[ParamSpec]:
    """Every parameter tensor of the configured model, in checkpoint order.

    Initialization draws from the seeded generator in this order, so the
    order fixes the initial values.
    """
    h, d, u = config.hidden_units, config.embedding_dim, config.head_units
    k, f, feat = config.conv_kernel, config.conv_filters, config.feature_size

    def lstm(prefix: str) -> list[ParamSpec]:
        return ([ParamSpec(f"{prefix}.w_{g}", (h, h + d), "glorot", (h + d, h))
                 for g in LSTM_GATES]
                + [ParamSpec(f"{prefix}.b_f", (h,), "forget_bias")]
                + [ParamSpec(f"{prefix}.b_{g}", (h,), "zeros") for g in LSTM_GATES[1:]])

    cells = {
        "cnn": [ParamSpec("cnn.filters", (k, d, f), "glorot", (k * d, f)),
                ParamSpec("cnn.bias", (f,), "zeros")],
        "srnn": [ParamSpec("srnn.w", (h, h + d), "glorot", (h + d, h)),
                 ParamSpec("srnn.b", (h,), "zeros")],
        "lstm": lstm("lstm"),
        "blstm": lstm("blstm.fwd") + lstm("blstm.bwd"),
    }
    return [ParamSpec("embedding.table", (config.vocab_size + 2, d), "embedding"),
            *cells[config.arch],
            ParamSpec("head.w1", (u, feat), "glorot", (feat, u)),
            ParamSpec("head.b1", (u,), "zeros"),
            ParamSpec("head.w2", (NUM_CLASSES, u), "glorot", (u, NUM_CLASSES)),
            ParamSpec("head.b2", (NUM_CLASSES,), "zeros")]


def expected_parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {spec.name: spec.shape for spec in parameter_table(config)}


def check_parameter_shapes(config: ModelConfig, arrays: Mapping[str, np.ndarray]) -> None:
    """Raise ShapeMismatch unless `arrays` holds exactly the table's names,
    each with the table's shape."""
    expected = expected_parameter_shapes(config)
    if set(arrays) != set(expected):
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise ShapeMismatch(f"parameter names mismatch: missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if tuple(arrays[name].shape) != shape:
            raise ShapeMismatch(f"{name}: expected shape {shape}, got {tuple(arrays[name].shape)}")




def init_params(config: ModelConfig, seed: int) -> Params:
    """Seeded deterministic initialization, tensor by tensor in table order."""
    rng = np.random.default_rng(seed)
    return {spec.name: spec.initial(rng) for spec in parameter_table(config)}


# --- layers: each returns (output, back) --------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), taken as exp(x) / (1 + exp(x)) below zero so that
    exp cannot overflow; in place on one temporary, which halves its time
    on a chunk of rows."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _gates(act: np.ndarray, hidden: int) -> list[np.ndarray]:
    """The f, i, o, g column blocks of fused LSTM gate rows, as views
    (np.split takes five times as long on a step's few rows)."""
    return [act[:, k * hidden:(k + 1) * hidden] for k in range(4)]


def _packing(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step-major layout of a batch whose true lengths do not increase: the
    row and step of each packed row, and the packed offset of each step
    (one more entry than there are steps). The rows of step t are the
    first count(lengths > t) rows of the batch."""
    t_max = int(lengths.max(initial=0))
    steps, rows = np.nonzero(np.arange(t_max)[:, None] < lengths)
    return rows, steps, np.searchsorted(steps, np.arange(t_max + 1))


def embedding_lookup(ids, table: np.ndarray):
    """Gather the table rows of an integer id array -> ids.shape + (d,).

    `back` scatters the row gradients into one table-shaped gradient,
    so repeated ids accumulate on their shared row; the padding row is
    gathered like any other (there is no masking here).
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise IdOutOfRange(f"token id {bad} outside embedding table with {rows} rows")

    def back(d_rows):
        grad = np.zeros_like(table)
        np.add.at(grad, ids, d_rows)
        return grad
    return table[ids], back


def _gemm(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w.T as one BLAS product. A row of the result can differ in its
    last bits with the number of rows, so only training uses it."""
    return rows @ w.T


def _rowwise(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w.T as one (1, K) @ (K, N) product per row: numpy's matmul
    makes one gemv call per row, the call a batch of one makes, so each row
    is bit-for-bit what it is when its record is scored alone."""
    return (rows[:, None, :] @ w.T)[:, 0]


def _cell_weights(params: Mapping[str, np.ndarray], prefix: str):
    """The gate names of an sRNN (`<prefix>.w`, `.b`) or an LSTM (`<prefix>.w_f`
    ... `.b_g`), and its (w_h, w_x, b) with the gates fused in that order."""
    names = ["w"] if f"{prefix}.w" in params else [f"w_{g}" for g in LSTM_GATES]
    w = np.concatenate([params[f"{prefix}.{name}"] for name in names])
    b = np.concatenate([params[f"{prefix}.b{name[1:]}"] for name in names])
    hidden = w.shape[0] // len(names)
    return names, w[:, :hidden], w[:, hidden:], b


def _recur(z: np.ndarray, starts: list[int], batch: int, w_h: np.ndarray, product,
           keep: bool):
    """Run an sRNN (z has H columns) or an LSTM (4H) from a zero state over
    the packed input projections `z` of `batch` rows, in place: step t adds
    product(h, w_h) to its rows of z, which then hold the step's activations
    (f, i, o, g for the LSTM).

    Returns the final hidden state of each row, a zero vector for a row of
    length 0, and, if `keep`, (h_in, c_in, tanh_c) per packed row for the
    backward: the state and the cell state the row read, and tanh of its new
    cell state.
    """
    hidden = w_h.shape[1]
    lstm = z.shape[1] == 4 * hidden
    h = np.zeros((batch, hidden))
    c = np.zeros_like(h)
    saved = tuple(np.empty((len(z), hidden)) for _ in range(3)) if keep else None
    for s, e in zip(starts[:-1], starts[1:]):
        n = e - s
        a = z[s:e]
        if keep:
            saved[0][s:e] = h[:n]
        a += product(h[:n], w_h)
        if lstm:
            a[:, :3 * hidden] = _sigmoid(a[:, :3 * hidden])
            f, i, o, g = _gates(a, hidden)
            np.tanh(g, out=g)
            if keep:
                saved[1][s:e] = c[:n]
            c[:n] = f * c[:n] + i * g
            tanh_c = np.tanh(c[:n])
            if keep:
                saved[2][s:e] = tanh_c
            h[:n] = o * tanh_c
        else:
            h[:n] = np.tanh(a, out=a)
    return h, saved


def recurrent_forward(x: np.ndarray, lengths: np.ndarray, params: Mapping[str, np.ndarray],
                      prefix: str):
    """Run an sRNN (`<prefix>.w`, `.b`) or an LSTM (`<prefix>.w_f` ... `.b_g`)
    over a packed batch from a zero state.

    `x` holds the packed input rows (see `_packing`) and `lengths` the
    non-increasing true lengths. Returns the final hidden state of each row,
    a zero vector for a row of length 0, and back(d_final) ->
    (d_x, {name: grad}).
    """
    names, w_h, w_x, b = _cell_weights(params, prefix)
    hidden = w_h.shape[1]
    lstm = len(names) == 4
    starts = _packing(lengths)[2].tolist()
    spans = list(zip(starts[:-1], starts[1:]))
    # every step's input projection at once; the steps turn it into the activations
    act = x @ w_x.T + b
    h, (h_in, c_in, tanh_c) = _recur(act, starts, len(lengths), w_h, _gemm, keep=True)

    def back(d_final):
        dz = np.empty_like(act)
        dh = np.array(d_final, dtype=np.float64)   # rows finishing at step t start here
        dc = np.zeros_like(dh)
        for s, e in reversed(spans):
            n = e - s
            if lstm:
                f, i, o, g = _gates(act[s:e], hidden)
                dc_t = dc[:n] + dh[:n] * o * (1.0 - tanh_c[s:e] * tanh_c[s:e])
                dz[s:e] = np.concatenate([dc_t * c_in[s:e] * f * (1.0 - f),
                                          dc_t * g * i * (1.0 - i),
                                          dh[:n] * tanh_c[s:e] * o * (1.0 - o),
                                          dc_t * i * (1.0 - g * g)], axis=1)
                dc[:n] = dc_t * f
            else:
                dz[s:e] = dh[:n] * (1.0 - act[s:e] * act[s:e])
            dh[:n] = dz[s:e] @ w_h
        dw = np.split(np.concatenate([dz.T @ h_in, dz.T @ x], axis=1), len(names))
        db = np.split(dz.sum(axis=0), len(names))
        grads = {}
        for name, dw_gate, db_gate in zip(names, dw, db):
            grads[f"{prefix}.{name}"] = dw_gate
            grads[f"{prefix}.b{name[1:]}"] = db_gate
        return dz @ w_x, grads
    return h, back


def blstm_forward(x: np.ndarray, lengths: np.ndarray, params: Mapping[str, np.ndarray]):
    """concat(forward-order final state, reversed-order final state) -> (B, 2H).

    Each row is reversed within its own true length. The reversed pass reads
    a permutation of the packed rows of the already-embedded batch, so the
    embedding is gathered once for both directions.
    """
    rows, steps, starts = _packing(lengths)
    reverse = starts[lengths[rows] - 1 - steps] + rows
    h_fwd, fwd_back = recurrent_forward(x, lengths, params, "blstm.fwd")
    h_bwd, bwd_back = recurrent_forward(x[reverse], lengths, params, "blstm.bwd")
    hidden = h_fwd.shape[1]

    def back(d_out):
        d_x, grads = fwd_back(d_out[:, :hidden])
        d_reversed, bwd_grads = bwd_back(d_out[:, hidden:])
        d_x[reverse] += d_reversed
        return d_x, grads | bwd_grads
    return np.concatenate([h_fwd, h_bwd], axis=1), back


def cnn_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray):
    """Valid 1-d convolution + bias, ReLU, then global max pooling:
    (B, T, d) -> (B, F).

    `filters` is laid out (k, d, F), so the convolution is k shifted
    (B*P, d) @ (d, F) products over the P = T - k + 1 positions. Padded
    tail rows take part with whatever the padding embedding holds. The
    gradient of each pooled value goes to its first maximum.
    """
    batch, t_max, d = x.shape
    k, _, n_filters = filters.shape
    if k > t_max:
        raise KernelTooLarge(f"kernel {k} exceeds sequence length {t_max}")
    positions = t_max - k + 1
    windows = [x[:, j:j + positions].reshape(batch * positions, d) for j in range(k)]
    conv = windows[0] @ filters[0]
    for j in range(1, k):
        conv = conv + windows[j] @ filters[j]
    conv = (conv + bias).reshape(batch, positions, n_filters)
    act = np.maximum(conv, 0.0)

    def back(d_out):
        d_conv = np.zeros_like(conv)
        np.put_along_axis(d_conv, act.argmax(axis=1)[:, None], d_out[:, None], axis=1)
        d_conv = (d_conv * (conv > 0)).reshape(batch * positions, n_filters)
        d_x = np.zeros_like(x)
        for j in range(k):
            d_x[:, j:j + positions] += (d_conv @ filters[j].T).reshape(batch, positions, d)
        return d_x, {"cnn.filters": np.stack([window.T @ d_conv for window in windows]),
                     "cnn.bias": d_conv.sum(axis=0)}
    return act.max(axis=1), back


def head_logits(features: np.ndarray, params: Mapping[str, np.ndarray],
                masks: np.ndarray | None = None, product=_gemm):
    """relu(features @ W1.T + b1) @ W2.T + b2 -> (B, 3); `masks` (B,
    head_units) applies (inverted) dropout to the hidden layer, and
    `product` computes both matrix products. `back` returns
    (d_features, {name: grad})."""
    w1, b1, w2, b2 = (params[f"head.{name}"] for name in ("w1", "b1", "w2", "b2"))
    if features.shape[1:] != (w1.shape[1],):
        raise ShapeMismatch(f"head expects features {(w1.shape[1],)}, got {features.shape[1:]}")
    pre = product(features, w1) + b1
    hidden = np.maximum(pre, 0.0)
    if masks is not None:
        hidden = hidden * masks

    def back(d_logits):
        d_pre = d_logits @ w2
        if masks is not None:
            d_pre = d_pre * masks
        d_pre = d_pre * (pre > 0)
        return d_pre @ w1, {"head.w1": d_pre.T @ features, "head.b1": d_pre.sum(axis=0),
                            "head.w2": d_logits.T @ hidden, "head.b2": d_logits.sum(axis=0)}
    return product(hidden, w2) + b2, back


def predict_class(probs) -> OperatorClass:
    """Argmax with ties broken toward the lowest index."""
    values = np.asarray(probs)
    if values.shape != (NUM_CLASSES,):
        raise ShapeMismatch(f"expected {NUM_CLASSES} probabilities, got shape {values.shape}")
    return OperatorClass(int(np.argmax(values)))


# --- the chain ------------------------------------------------------------------

def _true_lengths(seqs: Sequence[TokenSequence]) -> np.ndarray:
    """How many ids of each record a recurrent encoder reads: its true
    length, at most its padded length."""
    return np.array([min(s.true_length, len(s.ids)) for s in seqs], dtype=np.int64)


def encode_features(config: ModelConfig, params: Mapping[str, np.ndarray],
                    seqs: Sequence[TokenSequence]):
    """A batch of TokenSequences -> (features (B, feature_size), back),
    with back(d_features) -> {name: grad} for the embedding table and
    the encoder.

    Recurrent paths embed only the first true_length ids of each row; the
    CNN embeds the whole padded sequence.
    """
    table = params["embedding.table"]
    if config.arch == "cnn":
        order = np.arange(len(seqs))
        x, embedding_back = embedding_lookup([s.ids for s in seqs], table)
        encoded, encoder_back = cnn_forward(x, params["cnn.filters"], params["cnn.bias"])
    else:
        lengths = _true_lengths(seqs)
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        padded = np.zeros((len(seqs), int(lengths.max(initial=0))), dtype=np.int64)
        for row, index in enumerate(order):
            padded[row, :lengths[row]] = seqs[index].ids[:lengths[row]]
        rows, steps, _ = _packing(lengths)
        x, embedding_back = embedding_lookup(padded[rows, steps], table)
        if config.arch == "blstm":
            encoded, encoder_back = blstm_forward(x, lengths, params)
        else:
            encoded, encoder_back = recurrent_forward(x, lengths, params, config.arch)
    features = np.empty_like(encoded)
    features[order] = encoded

    def back(d_features):
        d_x, grads = encoder_back(d_features[order])
        grads["embedding.table"] = embedding_back(d_x)
        return grads
    return features, back


def loss_and_grads(config: ModelConfig, params: Mapping[str, np.ndarray],
                   seqs: Sequence[TokenSequence], labels: Sequence[int],
                   masks: np.ndarray | None = None) -> tuple[float, Params]:
    """Mean cross-entropy of a batch and its gradient for every parameter,
    keyed and ordered like `params`. `masks` holds one dropout mask row per
    record, or None for no dropout. The loss gradient is the exact
    (p - onehot) / B; it does not pass through the cross-entropy clamp."""
    features, encoder_back = encode_features(config, params, seqs)
    logits, head_back = head_logits(features, params, masks)
    probs = ad.softmax(logits)
    batch = len(seqs)
    loss = sum(ad.cross_entropy(p, label) for p, label in zip(probs, labels)) / batch
    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_features, grads = head_back((1.0 / batch) * d_logits)
    grads |= encoder_back(d_features)
    return loss, {name: grads[name] for name in params}


SCORE_CHUNK = 64  # records scored together; bounds the packed projections of one chunk


def score(config: ModelConfig, params: Mapping[str, np.ndarray],
          seqs: Sequence[TokenSequence]) -> np.ndarray:
    """The one scorer: one 3-class probability row per record. Training's
    scoring pass, evaluation and prediction all call it.

    Each row is bit-for-bit the training forward of its record on a batch of
    one, whatever batch the record comes in: the records are sorted longest
    first and scored SCORE_CHUNK at a time, each record's input projection
    is one product on its own rows, the recurrent steps and the head use
    `_rowwise`, and the CNN runs `cnn_forward` record by record.
    """
    lengths = _true_lengths(seqs)
    order = np.argsort(-lengths, kind="stable")
    probs = np.empty((len(seqs), NUM_CLASSES))
    for start in range(0, len(seqs), SCORE_CHUNK):
        chunk = order[start:start + SCORE_CHUNK]
        features = _scoring_features(config, params, [seqs[i] for i in chunk], lengths[chunk])
        logits, _ = head_logits(features, params, product=_rowwise)
        probs[chunk] = ad.softmax(logits)
    return probs


def _scoring_features(config: ModelConfig, params: Mapping[str, np.ndarray],
                      seqs: Sequence[TokenSequence], lengths: np.ndarray) -> np.ndarray:
    """Encoder features (B, feature_size) of records whose true `lengths` do
    not increase."""
    table = params["embedding.table"]
    if config.arch == "cnn":
        filters, bias = params["cnn.filters"], params["cnn.bias"]
        return np.concatenate([cnn_forward(embedding_lookup([s.ids], table)[0], filters, bias)[0]
                               for s in seqs])
    # embedded rows record by record; record r holds rows ends[r] - lengths[r] ... ends[r] - 1
    x, _ = embedding_lookup([i for s, n in zip(seqs, lengths) for i in s.ids[:n]], table)
    ends = np.cumsum(lengths)
    if config.arch != "blstm":
        return _recurrent_scores(x, lengths, ends, params, config.arch)
    # each record reversed within its own rows
    reverse = np.repeat(2 * ends - lengths - 1, lengths) - np.arange(len(x))
    return np.concatenate([_recurrent_scores(x, lengths, ends, params, "blstm.fwd"),
                           _recurrent_scores(x[reverse], lengths, ends, params, "blstm.bwd")],
                          axis=1)


def _recurrent_scores(x: np.ndarray, lengths: np.ndarray, ends: np.ndarray,
                      params: Mapping[str, np.ndarray], prefix: str) -> np.ndarray:
    """Final hidden states of an sRNN or LSTM over records whose embedded rows
    `x` lie record by record (see `_scoring_features`). Each record's input
    projection, one product on its own rows, is scattered into the step-major
    packed layout of `_packing`: sum(lengths) rows, no padding."""
    _, w_h, w_x, b = _cell_weights(params, prefix)
    starts = _packing(lengths)[2]
    z = np.empty((len(x), w_x.shape[0]))
    for row, (n, end) in enumerate(zip(lengths.tolist(), ends.tolist())):
        z[starts[:n] + row] = x[end - n:end] @ w_x.T + b
    return _recur(z, starts.tolist(), len(lengths), w_h, _rowwise, keep=False)[0]


def forward_probs(config: ModelConfig, params: Mapping[str, np.ndarray],
                  seq: TokenSequence) -> np.ndarray:
    """The probability vector of one record: `score` on a batch of one."""
    return score(config, params, [seq])[0]
