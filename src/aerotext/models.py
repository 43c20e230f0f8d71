"""The four sequence architectures as pure forward functions.

All share the same skeleton: an embedding layer turns token ids into a
T x d matrix, an architecture-specific encoder reduces it to a feature
vector, and a ReLU hidden head plus softmax output produces the 3-class
probability vector. Recurrent encoders iterate only over the true
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
"""

from __future__ import annotations

import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import OperatorClass
from .errors import IdOutOfRange, InvalidConfig, KernelTooLarge, ShapeMismatch
from .textprep import TokenSequence

ARCHITECTURES = ("cnn", "srnn", "lstm", "blstm")
NUM_CLASSES = 3


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
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
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


@dataclass
class EmbeddingParams:
    table: Tensor  # (V+2, d); rows 0 and 1 are the padding and OOV rows


@dataclass
class SrnnParams:
    w: Tensor  # (H, H+d)
    b: Tensor  # (H,)


@dataclass
class LstmParams:
    w_f: Tensor
    w_i: Tensor
    w_o: Tensor
    w_g: Tensor  # each (H, H+d)
    b_f: Tensor
    b_i: Tensor
    b_o: Tensor
    b_g: Tensor  # each (H,)


@dataclass
class BlstmParams:
    fwd: LstmParams
    bwd: LstmParams


@dataclass
class CnnParams:
    # filters laid out (k, d, F): filters[j] is the (d, F) weight slab for
    # window offset j, so the convolution is a sum of plain matmuls.
    filters: Tensor
    bias: Tensor  # (F,)


@dataclass
class HeadParams:
    w1: Tensor  # (head_units, feature_size)
    b1: Tensor  # (head_units,)
    w2: Tensor  # (3, head_units)
    b2: Tensor  # (3,)


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: EmbeddingParams
    cell: SrnnParams | LstmParams | BlstmParams | CnnParams
    head: HeadParams


# --- the parameter table ----------------------------------------------------

CELL_TYPES = {"cnn": CnnParams, "srnn": SrnnParams, "lstm": LstmParams,
              "blstm": BlstmParams}


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

    A name's dotted path is its attribute path in ModelParams, with the
    architecture name standing for `cell`. Initialization draws from the
    seeded generator in this order, so the order fixes the initial values.
    """
    h, d, u = config.hidden_units, config.embedding_dim, config.head_units
    k, f, feat = config.conv_kernel, config.conv_filters, config.feature_size

    def lstm(prefix: str) -> list[ParamSpec]:
        return ([ParamSpec(f"{prefix}.w_{g}", (h, h + d), "glorot", (h + d, h))
                 for g in "fiog"]
                + [ParamSpec(f"{prefix}.b_f", (h,), "forget_bias")]
                + [ParamSpec(f"{prefix}.b_{g}", (h,), "zeros") for g in "iog"])

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


def _group(cls, prefix: str, tensors: Mapping[str, Tensor]):
    """Fill dataclass `cls` from the tensors named `<prefix>.<field>`,
    recursing into fields that are parameter groups themselves."""
    return cls(**{name: tensors[f"{prefix}.{name}"] if hint is Tensor
                  else _group(hint, f"{prefix}.{name}", tensors)
                  for name, hint in typing.get_type_hints(cls).items()})


def _assemble(config: ModelConfig, tensors: Mapping[str, Tensor]) -> ModelParams:
    # a module-level _group, not a self-recursive closure: such a closure is
    # a reference cycle that would keep every tensor and its gradient alive
    # until the cyclic garbage collector runs
    return ModelParams(config, _group(EmbeddingParams, "embedding", tensors),
                       _group(CELL_TYPES[config.arch], config.arch, tensors),
                       _group(HeadParams, "head", tensors))


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Seeded deterministic initialization, tensor by tensor in table order."""
    rng = np.random.default_rng(seed)
    return _assemble(config, {spec.name: Tensor(spec.initial(rng), requires_grad=True)
                              for spec in parameter_table(config)})


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Canonically named and ordered parameter tensors (checkpoint order)."""
    named = []
    for spec in parameter_table(params.config):
        root, *path = spec.name.split(".")
        node = params.cell if root == params.config.arch else getattr(params, root)
        for attr in path:
            node = getattr(node, attr)
        named.append((spec.name, node))
    return named


def build_params(config: ModelConfig, arrays: Mapping[str, np.ndarray]) -> ModelParams:
    """Assemble ModelParams from named arrays, validating names and shapes."""
    check_parameter_shapes(config, arrays)
    return _assemble(config, {name: Tensor(np.array(array, dtype=np.float64),
                                           requires_grad=True)
                              for name, array in arrays.items()})


# --- forward pieces ---------------------------------------------------------

def embedding_lookup(ids, table: Tensor) -> Tensor:
    """Gather embedding rows for a list of token ids -> (len(ids), d).

    Repeated ids accumulate gradients on the shared row; the padding row
    is gathered like any other (there is no masking here).
    """
    index = np.asarray(list(ids), dtype=np.int64)
    rows = table.shape[0]
    if index.size and (index.min() < 0 or index.max() >= rows):
        bad = int(index.min()) if index.min() < 0 else int(index.max())
        raise IdOutOfRange(f"token id {bad} outside embedding table with {rows} rows")
    return ad.take(table, index)


def srnn_step(h_prev: Tensor, x_t: Tensor, p: SrnnParams) -> Tensor:
    z = ad.concat_last_axis(h_prev, x_t)
    return ad.tanh(ad.add(ad.matmul(p.w, z), p.b))


def lstm_step(h_prev: Tensor, c_prev: Tensor, x_t: Tensor,
              p: LstmParams) -> tuple[Tensor, Tensor]:
    z = ad.concat_last_axis(h_prev, x_t)
    f = ad.sigmoid(ad.add(ad.matmul(p.w_f, z), p.b_f))
    i = ad.sigmoid(ad.add(ad.matmul(p.w_i, z), p.b_i))
    o = ad.sigmoid(ad.add(ad.matmul(p.w_o, z), p.b_o))
    g = ad.tanh(ad.add(ad.matmul(p.w_g, z), p.b_g))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, c


def recurrent_forward(seq: Tensor, true_length: int,
                      cell: SrnnParams | LstmParams) -> Tensor:
    """Run the cell over rows 0..true_length-1 from a zero state and
    return the final hidden state (a zero vector when true_length is 0).
    Padded tail rows are never touched."""
    t_max = seq.shape[0]
    if not 0 <= true_length <= t_max:
        raise ValueError(f"true_length {true_length} outside [0, {t_max}]")
    hidden = cell.w.shape[0] if isinstance(cell, SrnnParams) else cell.w_f.shape[0]
    h = ad.zeros(hidden)
    if isinstance(cell, SrnnParams):
        for t in range(true_length):
            h = srnn_step(h, ad.take(seq, t), cell)
        return h
    c = ad.zeros(hidden)
    for t in range(true_length):
        h, c = lstm_step(h, c, ad.take(seq, t), cell)
    return h


def blstm_forward(seq: Tensor, true_length: int, fwd: LstmParams,
                  bwd: LstmParams) -> Tensor:
    """concat(forward-order final state, reversed-order final state) -> (2H,).

    The reversed pass reads a row-reversed gather of the first true_length
    rows of the already-embedded sequence, so the embedding table is
    gathered once for both directions.
    """
    t_max = seq.shape[0]
    if not 0 <= true_length <= t_max:
        raise ValueError(f"true_length {true_length} outside [0, {t_max}]")
    reversed_rows = ad.take(seq, np.arange(true_length)[::-1])
    return ad.concat_last_axis(recurrent_forward(seq, true_length, fwd),
                               recurrent_forward(reversed_rows, true_length, bwd))


def cnn_forward(seq: Tensor, true_length: int, p: CnnParams) -> Tensor:
    """Valid 1-d convolution + bias, ReLU, then global max pooling -> (F,).

    Padded tail rows take part with whatever the padding embedding holds
    (zero at initialization); recurrent encoders stop at true_length
    instead, so only this path sees the padding row.
    """
    t_max = seq.shape[0]
    k = p.filters.shape[0]
    if k > t_max:
        raise KernelTooLarge(f"kernel {k} exceeds sequence length {t_max}")
    positions = t_max - k + 1
    conv = None
    for j in range(k):
        term = ad.matmul(ad.take(seq, slice(j, j + positions)), ad.take(p.filters, j))
        conv = term if conv is None else ad.add(conv, term)
    conv = ad.add(conv, p.bias)
    return ad.max_over_axis(ad.relu(conv), axis=0)


def head_logits(features: Tensor, head: HeadParams,
                hidden_mask: Tensor | None = None) -> Tensor:
    """W2 relu(W1 f + b1) + b2; hidden_mask applies (inverted) dropout."""
    if features.shape != (head.w1.shape[1],):
        raise ShapeMismatch(f"head expects features {(head.w1.shape[1],)}, got {features.shape}")
    hidden = ad.relu(ad.add(ad.matmul(head.w1, features), head.b1))
    if hidden_mask is not None:
        hidden = ad.mul(hidden, hidden_mask)
    return ad.add(ad.matmul(head.w2, hidden), head.b2)


def predict_class(probs) -> OperatorClass:
    """Argmax with ties broken toward the lowest index."""
    values = np.asarray(probs)
    if values.shape != (NUM_CLASSES,):
        raise ShapeMismatch(f"expected {NUM_CLASSES} probabilities, got shape {values.shape}")
    return OperatorClass(int(np.argmax(values)))


def encode_features(params: ModelParams, seq: TokenSequence) -> Tensor:
    """TokenSequence -> architecture feature vector.

    Recurrent paths embed only the first true_length ids; the CNN embeds
    the whole padded sequence.
    """
    config = params.config
    cell = params.cell
    if isinstance(cell, CnnParams):
        emb = embedding_lookup(seq.ids, params.embedding.table)
        return cnn_forward(emb, seq.true_length, cell)
    length = min(seq.true_length, len(seq.ids))
    if length == 0:
        return ad.zeros(config.feature_size)
    emb = embedding_lookup(seq.ids[:length], params.embedding.table)
    if isinstance(cell, BlstmParams):
        return blstm_forward(emb, length, cell.fwd, cell.bwd)
    return recurrent_forward(emb, length, cell)


def forward_probs(params: ModelParams, seq: TokenSequence) -> np.ndarray:
    """The one scorer: the 3-class probability vector as a plain array.

    Training's scoring pass, evaluation and prediction all call this; it
    records no tape, even on parameters that require grad.
    """
    with ad.no_grad():
        return ad.softmax(head_logits(encode_features(params, seq), params.head).data)
