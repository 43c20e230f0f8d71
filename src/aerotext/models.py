"""The four sequence architectures as fixed layer chains, with a
hand-derived backward per layer.

All share the same skeleton: an embedding layer turns token ids into
d-vectors, an architecture-specific encoder reduces each record to a
feature vector, and a ReLU hidden head plus softmax output produces the
3-class probability vector. Recurrent encoders iterate only over the true
(pre-padding) length and return the final state; the convolutional
encoder global-max-pools its windows over the padded sequence, of which it
computes only those through the last non-padding id and two more.

State updates:

    sRNN    h_t = tanh(W [h_{t-1}; x_t] + b)
    LSTM    f,i,o = sigmoid(W_* [h_{t-1}; x_t] + b_*)
            g     = tanh(W_g [h_{t-1}; x_t] + b_g)
            c_t   = f * c_{t-1} + i * g
            h_t   = o * tanh(c_t)
    BLSTM   concat(final h of forward pass, final h of reversed pass)
    CNN     relu(valid 1-d convolution + bias), max over positions

Training holds the parameters as one float64 vector in `parameter_table`
order; the layers read them through a dict of views keyed by the table
names (`parameter_views`). A recurrent cell is held transposed: one
(H+d, G*H) matrix [w_hᵀ; w_xᵀ], whose two row blocks are the contiguous
right-hand operands of its step and input products, and one G*H bias. An
LSTM's four gates are fused in f, i, o, g order (Appleyard et al.,
arXiv:1604.01946). Only the checkpoint keeps the untransposed matrix, one
tensor per gate: a column block of the held matrix, viewed transposed
(`checkpoint_views`, `fuse_checkpoint`). Each layer function returns its
output and a closure, `back`, that maps the gradient of that output to the
gradients of the layer's input and parameters. `loss_and_grads` chains the
layers over a training batch; its loss, like that of training's scoring
pass, is `cross_entropy`. The embedding table's gradient is in row form,
`(rows, values)`: the distinct ids the batch read and one gradient row
each, every other row being zero. A batch reads a few hundred of the
table's ~10k rows, so the backward never builds the dense table, and the
optimizers skip the rows no batch has read.

There is one forward, and every product in it, in training and in
scoring, is the product a batch of one makes: a row of a (B, K) @ (K, N)
BLAS product can change in its last bits with B (with OpenBLAS 0.3.31 it
does for B < 5 at the default sizes and for larger B at smaller ones), so
no product but the CNN's convolution (below) takes a batch's rows as one
gemm. One flag, `train`, taken by `encode_features` and the recurrent
encoders, only decides whether the state the backward reads is kept; with
train=False back is None. `score` runs the forward over any number of
records, and a recurrent model gives a record the probabilities that the
training forward of any batch holding it gives before dropout;
`forward_probs` is `score` on one record.

Recurrent layers are length-packed: the batch is sorted longest first and
laid out step-major, so step t touches only the rows still running. Each
record's input projection is one product on that record's own packed
rows, and the head's products are row by row (`_rowwise`, one gemv per
row). Every step product is taken in fixed blocks of STEP_BLOCK rows, one
gemm per block against the contiguous w_hᵀ: a row of such a block has the
same bits whatever the other rows hold, so a record's state is the same in
any batch, and the step weight is read once per block, not once per row.
The LSTM's sigmoid gates are 1/2 + tanh(z/2)/2, taken with one tanh over
the fused row (`_lstm_gates`). No recurrent step allocates: each call
makes its scratch arrays once and every elementwise result is written into
them or into the state, in the formulas' order of operations; the backward
takes the factors that do not depend on the incoming gradient for all
steps at once.

The CNN is k shifted matrix products, a ReLU and a max-pool (Kim,
arXiv:1408.5882). Every window past a record's last non-padding id reads
only the padding row and equals the first such window, so each record
keeps its windows only through that one and one more, and a batch's kept
windows are packed record after record into one product per filter offset,
as the recurrent layers pack by length (`_conv_lengths`, `cnn_forward`).
Those products have no row-by-row form, so the scorer runs the CNN one
record per call, the batch of one; a training batch of several records is
the one place where a row of a product can depend on its batch.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import OperatorClass
from .errors import IdOutOfRange, InvalidConfig, KernelTooLarge, ShapeMismatch
from .textprep import PAD_ID, TokenSequence

ARCHITECTURES = ("cnn", "srnn", "lstm", "blstm")
NUM_CLASSES = 3
LSTM_GATES = "fiog"  # gate order of the fused LSTM rows and of their checkpoint names

Params = dict[str, np.ndarray]
RowGrad = tuple[np.ndarray, np.ndarray]  # (sorted distinct rows, their gradient rows)


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
        return asdict(self)


# --- the parameter table ----------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One parameter tensor: its name, shape and initial values, and the
    checkpoint names of its equal row blocks if the checkpoint stores them
    as tensors of their own (`parts`, an LSTM cell's gates).

    A recurrent cell's weight is held `transposed`: its (G*H, H+d) matrix
    [W_h W_x] is stored as the (H+d, G*H) matrix [W_hᵀ; W_xᵀ], whose row
    blocks w_hᵀ and w_xᵀ are the contiguous right-hand operands of the
    step and input products. `shape` is the shape held; the checkpoint
    keeps the untransposed matrix (`stored`), cut into its gates' row
    blocks if it has parts.

    `init` is one of
      "glorot"       uniform within sqrt(6/(fan_in+fan_out)), fans given;
                     a transposed tensor draws its untransposed matrix
      "embedding"    uniform in +-0.05, except the padding row 0, which
                     starts at zero so padded positions contribute nothing
                     to the convolution until trained
      "zeros"
      "forget_bias"  +1 on the forget gate block, so early training does
                     not erase the LSTM cell state
    """

    name: str
    shape: tuple[int, ...]
    init: str
    fans: tuple[int, int] | None = None
    parts: tuple[str, ...] = ()
    transposed: bool = False

    def stored_views(self, array: np.ndarray) -> Params:
        """The checkpoint tensors of `array`, a tensor of this spec, as views
        of it: the untransposed matrix, or its row blocks if it has parts."""
        names = self.parts or (self.name,)
        rows = array.T if self.transposed else array
        size = len(rows) // len(names)
        return {name: rows[k * size:(k + 1) * size] for k, name in enumerate(names)}

    @property
    def stored(self) -> dict[str, tuple[int, ...]]:
        """Its checkpoint names and shapes, in row order (the views of a
        zero-stride array, so nothing is allocated)."""
        return {name: view.shape
                for name, view in self.stored_views(np.broadcast_to(0.0, self.shape)).items()}

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        if self.init == "glorot":
            fan_in, fan_out = self.fans
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            if self.transposed:
                return rng.uniform(-bound, bound, self.shape[::-1]).T
            return rng.uniform(-bound, bound, self.shape)
        if self.init == "embedding":
            table = rng.uniform(-0.05, 0.05, self.shape)
            table[0] = 0.0
            return table
        values = np.zeros(self.shape)
        if self.init == "forget_bias":
            values[:self.shape[0] // len(self.parts)] = 1.0
        return values


def parameter_table(config: ModelConfig) -> list[ParamSpec]:
    """Every parameter tensor of the configured model.

    Initialization draws from the seeded generator in this order, so the
    order fixes the initial values; a fused LSTM matrix is one draw, which
    reads the generator as one draw per gate did.
    """
    h, d, u = config.hidden_units, config.embedding_dim, config.head_units
    k, f, feat = config.conv_kernel, config.conv_filters, config.feature_size

    def lstm(prefix: str) -> list[ParamSpec]:
        return [ParamSpec(f"{prefix}.w", (h + d, 4 * h), "glorot", (h + d, h),
                          tuple(f"{prefix}.w_{g}" for g in LSTM_GATES), transposed=True),
                ParamSpec(f"{prefix}.b", (4 * h,), "forget_bias",
                          parts=tuple(f"{prefix}.b_{g}" for g in LSTM_GATES))]

    cells = {
        "cnn": [ParamSpec("cnn.filters", (k, d, f), "glorot", (k * d, f)),
                ParamSpec("cnn.bias", (f,), "zeros")],
        "srnn": [ParamSpec("srnn.w", (h + d, h), "glorot", (h + d, h), transposed=True),
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
    """The name and shape of every checkpoint tensor, in table order."""
    return {name: shape for spec in parameter_table(config) for name, shape in spec.stored.items()}


def check_parameter_shapes(config: ModelConfig, arrays: Mapping[str, np.ndarray]) -> None:
    """Raise ShapeMismatch unless `arrays` holds exactly the checkpoint's
    names, each with its shape."""
    expected = expected_parameter_shapes(config)
    if set(arrays) != set(expected):
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise ShapeMismatch(f"parameter names mismatch: missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if tuple(arrays[name].shape) != shape:
            raise ShapeMismatch(f"{name}: expected shape {shape}, got {tuple(arrays[name].shape)}")


def parameter_views(config: ModelConfig, flat: np.ndarray) -> Params:
    """The parameters of a flat vector in table order, each a view of it."""
    views, start = {}, 0
    for spec in parameter_table(config):
        size = math.prod(spec.shape)
        views[spec.name] = flat[start:start + size].reshape(spec.shape)
        start += size
    return views


def checkpoint_views(config: ModelConfig, flat: np.ndarray) -> Params:
    """The checkpoint tensors of a flat parameter vector without a copy: a
    transposed cell's gate tensors are column blocks of the held matrix,
    viewed transposed (`ParamSpec.stored_views`)."""
    params = parameter_views(config, flat)
    return {name: block for spec in parameter_table(config)
            for name, block in spec.stored_views(params[spec.name]).items()}


def fuse_checkpoint(config: ModelConfig, tensors: Mapping[str, np.ndarray]) -> Params:
    """The parameters of checkpoint tensors, after `check_parameter_shapes`:
    a cell's tensors copied once into the matrix or bias that holds them, at
    their places in it (`ParamSpec.stored_views`), every other tensor as it
    is."""
    check_parameter_shapes(config, tensors)
    params = {}
    for spec in parameter_table(config):
        if spec.parts or spec.transposed:
            params[spec.name] = np.empty(spec.shape)
            for name, view in spec.stored_views(params[spec.name]).items():
                view[...] = tensors[name]
        else:
            params[spec.name] = tensors[spec.name]
    return params


def init_params(config: ModelConfig, seed: int) -> np.ndarray:
    """Seeded deterministic initialization: one flat vector, drawn tensor by
    tensor in table order."""
    rng = np.random.default_rng(seed)
    return np.concatenate([spec.initial(rng).ravel() for spec in parameter_table(config)])


# --- layers: each returns (output, back) --------------------------------------

def _gates(act: np.ndarray, hidden: int) -> list[np.ndarray]:
    """The f, i, o, g column blocks of fused LSTM gate rows, as views
    (np.split takes five times as long on a step's few rows)."""
    return [act[:, k * hidden:(k + 1) * hidden] for k in range(4)]


def _lstm_gates(a: np.ndarray, hidden: int) -> np.ndarray:
    """Fused LSTM pre-activation rows (n, 4H) turned into the gate values in
    place: tanh of the g block, and the sigmoid of the f, i, o blocks as
    1/2 + tanh(z/2)/2, with one tanh over all four blocks. Halving is exact,
    and tanh cannot overflow, so sigmoid(0) is 1/2 and no value overflows."""
    sigmoid = a[:, :3 * hidden]
    sigmoid *= 0.5
    np.tanh(a, out=a)
    sigmoid *= 0.5
    sigmoid += 0.5
    return a


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

    `back` returns the table gradient in row form, `(rows, values)`: the
    sorted distinct ids and one summed gradient row for each; every other
    row of the table has a zero gradient. Repeated ids accumulate on their
    shared row in the order they occur, from +0, so `values` holds the bits
    of the rows of a dense table gradient. The padding row is gathered like
    any other (there is no masking here).
    """
    ids = np.asarray(ids, dtype=np.int64)
    n_rows = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise IdOutOfRange(f"token id {bad} outside embedding table with {n_rows} rows")

    def back(d_rows):
        rows, inverse = np.unique(ids.ravel(), return_inverse=True)
        values = np.zeros((len(rows), table.shape[1]))
        np.add.at(values, inverse, d_rows.reshape(len(inverse), table.shape[1]))
        return rows, values
    return table[ids], back


def _rowwise(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w.T as one (1, K) @ (K, N) product per row: numpy's matmul
    makes one gemv call per row, the call a batch of one makes, so each row
    is bit-for-bit what it is when its record is scored alone."""
    return (rows[:, None, :] @ w.T)[:, 0]


STEP_BLOCK = 4  # rows of one recurrent step product; see recurrent_forward


def recurrent_forward(x: np.ndarray, lengths: np.ndarray, params: Mapping[str, np.ndarray],
                      prefix: str, train: bool = True):
    """Run the sRNN or LSTM cell `<prefix>.w` (H+d, G*H), `<prefix>.b` (G*H,)
    over a packed batch from a zero state; G is 1, or 4 for an LSTM's gates.
    The cell is held transposed: `w[:H]` is w_hᵀ and `w[H:]` is w_xᵀ, both
    contiguous.

    `x` holds the packed input rows (see `_packing`) and `lengths` the
    non-increasing true lengths. Returns the final hidden state of each row,
    a zero vector for a row of length 0, and back(d_final) ->
    (d_x, {name: grad}). Each record's input projection is one product on
    its own packed rows, the product a batch of one makes; `train` only
    decides whether the state the backward reads is kept, and with
    train=False back is None.

    Every step product is taken in blocks of STEP_BLOCK rows: the state
    buffer is padded to a multiple of STEP_BLOCK rows, and a step multiplies
    its running rows' blocks by w_hᵀ as one stacked product, one
    (STEP_BLOCK, H) @ (H, G*H) gemm per block. A row of such a block has the
    same bits whatever the other rows hold, so a record's state does not
    depend on its batch, and every batch trains as it scores. The LSTM's
    gates come from one tanh over the fused row (`_lstm_gates`).

    No step allocates: the loops and the backward write every elementwise
    result into the state or into scratch made once per call, in the
    formulas' order of operations.
    """
    w, b = params[f"{prefix}.w"], params[f"{prefix}.b"]
    hidden = w.shape[0] - x.shape[1]
    w_h, w_x = w[:hidden], w[hidden:]
    lstm = w.shape[1] == 4 * hidden
    batch = len(lengths)
    starts = _packing(lengths)[2]
    # each record's input projection; the steps turn it into the activations
    act = np.empty((len(x), w.shape[1]))
    for row, n in enumerate(lengths.tolist()):
        own = starts[:n] + row
        act[own] = x[own] @ w_x + b
    if train:
        # per packed row, for the backward: the state and the cell state the
        # row read, and tanh of its new cell state
        h_in, c_in, tanh_c = (np.empty((len(x), hidden)) for _ in range(3))
    starts = starts.tolist()
    spans = list(zip(starts[:-1], starts[1:]))
    padded = -(-batch // STEP_BLOCK) * STEP_BLOCK
    h = np.zeros((padded, hidden))
    c = np.zeros((batch, hidden))
    product = np.empty((padded, w.shape[1]))
    # the step product's operands as stacks of STEP_BLOCK-row blocks
    h_blocks = h.reshape(-1, STEP_BLOCK, hidden)
    product_blocks = product.reshape(-1, STEP_BLOCK, w.shape[1])
    scratch = np.empty_like(c)  # i * g, or the scorer's tanh(c)
    for s, e in spans:
        n = e - s
        blocks = -(-n // STEP_BLOCK)
        a = act[s:e]
        if train:
            h_in[s:e] = h[:n]
        np.matmul(h_blocks[:blocks], w_h, out=product_blocks[:blocks])
        a += product[:n]
        if lstm:
            f, i, o, g = _gates(_lstm_gates(a, hidden), hidden)
            if train:
                c_in[s:e] = c[:n]
            c[:n] *= f
            c[:n] += np.multiply(i, g, out=scratch[:n])
            tanh_new = np.tanh(c[:n], out=tanh_c[s:e] if train else scratch[:n])
            np.multiply(o, tanh_new, out=h[:n])
        else:
            h[:n] = np.tanh(a, out=a)
    if not train:
        return h[:batch], None

    def back(d_final):
        # dz starts as the factors that do not depend on the incoming gradient,
        # for every packed row at once: 1 - s of the sigmoid gates and 1 - g²,
        # or 1 - h² for the sRNN; each step multiplies its rows in
        dz = np.empty_like(act)
        dh = np.array(d_final, dtype=np.float64)   # rows finishing at step t start here
        if lstm:
            np.subtract(1.0, act[:, :3 * hidden], out=dz[:, :3 * hidden])
            g, d_g = act[:, 3 * hidden:], dz[:, 3 * hidden:]
            np.subtract(1.0, np.multiply(g, g, out=d_g), out=d_g)
            d_tanh = np.multiply(tanh_c, tanh_c)
            np.subtract(1.0, d_tanh, out=d_tanh)
            dc = np.zeros_like(dh)
            v = np.empty_like(dh)
            block = np.empty((batch, 3 * hidden))
        else:
            np.subtract(1.0, np.multiply(act, act, out=dz), out=dz)
        for s, e in reversed(spans):
            n = e - s
            if lstm:
                f, i, o, g = _gates(act[s:e], hidden)
                # dc_t = dc + dh * o * (1 - tanh_c²), formed in dc
                np.multiply(dh[:n], o, out=v[:n])
                v[:n] *= d_tanh[s:e]
                dc[:n] += v[:n]
                # d_f, d_i, d_o = (dc_t c_in, dc_t g, dh tanh_c) * s * (1 - s) of
                # their gate s: the first factors side by side, then s and 1 - s
                # over the three blocks at once
                np.multiply(dc[:n], c_in[s:e], out=block[:n, :hidden])
                np.multiply(dc[:n], g, out=block[:n, hidden:2 * hidden])
                np.multiply(dh[:n], tanh_c[s:e], out=block[:n, 2 * hidden:])
                block[:n] *= act[s:e, :3 * hidden]
                dz[s:e, :3 * hidden] *= block[:n]
                # d_g = dc_t * i * (1 - g²)
                dz[s:e, 3 * hidden:] *= np.multiply(dc[:n], i, out=v[:n])
                dc[:n] *= f
            else:
                dz[s:e] *= dh[:n]
            np.matmul(dz[s:e], w_h.T, out=dh[:n])
        return dz @ w_x.T, {f"{prefix}.w": np.concatenate([h_in.T @ dz, x.T @ dz]),
                            f"{prefix}.b": dz.sum(axis=0)}
    return h[:batch], back


def blstm_forward(x: np.ndarray, lengths: np.ndarray, params: Mapping[str, np.ndarray],
                  train: bool = True):
    """concat(forward-order final state, reversed-order final state) -> (B, 2H).

    Each row is reversed within its own true length. The reversed pass reads
    a permutation of the packed rows of the already-embedded batch, so the
    embedding is gathered once for both directions. `train` is passed on to
    `recurrent_forward`; with train=False back is None.
    """
    rows, steps, starts = _packing(lengths)
    reverse = starts[lengths[rows] - 1 - steps] + rows
    h_fwd, fwd_back = recurrent_forward(x, lengths, params, "blstm.fwd", train)
    h_bwd, bwd_back = recurrent_forward(x[reverse], lengths, params, "blstm.bwd", train)
    hidden = h_fwd.shape[1]
    features = np.concatenate([h_fwd, h_bwd], axis=1)
    if not train:
        return features, None

    def back(d_out):
        d_x, grads = fwd_back(d_out[:, :hidden])
        d_reversed, bwd_grads = bwd_back(d_out[:, hidden:])
        d_x[reverse] += d_reversed
        return d_x, grads | bwd_grads
    return features, back


def cnn_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray, lengths: np.ndarray):
    """Valid 1-d convolution + bias, ReLU, then global max pooling over
    each record, the records laid end to end as the rows of x:
    (sum(lengths), d) with `lengths` (B,) -> (B, F).

    `filters` is laid out (k, d, F), so the convolution is k shifted
    (M, d) @ (d, F) products, each over a contiguous slice of the M =
    rows - k + 1 window starts. The k - 1 windows that straddle two records
    are computed and never pooled. The pooled windows are scattered into a
    -inf (B, max positions, F) grid, so the max and its first index, where
    the gradient of each pooled value goes, are those of each record's own
    windows, NaN included. back(d_out) -> (d_x shaped like x, {name: grad}).
    """
    k, _, n_filters = filters.shape
    if k > lengths.min(initial=k):
        raise KernelTooLarge(f"kernel {k} exceeds sequence length {lengths.min()}")
    starts = np.cumsum(lengths) - lengths
    positions = lengths - k + 1
    record = np.repeat(np.arange(len(lengths)), positions)
    at = np.arange(len(record)) - np.repeat(np.cumsum(positions) - positions, positions)
    m = len(x) - k + 1
    conv = x[:m] @ filters[0]
    for j in range(1, k):
        conv += x[j:j + m] @ filters[j]
    conv += bias
    act = np.maximum(conv, 0.0)
    grid = np.full((len(lengths), positions.max(initial=0), n_filters), -np.inf)
    grid[record, at] = act[starts[record] + at]

    def back(d_out):
        d_conv = np.zeros_like(conv)
        d_conv[starts[:, None] + grid.argmax(axis=1), np.arange(n_filters)] = d_out
        d_conv *= conv > 0
        d_x = np.zeros_like(x)
        for j in range(k):
            d_x[j:j + m] += d_conv @ filters[j].T
        return d_x, {
            "cnn.filters": np.stack([x[j:j + m].T @ d_conv for j in range(k)]),
            "cnn.bias": d_conv.sum(axis=0)}
    return grid.max(axis=1), back


def head_logits(features: np.ndarray, params: Mapping[str, np.ndarray],
                masks: np.ndarray | None = None):
    """relu(features @ W1.T + b1) @ W2.T + b2 -> (B, 3); `masks` (B,
    head_units) applies (inverted) dropout to the hidden layer. Both
    products are `_rowwise`, so a row does not depend on its batch. `back`
    returns (d_features, {name: grad})."""
    w1, b1, w2, b2 = (params[f"head.{name}"] for name in ("w1", "b1", "w2", "b2"))
    if features.shape[1:] != (w1.shape[1],):
        raise ShapeMismatch(f"head expects features {(w1.shape[1],)}, got {features.shape[1:]}")
    pre = _rowwise(features, w1) + b1
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
    return _rowwise(hidden, w2) + b2, back


def softmax(x: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis, max-subtracted for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: Sequence[int]) -> float:
    """The mean of -ln(p[label]) over the rows of `probs`, p clamped at 1e-12
    so a fully wrong prediction costs a large finite loss, not infinity; by
    math.log and a left-to-right sum, as np.log and np.sum may round apart."""
    return sum(-math.log(max(float(p[int(label)]), 1e-12))
               for p, label in zip(probs, labels)) / len(labels)


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


def _conv_lengths(ids: np.ndarray, kernel: int) -> np.ndarray:
    """How many leading ids of each padded row (B, T) the convolution reads:
    through the row's last non-padding id and kernel + 1 more, at most T.
    Those give the windows that read a token and two that read only padding;
    every later window reads only padding too and equals them, so the max-pool
    and its first maximum do not change. Two, not one, keep every product at
    two rows or more: a one-row product is a gemv, whose bits differ from the
    rows of a gemm."""
    read = ids != PAD_ID
    ends = np.where(read.any(axis=1), ids.shape[1] - read[:, ::-1].argmax(axis=1), 0)
    return np.minimum(ends + kernel + 1, ids.shape[1])


def encode_features(config: ModelConfig, params: Mapping[str, np.ndarray],
                    seqs: Sequence[TokenSequence], train: bool = True):
    """A batch of TokenSequences -> (features (B, feature_size), back),
    with back(d_features) -> {name: grad} for the embedding table (in row
    form, see `embedding_lookup`) and the encoder. The batch's ids are
    taken as one (B, T) matrix, so ids of different lengths are refused
    (ValueError) for every architecture.

    Recurrent paths embed only the first true_length ids of each row; the
    CNN embeds each row through its last non-padding id (found from the ids,
    not from true_length) and kernel + 1 ids more, packed row after row (see
    `_conv_lengths`). `train` is passed on to the recurrent encoders (see
    `recurrent_forward`); with train=False back is None.
    """
    table = params["embedding.table"]
    ids = np.asarray([s.ids for s in seqs], dtype=np.int64)
    if config.arch == "cnn":
        order = np.arange(len(seqs))
        lengths = _conv_lengths(ids, config.conv_kernel)
        x, embedding_back = embedding_lookup(ids[np.arange(ids.shape[1]) < lengths[:, None]],
                                             table)
        encoded, encoder_back = cnn_forward(x, params["cnn.filters"], params["cnn.bias"],
                                            lengths)
    else:
        lengths = _true_lengths(seqs)
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        rows, steps, _ = _packing(lengths)
        x, embedding_back = embedding_lookup(ids[order[rows], steps], table)
        if config.arch == "blstm":
            encoded, encoder_back = blstm_forward(x, lengths, params, train)
        else:
            encoded, encoder_back = recurrent_forward(x, lengths, params, config.arch, train)
    features = np.empty_like(encoded)
    features[order] = encoded
    if not train:
        return features, None

    def back(d_features):
        d_x, grads = encoder_back(d_features[order])
        grads["embedding.table"] = embedding_back(d_x)
        return grads
    return features, back


def loss_and_grads(config: ModelConfig, params: Mapping[str, np.ndarray],
                   seqs: Sequence[TokenSequence], labels: Sequence[int],
                   masks: np.ndarray | None = None) -> tuple[float, RowGrad, np.ndarray]:
    """Mean cross-entropy of a batch, the embedding table's gradient in row
    form, `(rows, values)`, and the gradient of every other tensor as one
    flat vector in table order (the layout of the parameters after the
    table). `masks` holds one dropout mask row per record, or None for no
    dropout. The loss gradient is the exact (p - onehot) / B; it does not
    pass through the cross-entropy clamp."""
    features, encoder_back = encode_features(config, params, seqs)
    logits, head_back = head_logits(features, params, masks)
    probs = softmax(logits)
    batch = len(seqs)
    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_features, grads = head_back((1.0 / batch) * d_logits)
    grads |= encoder_back(d_features)
    return cross_entropy(probs, labels), grads.pop("embedding.table"), np.concatenate(
        [grads[spec.name].ravel() for spec in parameter_table(config)[1:]])


SCORE_CHUNK = 64  # records scored together; bounds the packed projections of one chunk


def score(config: ModelConfig, params: Mapping[str, np.ndarray],
          seqs: Sequence[TokenSequence]) -> np.ndarray:
    """The one scorer: one 3-class probability row per record. Training's
    scoring pass, evaluation and prediction all call it.

    Each row is bit-for-bit its record's row in the training forward of a
    batch of one, and for a recurrent model of any batch that holds it: the
    records are sorted longest first and go through `encode_features` with
    train=False and `head_logits`, SCORE_CHUNK at a time (the CNN, whose
    products have no row-by-row form, one at a time).
    """
    lengths = _true_lengths(seqs)
    order = np.argsort(-lengths, kind="stable")
    chunk_size = 1 if config.arch == "cnn" else SCORE_CHUNK
    probs = np.empty((len(seqs), NUM_CLASSES))
    for start in range(0, len(seqs), chunk_size):
        chunk = order[start:start + chunk_size]
        features, _ = encode_features(config, params, [seqs[i] for i in chunk], train=False)
        logits, _ = head_logits(features, params)
        probs[chunk] = softmax(logits)
    return probs


def forward_probs(config: ModelConfig, params: Mapping[str, np.ndarray],
                  seq: TokenSequence) -> np.ndarray:
    """The probability vector of one record: `score` on a batch of one."""
    return score(config, params, [seq])[0]
