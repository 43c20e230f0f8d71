"""The four sequence architectures as fixed layer chains, with a
hand-derived backward per layer.

All share the same skeleton: an input layer takes each distinct token id
through the embedding and the encoder's first product, an
architecture-specific encoder reduces each record to a feature vector, and
a ReLU hidden head plus softmax output produces the 3-class probability
vector. Recurrent encoders iterate only over the true (pre-padding) length
and return the final state; the convolutional encoder global-max-pools its
windows over the padded sequence, of which it computes only those through
the last non-padding id and one more.

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
arXiv:1604.01946). The CNN's (k, d, F) filters are held as (d, k, F), the
(d, k*F) matrix of its k filter offsets side by side. Only the checkpoint
keeps the unswapped tensors, one per gate: views of the held ones
(`checkpoint_views`, `fuse_checkpoint`). Each layer function returns its
output and a closure, `back`, that maps the gradient of that output to the
gradients of the layer's parameters. `loss_and_grads` chains the layers
over a training batch; its loss, like that of training's scoring pass, is
`cross_entropy`. The embedding table's gradient is in row form,
`(rows, values)`: the distinct ids the batch read and one gradient row
each, every other row being zero. A batch reads a few hundred of the
table's ~10k rows, so the backward never builds the dense table, and the
optimizers skip the rows no batch has read.

There is one forward, and every product in it, in training and in
scoring, is the product a batch of one makes: a row of a (B, K) @ (K, N)
BLAS product can change in its last bits with B (with OpenBLAS 0.3.31 it
does for B < 5 at the default sizes and for larger B at smaller ones), so
no product takes a batch's rows as one gemm. The first layer after the
embedding is linear in the embedding row: the recurrent x @ w_x and the
CNN's k filter-offset products are functions of the token id alone. So
`embedding_lookup` takes the distinct ids a batch or scoring chunk reads
and multiplies their embedding rows by the encoder's input weights once
each, in fixed blocks of STEP_BLOCK rows; the encoders gather their rows
from that table (Devlin et al. 2014, ACL). Every recurrent step product is
taken in the same fixed blocks, one gemm per block against the contiguous
w_hᵀ, and the head's products row by row (`_rowwise`, one gemv per row).
A row of a block has the same bits whatever the other rows hold, so a
record's features are the same in any batch, and every batch trains as it
scores, for all four architectures. One flag, `train`, taken by
`encode_features` and the encoders, only decides whether the state the
backward reads is kept; with train=False back is None. `score` runs the
forward over any number of records and gives each the probabilities that
the training forward of any batch holding it gives before dropout;
`forward_probs` is `score` on one record.

Recurrent layers are length-packed: the batch is sorted longest first and
laid out step-major, so step t touches only the rows still running. The
LSTM's sigmoid gates are 1/2 + tanh(z/2)/2, taken with one tanh over the
fused row (`_lstm_gates`). No recurrent step allocates: each call makes
its scratch arrays once and every elementwise result is written into them
or into the state, in the formulas' order of operations; the backward
takes the factors that do not depend on the incoming gradient for all
steps at once.

The CNN is a sum of k gathered per-id products, a ReLU and a max-pool
(Kim, arXiv:1408.5882). Every window past a record's last non-padding id
reads only the padding id and equals the first such window to the bit, so
each record keeps its windows only through that one, and a batch's ids
are packed record after record, as the recurrent layers pack by length
(`_conv_lengths`, `cnn_forward`).
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

    A `transposed` tensor is held with its first two axes swapped, so that
    the input and step products read contiguous right-hand operands. A
    recurrent cell's (G*H, H+d) matrix [W_h W_x] is held as the (H+d, G*H)
    matrix [W_hᵀ; W_xᵀ], whose row blocks are w_hᵀ and w_xᵀ; the CNN's
    (k, d, F) filters are held as (d, k, F), in memory the (d, k*F) matrix
    of every filter offset side by side. `shape` is the shape held; the
    checkpoint keeps the unswapped tensor (`stored`), cut into its gates'
    row blocks if it has parts.

    `init` is one of
      "glorot"       uniform within sqrt(6/(fan_in+fan_out)), fans given;
                     a transposed tensor draws its unswapped tensor
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
        of it: the unswapped tensor, or its row blocks if it has parts."""
        names = self.parts or (self.name,)
        rows = array.swapaxes(0, 1) if self.transposed else array
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
                stored = (self.shape[1], self.shape[0], *self.shape[2:])
                return rng.uniform(-bound, bound, stored).swapaxes(0, 1)
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
        "cnn": [ParamSpec("cnn.filters", (d, k, f), "glorot", (k * d, f), transposed=True),
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
    transposed tensor's are views of it with its first two axes swapped, a
    cell's gate tensors column blocks of the held matrix so viewed
    (`ParamSpec.stored_views`)."""
    params = parameter_views(config, flat)
    return {name: block for spec in parameter_table(config)
            for name, block in spec.stored_views(params[spec.name]).items()}


def fuse_checkpoint(config: ModelConfig, tensors: Mapping[str, np.ndarray]) -> Params:
    """The parameters of checkpoint tensors, after `check_parameter_shapes`:
    a transposed or fused tensor's checkpoint tensors copied once into the
    array that holds them, at their places in it (`ParamSpec.stored_views`),
    every other tensor as it is."""
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


STEP_BLOCK = 4  # rows of one block product: the input projection's and each step's


def _block_rows(n: int) -> int:
    """n rounded up to whole STEP_BLOCK-row blocks."""
    return -(-n // STEP_BLOCK) * STEP_BLOCK


def embedding_lookup(ids, table: np.ndarray, weights: Sequence[np.ndarray]):
    """The first layer of every encoder: the embedding rows of the distinct
    ids of `ids` times each of the encoder's input weights, (d, N) each.

    The recurrent input product x @ w_x and the CNN's k filter-offset
    products are linear in the embedding row, so they are a function of the
    token id alone: each distinct id a batch reads is projected once, and the
    encoder gathers its packed or window rows from that table (Devlin et al.
    2014, ACL, precompute it per word). Returns (inverse, projections, back):
    `inverse` holds the index of each id of `ids`, flattened, among the
    sorted distinct ids, and projections[i] (U, N_i) the products with
    weights[i]. An id outside the table raises IdOutOfRange.

    The products are taken in blocks of STEP_BLOCK rows: the distinct rows
    are padded with zero rows to whole blocks and multiplied as one stacked
    product, one (STEP_BLOCK, d) @ (d, N) gemm per block. A row of such a
    block has the same bits whatever the other rows hold, so an id's
    projection does not depend on the batch that reads it.

    back(d_rows) takes the gradient of each projection as the rows of `ids`
    read it, (ids.size, N_i) each, and returns (d_weights, (rows, values)):
    the gradient of each weight, and the table's in row form, the sorted
    distinct ids and one gradient row each, the rows of an id summed in the
    order they occur; every other row of the table has a zero gradient. Its
    products are over the rows of `ids`: summing the gradient per id first
    and multiplying only the distinct rows was slower at batch 32.
    """
    ids = np.asarray(ids, dtype=np.int64).ravel()
    rows, inverse = np.unique(ids, return_inverse=True)
    n_rows, dim = table.shape
    if rows.size and (rows[0] < 0 or rows[-1] >= n_rows):
        bad = int(rows[0]) if rows[0] < 0 else int(rows[-1])
        raise IdOutOfRange(f"token id {bad} outside embedding table with {n_rows} rows")
    embedded = np.zeros((_block_rows(len(rows)), dim))
    embedded[:len(rows)] = table[rows]
    blocks = embedded.reshape(-1, STEP_BLOCK, dim)
    projections = [(blocks @ w).reshape(len(embedded), w.shape[1])[:len(rows)] for w in weights]

    def back(d_rows):
        x = embedded[inverse]
        d_x = d_rows[0] @ weights[0].T
        for d_projection, w in zip(d_rows[1:], weights[1:]):
            d_x += d_projection @ w.T
        # each id's rows side by side, in the order they occur, and summed
        order = np.argsort(inverse, kind="stable")
        reads = np.bincount(inverse, minlength=len(rows))
        values = np.add.reduceat(d_x[order], np.cumsum(reads) - reads, axis=0)
        return [x.T @ d_projection for d_projection in d_rows], (rows, values)
    return inverse, projections, back


def _rowwise(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w.T as one (1, K) @ (K, N) product per row: numpy's matmul
    makes one gemv call per row, the call a batch of one makes, so each row
    is bit-for-bit what it is when its record is scored alone."""
    return (rows[:, None, :] @ w.T)[:, 0]


def _recurrence(act: np.ndarray, lengths: np.ndarray, w_h: np.ndarray, train: bool):
    """The steps of one sRNN or LSTM cell over a packed batch from a zero
    state. `act` holds each packed row's input projection plus bias (see
    `_packing`), (rows, G*H) with G 1 or 4, and is turned into the
    activations in place; `lengths` holds the non-increasing true lengths
    and `w_h` is the contiguous w_hᵀ (H, G*H). Returns the final hidden
    state of each row, a zero vector for a row of length 0, and
    back(d_final) -> (the gradient of `act`, the gradient of w_hᵀ); with
    train=False nothing is kept for the backward and back is None.

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
    hidden = len(w_h)
    lstm = w_h.shape[1] == 4 * hidden
    batch = len(lengths)
    if train:
        # per packed row, for the backward: the state and the cell state the
        # row read, and tanh of its new cell state
        h_in, c_in, tanh_c = (np.empty((len(act), hidden)) for _ in range(3))
    starts = _packing(lengths)[2].tolist()
    spans = list(zip(starts[:-1], starts[1:]))
    padded = _block_rows(batch)
    h = np.zeros((padded, hidden))
    c = np.zeros((batch, hidden))
    product = np.empty((padded, w_h.shape[1]))
    # the step product's operands as stacks of STEP_BLOCK-row blocks
    h_blocks = h.reshape(-1, STEP_BLOCK, hidden)
    product_blocks = product.reshape(-1, STEP_BLOCK, w_h.shape[1])
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
        return dz, h_in.T @ dz
    return h[:batch], back


def _recurrent_encoder(table: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
                       params: Mapping[str, np.ndarray],
                       cells: Sequence[tuple[str, np.ndarray | None]],
                       train: bool):
    """The cells `cells`, (prefix, order) pairs, over one `embedding_lookup`
    of the packed `ids`: each cell reads the packed rows in its `order` (a
    permutation of them, or None for their own order), and the features are
    the cells' final states side by side. back(d_features) -> {name: grad}."""
    hidden = params[f"{cells[0][0]}.w"].shape[0] - table.shape[1]
    weights = [params[f"{prefix}.w"] for prefix, _ in cells]
    inverse, projections, lookup_back = embedding_lookup(ids, table,
                                                         [w[hidden:] for w in weights])
    states, backs = [], []
    for (prefix, order), w, projection in zip(cells, weights, projections):
        projection += params[f"{prefix}.b"]
        read = inverse if order is None else inverse[order]
        h, cell_back = _recurrence(projection[read], lengths, w[:hidden], train)
        states.append(h)
        backs.append(cell_back)
    features = np.concatenate(states, axis=1)
    if not train:
        return features, None

    def back(d_features):
        grads, d_rows, d_steps = {}, [], []
        for (prefix, order), cell_back, d_final in zip(
                cells, backs, np.split(d_features, len(cells), axis=1)):
            dz, d_step = cell_back(d_final)
            if order is not None:   # back to the packed order of `ids`
                d_rows.append(np.empty_like(dz))
                d_rows[-1][order] = dz
            else:
                d_rows.append(dz)
            d_steps.append(d_step)
            grads[f"{prefix}.b"] = dz.sum(axis=0)
        d_inputs, grads["embedding.table"] = lookup_back(d_rows)
        for (prefix, _), d_step, d_input in zip(cells, d_steps, d_inputs):
            grads[f"{prefix}.w"] = np.concatenate([d_step, d_input])
        return grads
    return features, back


def recurrent_forward(table: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
                      params: Mapping[str, np.ndarray], prefix: str, train: bool = True):
    """Run the sRNN or LSTM cell `<prefix>.w` (H+d, G*H), `<prefix>.b` (G*H,)
    over a packed batch from a zero state; G is 1, or 4 for an LSTM's gates.
    The cell is held transposed: `w[:H]` is w_hᵀ and `w[H:]` is w_xᵀ, both
    contiguous.

    `ids` holds the packed ids (see `_packing`) of rows of `table` and
    `lengths` the non-increasing true lengths. Returns the final hidden state
    of each row, a zero vector for a row of length 0, and back(d_final) ->
    {name: grad}, the table's in row form (see `embedding_lookup`). The input
    projection is taken once per distinct id (`embedding_lookup`) and the
    steps in blocks (`_recurrence`), so no row depends on its batch; `train`
    only decides whether the state the backward reads is kept, and with
    train=False back is None.
    """
    return _recurrent_encoder(table, ids, lengths, params, [(prefix, None)], train)


def blstm_forward(table: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
                  params: Mapping[str, np.ndarray], train: bool = True):
    """concat(forward-order final state, reversed-order final state) -> (B, 2H).

    Each row is reversed within its own true length: the reversed pass
    reads a permutation of the packed rows, so both directions share one
    lookup of the distinct ids. Otherwise as `recurrent_forward`.
    """
    rows, steps, starts = _packing(lengths)
    reverse = starts[lengths[rows] - 1 - steps] + rows
    return _recurrent_encoder(table, ids, lengths, params,
                              [("blstm.fwd", None), ("blstm.bwd", reverse)], train)


def cnn_forward(table: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
                params: Mapping[str, np.ndarray], train: bool = True):
    """Valid 1-d convolution + bias, ReLU, then global max pooling over
    each record, the records' ids laid end to end in `ids`:
    (sum(lengths),) with `lengths` (B,) -> (B, F).

    `cnn.filters` is held (d, k, F): `embedding_lookup` multiplies each
    distinct id's row by the (d, k*F) matrix of all k filter offsets at
    once, and the window at row t is sum_j P[id at t + j, offset j] + bias,
    gathered offset by offset into one reused buffer. Only a record's own
    windows are formed; `np.maximum.reduceat` pools them, so the max is that
    of each record's windows, NaN included, and the gradient of each pooled
    value goes to its first maximum, as np.argmax picks it. back(d_out) ->
    {name: grad}, the table's in row form; with train=False back is None.
    """
    filters, bias = params["cnn.filters"], params["cnn.bias"]
    dim, k, n_filters = filters.shape
    inverse, (projection,), lookup_back = embedding_lookup(
        ids, table, [filters.reshape(dim, k * n_filters)])
    if k > lengths.min(initial=k):
        raise KernelTooLarge(f"kernel {k} exceeds sequence length {lengths.min()}")
    positions = lengths - k + 1
    firsts = np.cumsum(positions) - positions    # each record's first window
    # the packed row at which each window starts
    starts = np.arange(positions.sum()) + np.repeat(np.cumsum(lengths) - lengths - firsts,
                                                    positions)
    offsets = projection.reshape(-1, n_filters)  # row u*k + j: distinct id u at offset j
    conv = offsets[inverse[starts] * k]
    gathered = np.empty_like(conv)
    for j in range(1, k):
        # mode="clip" writes straight into `gathered` (the indices are in range)
        np.take(offsets, inverse[starts + j] * k + j, axis=0, out=gathered, mode="clip")
        conv += gathered
    conv += bias
    act = np.maximum(conv, 0.0, out=conv)
    pooled = np.maximum.reduceat(act, firsts, axis=0)
    if not train:
        return pooled, None

    def back(d_out):
        # each record's first window at its maximum: a NaN, or the first equal
        window = np.arange(len(act))[:, None]
        top = (act == np.repeat(pooled, positions, axis=0)) | np.isnan(act)
        first = np.minimum.reduceat(np.where(top, window, len(act)), firsts, axis=0)
        d_conv = np.zeros_like(act)
        d_conv[first, np.arange(n_filters)] = d_out
        d_conv *= act > 0
        # window t's gradient reaches the row t + j through offset j
        d_rows = np.zeros((len(inverse), k, n_filters))
        for j in range(k):
            d_rows[starts + j, j] = d_conv
        (d_filters,), table_grad = lookup_back([d_rows.reshape(len(inverse), -1)])
        return {"embedding.table": table_grad, "cnn.filters": d_filters.reshape(filters.shape),
                "cnn.bias": d_conv.sum(axis=0)}
    return pooled, back


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
    through the row's last non-padding id and kernel more, at most T. Those
    give the windows that read a token and one that reads only padding;
    every later window reads only padding too and equals it to the bit,
    since each window is a sum of per-id products (`embedding_lookup`), so
    the max-pool and its first maximum do not change."""
    read = ids != PAD_ID
    ends = np.where(read.any(axis=1), ids.shape[1] - read[:, ::-1].argmax(axis=1), 0)
    return np.minimum(ends + kernel, ids.shape[1])


def encode_features(config: ModelConfig, params: Mapping[str, np.ndarray],
                    seqs: Sequence[TokenSequence], train: bool = True):
    """A batch of TokenSequences -> (features (B, feature_size), back),
    with back(d_features) -> {name: grad} for the embedding table (in row
    form, see `embedding_lookup`) and the encoder. The batch's ids are
    taken as one (B, T) matrix, so ids of different lengths are refused
    (ValueError) for every architecture.

    Recurrent paths read only the first true_length ids of each row; the
    CNN reads each row through its last non-padding id (found from the ids,
    not from true_length) and kernel ids more, packed row after row (see
    `_conv_lengths`). `train` is passed on to the encoders; with
    train=False back is None.
    """
    table = params["embedding.table"]
    ids = np.asarray([s.ids for s in seqs], dtype=np.int64)
    if config.arch == "cnn":
        order = np.arange(len(seqs))
        lengths = _conv_lengths(ids, config.conv_kernel)
        encoded, encoder_back = cnn_forward(
            table, ids[np.arange(ids.shape[1]) < lengths[:, None]], lengths, params, train)
    else:
        lengths = _true_lengths(seqs)
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        rows, steps, _ = _packing(lengths)
        packed = ids[order[rows], steps]
        if config.arch == "blstm":
            encoded, encoder_back = blstm_forward(table, packed, lengths, params, train)
        else:
            encoded, encoder_back = recurrent_forward(table, packed, lengths, params,
                                                      config.arch, train)
    features = np.empty_like(encoded)
    features[order] = encoded
    if not train:
        return features, None
    return features, lambda d_features: encoder_back(d_features[order])


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


SCORE_CHUNK = 64  # records scored together; bounds one chunk's packed rows and id table


def score(config: ModelConfig, params: Mapping[str, np.ndarray],
          seqs: Sequence[TokenSequence]) -> np.ndarray:
    """The one scorer: one 3-class probability row per record. Training's
    scoring pass, evaluation and prediction all call it.

    Each row is bit-for-bit its record's row in the training forward of any
    batch that holds it, before dropout: the records are sorted longest
    first and go through `encode_features` with train=False and
    `head_logits`, SCORE_CHUNK at a time. Every product is a row of a block
    (the per-id input projection and the recurrent steps) or a row of its
    own (the head), so a chunk gives each record what it gets alone.
    """
    lengths = _true_lengths(seqs)
    order = np.argsort(-lengths, kind="stable")
    probs = np.empty((len(seqs), NUM_CLASSES))
    for start in range(0, len(seqs), SCORE_CHUNK):
        chunk = order[start:start + SCORE_CHUNK]
        features, _ = encode_features(config, params, [seqs[i] for i in chunk], train=False)
        logits, _ = head_logits(features, params)
        probs[chunk] = softmax(logits)
    return probs


def forward_probs(config: ModelConfig, params: Mapping[str, np.ndarray],
                  seq: TokenSequence) -> np.ndarray:
    """The probability vector of one record: `score` on a batch of one."""
    return score(config, params, [seq])[0]
