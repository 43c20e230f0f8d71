"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy array and remembers which primitive
produced it; :func:`backward` replays those records in reverse
topological order, accumulating gradients into every participating
tensor. The graph is rebuilt on each forward pass, so recurrences can
unroll to a data-dependent number of steps and weight tensors reused
across steps accumulate gradients from every use.

Primitive shape rules (anything else raises ShapeMismatch):

    matmul              (m,n)@(n,k)->(m,k); (m,n)@(n,)->(m,);
                        (n,)@(n,k)->(k,); (n,)@(n,)->scalar
    add                 equal shapes, or matrix + row vector (bias add)
    mul                 equal shapes only
    concat_last_axis    equal shapes except along the last axis
    take                int, slice, or 1-d integer-array row gather
    sum_all             any shape -> scalar
    tanh/sigmoid/relu   elementwise
    max_over_axis       reduces one axis; ties route gradient to the
                        first maximum
    softmax_cross_entropy   1-d logits + class index -> scalar loss with
                        the exact (p - onehot) gradient

`softmax` and `cross_entropy` are the plain-numpy values that the loss and
the scorer share. Inside `no_grad()` no primitive records a node, whatever
its inputs' flags; the package is single-threaded, so one flag does it.

There is no implicit broadcasting beyond the bias add: shape surprises
here are bugs, not features. All data is 64-bit IEEE-754.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .errors import DisconnectedLoss, NotScalarLoss, ShapeMismatch


class Tensor:
    """Dense float64 array, optionally tracked by the gradient graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no node inside the block, so its outputs hold no tape."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _node(data: np.ndarray, parents: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _mismatch(kind: str, *shapes) -> ShapeMismatch:
    return ShapeMismatch(f"{kind}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


# --- arithmetic -----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also matrix + row-vector bias add (either order)."""
    if a.shape == b.shape:
        def back(g):
            a._accumulate(g)
            b._accumulate(g)
        return _node(a.data + b.data, (a, b), back)
    # bias add: (m, n) + (n,) broadcast over rows
    if len(a.shape) == 2 and b.shape == (a.shape[1],):
        mat, vec = a, b
    elif len(b.shape) == 2 and a.shape == (b.shape[1],):
        mat, vec = b, a
    else:
        raise _mismatch("add", a.shape, b.shape)

    def back(g):
        mat._accumulate(g)
        vec._accumulate(g.sum(axis=0))
    return _node(mat.data + vec.data, (mat, vec), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _mismatch("mul", a.shape, b.shape)

    def back(g):
        a._accumulate(g * b.data)
        b._accumulate(g * a.data)
    return _node(a.data * b.data, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    na, nb = len(a.shape), len(b.shape)
    if na not in (1, 2) or nb not in (1, 2) or a.shape[-1] != b.shape[0]:
        raise _mismatch("matmul", a.shape, b.shape)
    out = a.data @ b.data

    if na == 2 and nb == 2:
        def back(g):
            a._accumulate(g @ b.data.T)
            b._accumulate(a.data.T @ g)
    elif na == 2 and nb == 1:
        def back(g):
            a._accumulate(np.outer(g, b.data))
            b._accumulate(a.data.T @ g)
    elif na == 1 and nb == 2:
        def back(g):
            a._accumulate(b.data @ g)
            b._accumulate(np.outer(a.data, g))
    else:  # vector dot product -> scalar
        def back(g):
            a._accumulate(g * b.data)
            b._accumulate(g * a.data)
    return _node(out, (a, b), back)


def concat_last_axis(*tensors: Tensor) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat_last_axis: no inputs")
    lead = tensors[0].shape[:-1]
    for t in tensors[1:]:
        if len(t.shape) != len(tensors[0].shape) or t.shape[:-1] != lead:
            raise _mismatch("concat_last_axis", *(t.shape for t in tensors))
    widths = [t.shape[-1] for t in tensors]
    bounds = np.cumsum(widths)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, bounds, axis=-1)):
            t._accumulate(piece)
    return _node(np.concatenate([t.data for t in tensors], axis=-1), tensors, back)


def take(t: Tensor, key) -> Tensor:
    """Row selection: an int, a slice, or a 1-d integer array (gather).

    Gathers may repeat indices; their gradients accumulate per row.
    """
    if isinstance(key, (list, np.ndarray)):
        key = np.asarray(key)
        if key.ndim != 1 or not np.issubdtype(key.dtype, np.integer):
            raise ShapeMismatch(f"take: gather index must be a 1-d integer array, got {key.dtype} ndim={key.ndim}")
    elif not isinstance(key, (int, np.integer, slice)):
        raise ShapeMismatch(f"take: unsupported index {key!r}")
    out = t.data[key]

    def back(g):
        gz = np.zeros_like(t.data)
        np.add.at(gz, key, g)
        t._accumulate(gz)
    return _node(out, (t,), back)


def sum_all(t: Tensor) -> Tensor:
    def back(g):
        t._accumulate(np.full(t.shape, float(g)))
    return _node(t.data.sum(), (t,), back)


# --- nonlinearities -------------------------------------------------------

def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)

    def back(g):
        t._accumulate(g * (1.0 - y * y))
    return _node(y, (t,), back)


def sigmoid(t: Tensor) -> Tensor:
    x = t.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        t._accumulate(g * y * (1.0 - y))
    return _node(y, (t,), back)


def relu(t: Tensor) -> Tensor:
    def back(g):
        t._accumulate(g * (t.data > 0))
    return _node(np.maximum(t.data, 0.0), (t,), back)


def max_over_axis(t: Tensor, axis: int) -> Tensor:
    if not -len(t.shape) <= axis < len(t.shape):
        raise ShapeMismatch(f"max_over_axis: axis {axis} out of range for {t.shape}")
    idx = np.expand_dims(t.data.argmax(axis=axis), axis)

    def back(g):
        gz = np.zeros_like(t.data)
        np.put_along_axis(gz, idx, np.expand_dims(g, axis), axis=axis)
        t._accumulate(gz)
    return _node(t.data.max(axis=axis), (t,), back)


def softmax(x: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis, max-subtracted for stability."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, label: int) -> float:
    """-ln(probs[label]), with the probability clamped at 1e-12 so a fully
    wrong prediction yields a large finite loss instead of infinity."""
    return -math.log(max(float(probs[int(label)]), 1e-12))


def softmax_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Fused cross_entropy(softmax(logits), label) with the exact p - onehot
    gradient. The gradient does not pass through the clamp."""
    if len(logits.shape) != 1:
        raise ShapeMismatch(f"softmax_cross_entropy: logits must be 1-d, got {logits.shape}")
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    p = softmax(logits.data)
    loss = cross_entropy(p, label)

    def back(g):
        gl = p.copy()
        gl[label] -= 1.0
        logits._accumulate(float(g) * gl)
    return _node(np.float64(loss), (logits,), back)


# --- reverse sweep --------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS; inputs come before their consumers."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) to every tensor reachable from `loss`.

    Gradients accumulate into `.grad`; zero the leaves you care about
    first (leaves off the path keep whatever zero_grad left there).
    """
    if loss.shape != ():
        raise NotScalarLoss(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise DisconnectedLoss("loss does not depend on any tensor with requires_grad")
    order = _topo_order(loss)
    loss._accumulate(np.ones(()))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def gradient_check(fn: Callable[[], Tensor], params: Sequence[Tensor],
                   epsilon: float = 1e-5) -> float:
    """Max relative error between backward() and central differences.

    `fn` must be a deterministic closure over `params` returning a scalar
    Tensor. Relative error per coordinate is |a - n| / max(|a|, |n|, 1e-12).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    for p in params:
        p.zero_grad()
    backward(fn())
    worst = 0.0
    for p in params:
        analytic = p.grad.reshape(-1).copy()
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(fn().data)
            flat[i] = orig - epsilon
            f_minus = float(fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst


# --- binary tensor serialization ------------------------------------------
# Layout: rank and dims as little-endian u64, then the values as
# little-endian f64 in row-major order. Shared with the checkpoint format.

def write_tensor(sink: BinaryIO, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype=np.float64)
    sink.write(struct.pack("<Q", arr.ndim))
    sink.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    sink.write(arr.astype("<f8", copy=False).tobytes())  # tobytes() is row-major


def read_tensor(source: BinaryIO) -> np.ndarray:
    rank = struct.unpack("<Q", _read_exact(source, 8))[0]
    shape = struct.unpack(f"<{rank}Q", _read_exact(source, 8 * rank)) if rank else ()
    count = int(np.prod(shape)) if shape else 1
    raw = _read_exact(source, 8 * count)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _read_exact(source: BinaryIO, n: int) -> bytes:
    buf = source.read(n)
    if len(buf) != n:
        raise EOFError(f"expected {n} bytes, got {len(buf)}")
    return buf
