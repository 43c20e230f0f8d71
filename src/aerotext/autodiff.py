"""Numerics shared by the hand-derived backward passes and their checks.

Every layer in `models` writes its backward by hand, so there is no
gradient tape here: `softmax` and `cross_entropy` are the plain-numpy
values that the training loss and the scorer share, `gradient_check`
compares a `loss_and_grads` closure with central differences, and the
tensor serialization is shared with the checkpoint format. All data is
64-bit IEEE-754.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO, Callable, Mapping

import numpy as np


def softmax(x: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis, max-subtracted for stability."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, label: int) -> float:
    """-ln(probs[label]), with the probability clamped at 1e-12 so a fully
    wrong prediction yields a large finite loss instead of infinity."""
    return -math.log(max(float(probs[int(label)]), 1e-12))


def gradient_check(loss_and_grads: Callable[[], tuple[float, Mapping[str, np.ndarray]]],
                   params: Mapping[str, np.ndarray], epsilon: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    `loss_and_grads` must be a deterministic closure over the arrays in
    `params` returning (loss, {name: gradient}); each coordinate is nudged
    in place and restored. Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1e-12).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _, grads = loss_and_grads()
    analytic = {name: np.array(grads[name], dtype=np.float64) for name in params}
    worst = 0.0
    for name, p in params.items():
        for index in np.ndindex(p.shape):
            orig = p[index]
            p[index] = orig + epsilon
            f_plus = loss_and_grads()[0]
            p[index] = orig - epsilon
            f_minus = loss_and_grads()[0]
            p[index] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = analytic[name][index]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-12))
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
    rank = struct.unpack("<Q", _read_bytes(source, 8))[0]
    shape = struct.unpack(f"<{rank}Q", _read_bytes(source, 8 * rank)) if rank else ()
    raw = _read_bytes(source, 8 * math.prod(shape))  # math.prod: no int64 wrap-around
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _read_bytes(source: BinaryIO, n: int) -> bytes:
    """Exactly n bytes, else EOFError. A seekable source refuses a length
    beyond its end before reading, so a garbled length field cannot make
    the read allocate it."""
    left = _bytes_left(source)
    if left is not None and n > left:
        raise EOFError(f"expected {n} bytes, only {left} left")
    buf = source.read(n)
    if len(buf) != n:
        raise EOFError(f"expected {n} bytes, got {len(buf)}")
    return buf


def _bytes_left(source: BinaryIO) -> int | None:
    """Bytes from the read position to the end of a seekable source, else None."""
    try:
        if not source.seekable():
            return None
        here = source.tell()
        end = source.seek(0, io.SEEK_END)
        source.seek(here)
    except (AttributeError, OSError):
        return None
    return end - here
