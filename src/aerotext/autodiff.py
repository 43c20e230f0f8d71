"""The softmax and cross-entropy that the training loss and the scorer
share. Every layer in `models` writes its backward by hand, so there is no
gradient tape here. All data is 64-bit IEEE-754.
"""

from __future__ import annotations

import math

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
