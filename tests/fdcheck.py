"""Central finite-difference oracle shared by gradient tests, and the taped
scalar probes and uniform loss weights they build losses from.

The oracle is independent of the tape: it re-runs a closure over raw
parameter arrays with per-element +/- h perturbations.
"""

import numpy as np

from tie import autodiff as ad
from tie.autodiff import Tensor

STEP = 1e-5


def inner(a: Tensor, b) -> Tensor:
    """sum(a * b) over all entries as a (1, 1) tensor, taped through
    ``reshape`` and ``matmul`` alone; ``b`` is a tensor or a same-size array
    of constant weights."""
    if not isinstance(b, Tensor):
        b = Tensor(b)
    return ad.matmul(ad.reshape(a, (1, a.size)), ad.reshape(b, (b.size, 1)))


def mean_weights(shape) -> np.ndarray:
    """Per-cell weights of 1/size: ``bce_with_logits`` under them is the
    mean over all cells."""
    return np.full(shape, 1.0 / np.prod(shape))


def central_diff(f, arr: np.ndarray, h: float = STEP) -> np.ndarray:
    """d f / d arr, one central difference per element. Mutates arr in place
    during evaluation and restores it afterwards."""
    out = np.zeros_like(arr)
    flat = arr.reshape(-1)
    grad = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * h)
    return out


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case elementwise relative error with a small absolute floor."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
