"""The finite-difference oracle for gradient tests, at the tests' step, and
a taped scalar probe for a tensor that meets itself (``inner(x, x)``); any
other probe seeds ``autodiff.backward`` with its output's weights.

The oracle (``tie.gradcheck``) is independent of the tape: it re-runs a
closure over raw parameter arrays with per-element +/- h perturbations.
"""

import numpy as np

from tie import autodiff as ad
from tie import gradcheck
from tie.autodiff import Tensor
from tie.gradcheck import max_rel_err  # noqa: F401 - the tests import it from here

STEP = 1e-5


def central_diff(f, arr: np.ndarray, h: float = STEP) -> np.ndarray:
    """``tie.gradcheck.central_diff`` at the tests' step by default."""
    return gradcheck.central_diff(f, arr, h)


def inner(a: Tensor, b: Tensor) -> Tensor:
    """sum(a * b) over all entries of two tensors as a scalar tensor, taped
    as one record of its own."""
    def bw(g):
        if a.requires_grad:
            ad._accumulate(a, g * b.data)
        if b.requires_grad:
            ad._accumulate(b, g * a.data)

    return ad._make(np.asarray((a.data * b.data).sum()), (a, b), bw)

