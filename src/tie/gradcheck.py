"""Whole-model gradient verification against central finite differences.

Builds a small model and a padded batch of three instances: two of
different lengths and a third that shares the first one's instruction and
slots, so that the decoder's shared instruction rows get the summed gradient
of two instances. Runs one taped forward/backward of the weighted training
loss, then re-derives every parameter element's gradient by perturbing it
+/- h and re-running the (untaped) forward. The two routes must agree within
a relative tolerance, elementwise, with a small absolute floor for near-zero
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .codec import GoldMatrix
from .model import ModelConfig, Parameters, forward, make_batch
from .trainer import loss

__all__ = ["GradcheckReport", "run_gradcheck", "central_diff", "max_rel_err"]


@dataclass
class GradcheckReport:
    passed: bool
    tolerance: float
    worst_rel_err: float
    worst_tensor: str
    n_elements: int
    per_tensor: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "worst_rel_err": self.worst_rel_err,
            "worst_tensor": self.worst_tensor,
            "n_elements": self.n_elements,
            "per_tensor": {k: v for k, v in sorted(self.per_tensor.items())},
        }


def central_diff(f, arr: np.ndarray, h: float) -> np.ndarray:
    """d f / d arr, one central difference per element. Mutates arr in place
    during evaluation and restores it afterwards. Elements are indexed in
    place, so a strided ``arr`` is perturbed too (a flattening reshape of it
    would perturb a copy)."""
    out = np.zeros_like(arr)
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        arr[i] = orig + h
        hi = f()
        arr[i] = orig - h
        out[i] = (hi - f()) / (2.0 * h)
        arr[i] = orig
    return out


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case elementwise relative error with a small absolute floor."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def run_gradcheck(d: int = 8, layers: int = 1, heads: int = 2, n_tokens: int = 4,
                  n_instr: int = 8, num_channels: int = 3, seed: int = 0,
                  tolerance: float = 1e-3, step: float = 1e-5) -> GradcheckReport:
    """Check every trainable parameter of a toy model end to end, on a
    padded batch of an ``n_tokens``/``n_instr`` instance, a shorter one and
    a third with a shorter sentence and the first one's instruction and
    slots."""
    rng = np.random.default_rng(seed)
    vocab_size = 12
    config = ModelConfig(
        d=d, layers_enc=layers, layers_dec=layers, heads=heads,
        max_len=max(n_tokens, 2), max_instr_len=max(n_instr, 2),
        dropout=0.0, vocab_size=vocab_size,
    )
    params = Parameters(config, num_channels, rng)

    lengths = [(n_tokens, n_instr), (max(1, n_tokens - 2), max(num_channels, n_instr - 3))]
    instr = [rng.integers(0, vocab_size, size=m).tolist() for _, m in lengths]
    slots = [rng.choice(m, size=num_channels, replace=False).tolist() for _, m in lengths]
    sentence_lengths = [n for n, _ in lengths] + [max(1, n_tokens - 1)]
    batch = make_batch(
        [rng.integers(0, vocab_size, size=n).tolist() for n in sentence_lengths],
        instr + instr[:1], slots + slots[:1])
    golds = [GoldMatrix.from_grid(rng.random((n, n, num_channels)) < 0.3)
             for n in sentence_lengths]

    def loss_value() -> float:
        return loss(forward(params, batch), golds)[0]

    params.zero_grads()
    with ad.Tape():
        logits = forward(params, batch)
        ad.backward(logits, loss(logits, golds)[1])

    report = GradcheckReport(passed=True, tolerance=tolerance, worst_rel_err=0.0,
                             worst_tensor="", n_elements=0)
    for name, tensor in params.tensors.items():
        err = max_rel_err(central_diff(loss_value, tensor.data, step), tensor.grad)
        report.per_tensor[name] = err
        report.n_elements += tensor.size
        if err > report.worst_rel_err:
            report.worst_rel_err = err
            report.worst_tensor = name
    report.passed = report.worst_rel_err < tolerance
    return report
