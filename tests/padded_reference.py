"""The padded forward that the packed sentence side replaced, kept as a
reference: every sentence-side op runs on all B * n_max rows of the batch,
padding included, and the padded rows compute values that nothing real
reads. ``tie.model.forward`` must equal it on every real cell.

It is the model's own forward over a row map that covers every padded row,
so each op runs its padded arithmetic: the same ops, none of them skipping
a padded row.
"""

import dataclasses

import numpy as np

from tie import autodiff as ad
from tie import model as M


def forward(params, batch, rng=None):
    """(B, n_max, n_max, K) logits, every sentence row computed padded."""
    size, n_max = batch.tokens.shape
    full = ad.RowMap(np.full(size, n_max))
    return M.forward(params, dataclasses.replace(batch, rows=full), rng=rng)
