"""The padded forward that the packed sentence side replaced, kept as a
reference: every sentence-side op runs on all B * n_max rows of the batch,
padding included, and the padded rows compute values that nothing real
reads. ``tie.model.forward`` must equal it on every real cell.

It is the model's own forward over padded ids (``PAD_ID`` at padding) and a
row map that covers every padded row but keeps the real map's key mask, so
each op runs its padded arithmetic, none of them skipping a padded row, and
no padded row is seen as a key.
"""

import dataclasses

import numpy as np

from tie import autodiff as ad
from tie import model as M
from tie.data import PAD_ID


def forward(params, batch, rng=None):
    """(B, n_max, n_max, K) logits, every sentence row computed padded."""
    rows = batch.rows
    ids = np.full(rows.size * rows.n, PAD_ID, dtype=np.int64)
    ids[rows.flat] = batch.ids
    full = ad.RowMap(np.full(rows.size, rows.n))
    full.mask = rows.mask
    return M.forward(params, dataclasses.replace(batch, ids=ids, rows=full), rng=rng)
