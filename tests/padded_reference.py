"""The padded forward that the packed sentence side replaced, kept as a
reference: every sentence-side op runs on all B * n_max rows of the batch,
padding included, and the padded rows compute values that nothing real
reads. ``tie.model.forward`` must equal it on every real cell.

The decoder, label attention and grid head are the model's own, run
without row maps: that is their padded arithmetic.
"""

import dataclasses

from tie import autodiff as ad
from tie import model as M


def encode_sentence(params, batch, rng=None):
    """(B, n_max, d) states of the padded ids, padding included."""
    x = ad.embedding_lookup(params["embed.tok"], batch.tokens, params["embed.pos_x"])
    for i in range(params.config.layers_enc):
        p = f"enc.{i}"
        normed = M._ln(params, f"{p}.ln1", x)
        x = M._attention(params, f"{p}.attn", normed, normed, x, mask=batch.mask, rng=rng)
        x = M._ffn(params, f"{p}.ffn", M._ln(params, f"{p}.ln2", x), x, rng=rng)
    return M._ln(params, "enc.norm", x)


def forward(params, batch, rng=None):
    """(B, n_max, n_max, K) logits, every sentence row computed padded."""
    padded = dataclasses.replace(batch, rows=None)
    h_enc = encode_sentence(params, padded, rng)
    h_slot = M.decode_instruction(params, h_enc, padded, rng=rng)
    h_x = M.label_attention(h_enc, h_slot, params["label_attn.w1"], params["label_attn.w2"])
    return M.biaffine_score(h_x, params)
