"""The instructed graph decoder.

Forward pipeline: encode the sentence with a small pre-norm transformer
encoder; run the instruction through a causal decoder that cross-attends to
the sentence and whose last layer runs only at the K label slot positions,
the rows the model reads, so that it returns the K slot states; re-represent
every sentence token as an attention mixture over projected slot states;
score all token pairs per channel with a biaffine form plus a
per-cell linear layer. Output logits are (|x|, |x|, K) per instance; a
forward runs B instances in one batch (``make_batch``) and returns their
grids padded to the longest sentence. The batch holds the real sentence
tokens' ids packed (``Batch.ids``) and their ``ad.RowMap`` (``Batch.rows``:
lengths, places in the padded layout and the padded rows' key mask); the
sentence side runs on packed rows, which attention and the grid head lay
out padded inside their own ops, where no real position sees padding. A
batch holds each distinct instruction (with its slots) once, and the
decoder runs the part of its first layer that reads only the instruction
once per distinct instruction, then fans the rows out to the instances; a
forward that draws dropout masks gives every instance its own rows instead.

All parameters are named, and names are partitioned into groups (one per
layer-like unit); the trainer's update gate operates on those groups, and
all groups' tensors live end to end in one vector (``Parameters``). ``layout``
lists the groups and their tensors' names and shapes without any array. A
config field declares its rule in ``field(metadata=...)``, and
``check_fields`` checks type and rule when a config is built, so every
config object is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import PAD_ID

__all__ = [
    "ModelConfig",
    "check_fields",
    "rule",
    "at_least",
    "layout",
    "group_sizes",
    "Parameters",
    "CHANNEL_GROUPS",
    "Batch",
    "make_batch",
    "encode_sentence",
    "decode_instruction",
    "gather_slots",
    "label_attention",
    "biaffine_score",
    "forward",
]

# Groups whose parameter shapes depend on the channel count K; retargeting a
# model to a dataset with a different K re-instantiates exactly these.
CHANNEL_GROUPS = ("biaffine", "score")


# JSON types a config value may have, by the annotation of the field it sets;
# a boolean is never taken for a number.
_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
               "str": (str, "a string")}


def rule(check, described: str) -> dict:
    """Field metadata for ``check_fields``: the value must pass ``check``;
    ``described`` completes "must be ..." in the error."""
    return {"rule": (check, described)}


def at_least(low: int) -> dict:
    return rule(lambda v: v >= low, f">= {low}")


def check_fields(obj):
    """Raise ValueError ``<field>: must be <rule>, got <value>`` for the
    first field of the dataclass ``obj`` whose value has the wrong JSON type
    for its annotation, or breaks the rule declared in its metadata.
    ``null`` fits only ``X | None`` fields and skips the rule; other
    annotations are not type-checked."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        base, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if base in _JSON_TYPES:
            expected, described = _JSON_TYPES[base]
            if isinstance(value, bool) or not isinstance(value, expected):
                raise ValueError(f"{f.name}: must be {described}"
                                 f"{' or null' if optional else ''}, got {value!r}")
        check, described = f.metadata.get("rule", (None, ""))
        if check and not check(value):
            raise ValueError(f"{f.name}: must be {described}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Model shape; a built instance has passed its rules and ``d % heads == 0``."""

    d: int = field(default=32, metadata=at_least(1))
    layers_enc: int = field(default=1, metadata=at_least(1))
    layers_dec: int = field(default=1, metadata=at_least(1))
    heads: int = field(default=4, metadata=at_least(1))
    max_len: int = field(default=128, metadata=at_least(1))
    max_instr_len: int = field(default=64, metadata=at_least(1))
    dropout: float = field(default=0.0, metadata=rule(lambda v: 0 <= v < 1, "in [0, 1)"))
    # ids 0-2 are reserved (padding, unknown, slot marker)
    vocab_size: int = field(default=3, metadata=at_least(3))
    ffn_mult: int = field(default=4, metadata=at_least(1))

    def __post_init__(self):
        check_fields(self)
        if self.d % self.heads:
            raise ValueError(f"d: must be a multiple of heads {self.heads}, got {self.d}")


def _ln_specs(prefix: str, d: int) -> list:
    return [(f"{prefix}.g", (d,), 1.0), (f"{prefix}.b", (d,), 0.0)]


def _attn_specs(prefix: str, d: int) -> list:
    return [spec for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv"), ("wo", "bo"))
            for spec in ((f"{prefix}.{w}", (d, d), None), (f"{prefix}.{b}", (d,), None))]


def _ffn_specs(prefix: str, d: int, hid: int) -> list:
    return [(f"{prefix}.w1", (d, hid), None), (f"{prefix}.b1", (hid,), None),
            (f"{prefix}.w2", (hid, d), None), (f"{prefix}.b2", (d,), None)]


def layout(config: ModelConfig, num_channels: int) -> dict:
    """The model's tensors without their values: group -> [(name, shape,
    fill)] in group order, each group's tensors in the order they are drawn
    and stored. ``fill`` is a layer norm's constant, or None for a tensor
    drawn uniformly."""
    if num_channels < 1:
        raise ValueError("num_channels must be >= 1")
    d, hid, k = config.d, config.d * config.ffn_mult, num_channels
    groups = {"embed": [("embed.tok", (config.vocab_size, d), None),
                        ("embed.pos_x", (config.max_len, d), None),
                        ("embed.pos_u", (config.max_instr_len, d), None)]}
    for i in range(config.layers_enc):
        p = f"enc.{i}"
        groups[p] = [*_ln_specs(f"{p}.ln1", d), *_attn_specs(f"{p}.attn", d),
                     *_ln_specs(f"{p}.ln2", d), *_ffn_specs(f"{p}.ffn", d, hid)]
    groups["enc.norm"] = _ln_specs("enc.norm", d)
    for i in range(config.layers_dec):
        p = f"dec.{i}"
        groups[p] = [*_ln_specs(f"{p}.ln1", d), *_attn_specs(f"{p}.self", d),
                     *_ln_specs(f"{p}.ln2", d), *_attn_specs(f"{p}.cross", d),
                     *_ln_specs(f"{p}.ln3", d), *_ffn_specs(f"{p}.ffn", d, hid)]
    groups["dec.norm"] = _ln_specs("dec.norm", d)
    groups["label_attn"] = [("label_attn.w1", (d, d), None), ("label_attn.w2", (d, d), None)]
    for mlp in ("head_mlp", "tail_mlp"):
        groups[mlp] = _ffn_specs(mlp, d, d)
    # the channel groups last, so that a new K keeps every other group's offset
    groups["biaffine"] = [("biaffine.w3", (d, k, d), None), ("biaffine.w4", (k, 2 * d), None)]
    groups["score"] = [("score.w", (k, k), None), ("score.b", (k,), None)]
    return groups


def group_sizes(groups: dict) -> dict:
    """group -> number of floats, for a ``layout``."""
    return {g: sum(math.prod(shape) for _, shape, _ in specs) for g, specs in groups.items()}


def _leaf(data: np.ndarray, grad: np.ndarray) -> Tensor:
    """A parameter tensor over views of the data and gradient vectors."""
    tensor = Tensor(data)
    tensor.requires_grad, tensor.grad = True, grad
    return tensor


class Parameters:
    """Named parameter tensors, laid out in one data vector and one
    gradient vector.

    ``layout`` (the module function, kept as ``self.layout``) gives every
    group's tensor names and shapes without any array. Every trainable
    tensor belongs to exactly one group; groups are the unit the training
    gate freezes or updates. The model owns one data vector ``vector`` and
    one gradient vector ``grad``, all groups end to end in layout order,
    each group's tensors in layout order, each flattened. ``slices[group]``
    is where a group sits in any vector laid out like ``vector``: the
    gradient, the Adam moments and the gate's snapshot alike. Every
    tensor's ``data`` and ``grad`` are views with the tensor's shape, so a
    backward pass accumulates straight into ``grad`` and one in-place
    update of ``vector[slices[group]]`` moves all of the group's tensors.
    ``mlps[kind]`` (``w1``, ``b1``, ``w2``, ``b2``) stacks the head and tail
    MLPs' tensors of one kind as a (2, ...) view of the same vectors, so
    that one ``ad.ffn`` runs both; it is not in ``tensors``, which hold
    every parameter once.

    ``Parameters(config, num_channels, rng)`` draws a fresh initialisation,
    tensor by tensor in layout order; ``Parameters.over`` lays the tensors
    over a given vector without drawing or copying.
    """

    def __init__(self, config: ModelConfig, num_channels: int, rng: np.random.Generator):
        self._lay_out(config, num_channels, rng=rng)

    @classmethod
    def over(cls, config: ModelConfig, num_channels: int, vector: np.ndarray) -> "Parameters":
        """Parameters whose ``vector`` is ``vector`` (float64, contiguous),
        as a checkpoint stores it."""
        params = cls.__new__(cls)
        params._lay_out(config, num_channels, vector)
        return params

    def _lay_out(self, config: ModelConfig, num_channels: int,
                 vector: np.ndarray | None = None, rng=None, kept=()):
        """Lay every tensor of the model over ``vector``, or, without one,
        over a fresh vector that starts with the values ``kept`` and is
        filled on from there in layout order with draws from ``rng`` and the
        layer norms' constants; the gradients are views of a fresh zero
        vector."""
        self.config, self.num_channels = config, num_channels
        self.layout = layout(config, num_channels)
        ends = list(accumulate(group_sizes(self.layout).values(), initial=0))
        self.slices = {g: slice(lo, hi) for g, lo, hi in zip(self.layout, ends, ends[1:])}
        total = ends[-1]
        drawn = vector is None
        if drawn:
            vector = np.empty(total)
            vector[:len(kept)] = kept
        elif vector.shape != (total,):
            raise ValueError(f"a vector of {vector.size} floats for a layout of {total}")
        self.vector, self.grad = vector, np.zeros(total)
        self.tensors: dict[str, Tensor] = {}
        bound = 1.0 / math.sqrt(config.d)
        lo = 0
        for name, shape, fill in (spec for specs in self.layout.values() for spec in specs):
            size = math.prod(shape)
            data = vector[lo:lo + size].reshape(shape)
            if drawn and lo >= len(kept):
                data[...] = rng.uniform(-bound, bound, size=shape) if fill is None else fill
            self.tensors[name] = _leaf(data, self.grad[lo:lo + size].reshape(shape))
            lo += size
        self.groups = {group: [name for name, _, _ in specs]
                       for group, specs in self.layout.items()}
        # the head and tail MLPs are adjacent groups of the same specs: each
        # tensor kind of the two is one (2, ...) view, its leading stride a
        # group's size
        both = slice(self.slices["head_mlp"].start, self.slices["tail_mlp"].stop)
        data, grad = vector[both].reshape(2, -1), self.grad[both].reshape(2, -1)
        self.mlps: dict[str, Tensor] = {}
        lo = 0
        for name, shape, _ in self.layout["head_mlp"]:
            cols, stacked = slice(lo, lo + math.prod(shape)), (2, *shape)
            self.mlps[name.split(".")[1]] = _leaf(data[:, cols].reshape(stacked),
                                                  grad[:, cols].reshape(stacked))
            lo = cols.stop

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def zero_grads(self):
        self.grad[...] = 0.0

    def grads(self) -> dict:
        """The live per-group views of ``grad``, not copies: valid until the
        next ``zero_grads`` or backward pass writes into them."""
        return {g: self.grad[s] for g, s in self.slices.items()}

    def reinit_channels(self, num_channels: int, rng: np.random.Generator):
        """Lay the model out anew for ``num_channels`` in a new ``vector``:
        every group but the channel groups, which ``layout`` puts last, keeps
        its values, and the channel tensors are drawn from ``rng`` in layout
        order."""
        kept = self.vector[:self.slices[CHANNEL_GROUPS[0]].start]
        self._lay_out(self.config, num_channels, rng=rng, kept=kept)


@dataclass(frozen=True)
class Batch:
    """B instances: one forward's input. ``ids`` holds the T real sentence
    tokens' ids, packed in instance order; ``rows`` alone describes the
    padded (B, n_max) layout: the lengths, each token's place and the key
    mask that hides the padded places from the encoder's and the decoder's
    cross-attention. The instruction fields, padded with ``PAD_ID``, hold
    U <= B rows, one per distinct (instruction ids, slot positions) pair in
    first-seen order, and ``which`` maps each instance to its row.
    ``decode_instruction`` shares the rows up to layer 0's self-attention,
    or, when it draws dropout masks, gives each instance its own from the
    start."""

    ids: np.ndarray      # (T,) packed sentence ids
    rows: ad.RowMap      # the sentence lengths and the ids' places in the (B, n_max) layout
    instr: np.ndarray    # (U, m_max) instruction ids
    m: np.ndarray        # (U,) instruction lengths
    slots: np.ndarray    # (U, K) slot positions into each row's own instruction
    which: np.ndarray    # (B,) each instance's instruction row


def make_batch(token_ids, instr_ids, slot_positions) -> Batch:
    """Pack aligned per-instance lists of sentence ids, and pad their
    instruction ids and slot positions, into a ``Batch``, each distinct
    instruction and slots pair kept once."""
    if min(map(len, [*token_ids, *instr_ids]), default=0) < 1:
        raise ValueError("a batch needs instances with non-empty sentences and instructions")
    if not len(token_ids) == len(instr_ids) == len(slot_positions):
        raise ValueError("a batch needs an instruction and slot positions per instance")
    pairs = {}
    which = np.array([pairs.setdefault((tuple(u), tuple(s)), len(pairs))
                      for u, s in zip(instr_ids, slot_positions)], dtype=np.int64)
    m = np.array([len(u) for u, _ in pairs], dtype=np.int64)
    instr = np.full((len(pairs), m.max()), PAD_ID, dtype=np.int64)
    for r, (u, _) in enumerate(pairs):
        instr[r, :len(u)] = u
    slots = np.array([s for _, s in pairs], dtype=np.int64)   # ragged slot lists raise here
    if slots.ndim != 2 or np.any(slots < 0) or np.any(slots >= m[:, None]):
        raise ValueError("every instance needs K slot positions inside its own instruction")
    return Batch(ids=np.concatenate(token_ids, dtype=np.int64),
                 rows=ad.RowMap([len(t) for t in token_ids]),
                 instr=instr, m=m, slots=slots, which=which)


def _attention(params, prefix, x_q, x_kv, residual, mask=None, rng=None, q_rows=None,
               kv_rows=None):
    """``residual`` plus (B, n_q, d) queries over (B, n_k, d) keys in
    ``config.heads`` heads; padded keys take ``mask``, additive and
    broadcastable to the (B, heads, n_q, n_k) scores, or None. Packed
    queries or keys come with their row maps, as ``ad.attention`` takes
    them, and packed keys take their mask from theirs. Dropout runs at
    ``config.dropout`` iff ``rng`` is given."""
    heads = params.config.heads
    return ad.attention(x_q, x_kv, *(params[f"{prefix}.w{c}"] for c in "qkvo"),
                        biases=tuple(params[f"{prefix}.b{c}"] for c in "qkvo"), heads=heads,
                        mask=mask, scale=1.0 / math.sqrt(x_q.shape[-1] // heads),
                        rate=params.config.dropout if rng is not None else 0.0, rng=rng,
                        q_rows=q_rows, kv_rows=kv_rows, residual=residual)


def _ffn(params, prefix, x, residual=None, rng=None, rows=None):
    """The two-layer GELU block, plus ``residual`` if given; a packed ``x``
    with its ``rows`` draws its dropout masks as its padded layout would."""
    return ad.ffn(x, *(params[f"{prefix}.{w}"] for w in ("w1", "b1", "w2", "b2")),
                  params.config.dropout if rng is not None else 0.0, rng, rows, residual)


def _ln(params, prefix, x):
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _mask(lengths, n: int, queries):
    """Additive (B, 1, n_q, n) mask, broadcast by ``ad.attention`` over the
    (B, heads, n_q, n) scores, that hides keys past each instance's length
    and, for query positions ``queries`` ((n_q,) shared or (B, n_q) per
    instance), each query's keys after its position; None when it hides
    nothing."""
    keys = np.arange(n)
    hide = (keys >= lengths[:, None, None, None]) \
        | (keys > np.asarray(queries)[..., None, :, None])
    return np.where(hide, ad.MASKED, 0.0) if hide.any() else None


def encode_sentence(params: Parameters, batch: Batch, rng=None) -> Tensor:
    """Packed sentence ids -> (T, d) hidden states of the batch's real
    tokens, packed as ``batch.ids`` are. Attention alone lays them out
    padded, and no token attends to a padded one."""
    cfg = params.config
    n_max = batch.rows.n
    if n_max > cfg.max_len:
        raise ValueError(f"sentence length {n_max} outside [1, {cfg.max_len}]")
    x = ad.embedding_lookup(params["embed.tok"], batch.ids, params["embed.pos_x"], batch.rows)
    for i in range(cfg.layers_enc):
        p = f"enc.{i}"
        normed = _ln(params, f"{p}.ln1", x)
        x = _attention(params, f"{p}.attn", normed, normed, x, rng=rng, q_rows=batch.rows,
                       kv_rows=batch.rows)
        x = _ffn(params, f"{p}.ffn", _ln(params, f"{p}.ln2", x), x, rng=rng, rows=batch.rows)
    return _ln(params, "enc.norm", x)


def decode_instruction(params: Parameters, h_enc: Tensor, batch: Batch,
                       rng=None) -> Tensor:
    """Padded instruction ids -> (B, K, d) sentence-aware states at each
    instance's slot positions, for the packed sentence states ``h_enc``.

    Self-attention over the instruction is causal and skips padded
    positions; every layer cross-attends to the real sentence tokens. The
    embedding and layer 0's ``ln1``, self-attention (every row a query) and
    residual add read only the instruction, so they run on the batch's U
    distinct rows; ``gather_slots`` then gives each instance its rows. Every
    layer but the last runs over all m_max rows, which are the next layer's
    keys and values. The last layer keeps the residual rows at the slots
    (with one layer, the fan-out gather picks them): their ``ln1`` rows are
    its queries, ``ln1`` of all rows its keys and values, each slot seeing
    the instruction up to its own position. Its cross-attention, FFN and
    ``dec.norm`` run on the K slot rows only, so nothing is computed that
    the model does not read.

    A forward that draws dropout masks (a stream ``rng`` and a non-zero
    ``config.dropout``) gives every instance its own id rows first, so that
    each instance draws its own masks.
    """
    cfg = params.config
    m_max = batch.instr.shape[1]
    if m_max > cfg.max_instr_len:
        raise ValueError(f"instruction length {m_max} outside [1, {cfg.max_instr_len}]")
    shared = rng is None or not cfg.dropout
    instr = batch.instr if shared else batch.instr[batch.which]
    slots, m = batch.slots[batch.which], batch.m[batch.which]
    u = ad.embedding_lookup(params["embed.tok"], instr, params["embed.pos_u"])
    for i in range(cfg.layers_dec):
        p = f"dec.{i}"
        last = i == cfg.layers_dec - 1
        normed = _ln(params, f"{p}.ln1", u)
        if i == 0 and shared:   # the distinct rows, then each instance's own
            u = _attention(params, f"{p}.self", normed, normed, u,
                           mask=_mask(batch.m, m_max, np.arange(m_max)))
            u = gather_slots(u, slots if last else np.arange(m_max), batch.which)
        else:
            queries, positions = normed, np.arange(m_max)
            if last:   # from here on only the slot rows
                u = gather_slots(u, slots)
                queries, positions = _ln(params, f"{p}.ln1", u), slots
            u = _attention(params, f"{p}.self", queries, normed, u,
                           mask=_mask(m, m_max, positions), rng=rng)
        u = _attention(params, f"{p}.cross", _ln(params, f"{p}.ln2", u), h_enc, u, rng=rng,
                       kv_rows=batch.rows)
        u = _ffn(params, f"{p}.ffn", _ln(params, f"{p}.ln3", u), u, rng=rng)
    return _ln(params, "dec.norm", u)


def gather_slots(h: Tensor, positions, which=None) -> Tensor:
    """Each instance's rows of the (U, m_max, d) states ``h``: for instance
    b, row ``which[b]`` (b itself if ``which`` is None) at its positions
    ``positions[b]`` ((B, K), or (K,) shared by all), (B, K, d), as one
    ``embedding_lookup`` over the U*m_max rows. The decoder's fan-out from
    shared instruction rows to per-instance rows, and its last layer's pick
    of the slot rows."""
    size, m_max, _ = h.shape
    which = np.arange(size) if which is None else np.asarray(which)
    return ad.embedding_lookup(h, np.asarray(positions) + m_max * which[:, None])


def label_attention(h_enc: Tensor, h_slot: Tensor, w1: Tensor, w2: Tensor,
                    rows: ad.RowMap) -> Tensor:
    """Each packed token state (``rows`` places it) plus a convex mixture
    of its instance's slot states projected by ``w2``, weighted by their
    scores against the token's state projected by ``w1``."""
    return ad.attention(h_enc, h_slot, w1, w2, q_rows=rows, residual=h_enc)


def biaffine_score(h_x: Tensor, params: Parameters, rows: ad.RowMap) -> Tensor:
    """(B, n, n, K) token-pair logits of packed (T, d) token states placed
    by ``rows``: the head and tail FFN states, one stacked ``ad.ffn`` over
    ``params.mlps``, then a bilinear head/tail interaction plus a linear
    term ``W4 [h_head_i; h_tail_j]`` and a per-cell K -> K linear map, one
    ``ad.pair_scores`` op."""
    h = ad.ffn(h_x, *(params.mlps[w] for w in ("w1", "b1", "w2", "b2")))
    return ad.pair_scores(h, params["biaffine.w3"], params["biaffine.w4"], params["score.w"],
                          params["score.b"], rows)


def forward(params: Parameters, batch: Batch, rng=None) -> Tensor:
    """Full pipeline over a batch: its (B, n_max, n_max, K) logits. The
    sentence side runs on the packed real tokens (``batch.ids``).
    Each token's state is its encoder state plus its label-attention
    mixture: the mixture alone starves the pair scorer of token identity
    (its rows live on a K-corner simplex) and stalls training at small d.
    Dropout, at ``config.dropout``, draws from ``rng`` if one is given;
    without one the forward is deterministic. Each instance's real cells
    equal its own B=1 forward up to float rounding; a cell with a padded
    token scores zero states and is read by nothing."""
    if batch.slots.shape[1] != params.num_channels:
        raise ValueError(
            f"{batch.slots.shape[1]} slots for a {params.num_channels}-channel model"
        )
    h_enc = encode_sentence(params, batch, rng=rng)
    h_slot = decode_instruction(params, h_enc, batch, rng=rng)
    h_x = label_attention(h_enc, h_slot, params["label_attn.w1"], params["label_attn.w2"],
                          batch.rows)
    logits = biaffine_score(h_x, params, batch.rows)
    size, n_max = batch.rows.size, batch.rows.n
    assert logits.shape == (size, n_max, n_max, params.num_channels)
    ad.check_finite(logits, "forward logits")
    return logits
