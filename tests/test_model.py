import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from tie import autodiff as ad
from tie.autodiff import Tape, Tensor
from tie.codec import GoldMatrix
from tie.gradcheck import run_gradcheck
from tie import model as M
from tie.model import ModelConfig, Parameters, make_batch
from tie.trainer import TrainConfig, loss

import padded_reference
from fdcheck import central_diff, max_rel_err


def toy_params(d=8, heads=2, layers=1, vocab=10, k=3, seed=0, **kw):
    cfg = ModelConfig(d=d, layers_enc=layers, layers_dec=layers, heads=heads,
                      max_len=8, max_instr_len=10, vocab_size=vocab, **kw)
    return Parameters(cfg, k, np.random.default_rng(seed))


def one(tokens, instr=(1,), slots=(0,)):
    """A batch holding a single instance."""
    return make_batch([list(tokens)], [list(instr)], [list(slots)])


BELOW_1, ABOVE_0 = math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0)

# (config class, field, a value on the rule's edge, the first value past it);
# fields ruled on two sides have a row per side
RULE_EDGES = [
    (ModelConfig, "d", 1, 0),   # with heads=1 below
    (ModelConfig, "layers_enc", 1, 0),
    (ModelConfig, "layers_dec", 1, 0),
    (ModelConfig, "heads", 1, 0),
    (ModelConfig, "max_len", 1, 0),
    (ModelConfig, "max_instr_len", 1, 0),
    (ModelConfig, "dropout", 0.0, -math.ulp(0.0)),
    (ModelConfig, "dropout", BELOW_1, 1.0),
    (ModelConfig, "vocab_size", 3, 2),
    (ModelConfig, "ffn_mult", 1, 0),
    (TrainConfig, "lr", ABOVE_0, 0.0),
    (TrainConfig, "lr", sys.float_info.max, math.inf),
    (TrainConfig, "batch_size", 1, 0),
    (TrainConfig, "pretrain_epochs", 1, 0),
    (TrainConfig, "finetune_epochs", 1, 0),
    (TrainConfig, "pretrain_max_steps", 1, 0),
    (TrainConfig, "finetune_max_steps", 1, 0),
    (TrainConfig, "threshold", ABOVE_0, 0.0),
    (TrainConfig, "threshold", BELOW_1, 1.0),
    (TrainConfig, "gate_granularity", "global", "layer"),
]


def test_config_validation():
    ruled = {(cls, f.name) for cls in (ModelConfig, TrainConfig)
             for f in dataclasses.fields(cls) if "rule" in f.metadata}
    assert {(cls, name) for cls, name, _, _ in RULE_EDGES} == ruled
    for cls, name, edge, past in RULE_EDGES:
        base = {"heads": 1} if name == "d" else {}
        assert getattr(cls(**base, **{name: edge}), name) == edge
        named = rf"^{name}: must be .*, got {re.escape(repr(past))}$"
        with pytest.raises(ValueError, match=named):
            cls(**base, **{name: past})


def test_config_types_and_cross_field_rule():
    assert ModelConfig(d=28, heads=4).d == 28
    with pytest.raises(ValueError, match="^d: must be a multiple of heads 4, got 30$"):
        ModelConfig(d=30, heads=4)
    for bad in ({"d": True}, {"d": 32.0}, {"dropout": "0"}, {"dropout": False},
                {"ffn_mult": "4"}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))}: must be "):
            ModelConfig(**bad)
    assert TrainConfig(lr=1, pretrain_max_steps=None).lr == 1   # an integer is a number
    with pytest.raises(ValueError, match="^pretrain_max_steps: must be an integer or null"):
        TrainConfig(pretrain_max_steps=2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().lr = 1.0


def test_encode_sentence_shape():
    p = toy_params()
    h = M.encode_sentence(p, one([1, 2, 3, 4]))
    assert h.shape == (4, 8)   # the packed rows of the real tokens


def test_encode_sentence_deterministic_in_eval():
    p = toy_params()
    a = M.encode_sentence(p, one([1, 2, 3]))
    b = M.encode_sentence(p, one([1, 2, 3]))
    assert np.array_equal(a.data, b.data)


def test_encode_sentence_length_bounds():
    p = toy_params()
    with pytest.raises(ValueError):
        M.encode_sentence(p, one(range(9)))
    with pytest.raises(ValueError):
        M.encode_sentence(p, one([]))


def test_encode_sentence_permutation_oracle():
    # Permuting vocabulary ids together with embedding rows changes nothing.
    p1 = toy_params(vocab=10, seed=3)
    p2 = toy_params(vocab=10, seed=3)
    rng = np.random.default_rng(4)
    perm = rng.permutation(10)
    p2.tensors["embed.tok"].data[perm] = p1.tensors["embed.tok"].data
    ids = [0, 7, 3, 3, 9]
    out1 = M.encode_sentence(p1, one(ids))
    out2 = M.encode_sentence(p2, one([int(perm[i]) for i in ids]))
    np.testing.assert_array_equal(out1.data, out2.data)


def test_decode_instruction_shape():
    p = toy_params()
    batch = one([1, 2, 3, 4], [5, 6, 7, 8, 9, 1], [0, 3, 5])
    h_slot = M.decode_instruction(p, M.encode_sentence(p, batch), batch)
    assert h_slot.shape == (1, 3, 8)


def test_decode_instruction_zeroed_cross_attention_ignores_sentence():
    p = toy_params()
    for i in range(p.config.layers_dec):
        p.tensors[f"dec.{i}.cross.wo"].data[...] = 0.0
        p.tensors[f"dec.{i}.cross.bo"].data[...] = 0.0
    instr = [5, 6, 7]
    b1, b2 = one([1, 2, 3, 4], instr), one([9, 8, 2], instr)
    out1 = M.decode_instruction(p, M.encode_sentence(p, b1), b1)
    out2 = M.decode_instruction(p, M.encode_sentence(p, b2), b2)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_decode_instruction_causal_mask():
    # slot 2's state ignores the tokens after it and depends on each one
    # before it; slot 4 sees them all
    for layers in (1, 2):
        p = toy_params(layers=layers)
        h_enc = M.encode_sentence(p, one([1, 2, 3]))

        def slots(instr):
            batch = one([1, 2, 3], instr, [2, 4])
            return M.decode_instruction(p, h_enc, batch).data[0]

        base = slots([5, 6, 7, 8, 9])
        later = slots([5, 6, 7, 1, 2])
        np.testing.assert_allclose(later[0], base[0], rtol=0, atol=1e-12)
        assert not np.allclose(later[1], base[1])
        for before in ([1, 6, 7, 8, 9], [5, 1, 7, 8, 9]):
            assert not np.allclose(slots(before)[0], base[0])


def _full_row_decoder(params, h_enc, batch):
    """The decoder that gives every instance its own instruction rows, runs
    every layer and ``dec.norm`` over all m_max of them, then keeps the slot
    rows: the reference the shared first layer and the slot-only last layer
    must match."""
    cfg = params.config
    instr, m, slots = batch.instr[batch.which], batch.m[batch.which], batch.slots[batch.which]
    m_max = instr.shape[1]
    self_mask = M._mask(m, m_max, np.arange(m_max))
    u = ad.embedding_lookup(params["embed.tok"], instr, params["embed.pos_u"])
    for i in range(cfg.layers_dec):
        p = f"dec.{i}"
        normed = M._ln(params, f"{p}.ln1", u)
        u = M._attention(params, f"{p}.self", normed, normed, u, mask=self_mask)
        u = M._attention(params, f"{p}.cross", M._ln(params, f"{p}.ln2", u), h_enc, u,
                         mask=batch.mask, kv_rows=batch.rows)
        u = M._ffn(params, f"{p}.ffn", M._ln(params, f"{p}.ln3", u), u)
    return M.gather_slots(M._ln(params, "dec.norm", u), slots)


# padded: instruction lengths 3, 7 and 5; a repeated slot, a slot at each
# instance's last position and one at the batch's last position; the fourth
# instance shares the second one's instruction and slots
SLOT_BATCH = ([[4, 2], [1, 2, 3, 4, 5], [3, 1, 4], [6, 2, 5]],
              [[5, 6, 7], [9, 8, 7, 6, 5, 4, 3], [2, 7, 1, 8, 2], [9, 8, 7, 6, 5, 4, 3]],
              [[2, 2, 0], [6, 1, 6], [4, 0, 3], [6, 1, 6]])


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_slot_only_last_layer_matches_full_row_decoder(layers):
    p = toy_params(layers=layers, seed=19)
    batch = make_batch(*SLOT_BATCH)
    assert len(batch.instr) == 3 and list(batch.which) == [0, 1, 2, 1]
    weights = np.random.default_rng(20).normal(size=(4, 3, 8))
    results = []
    for decoder in (M.decode_instruction, _full_row_decoder):
        p.zero_grads()
        with Tape():
            out = decoder(p, M.encode_sentence(p, batch), batch)
            ad.backward(out, weights)
        results.append((out.data, {n: t.grad.copy() for n, t in p.tensors.items()}))
    (slot, grads), (full, full_grads) = results
    assert slot.shape == (4, 3, 8)
    np.testing.assert_allclose(slot, full, rtol=0, atol=1e-12)
    assert any(np.any(g != 0) for n, g in grads.items() if n.startswith(f"dec.{layers - 1}"))
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, full_grads[name], rtol=0, atol=1e-12, err_msg=name)


def test_gather_slots_identity_and_single():
    h = Tensor(np.arange(12.0).reshape(1, 4, 3))
    all_rows = M.gather_slots(h, [[0, 1, 2, 3]])
    np.testing.assert_array_equal(all_rows.data, h.data)
    single = M.gather_slots(h, [[3]])
    np.testing.assert_array_equal(single.data, h.data[:, 3:4])


def test_gather_slots_fans_rows_out_by_which():
    h = Tensor(np.arange(24.0).reshape(2, 4, 3))
    out = M.gather_slots(h, [[3, 0], [1, 1], [2, 0]], which=[1, 0, 1])
    np.testing.assert_array_equal(out.data, np.stack([h.data[1, [3, 0]], h.data[0, [1, 1]],
                                                      h.data[1, [2, 0]]]))
    shared = M.gather_slots(h, np.arange(4), which=[1, 1, 0])
    np.testing.assert_array_equal(shared.data, h.data[[1, 1, 0]])


def test_gather_slots_grad_only_through_gathered_rows():
    h = Tensor(np.random.default_rng(0).normal(size=(1, 5, 3)), requires_grad=True)
    with Tape():
        out = M.gather_slots(h, [[1, 3]])
        ad.backward(out, np.ones(out.shape))
    assert np.all(h.grad[0, [0, 2, 4]] == 0.0)
    assert np.all(h.grad[0, [1, 3]] == 1.0)
    fd = central_diff(lambda: M.gather_slots(h, [[1, 3]]).data.sum(), h.data)
    assert max_rel_err(fd, h.grad) < 1e-4


def test_label_attention_k1_degenerate():
    rng = np.random.default_rng(5)
    h_enc = Tensor(rng.normal(size=(1, 4, 8)))
    h_slot = Tensor(rng.normal(size=(1, 1, 8)))
    w1 = Tensor(rng.normal(size=(8, 8)))
    w2 = Tensor(rng.normal(size=(8, 8)))
    out = M.label_attention(h_enc, h_slot, w1, w2)
    projected = h_slot.data[0] @ w2.data
    for row in (out.data - h_enc.data)[0]:   # each token's mixture
        np.testing.assert_allclose(row, projected[0], atol=1e-12)


def test_label_attention_convex_hull_bounds():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, k, d = rng.integers(2, 6), rng.integers(1, 5), 8
        h_enc = Tensor(rng.normal(size=(1, n, d)))
        h_slot = Tensor(rng.normal(size=(1, k, d)))
        w1 = Tensor(rng.normal(size=(d, d)))
        w2 = Tensor(rng.normal(size=(d, d)))
        mixture = (M.label_attention(h_enc, h_slot, w1, w2).data - h_enc.data)[0]
        projected = h_slot.data[0] @ w2.data
        lo = projected.min(axis=0) - 1e-9
        hi = projected.max(axis=0) + 1e-9
        assert np.all(mixture >= lo) and np.all(mixture <= hi)


def test_biaffine_shape():
    p = toy_params(k=2)
    h_x = Tensor(np.random.default_rng(7).normal(size=(1, 3, 8)))
    assert M.biaffine_score(h_x, p).shape == (1, 3, 3, 2)


def test_biaffine_constructed_weights_gram_matrix():
    # Identity score map, zero linear term, identity bilinear slice, and
    # shared head/tail MLPs reduce the scorer to a symmetric Gram matrix.
    p = toy_params(k=1, seed=8)
    d = p.config.d
    p.tensors["biaffine.w3"].data[...] = np.eye(d)[:, None, :]
    p.tensors["biaffine.w4"].data[...] = 0.0
    p.tensors["score.w"].data[...] = 1.0
    p.tensors["score.b"].data[...] = 0.0
    for w in ("w1", "b1", "w2", "b2"):
        p.tensors[f"tail_mlp.{w}"].data[...] = p.tensors[f"head_mlp.{w}"].data
    h_x = Tensor(np.random.default_rng(9).normal(size=(1, 4, d)))
    logits = M.biaffine_score(h_x, p)
    h_head, h_tail = M._ffn(p, "head_mlp", h_x), M._ffn(p, "tail_mlp", h_x)
    np.testing.assert_array_equal(h_head.data, h_tail.data)
    expected = h_head.data[0] @ h_head.data[0].T
    np.testing.assert_allclose(logits.data[0, :, :, 0], expected, atol=1e-12)
    np.testing.assert_allclose(logits.data[0, :, :, 0], logits.data[0, :, :, 0].T,
                               atol=1e-12)


def test_forward_shapes_and_state():
    p = toy_params(k=3)
    batch = one([1, 2, 3, 4], [5, 6, 7, 8, 9], [1, 2, 4])
    h_enc = M.encode_sentence(p, batch)
    assert h_enc.shape == (4, 8)   # the sentence side holds packed rows
    h_slot = M.decode_instruction(p, h_enc, batch)
    assert h_slot.shape == (1, 3, 8)   # the decoder keeps no other rows
    h_x = M.label_attention(h_enc, h_slot, p["label_attn.w1"], p["label_attn.w2"], batch.rows)
    assert h_x.shape == (4, 8)
    assert M.forward(p, batch).shape == (1, 4, 4, 3)


def test_forward_instruction_changes_logits_not_shapes():
    p = toy_params(k=2)
    s1 = M.forward(p, one([1, 2, 3], [5, 6, 7, 8], [0, 2]))
    s2 = M.forward(p, one([1, 2, 3], [8, 6, 5, 9], [1, 3]))
    assert s1.shape == s2.shape
    assert not np.array_equal(s1.data, s2.data)


def test_forward_slot_count_must_match_channels():
    p = toy_params(k=3)
    with pytest.raises(ValueError):
        M.forward(p, one([1, 2], [3, 4], [0]))


def test_forward_scores_encoder_states_plus_label_attention():
    p = toy_params(k=2, seed=11)
    batch = one([1, 2, 3], [4, 5, 6], [0, 2])
    h_enc = M.encode_sentence(p, batch)
    h_slot = M.decode_instruction(p, h_enc, batch)
    h_x = M.label_attention(h_enc, h_slot, p["label_attn.w1"], p["label_attn.w2"], batch.rows)
    # label attention adds to each encoder state a mixture inside the
    # projected-slot convex hull
    mixture = h_x.data - h_enc.data
    proj = h_slot.data[0] @ p.tensors["label_attn.w2"].data
    assert np.all(mixture <= proj.max(axis=0) + 1e-9)
    assert np.all(mixture >= proj.min(axis=0) - 1e-9)
    # the scorer sees the encoder states plus their mixtures
    expected = M.biaffine_score(h_x, p, batch.rows)
    assert np.array_equal(M.forward(p, batch).data, expected.data)


def test_group_partition_covers_all_params():
    p = toy_params()
    covered = [n for names in p.groups.values() for n in names]
    assert sorted(covered) == sorted(p.tensors)
    assert len(covered) == len(set(covered))


def test_parameters_laid_over_a_vector_are_views_of_it_in_layout_order():
    drawn = toy_params()
    vector = np.arange(drawn.vector.size, dtype=float)
    over = Parameters.over(drawn.config, 3, vector)
    assert over.groups == drawn.groups
    assert list(over.tensors) == list(drawn.tensors)
    lo = 0
    for name, t in over.tensors.items():
        assert t.shape == drawn[name].shape, name
        assert np.shares_memory(t.data, vector), name
        assert np.array_equal(t.data, vector[lo:lo + t.size].reshape(t.shape)), name
        lo += t.size
    assert lo == vector.size
    with pytest.raises(ValueError, match="floats for a layout of"):
        Parameters.over(drawn.config, 3, vector[1:])


def test_slices_tile_the_vector_and_hold_their_groups_tensors():
    p = toy_params(k=3, seed=14)
    p.vector[...] = np.arange(p.vector.size)   # distinct values place every element
    p.grad[...] = -np.arange(p.grad.size)
    ends = [0]
    for group, where in p.slices.items():   # in layout order, without gaps
        assert where.start == ends[-1] and where.stop > where.start, group
        ends.append(where.stop)
        for part, vec in (("data", p.vector), ("grad", p.grad)):
            tensors = [getattr(p[name], part) for name in p.groups[group]]
            assert all(np.shares_memory(t, vec[where]) for t in tensors), (group, part)
            assert np.array_equal(np.concatenate([t.reshape(-1) for t in tensors]), vec[where])
    assert list(p.slices) == list(p.groups) and ends[-1] == p.vector.size == p.grad.size
    grads = p.grads()
    for group, where in p.slices.items():
        assert np.array_equal(grads[group], p.grad[where])
        assert np.shares_memory(grads[group], p.grad)
    before = {g: p.vector[s].copy() for g, s in p.slices.items()}
    p.reinit_channels(5, np.random.default_rng(15))
    kept = list(p.slices)[:list(p.slices).index("biaffine")]
    assert kept and "score" not in kept
    for group in kept:
        assert np.array_equal(p.vector[p.slices[group]], before[group]), group


def test_stacked_mlps_are_views_of_the_head_and_tail_groups_outside_tensors():
    # each kind's (2, ...) view is the head's tensor then the tail's, over
    # the same data and gradient memory, after ``over`` and after
    # ``reinit_channels`` too; ``tensors`` holds every parameter once
    drawn = toy_params(k=3, seed=16)
    over = Parameters.over(drawn.config, 3, drawn.vector.copy())
    retargeted = toy_params(k=3, seed=16)
    retargeted.reinit_channels(5, np.random.default_rng(17))
    for p in (drawn, over, retargeted):
        assert list(p.mlps) == ["w1", "b1", "w2", "b2"]
        assert sum(t.size for t in p.tensors.values()) == p.vector.size
        assert not any(t is stacked for t in p.tensors.values() for stacked in p.mlps.values())
        for kind, stacked in p.mlps.items():
            assert stacked.requires_grad
            for s, group in enumerate(("head_mlp", "tail_mlp")):
                one = p[f"{group}.{kind}"]
                for view, memory in ((stacked.data[s], one.data), (stacked.grad[s], one.grad)):
                    memory[...] = s + 7.0
                    assert np.shares_memory(view, memory) and np.array_equal(view, memory)


def test_reinit_channels_touches_only_channel_groups():
    p = toy_params(k=3, seed=12)
    before = {n: t.data.copy() for n, t in p.tensors.items()}
    vector = p.vector
    p.reinit_channels(5, np.random.default_rng(13))
    # one new vector and one new gradient vector, every tensor a view of them
    assert p.vector is not vector and p.vector.shape == p.grad.shape
    assert p.vector.size == sum(t.size for t in p.tensors.values())
    for t in p.tensors.values():
        assert np.shares_memory(t.data, p.vector) and np.shares_memory(t.grad, p.grad)
    assert p.tensors["biaffine.w3"].shape == (8, 5, 8)
    assert p.tensors["biaffine.w4"].shape == (5, 16)
    assert p.tensors["score.w"].shape == (5, 5)
    assert p.tensors["score.b"].shape == (5,)
    channel_names = {n for g in M.CHANNEL_GROUPS for n in p.groups[g]}
    for name, old in before.items():
        if name not in channel_names:
            np.testing.assert_array_equal(p.tensors[name].data, old)


def test_dropout_only_when_a_stream_is_given():
    p = toy_params(k=2, dropout=0.5)
    batch = one([1, 2, 3], [4, 5], [0, 1])
    eval1 = M.forward(p, batch)
    eval2 = M.forward(p, batch)
    assert np.array_equal(eval1.data, eval2.data)
    train1 = M.forward(p, batch, rng=np.random.default_rng(1))
    train2 = M.forward(p, batch, rng=np.random.default_rng(2))
    assert not np.array_equal(train1.data, train2.data)
    assert not np.array_equal(train1.data, eval1.data)
    # at rate 0 a stream changes nothing
    plain = toy_params(k=2)
    assert np.array_equal(M.forward(plain, batch, rng=np.random.default_rng(1)).data,
                          M.forward(plain, batch).data)


def test_one_attention_block_is_one_tape_record():
    # the q, k, v and output projections, the attention and the residual
    # add are one ``attention`` record, and the FFN with its residual one
    # ``ffn`` record
    p = toy_params(heads=2)
    x = Tensor(np.random.default_rng(18).normal(size=(2, 3, 8)), requires_grad=True)
    with Tape() as tape:
        out = M._attention(p, "enc.0.attn", x, x, x, mask=M._mask(np.array([3, 2]), 3))
        M._ffn(p, "enc.0.ffn", out, out)
    assert [fn.__qualname__.split(".")[0] for _, fn in tape._records] == ["attention", "ffn"]


def test_training_step_tape_records_at_bench_shape():
    # one training forward plus loss at the benchmark's short_pretrain shape
    # (d=32, 4 heads, one layer each, K=3, batch 16): each op split in two or
    # each added op shows up here, on every Python version. Each attention
    # or FFN branch, with its projections and residual, is one record. Under
    # dropout the decoder's first layer runs per instance (one more record:
    # the slot rows' ``ln1``), and each FFN's dropout is part of its record.
    # The head and tail MLPs are one stacked ``ffn`` record. The loss is
    # plain numpy: it records nothing
    for dropout, records in ((0.0, 18), (0.1, 19)):
        cfg = ModelConfig(d=32, heads=4, max_len=32, max_instr_len=32, vocab_size=40,
                          dropout=dropout)
        p = Parameters(cfg, 3, np.random.default_rng(0))
        rng = np.random.default_rng(21)
        tokens = [list(rng.integers(3, 40, size=rng.integers(3, 8))) for _ in range(16)]
        instr = [list(rng.integers(3, 40, size=rng.integers(9, 13))) for _ in range(16)]
        batch = make_batch(tokens, instr, [sorted(rng.choice(len(u), 3, replace=False))
                                           for u in instr])
        golds = [GoldMatrix.from_grid(rng.random((len(t), len(t), 3)) < 0.3) for t in tokens]
        with Tape() as tape:
            loss(M.forward(p, batch, rng=rng), golds)
        assert len(tape._records) == records, dropout


def test_untaped_forward_with_infinite_parameter_raises():
    p = toy_params(k=2)
    p.tensors["score.b"].data[0] = np.inf
    with pytest.raises(ad.NonFiniteError, match="logits"):
        M.forward(p, one([1, 2, 3], [4, 5], [0, 1]))


def test_small_gradcheck():
    report = run_gradcheck(d=4, layers=1, heads=2, n_tokens=3, n_instr=4,
                           num_channels=2, seed=1)
    assert report.passed, f"worst {report.worst_rel_err:.2e} at {report.worst_tensor}"


# --- padded batches -----------------------------------------------------

# Sentence lengths 1, max_len (8) and 4; instruction lengths 3, 7 and 5;
# each instance with its own slot positions.
MIXED = [
    ([4], [5, 6, 7], [2, 0, 1]),
    ([1, 2, 3, 4, 5, 6, 7, 8], [9, 8, 7, 6, 5, 4, 3], [6, 1, 3]),
    ([3, 1, 4, 1], [2, 7, 1, 8, 2], [0, 4, 2]),
]


def _mixed_batch():
    return make_batch(*[list(col) for col in zip(*MIXED)])


def test_mixed_length_batch_matches_single_instance_forwards():
    p = toy_params(k=3, seed=15)
    batch = _mixed_batch()
    logits = M.forward(p, batch).data
    assert logits.shape == (3, 8, 8, 3)
    for b, (tokens, instr, slots) in enumerate(MIXED):
        n = len(tokens)
        alone = M.forward(p, one(tokens, instr, slots)).data[0]
        np.testing.assert_allclose(logits[b, :n, :n], alone, rtol=0, atol=1e-10)


def test_batch_loss_gradient_is_mean_of_instance_gradients():
    p = toy_params(k=3, seed=16)
    rng = np.random.default_rng(17)
    golds = [GoldMatrix.from_grid(rng.random((len(t), len(t), 3)) < 0.3) for t, _, _ in MIXED]

    expected = {name: np.zeros_like(t.data) for name, t in p.tensors.items()}
    for (tokens, instr, slots), gold in zip(MIXED, golds):
        p.zero_grads()
        with Tape():
            logits = M.forward(p, one(tokens, instr, slots))
            ad.backward(logits, loss(logits, [gold])[1])
        for name, t in p.tensors.items():
            expected[name] += t.grad / len(MIXED)

    p.zero_grads()
    with Tape():
        logits = M.forward(p, _mixed_batch())
        ad.backward(logits, loss(logits, golds)[1])
    for name, t in p.tensors.items():
        np.testing.assert_allclose(t.grad, expected[name], rtol=0, atol=1e-9,
                                   err_msg=name)


def test_make_batch_keeps_each_instruction_once_in_first_seen_order():
    batch = make_batch([[1], [2], [3], [4], [5]],
                       [[7, 8], [5, 6, 7], [7, 8], [5, 6, 7], [7, 8]],
                       [[1, 0], [2, 0], [1, 0], [2, 0], [1, 0]])
    assert batch.tokens.shape == (5, 1) and list(batch.n) == [1] * 5
    np.testing.assert_array_equal(batch.instr, [[7, 8, 0], [5, 6, 7]])
    assert list(batch.m) == [2, 3] and batch.slots.tolist() == [[1, 0], [2, 0]]
    assert list(batch.which) == [0, 1, 0, 1, 0]


def test_make_batch_same_instruction_with_other_slots_is_another_row():
    batch = make_batch([[1], [2], [3]], [[5, 6, 7]] * 3, [[0, 2], [2, 0], [0, 2]])
    np.testing.assert_array_equal(batch.instr, [[5, 6, 7], [5, 6, 7]])
    assert batch.slots.tolist() == [[0, 2], [2, 0]] and list(batch.which) == [0, 1, 0]


@pytest.mark.parametrize("layers", [1, 2])
def test_equal_length_batch_with_shared_instructions_matches_single_forwards_bit_for_bit(
        layers):
    p = toy_params(layers=layers, seed=23)
    instances = [([1, 2, 3, 4], [5, 6, 7, 8], [3, 0, 1]),
                 ([4, 4, 2, 1], [9, 3, 2, 1], [1, 1, 2]),
                 ([7, 5, 3, 1], [5, 6, 7, 8], [3, 0, 1]),
                 ([2, 6, 9, 8], [9, 3, 2, 1], [1, 1, 2]),
                 ([3, 3, 8, 5], [5, 6, 7, 8], [3, 0, 1])]
    batch = make_batch(*[list(col) for col in zip(*instances)])
    assert len(batch.instr) == 2
    logits = M.forward(p, batch).data
    for b, instance in enumerate(instances):
        np.testing.assert_array_equal(logits[b], M.forward(p, one(*instance)).data[0])


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_every_instance_draws_its_own_decoder_dropout(layers):
    # with cross-attention, the FFN's output and every self-attention's
    # output but layer 0's zeroed, an instance's decoder state depends on its
    # instruction and on the dropout masks of layer 0's self-attention, the
    # layer that runs once per distinct instruction without dropout: a mask
    # shared between instances that share an instruction would make the two
    # rows equal
    p = toy_params(layers=layers, seed=24, dropout=0.5)
    for i in range(layers):
        for name in ("cross.wo", "cross.bo", "ffn.w2") + (("self.wo", "self.bo") if i else ()):
            p.tensors[f"dec.{i}.{name}"].data[...] = 0.0
    batch = make_batch([[1, 2, 3]] * 2, [[5, 6, 7, 8]] * 2, [[3, 1, 2]] * 2)
    assert len(batch.instr) == 1

    def states(rng):
        return M.decode_instruction(p, M.encode_sentence(p, batch, rng=rng), batch, rng=rng).data

    dropped = states(np.random.default_rng(25))
    assert not np.allclose(dropped[0], dropped[1])
    plain = states(None)
    np.testing.assert_array_equal(plain[0], plain[1])


def test_make_batch_pads_and_validates():
    batch = _mixed_batch()
    assert batch.tokens.shape == (3, 8) and batch.instr.shape == (3, 7)
    assert list(batch.n) == [1, 8, 4] and list(batch.m) == [3, 7, 5]
    assert np.all(batch.tokens[0, 1:] == 0) and np.all(batch.instr[2, 5:] == 0)
    # the key mask hides each sentence's padded tokens, and is None when
    # no token is padded
    assert batch.mask.shape == (3, 1, 1, 8)
    assert (batch.mask[:, 0, 0] < 0).tolist() == [[i >= n for i in range(8)] for n in (1, 8, 4)]
    assert one([1, 2]).mask is None
    with pytest.raises(ValueError):
        make_batch([[1, 2]], [[3, 4]], [[2]])       # slot past its instruction
    with pytest.raises(ValueError):
        make_batch([[1], [2]], [[3], [4]], [[0], [0, 0]])   # ragged slot lists
    with pytest.raises(ValueError):
        make_batch([[1], [2]], [[3], [4]], [[0], [0], [0]])   # a slot list too many


@pytest.mark.parametrize("layers, dropout", [(1, 0.0), (2, 0.0), (1, 0.3), (2, 0.3)])
def test_packed_forward_matches_the_padded_reference_on_every_real_cell(layers, dropout):
    # the mixed batch (lengths 1, n_max and 4) and a batch of one: the same
    # logits bit for bit on every real cell, dropout drawing the same masks,
    # and the same parameter gradients up to the input gradients' rounding
    p = toy_params(k=3, layers=layers, seed=27, dropout=dropout)
    rng = np.random.default_rng(28)
    for batch in (_mixed_batch(), one(*MIXED[2])):
        golds = [GoldMatrix.from_grid(rng.random((n, n, 3)) < 0.3) for n in batch.n]
        results = []
        for run in (M.forward, padded_reference.forward):
            p.zero_grads()
            with Tape():
                logits = run(p, batch, rng=np.random.default_rng(29) if dropout else None)
                ad.backward(logits, loss(logits, golds)[1])
            results.append((logits.data, p.grad.copy()))
        (packed, grad), (padded, padded_grad) = results
        for b, n in enumerate(batch.n):
            assert np.array_equal(packed[b, :n, :n], padded[b, :n, :n])
        np.testing.assert_allclose(grad, padded_grad, rtol=1e-12, atol=1e-15)
