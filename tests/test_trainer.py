import numpy as np
import pytest

from tie.autodiff import ShapeError, Tape, Tensor, backward, sigmoid
from tie.codec import GoldMatrix, encode
from tie.data import Instance, LabelSpace, Link, Mention, build_vocab
from tie.instructions import build_pool
from tie.model import ModelConfig, Parameters, forward, make_batch
from tie.synth import SYNTH_KINDS, make_synth
from tie import trainer as T
from tie.trainer import (
    Adam,
    TrainConfig,
    TrainState,
    TrainingDiverged,
    gated_step,
    plan_epoch,
    rng_for,
)

from fdcheck import central_diff, max_rel_err
from fuzz import FUZZ_SPACES, fuzz_instance
from grids import annotation_grid


# --- loss ---------------------------------------------------------------


def _value(logits, golds) -> float:
    return T.loss(logits, golds)[0]


def test_loss_saturated_zero():
    # saturated logits on each side of no gold and of a diagonal gold
    for t in (np.zeros((3, 3, 2)), np.eye(3)[:, :, None] * np.ones(2)):
        value, grad = T.loss(Tensor(np.where(t == 1.0, 30.0, -30.0)[None]),
                             [GoldMatrix.from_grid(t)])
        assert 0.0 <= value < 1e-9
        assert np.abs(grad).max() < 1e-13


def test_loss_zero_logits_ln2():
    logits = Tensor(np.zeros((1, 3, 3, 2)))
    rng = np.random.default_rng(0)
    for grid in (rng.random((3, 3, 2)) < 0.5, np.ones((3, 3, 2))):
        assert _value(logits, [GoldMatrix.from_grid(grid)]) == pytest.approx(np.log(2.0),
                                                                             abs=1e-12)


def test_loss_matches_formula():
    rng = np.random.default_rng(1)
    z = rng.normal(scale=2.0, size=(4, 4, 3))
    g = (rng.random((4, 4, 3)) < 0.3).astype(float)
    s = 1.0 / (1.0 + np.exp(-z))
    direct = -(g * np.log(s) + (1 - g) * np.log(1 - s)).mean()
    assert _value(Tensor(z[None]), [GoldMatrix.from_grid(g)]) == pytest.approx(
        direct, abs=1e-10)


def test_loss_weighs_each_instance_by_its_real_cells():
    # unequal lengths: the mean over each instance's real cells, then over
    # the batch, whatever the padding's logits
    rng = np.random.default_rng(5)
    lengths, k = [2, 4, 1], 3
    z = rng.normal(scale=2.0, size=(3, 4, 4, k))
    grids = [(rng.random((n, n, k)) < 0.4).astype(float) for n in lengths]
    s = 1.0 / (1.0 + np.exp(-z))
    direct = np.mean([-(g * np.log(s[b, :n, :n]) + (1 - g) * np.log(1 - s[b, :n, :n])).mean()
                      for b, (n, g) in enumerate(zip(lengths, grids))])
    golds = [GoldMatrix.from_grid(g) for g in grids]
    assert _value(Tensor(z), golds) == pytest.approx(direct, abs=1e-12)
    z[0, 2:] = z[2, 1:] = 1e3
    assert _value(Tensor(z), golds) == pytest.approx(direct, abs=1e-12)


def test_loss_nonnegative_property():
    rng = np.random.default_rng(12)
    for _ in range(100):
        z = rng.normal(scale=rng.uniform(0.1, 20.0), size=(1, 3, 3, 4))
        gold = GoldMatrix.from_grid(rng.random((3, 3, 4)) < 0.5)
        assert _value(Tensor(z), [gold]) >= 0.0


@pytest.mark.parametrize("lengths, k", [([2, 4, 1], 3), ([3], 2), ([3, 2], 1)],
                         ids=["unequal", "one", "one channel"])
def test_loss_gradient_matches_finite_differences(lengths, k):
    rng = np.random.default_rng(14)
    n_max = max(lengths)
    logits = Tensor(rng.normal(scale=2.0, size=(len(lengths), n_max, n_max, k)))
    golds = [GoldMatrix.from_grid(rng.random((n, n, k)) < 0.4) for n in lengths]
    _, grad = T.loss(logits, golds)
    fd = central_diff(lambda: _value(logits, golds), logits.data)
    assert max_rel_err(fd, grad) < 1e-4
    # padding cells get no gradient
    for b, n in enumerate(lengths):
        assert not grad[b, n:].any() and not grad[b, :, n:].any()


def _dense_grid_loss(z, grids):
    """The loss and its gradient over dense padded (B, n_max, n_max, K)
    target and weight grids, filled instance by instance from dense
    (n_b, n_b, K) gold grids: 1/(B * n_b^2 * K) on instance b's real cells,
    0 on padding."""
    size, n_max, _, k = z.shape
    targets = np.zeros(z.shape)
    weights = np.zeros(z.shape)
    for b, grid in enumerate(grids):
        n = len(grid)
        targets[b, :n, :n] = grid
        weights[b, :n, :n] = 1.0 / (size * n * n * k)
    e = np.exp(-np.abs(z))
    per_cell = np.maximum(z, 0.0) - z * targets + np.log1p(e)
    return (per_cell * weights).sum(), (sigmoid(z, e) - targets) * weights


@pytest.mark.parametrize("size", [1, 3, 16])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_loss_equals_the_dense_grid_loss_bit_for_bit(size, k):
    rng = np.random.default_rng(100 * size + k)
    lengths = rng.integers(1, 9, size=size)
    grids = [(rng.random((n, n, k)) < 0.3).astype(float) for n in lengths]
    z = rng.normal(scale=3.0, size=(size, lengths.max(), lengths.max(), k))
    value, grad = T.loss(Tensor(z), [GoldMatrix.from_grid(g) for g in grids])
    dense_value, dense_grad = _dense_grid_loss(z, grids)
    assert np.array_equal(value, dense_value)
    assert np.array_equal(grad, dense_grad)


def _annotated_sets():
    """(label space, instances) for each synth dataset, each fuzz space and
    the degenerate instance whose two links claim one head-head cell."""
    for kind in SYNTH_KINDS:
        for ds, _ in make_synth(kind, 12, 4):
            yield ds.id, ds.label_space, ds.splits.train
    rng = np.random.default_rng(8)
    for task, space in FUZZ_SPACES.items():
        yield f"fuzz-{task}", space, [fuzz_instance(task, rng) for _ in range(24)]
    yield "degenerate", LabelSpace(["E"], ["r"]), [Instance(
        tokens=["a", "b", "c", "d", "e"],
        entities=[Mention("E", 0, 0), Mention("E", 2, 3), Mention("E", 2, 4)],
        links=[Link("r", 0, 1), Link("r", 0, 2)],
    )]


def test_loss_target_equals_the_annotation_grid():
    # at zero logits the gradient of each real cell is its weight times
    # (0.5 - target), so equal gradients mean equal scattered targets
    rng = np.random.default_rng(9)
    for name, space, instances in _annotated_sets():
        golds = [encode(inst, space) for inst in instances]
        references = [annotation_grid(inst, space) for inst in instances]
        assert [g.collisions for g in golds] == [c for _, c in references], name
        # the cells are the grid's ones in row-major order
        assert [g.cells.tolist() for g in golds] == [np.argwhere(grid).tolist()
                                                     for grid, _ in references], name
        for lo in range(0, len(golds), 8):
            batch = slice(lo, lo + 8)
            n_max = max(g.n for g in golds[batch])
            shape = (len(golds[batch]), n_max, n_max, space.num_channels)
            for z in (np.zeros(shape), rng.normal(scale=3.0, size=shape)):
                value, grad = T.loss(Tensor(z), golds[batch])
                dense_value, dense_grad = _dense_grid_loss(
                    z, [grid for grid, _ in references[batch]])
                assert np.array_equal(value, dense_value), name
                assert np.array_equal(grad, dense_grad), name


def _cells(n, k):
    return GoldMatrix(n, k, np.empty((0, 3), dtype=np.intp))


@pytest.mark.parametrize("golds", [
    [_cells(3, 2)],                                   # one gold for two instances
    [_cells(3, 2)] * 3,                               # three
    [_cells(3, 2), _cells(2, 3)],                     # the wrong K
    [_cells(3, 2), _cells(4, 2)],                     # longer than the grid
    [_cells(3, 2), _cells(0, 2)],                     # empty
    [_cells(3, 2), np.zeros((2, 2, 2))],              # a dense grid, not cells
    [_cells(3, 2), np.zeros((2, 3, 2))],              # dense and not square
    [_cells(3, 2), np.zeros((2, 2))],                 # dense with no channel axis
], ids=["too few", "too many", "wrong K", "too long", "empty", "dense", "not square", "2-D"])
def test_loss_rejects_golds_that_do_not_fit_the_logits(golds):
    with pytest.raises(ShapeError, match="gold grids"):
        T.loss(Tensor(np.zeros((2, 3, 3, 2))), golds)


# --- epoch planning -----------------------------------------------------


def test_plan_two_by_two_alternates():
    plan = plan_epoch({"a": 4, "b": 4}, 2, rng_for(0, "plan", 0))
    assert len(plan.batches) == 4
    ids = [d for d, _ in plan.batches]
    assert ids.count("a") == 2 and ids.count("b") == 2
    assert all(ids[i] != ids[i + 1] for i in range(3))
    assert plan.forced_adjacent == []


def test_plan_requires_two_datasets_for_interleave():
    with pytest.raises(ValueError):
        plan_epoch({"a": 4}, 2, rng_for(0, "plan", 0))


def test_plan_finetune_mode_single_dataset():
    plan = plan_epoch({"a": 7}, 3, rng_for(1, "plan", 0), interleave=False)
    assert [d for d, _ in plan.batches] == ["a", "a", "a"]
    covered = sorted(i for _, b in plan.batches for i in b)
    assert covered == list(range(7))
    assert [len(b) for _, b in plan.batches] == [3, 3, 1]


def test_plan_fuzz_eleven_sources():
    rng = np.random.default_rng(2)
    for trial in range(100):
        sizes = {f"d{i}": int(rng.integers(5, 60)) for i in range(11)}
        plan = plan_epoch(sizes, 8, rng_for(3, "plan", trial))
        seen = {d: [] for d in sizes}
        for ds_id, batch in plan.batches:
            assert 1 <= len(batch) <= 8
            seen[ds_id].extend(batch)
        for ds_id, n in sizes.items():
            assert sorted(seen[ds_id]) == list(range(n))
        forced = set(plan.forced_adjacent)
        for i in range(1, len(plan.batches)):
            if plan.batches[i][0] == plan.batches[i - 1][0]:
                assert i in forced
    # with 11 balanced sources, forced tails should be rare
    plan = plan_epoch({f"d{i}": 40 for i in range(11)}, 8, rng_for(4, "plan", 0))
    assert plan.forced_adjacent == []


def test_plan_tail_violation_recorded_not_dropped():
    # one dataset holds far more batches than the rest combined
    plan = plan_epoch({"big": 40, "small": 4}, 4, rng_for(5, "plan", 0))
    assert len(plan.batches) == 11
    assert plan.forced_adjacent  # unavoidable adjacency at the tail
    covered = sorted(i for d, b in plan.batches if d == "big" for i in b)
    assert covered == list(range(40))


def test_plan_deterministic_per_seed():
    p1 = plan_epoch({"a": 20, "b": 30}, 4, rng_for(6, "plan", 0))
    p2 = plan_epoch({"a": 20, "b": 30}, 4, rng_for(6, "plan", 0))
    assert p1.batches == p2.batches


# --- gate ---------------------------------------------------------------


def tiny_params(k=2, seed=0):
    cfg = ModelConfig(d=4, layers_enc=1, layers_dec=1, heads=2, max_len=6,
                      max_instr_len=6, vocab_size=8)
    return Parameters(cfg, k, np.random.default_rng(seed))


def ones_grads(params, sign=1.0):
    """Every gradient of ``params`` set to ``sign``: the live per-group vectors."""
    params.grad[...] = sign
    return params.grads()


def copied(params):
    """A copy of the values of ``params``, as tensors by name."""
    return Parameters.over(params.config, params.num_channels, params.vector.copy())


def test_gate_first_step_always_updates():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    decisions = gated_step(state)
    assert all(d["updated"] and d["dot"] is None for d in decisions.values())
    assert state.snapshot.shape == p.grad.shape


def test_snapshot_keeps_copies_of_the_live_gradients():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    gated_step(state)
    vector = state.snapshot
    p.zero_grads()
    assert not np.shares_memory(vector, p.grad) and np.all(vector == 1.0)
    for where in p.slices.values():
        assert not np.shares_memory(vector[where], p.grad) and np.all(vector[where] == 1.0)
    # the next step copies into the same vector, still apart from the gradient
    ones_grads(p, sign=2.0)
    gated_step(state)
    p.zero_grads()
    assert state.snapshot is vector and not np.shares_memory(vector, p.grad)
    assert np.all(vector == 2.0)


def test_gate_equal_gradients_update_all():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    gated_step(state)
    ones_grads(p)
    decisions = gated_step(state)
    for group, d in decisions.items():
        assert d["updated"] and d["dot"] > 0


def test_gate_negated_gradients_freeze_all():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    gated_step(state)
    adam = state.optimizer
    before = copied(p)
    m_before = {g: adam.moments[0][s].copy() for g, s in p.slices.items()}
    v_before = {g: adam.moments[1][s].copy() for g, s in p.slices.items()}
    t_before = dict(adam.t)
    ones_grads(p, sign=-1.0)
    decisions = gated_step(state)
    for d in decisions.values():
        assert not d["updated"] and d["dot"] < 0
    # frozen means bit-identical parameters and optimizer state
    for name, t in p.tensors.items():
        assert np.array_equal(t.data, before[name].data)
    for group in p.groups:
        assert np.array_equal(adam.moments[0][p.slices[group]], m_before[group])
        assert np.array_equal(adam.moments[1][p.slices[group]], v_before[group])
    assert adam.t == t_before
    # but the snapshot still stores the new gradients
    assert all(np.all(state.snapshot[s] == -1.0) for s in p.slices.values())


def test_gate_mixed_groups():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    gated_step(state)
    g1 = ones_grads(p)
    g1["embed"] *= -1.0
    before = copied(p)
    decisions = gated_step(state)
    assert not decisions["embed"]["updated"] and decisions["embed"]["dot"] < 0
    assert decisions["score"]["updated"] and decisions["score"]["dot"] > 0
    for name in p.groups["embed"]:
        assert np.array_equal(p.tensors[name].data, before[name].data)
    assert not np.array_equal(p.tensors["score.w"].data, before["score.w"].data)


def test_gate_zero_previous_gradient_skips():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p, sign=0.0)
    gated_step(state)
    ones_grads(p)
    decisions = gated_step(state)
    for d in decisions.values():
        assert d["dot"] == 0.0 and not d["updated"]


def test_gate_global_granularity():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    gated_step(state, granularity="global")
    # embed dominates the global dot; flip everything else
    g1 = ones_grads(p, sign=-1.0)
    g1["embed"][...] = 1.0
    sizes = {g: p.vector[s].size for g, s in p.slices.items()}
    embed_size = sizes["embed"]
    rest = sum(s for g, s in sizes.items() if g != "embed")
    expected = embed_size - rest > 0
    decisions = gated_step(state, granularity="global")
    dots = {d["dot"] for d in decisions.values()}
    assert len(dots) == 1  # one global decision
    assert all(d["updated"] == expected for d in decisions.values())


def test_gate_off_updates_without_dots():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    gated_step(state, gate=False)
    ones_grads(p, sign=-1.0)
    decisions = gated_step(state, gate=False)
    assert all(d["updated"] and d["dot"] is None for d in decisions.values())
    assert state.snapshot is None   # ungated steps keep no previous gradient


def test_gate_nan_gradient_aborts():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    p["score.w"].grad[0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="score.w"):
        gated_step(state)


def test_gate_nan_in_the_middle_of_a_large_group_is_named():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    ones_grads(p)
    p["dec.0.cross.wv"].grad[1, 2] = np.inf
    names = p.groups["dec.0"]
    assert 0 < names.index("dec.0.cross.wv") < len(names) - 1
    with pytest.raises(TrainingDiverged, match=r"dec\.0\.cross\.wv"):
        gated_step(state)


def test_gate_accepts_finite_gradients_whose_sum_overflows():
    p = tiny_params()
    state = TrainState.fresh(p, lr=1e-3)
    big = ones_grads(p)
    p["score.w"].grad[...] = 1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(big["score"].sum())
        decisions = gated_step(state)
    assert decisions["score"]["updated"]
    assert np.isfinite(p["score.w"].data).all()


# --- Adam ---------------------------------------------------------------


# groups frozen at each step: a mid-layout group splits the updated groups
# into two runs, and a later step that updates both again steps one run whose
# groups stand at different step counts; the first and last groups frozen
# together leave one run that touches neither end of the vectors
FROZEN = {1: {"label_attn"}, 2: {"dec.0"}, 4: {"embed", "score"}}


def test_flat_adam_matches_per_tensor_formula_bit_for_bit():
    p = tiny_params(seed=1)
    adam = Adam(p, lr=3e-3)
    ref_p = {n: t.data.copy() for n, t in p.tensors.items()}
    ref_m = {n: np.zeros_like(a) for n, a in ref_p.items()}
    ref_v = {n: np.zeros_like(a) for n, a in ref_p.items()}
    ref_t = {g: 0 for g in p.groups}
    rng = np.random.default_rng(2)
    for step in range(6):
        for t in p.tensors.values():
            t.grad[...] = rng.normal(size=t.shape)
        grads = {n: t.grad.copy() for n, t in p.tensors.items()}
        updated = [g for g in p.groups if g not in FROZEN.get(step, ())]
        adam.update(p, updated)
        for group in updated:
            ref_t[group] += 1
            t = ref_t[group]
            for n in p.groups[group]:   # the per-tensor formula
                g = grads[n]
                ref_m[n] = adam.beta1 * ref_m[n] + (1 - adam.beta1) * g
                ref_v[n] = adam.beta2 * ref_v[n] + (1 - adam.beta2) * g * g
                m_hat = ref_m[n] / (1 - adam.beta1 ** t)
                v_hat = ref_v[n] / (1 - adam.beta2 ** t)
                ref_p[n] -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)
        assert all(np.array_equal(t.grad, grads[n]) for n, t in p.tensors.items())
    assert adam.t == ref_t and adam.t["dec.0"] == 5 and adam.t["embed"] == 5
    assert adam.t["label_attn"] == 5 and adam.t["enc.0"] == 6
    m, v = (Parameters.over(p.config, 2, vec) for vec in adam.moments)
    for n in p.tensors:
        assert np.array_equal(p[n].data, ref_p[n]), n
        assert np.array_equal(m[n].data, ref_m[n]), n
        assert np.array_equal(v[n].data, ref_v[n]), n


def test_adam_in_place_step_matches_the_group_formula_across_a_relayout():
    # the step runs over runs of adjacent groups in two work vectors; it must
    # equal the plain per-group expression with temporaries, operation for
    # operation, also for a new Adam over the layout that reinit_channels makes
    p = tiny_params(k=2, seed=3)
    adam = Adam(p, lr=2e-3)
    ref = {"m": {}, "v": {}, "t": {}}
    rng = np.random.default_rng(4)

    def reference_step(group, g):
        adam_t = ref["t"][group] = ref["t"].get(group, 0) + 1
        m = ref["m"][group] = ref["m"].get(group, np.zeros_like(g)) * adam.beta1 \
            + (1 - adam.beta1) * g
        v = ref["v"][group] = ref["v"].get(group, np.zeros_like(g)) * adam.beta2 \
            + (1 - adam.beta2) * g * g
        step = m / (1 - adam.beta1 ** adam_t) * adam.lr
        denom = np.sqrt(v / (1 - adam.beta2 ** adam_t)) + adam.eps
        return step / denom

    for step in range(6):
        if step == 3:   # the new layout gets a new Adam, as finetune makes
            p.reinit_channels(3, np.random.default_rng(5))
            adam = Adam(p, lr=2e-3)
            ref = {"m": {}, "v": {}, "t": {}}
        for group, s in p.slices.items():
            p.grad[s] = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.vector[s].size)
        updated = [g for g in p.groups if g not in FROZEN.get(step, ())]
        before = {g: p.vector[s].copy() for g, s in p.slices.items()}
        expected = {g: p.vector[p.slices[g]] - reference_step(g, p.grad[p.slices[g]])
                    for g in updated}
        adam.update(p, updated)
        for group, s in p.slices.items():
            want = expected.get(group, before[group])
            assert np.array_equal(p.vector[s], want), (step, group)
            assert np.array_equal(adam.moments[0][s], ref["m"][group]), (step, group)
            assert np.array_equal(adam.moments[1][s], ref["v"][group]), (step, group)
    assert adam.t == {g: ref["t"].get(g, 0) for g in p.groups}


def test_parameter_views_share_the_group_vectors():
    p = tiny_params()
    assert list(p.tensors) == [n for names in p.groups.values() for n in names]
    for group, names in p.groups.items():
        s = p.slices[group]
        assert sum(p[n].size for n in names) == p.vector[s].size == p.grad[s].size
        for n in names:
            assert np.shares_memory(p[n].data, p.vector[s])
            assert np.shares_memory(p[n].grad, p.grad[s])
    batch = make_batch([[3, 4, 5]], [[3, 6, 7]], [[1, 2]])
    with Tape():
        logits = forward(p, batch)
        backward(logits, T.loss(logits, [_cells(3, 2)])[1])
    grads = p.grads()
    for group, names in p.groups.items():
        assert np.array_equal(grads[group], p.grad[p.slices[group]])
        assert np.shares_memory(grads[group], p.grad)
        np.testing.assert_array_equal(
            grads[group], np.concatenate([p[n].grad.reshape(-1) for n in names]))
    assert grads["enc.0"].any() and grads["score"].any()
    p.zero_grads()
    assert not any(vec.any() for vec in p.grads().values())


# --- end-to-end training ------------------------------------------------


def small_run(size=12, seed=3):
    datasets = make_synth("aligned_pair", size, seed)
    templates = [t for _, ts in datasets for t in ts]
    vocab = build_vocab([ds for ds, _ in datasets], extra_texts=templates)
    cfg = ModelConfig(d=8, layers_enc=1, layers_dec=1, heads=2, max_len=16,
                      max_instr_len=24, vocab_size=len(vocab))
    pool = build_pool([ds for ds, _ in datasets], {ds.id: ts for ds, ts in datasets},
                      vocab, cfg.max_instr_len)
    k = datasets[0][0].label_space.num_channels
    params = Parameters(cfg, k, rng_for(seed, "init"))
    return [ds for ds, _ in datasets], vocab, pool, params


def test_pretrain_runs_and_reports():
    (a, b, target), vocab, pool, params = small_run()
    cfg = TrainConfig(batch_size=4, pretrain_epochs=1)
    state = TrainState.fresh(params, cfg.lr)
    result = T.pretrain(state, [a, b], pool, vocab, cfg, seed=3)
    assert state.step == 6  # 2 datasets * ceil(12/4)
    assert len(result.step_reports) == 6
    assert result.step_reports[0].gated
    assert {m["dataset"] for m in result.epoch_metrics} == {a.id, b.id}
    assert all(set(r.decisions) == set(params.groups) for r in result.step_reports)


def test_pretrain_requires_two_sources():
    (a, _b, _t), vocab, pool, params = small_run()
    cfg = TrainConfig(batch_size=4)
    with pytest.raises(ValueError):
        T.pretrain(TrainState.fresh(params, cfg.lr), [a], pool, vocab, cfg, seed=0)


def test_training_deterministic_per_seed():
    runs = []
    for _ in range(2):
        (a, b, _t), vocab, pool, params = small_run()
        cfg = TrainConfig(batch_size=4, pretrain_epochs=1)
        state = TrainState.fresh(params, cfg.lr)
        result = T.pretrain(state, [a, b], pool, vocab, cfg, seed=3, eval_dev=False)
        runs.append((state.params.vector.copy(),
                     [(r.dataset_id, r.loss_value) for r in result.step_reports]))
    v1, r1 = runs[0]
    v2, r2 = runs[1]
    assert r1 == r2
    assert np.array_equal(v1, v2)


def test_fixed_batch_loss_decreases_with_gate_off():
    (a, _b, _t), vocab, pool, params = small_run(size=4)
    cfg = TrainConfig(batch_size=4, finetune_epochs=20, lr=1e-3)
    state = TrainState.fresh(params, cfg.lr)
    result = T.finetune(state, a, pool, vocab, cfg, seed=5, eval_dev=False)
    losses = [r.loss_value for r in result.step_reports[:20]]
    assert len(losses) == 20
    non_monotone = sum(1 for i in range(1, 20) if losses[i] > losses[i - 1] + 1e-12)
    assert non_monotone <= 2
    assert losses[-1] < losses[0]


def test_finetune_keeps_best_dev_params():
    (a, _b, target), vocab, pool, params = small_run(size=8)
    cfg = TrainConfig(batch_size=4, finetune_epochs=3)
    state = TrainState.fresh(params, cfg.lr)
    result = T.finetune(state, target, pool, vocab, cfg, seed=7)
    assert result.best_dev_f1 is not None
    best = max(m["dev_f1"] for m in result.epoch_metrics)
    assert result.best_dev_f1 == pytest.approx(best)


def test_skip_rate_helper():
    reports = [
        T.StepReport(0, "a", 1.0, True, {"g1": {"dot": None, "updated": True}}),
        T.StepReport(1, "a", 1.0, True, {"g1": {"dot": -1.0, "updated": False}}),
        T.StepReport(2, "a", 1.0, True, {"g1": {"dot": 2.0, "updated": True}}),
    ]
    assert T.skip_rate(reports) == pytest.approx(0.5)
