import json
import math
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from tie.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from tie.data import build_vocab
from tie.instructions import build_pool
from tie.model import ModelConfig, Parameters
from tie.synth import make_synth
from tie import trainer as T
from tie.trainer import TrainConfig, TrainState, rng_for


def fixture(size=12, seed=4):
    datasets = make_synth("aligned_pair", size, seed)
    templates = [t for _, ts in datasets for t in ts]
    vocab = build_vocab([ds for ds, _ in datasets], extra_texts=templates)
    cfg = ModelConfig(d=8, layers_enc=1, layers_dec=1, heads=2, max_len=16,
                      max_instr_len=24, vocab_size=len(vocab))
    pool = build_pool([ds for ds, _ in datasets], {ds.id: ts for ds, ts in datasets},
                      vocab, cfg.max_instr_len)
    k = datasets[0][0].label_space.num_channels
    params = Parameters(cfg, k, rng_for(seed, "init"))
    return [ds for ds, _ in datasets], vocab, pool, params, cfg, k


def named(params, vector):
    """Views of ``vector``, laid out like ``params.vector``, by tensor name."""
    over = Parameters.over(params.config, params.num_channels, vector)
    return {name: t.data for name, t in over.tensors.items()}


def run_pretrain(steps, tmp_path, resume_at=None):
    (a, b, _t), vocab, pool, params, cfg, k = fixture()
    tcfg = TrainConfig(batch_size=4, pretrain_epochs=10, pretrain_max_steps=steps)
    state = TrainState.fresh(params, tcfg.lr)
    if resume_at is not None:
        first = TrainConfig(batch_size=4, pretrain_epochs=10, pretrain_max_steps=resume_at)
        T.pretrain(state, [a, b], pool, vocab, first, seed=4, eval_dev=False)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, Checkpoint(config=cfg, num_channels=k, seed=4,
                                         step=state.step, vocab=vocab, state=state))
        loaded = load_checkpoint(path)
        state = loaded.state
        assert state.step == resume_at
        # parameters, moments and snapshot are views of one buffer, the
        # file as read
        vectors = [state.params.vector, *state.optimizer.moments, state.snapshot]
        views = [vec[s] for vec in vectors for s in state.params.slices.values()]
        assert len(views) == 4 * len(state.params.groups)
        buffer = vectors[0].base
        assert all(vec.base is buffer and np.shares_memory(vec, buffer)
                   for vec in vectors + views)
        assert sum(vec.nbytes for vec in vectors) < buffer.nbytes < path.stat().st_size + 8
    T.pretrain(state, [a, b], pool, vocab, tcfg, seed=4, eval_dev=False)
    return state


def test_roundtrip_preserves_everything(tmp_path):
    (a, b, _t), vocab, pool, params, cfg, k = fixture()
    tcfg = TrainConfig(batch_size=4, pretrain_epochs=1)
    state = TrainState.fresh(params, tcfg.lr)
    T.pretrain(state, [a, b], pool, vocab, tcfg, seed=4, eval_dev=False)

    path = tmp_path / "x.ckpt"
    ckpt = Checkpoint(config=cfg, num_channels=k, seed=4, step=state.step,
                      vocab=vocab, state=state)
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)

    assert loaded.config == cfg
    assert loaded.num_channels == k
    assert loaded.step == state.step
    assert loaded.vocab.id_to_token == vocab.id_to_token
    for name, t in state.params.tensors.items():
        assert np.array_equal(loaded.state.params.tensors[name].data, t.data)
    for s in state.params.slices.values():
        for mine, theirs in zip(loaded.state.optimizer.moments, state.optimizer.moments):
            assert np.array_equal(mine[s], theirs[s])
    assert loaded.state.optimizer.t == state.optimizer.t
    assert loaded.state.snapshot.shape == state.snapshot.shape
    for s in state.params.slices.values():
        assert np.array_equal(loaded.state.snapshot[s], state.snapshot[s])


def test_save_load_save_is_byte_identical(tmp_path):
    (a, b, _t), vocab, pool, params, cfg, k = fixture()
    tcfg = TrainConfig(batch_size=4, pretrain_epochs=1)
    state = TrainState.fresh(params, tcfg.lr)
    T.pretrain(state, [a, b], pool, vocab, tcfg, seed=4, eval_dev=False)

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt = Checkpoint(config=cfg, num_channels=k, seed=4, step=state.step,
                      vocab=vocab, state=state)
    save_checkpoint(p1, ckpt)
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, Checkpoint(config=loaded.config, num_channels=loaded.num_channels,
                                   seed=loaded.seed, step=loaded.step,
                                   vocab=loaded.vocab, state=loaded.state))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_streams_the_payload(tmp_path):
    # the vectors go to the file as they are held: saving allocates a small
    # fraction of the payload, not a joined copy of it
    (a, b, _t), vocab, pool, _, _, k = fixture()
    cfg = ModelConfig(d=64, heads=2, max_len=16, max_instr_len=24, vocab_size=len(vocab))
    params = Parameters(cfg, k, rng_for(4, "init"))
    state = TrainState.fresh(params, 1e-3)
    params.grad[...] = np.random.default_rng(4).normal(size=params.grad.shape)
    T.gated_step(state)
    assert state.snapshot is not None
    payload = 4 * params.vector.nbytes
    path = tmp_path / "x.ckpt"
    ckpt = Checkpoint(config=cfg, num_channels=k, seed=4, step=1, vocab=vocab,
                      state=state, phase="pretrain")
    tracemalloc.start()
    try:
        save_checkpoint(path, ckpt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < payload / 10, (peak, payload)
    loaded = load_checkpoint(path)
    for mine, theirs in zip((params.vector, *state.optimizer.moments, state.snapshot),
                            (loaded.state.params.vector, *loaded.state.optimizer.moments,
                             loaded.state.snapshot)):
        assert np.array_equal(mine, theirs)


def test_resume_matches_uninterrupted_run(tmp_path):
    direct = run_pretrain(51, tmp_path)
    resumed = run_pretrain(51, tmp_path, resume_at=50)
    assert direct.step == resumed.step == 51
    for name, t in direct.params.tensors.items():
        assert np.array_equal(t.data, resumed.params.tensors[name].data), name
    for s in direct.params.slices.values():
        for mine, theirs in zip(direct.optimizer.moments, resumed.optimizer.moments):
            assert np.array_equal(mine[s], theirs[s])
    assert direct.optimizer.t == resumed.optimizer.t


def test_checkpoint_after_retarget_resaves_and_resumes(tmp_path):
    (a, b, _t), vocab, _pool, params, cfg, k = fixture()
    pretrained = TrainState.fresh(params, 1e-3)
    T.pretrain(pretrained, [a, b], _pool, vocab, TrainConfig(batch_size=4, pretrain_epochs=1),
               seed=4, eval_dev=False)
    (target, templates), (other, other_templates) = (make_synth(kind, 12, 4)[0]
                                                     for kind in ("re", "absa"))
    pool = build_pool([target, other], {target.id: templates, other.id: other_templates},
                      vocab, cfg.max_instr_len)
    k_target = target.label_space.num_channels
    assert k_target != k and other.label_space.num_channels == k_target
    params.reinit_channels(k_target, rng_for(4, "reinit"))
    ft = TrainConfig(batch_size=4, finetune_epochs=1, finetune_max_steps=2)
    state = T.finetune(pretrained, target, pool, vocab, ft, seed=4, eval_dev=False).state
    # finetuning starts a fresh optimizer, laid out for the new channel count
    assert state.optimizer is not pretrained.optimizer
    assert state.optimizer.t == dict.fromkeys(params.groups, 2)
    assert all(vec.shape == params.vector.shape for vec in state.optimizer.moments)

    first, again = tmp_path / "ft.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(first, Checkpoint(config=cfg, num_channels=k_target, seed=4,
                                      step=state.step, vocab=vocab, state=state))
    loaded = load_checkpoint(first)
    save_checkpoint(again, loaded)
    assert again.read_bytes() == first.read_bytes()

    # a pretrain resume continues the loaded optimizer exactly as the saved one
    pre = TrainConfig(batch_size=4, pretrain_epochs=1)
    runs = [T.pretrain(s, [target, other], pool, vocab, pre, seed=5, eval_dev=False)
            for s in (state, loaded.state)]
    direct, resumed = (run.state for run in runs)
    assert runs[0].step_reports
    assert [r.loss_value for r in runs[0].step_reports] == \
        [r.loss_value for r in runs[1].step_reports]
    assert np.array_equal(direct.params.vector, resumed.params.vector)
    for mine, theirs in zip(direct.optimizer.moments, resumed.optimizer.moments):
        assert np.array_equal(mine, theirs)
    assert direct.optimizer.t == resumed.optimizer.t
    assert np.array_equal(direct.snapshot, resumed.snapshot)


# A TIE1 file written by an earlier version of this code: synth aligned_pair
# (size 4, seed 5), ModelConfig(d=4, heads=2, max_len=12, max_instr_len=20,
# ffn_mult=1), two gated pretraining steps of batch 2 at seed 5.
TWO_GATED_STEPS = Path(__file__).parent / "fixtures" / "two_gated_steps.ckpt"


def test_committed_checkpoint_loads_its_bytes_and_resaves_them(tmp_path):
    raw = TWO_GATED_STEPS.read_bytes()
    header, payload = _split_header(raw)
    stored = {e["name"]: np.frombuffer(payload, dtype="<f8", count=math.prod(e["dims"]),
                                       offset=e["offset"]).reshape(e["dims"])
              for e in header["manifest"]}
    loaded = load_checkpoint(TWO_GATED_STEPS)
    state = loaded.state
    params, optimizer = state.params, state.optimizer
    assert loaded.step == 2 and set(optimizer.t.values()) == {2}
    found = {f"{key}/{n}": view
             for key, vec in (("param", params.vector), ("adam.m", optimizer.moments[0]),
                              ("adam.v", optimizer.moments[1]))
             for n, view in named(params, vec).items()}
    for group, s in params.slices.items():
        found[f"snapshot/{group}"] = state.snapshot[s]
        assert state.snapshot[s].any(), group
        for key, vec in (("param", params.vector), ("adam.m", optimizer.moments[0]),
                         ("adam.v", optimizer.moments[1])):
            assert vec[s].any(), (key, group)   # two steps made the moments non-zero
    assert found.keys() == stored.keys()
    for name, arr in found.items():
        assert np.array_equal(arr, stored[name]), name
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded)
    assert again.read_bytes() == raw


@pytest.mark.parametrize("key,value", [("eps", math.inf), ("lr", math.inf),
                                       ("beta1", math.nan), ("beta2", -math.inf)])
def test_non_finite_adam_setting_is_rejected(tmp_path, key, value):
    # JSON headers may spell these Infinity and NaN; an infinite eps would
    # make every later Adam step zero
    raw = TWO_GATED_STEPS.read_bytes()
    header, _ = _split_header(raw)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(raw, {**header, "adam": {**header["adam"], key: value}}))
    with pytest.raises(CheckpointError, match="Adam settings must be finite"):
        load_checkpoint(bad)


def test_other_adam_constant_is_rejected(tmp_path):
    # beta1, beta2 and eps are Adam's constants: a file that stores another
    # value, even one in range, would train on under settings it did not have
    raw = TWO_GATED_STEPS.read_bytes()
    header, _ = _split_header(raw)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(raw, {**header, "adam": {**header["adam"], "beta1": 0.8}}))
    with pytest.raises(CheckpointError, match=r"= \(0\.9, 0\.999, 1e-08\): .* beta1=0\.8 "):
        load_checkpoint(bad)


@pytest.mark.parametrize("phase", ["pretrained", "", None, 1, ["finetune"]])
def test_unknown_phase_is_rejected(tmp_path, phase):
    raw = TWO_GATED_STEPS.read_bytes()
    header, _ = _split_header(raw)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(raw, {**header, "phase": phase}))
    with pytest.raises(CheckpointError, match="header field 'phase' must be one of"):
        load_checkpoint(bad)
    # a known phase loads, and re-saves with it
    good = tmp_path / "good.ckpt"
    good.write_bytes(_with_header(raw, {**header, "phase": "finetune"}))
    loaded = load_checkpoint(good)
    assert loaded.phase == "finetune"
    save_checkpoint(tmp_path / "again.ckpt", loaded)
    assert (tmp_path / "again.ckpt").read_bytes() == good.read_bytes()


@pytest.mark.parametrize("change,named", [({"heads": 0}, "heads: must be >= 1"),
                                          ({"dropout": 1.0}, "dropout: must be in"),
                                          ({"d": 30, "heads": 4}, "d: must be a multiple")])
def test_out_of_range_model_config_is_rejected_by_path(tmp_path, change, named):
    raw = TWO_GATED_STEPS.read_bytes()
    header, _ = _split_header(raw)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(raw, {**header,
                                       "model_config": {**header["model_config"], **change}}))
    with pytest.raises(CheckpointError, match=f"model_config.{named}"):
        load_checkpoint(bad)


def test_crc_mismatch_detected(tmp_path):
    (a, b, _t), vocab, pool, params, cfg, k = fixture()
    state = TrainState.fresh(params, 1e-3)
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, Checkpoint(config=cfg, num_channels=k, seed=0, step=0,
                                     vocab=vocab, state=state))
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_state_before_its_first_step_roundtrips_and_then_steps_ungated(tmp_path):
    (_a, _b, _t), vocab, _pool, params, cfg, k = fixture()
    first, again = tmp_path / "fresh.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(first, Checkpoint(config=cfg, num_channels=k, seed=4, step=0,
                                      vocab=vocab, state=TrainState.fresh(params, 1e-3)))
    loaded = load_checkpoint(first)
    save_checkpoint(again, loaded)
    assert again.read_bytes() == first.read_bytes()
    header, _ = _split_header(first.read_bytes())
    assert not [e for e in header["manifest"] if e["name"].startswith("snapshot/")]
    state = loaded.state
    assert state.snapshot is None and state.step == 0
    state.params.grad[...] = 1.0
    before = state.params.vector.copy()
    decisions = T.gated_step(state)
    assert set(decisions) == set(state.params.groups)
    assert all(d == {"dot": None, "updated": True} for d in decisions.values())
    for s in state.params.slices.values():
        assert not np.array_equal(state.params.vector[s], before[s])
    assert np.array_equal(state.snapshot, state.params.grad)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def _split_header(raw: bytes):
    (header_len,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + header_len]), raw[12 + header_len:]


def _with_header(raw: bytes, header) -> bytes:
    """The same file with its JSON header replaced; payload and CRC kept."""
    _, rest = _split_header(raw)
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(body)) + body + rest


def _file(header, payload: bytes) -> bytes:
    """A TIE1 file of this header and payload, with the payload's CRC."""
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return (b"TIE1" + struct.pack("<II", 1, len(body)) + body + payload
            + struct.pack("<I", zlib.crc32(payload)))


def _unseen_faults(header, payload):
    """{label: (header, payload, error match)}: header faults that a CRC over
    the payload cannot see."""
    manifest, tokens, cfg = header["manifest"], header["vocab"], header["model_config"]
    names = [e["name"] for e in manifest]
    g, b = names.index("param/enc.0.ln1.g"), names.index("param/enc.0.ln1.b")
    swapped = [dict(e) for e in manifest]
    swapped[g]["name"], swapped[b]["name"] = names[b], names[g]
    junk = {"name": "junk/x", "dtype": "f8", "dims": [2], "offset": len(payload)}
    return {
        "swapped names": ({**header, "manifest": swapped}, payload,
                          f"manifest entry {g} .*param/enc.0.ln1.b"),
        "extra tensor": ({**header, "manifest": manifest + [junk]}, payload + bytes(16),
                         "junk/x"),
        "extra entry key": ({**header, "manifest": [{**manifest[0], "note": 1}] + manifest[1:]},
                            payload, "manifest entry 0 .*note"),
        "vocab 5 short": ({**header, "vocab": tokens[:-5]}, payload,
                          "vocab has 60 ids .*vocab_size is 65"),
        "vocab 5 long": ({**header, "vocab": tokens + [f"extra{i}" for i in range(5)]}, payload,
                         "vocab has 70 ids .*vocab_size is 65"),
        # 10**14 rows of d=4 floats are 2.84 PiB, past the address space, so
        # an allocation of them is refused at once
        "vocab_size 1e14": ({**header, "model_config": {**cfg, "vocab_size": 10**14}}, payload,
                            "vocab has 65 ids .*vocab_size is 100000000000000"),
        "max_len 1e14": ({**header, "model_config": {**cfg, "max_len": 10**14}}, payload,
                         r"manifest entry 1 .*param/embed.pos_x.*\[100000000000000, 4\]"),
        # the label-attention residual is always on
        "residual_label_attn false": (
            {**header, "model_config": {**cfg, "residual_label_attn": False}}, payload,
            "model_config.residual_label_attn must be true, got false"),
    }


@pytest.mark.parametrize("label", ["swapped names", "extra tensor", "extra entry key",
                                   "vocab 5 short", "vocab 5 long", "vocab_size 1e14",
                                   "max_len 1e14", "residual_label_attn false"])
def test_header_fault_under_a_valid_crc_is_rejected(tmp_path, label):
    raw = TWO_GATED_STEPS.read_bytes()
    header, rest = _split_header(raw)
    assert _file(header, rest[:-4]) == raw
    mutant, payload, match = _unseen_faults(header, rest[:-4])[label]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_file(mutant, payload))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(bad)


def test_large_model_config_is_rejected_before_anything_is_allocated(tmp_path):
    # a 2,000,000-row position table is 64 MB of parameters, and three times
    # that with the moments; the manifest check comes first
    raw = TWO_GATED_STEPS.read_bytes()
    header, _ = _split_header(raw)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(raw, {**header, "model_config": {**header["model_config"],
                                                                  "max_len": 2_000_000}}))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=r"manifest entry 1 .*2000000, 4\]"):
            load_checkpoint(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def _header_mutants(header, rng):
    """(label, mutated header) pairs: deleted keys, null or wrong-typed
    values, dropped or damaged manifest entries, non-object headers."""
    wrong = [None, "x", [], {}, -1, 0, 1.5, True]
    adam_keys = list(header["adam"])
    for key in list(header):
        yield f"del {key}", {k: v for k, v in header.items() if k != key}
        for value in wrong:
            yield f"{key}={value!r}", {**header, key: value}
    for key in adam_keys:
        yield f"del adam.{key}", {**header, "adam": {k: v for k, v in header["adam"].items()
                                                      if k != key}}
        for value in wrong:
            yield f"adam.{key}={value!r}", {**header, "adam": {**header["adam"], key: value}}
    for group in header["adam"]["t"]:
        t = {g: v for g, v in header["adam"]["t"].items() if g != group}
        yield f"del adam.t.{group}", {**header, "adam": {**header["adam"], "t": t}}
    for key in header["model_config"]:
        cfg = {k: v for k, v in header["model_config"].items() if k != key}
        yield f"del model_config.{key}", {**header, "model_config": cfg}
        value = wrong[int(rng.integers(len(wrong)))]
        yield (f"model_config.{key}={value!r}",
               {**header, "model_config": {**header["model_config"], key: value}})
    manifest = header["manifest"]
    for i in rng.choice(len(manifest), size=40, replace=False):
        kept = manifest[:i] + manifest[i + 1:]
        yield f"drop {manifest[i]['name']}", {**header, "manifest": kept}
        field = ["name", "dims", "offset", "dtype"][int(rng.integers(4))]
        value = wrong[int(rng.integers(len(wrong)))]
        entry = {**manifest[i], field: value}
        yield (f"{manifest[i]['name']}.{field}={value!r}",
               {**header, "manifest": manifest[:i] + [entry] + manifest[i + 1:]})
    for value in wrong[:5]:
        yield f"header={value!r}", value


def test_non_finite_tensor_is_rejected_by_name(tmp_path):
    # the CRC covers the payload as written, NaNs included
    state = run_pretrain(2, tmp_path)
    (_a, _b, _t), vocab, _pool, _params, cfg, k = fixture()
    params = state.params
    targets = {"param/score.b": params["score.b"].data,
               "adam.m/enc.0.attn.wq": named(params, state.optimizer.moments[0])["enc.0.attn.wq"],
               "adam.v/dec.norm.g": named(params, state.optimizer.moments[1])["dec.norm.g"],
               "snapshot/score": state.snapshot[params.slices["score"]]}
    path = tmp_path / "x.ckpt"
    for name, arr in targets.items():
        for bad in (np.nan, np.inf):
            kept = arr.flat[0]
            arr.flat[0] = bad
            save_checkpoint(path, Checkpoint(config=cfg, num_channels=k, seed=4,
                                             step=state.step, vocab=vocab, state=state))
            arr.flat[0] = kept
            with pytest.raises(CheckpointError, match=f"tensor {name} holds NaN or Inf"):
                load_checkpoint(path)


def test_malformed_header_fuzz_loads_or_raises_checkpoint_error(tmp_path):
    (a, b, _t), vocab, pool, params, cfg, k = fixture()
    tcfg = TrainConfig(batch_size=4, pretrain_epochs=1, pretrain_max_steps=2)
    state = TrainState.fresh(params, tcfg.lr)
    T.pretrain(state, [a, b], pool, vocab, tcfg, seed=4, eval_dev=False)
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, Checkpoint(config=cfg, num_channels=k, seed=4, step=state.step,
                                     vocab=vocab, state=state))
    raw = path.read_bytes()
    header, _ = _split_header(raw)
    rng = np.random.default_rng(11)
    cases = list(_header_mutants(header, rng))
    cases += [(f"truncate to {n}", raw[:n])
              for n in sorted(rng.integers(0, len(raw), size=40))]

    outcomes = {"loaded": 0, "rejected": 0}
    bad = tmp_path / "bad.ckpt"
    for label, mutant in cases:
        bad.write_bytes(mutant if isinstance(mutant, bytes) else _with_header(raw, mutant))
        try:
            load_checkpoint(bad)
        except CheckpointError:
            outcomes["rejected"] += 1
        except Exception as exc:  # noqa: BLE001 - the assertion is that none escape
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
        else:
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0.5 * len(cases)
    # the named fault cases are rejected, not loaded
    for key in ("adam", "step", "seed", "vocab", "manifest", "num_channels"):
        bad.write_bytes(_with_header(raw, {k: v for k, v in header.items() if k != key}))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
    heads = {k: v for k, v in header["model_config"].items() if k != "heads"}
    bad.write_bytes(_with_header(raw, {**header, "model_config": heads}))
    with pytest.raises(CheckpointError, match="model_config"):
        load_checkpoint(bad)
    bad.write_bytes(_with_header(raw, {**header, "step": None}))
    with pytest.raises(CheckpointError, match="step"):
        load_checkpoint(bad)
    # type-wrong values that a lenient reader would coerce: the channel count
    # read as k, lr as 1.0 and a 2-head model loaded as a 1-head one
    assert header["num_channels"] == k and header["model_config"]["heads"] == 2
    for label, mutant in (
            ("num_channels", {**header, "num_channels": str(k)}),
            ("num_channels", {**header, "num_channels": k + 0.9}),
            ("Adam settings", {**header, "adam": {**header["adam"], "lr": True}}),
            ("model_config.heads", {**header, "model_config": {**header["model_config"],
                                                                "heads": True}})):
        bad.write_bytes(_with_header(raw, mutant))
        with pytest.raises(CheckpointError, match=label):
            load_checkpoint(bad)
    dropped = [e for e in header["manifest"] if not e["name"].startswith("adam.m/")]
    bad.write_bytes(_with_header(raw, {**header, "manifest": dropped}))
    with pytest.raises(CheckpointError, match="adam.m/"):
        load_checkpoint(bad)
    # an offset off the running one would read another tensor's bytes
    moved = [dict(e) for e in header["manifest"]]
    moved[3]["offset"] = 0
    bad.write_bytes(_with_header(raw, {**header, "manifest": moved}))
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(bad)
    bad.write_bytes(_with_header(raw, {**header, "manifest": header["manifest"][:-1]}))
    with pytest.raises(CheckpointError, match="covers"):
        load_checkpoint(bad)
    bad.write_bytes(_with_header(raw, {**header, "format_version": 2}))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(bad)
    # a snapshot missing one group would make the gate skip its dot once
    dropped = [e for e in header["manifest"] if e["name"] != "snapshot/enc.0"]
    assert len(dropped) == len(header["manifest"]) - 1
    bad.write_bytes(_with_header(raw, {**header, "manifest": dropped}))
    with pytest.raises(CheckpointError, match="snapshot"):
        load_checkpoint(bad)
