"""Tests for the benchmark's own helpers.

    python -m pytest bench/tests
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Probes, Tracer, summarize  # noqa: E402
from tie import codec, evaluate, synth  # noqa: E402
from tie.trainer import StepReport  # noqa: E402


# --- percentiles -------------------------------------------------------------

def test_percentile_interpolates_like_numpy():
    values = list(np.random.default_rng(0).random(250))
    for q in (0.5, 0.9, 0.95):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q * 100))


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.min_samples(0.9) == 100
    assert stats.min_samples(0.99) == 1000
    assert stats.min_samples(0.5) == 1
    stats.percentile(range(100), 0.9)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(99), 0.9)
    with pytest.raises(stats.TooFewSamples):
        stats.median([])
    assert stats.median([3.0]) == 3.0


def test_rate_weighs_every_sample_by_its_time():
    assert stats.rate([4, 4, 4, 4], [1.0, 1.0, 1.0, 5.0]) == 2.0
    with pytest.raises(stats.TooFewSamples):
        stats.rate([], [])
    with pytest.raises(ValueError):
        stats.rate([1], [])


# --- spans ---------------------------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # a[0,10] { b[2,5] { c[3,4] }  d[6,8] }
    tracer = Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 8, 10]))
    a = tracer.open("a")
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.records += 7
    tracer.close(c)
    tracer.close(b)
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(a)
    totals = summarize(tracer.spans)
    assert {n: t.self_s for n, t in totals.items()} == {"a": 5, "b": 2, "c": 1, "d": 2}
    assert {n: t.total_s for n, t in totals.items()} == {"a": 10, "b": 3, "c": 1, "d": 2}
    assert totals["a"].records == totals["c"].records == 7
    assert totals["d"].records == 0
    kept = summarize(tracer.spans, keep=[False, True, False, False])
    assert list(kept) == ["b"] and kept["b"].self_s == 2


def test_repeated_names_accumulate():
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4]))
    for _ in range(2):
        tracer.close(tracer.open("x"))
    totals = summarize(tracer.spans)
    assert totals["x"].calls == 2 and totals["x"].total_s == 2


def test_contexts_and_coverage():
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    root = tracer.open(layers.TRAIN_ROOT)          # [0, 10]
    fwd = tracer.open("model.forward")             # [1, 4]
    tracer.close(fwd)
    ev = tracer.open("evaluate.evaluate_split")    # [5, 9] dev eval, excluded
    inner = tracer.open("model.forward")           # [6, 7]
    tracer.close(inner)
    tracer.close(ev)
    tracer.close(root)
    ctx = layers.contexts(tracer.spans)
    assert ctx == ["train", "train", "infer", "infer"]
    # One step interval [0, 10]; it took 10 - 4 (eval) = 6 s, of which the
    # forward covers 3 s.
    assert layers.coverage(tracer.spans, ctx, [(0, 10)], 6.0) == pytest.approx(0.5)
    # A span outside every step interval (set-up before the first step, a
    # save after the last) does not count.
    assert layers.coverage(tracer.spans, ctx, [(4.5, 10)], 5.5) == 0.0


# --- probes --------------------------------------------------------------------

def test_probe_binds_every_alias_and_restores():
    original = codec.decode
    tracer = Tracer()
    with Probes() as probes:
        assert probes.install("codec.decode", lambda fn: tracer.wrap("codec.decode", fn))
        assert codec.decode is not original
        assert evaluate.decode is codec.decode     # the name evaluate imported
    assert codec.decode is original and evaluate.decode is original


def test_missing_boundary_is_absent_not_an_error():
    with Probes() as probes:
        assert not probes.install("model.no_such_layer", lambda fn: fn)
        assert not probes.install("nosuchmodule.f", lambda fn: fn)
        assert not probes.install("model.Parameters.no_such_method", lambda fn: fn)
        assert probes.absent == ["model.no_such_layer", "nosuchmodule.f",
                                 "model.Parameters.no_such_method"]


def test_absent_boundary_drops_only_its_metrics():
    rec = workloads.Record(step_inst=[4], step_s=[1.0])
    metrics, missing = layers.layer_metrics(
        Tracer(), Tracer(), rec, 1.0, ["model.biaffine_score"], BENCH.parent / "src" / "tie")
    assert missing == ["model.biaffine_score.ms_per_inst",
                       "model.biaffine_score.records_per_inst"]
    assert "model.encode_sentence.ms_per_inst" in metrics
    assert metrics["trace.absent_boundaries"][0] == 1


def test_step_clock_excludes_evaluation():
    clock = workloads.StepClock(clock=FakeClock([0.0, 3.0, 5.0]))
    clock.begin()                 # t = 0
    clock.exclude(1.0)
    clock.step()                  # t = 3: 3 - 1 excluded
    clock.step()                  # t = 5
    assert clock.times == [2.0, 2.0]
    assert clock.intervals == [(0.0, 3.0), (3.0, 5.0)]


def test_a_calls_first_step_is_not_timed():
    clock = workloads.StepClock(clock=FakeClock([0.0, 4.0, 5.0]))
    clock.begin()                 # t = 0: the previous call's last interval
    clock.start_call()            # a new call encodes its data first...
    clock.step()                  # t = 4: ...so its first step opens the timing
    clock.step()                  # t = 5
    assert clock.times == [1.0]


def _steps(n):
    class Result:
        step_reports = [StepReport(step=i, dataset_id="d", loss_value=0.5, gated=False,
                                   decisions={}) for i in range(n)]
    return Result()


def test_without_the_step_probe_no_step_is_timed():
    rec = workloads.Record(setup=[(1.0, 1.0)])
    rec.train(lambda: _steps(4), batch=3)
    assert rec.step_s == [] and rec.failed == 0 and rec.losses == [[0.5] * 4]
    metrics, missing = run.end_to_end_metrics(rec)
    assert missing == ["train.inst_per_s", "train.step_ms.p50", "train.step_ms.p90",
                       "eval.inst_per_s", "decode.inst_per_s"]
    assert set(metrics) == {"setup_s", "peak_rss_mb", "ok_frac"}


def fixed_reference(*seconds):
    return reference.HostScale(reference=FakeClock(seconds))


def test_samples_and_references_between_steps_are_not_step_time():
    rec = workloads.Record(clock=workloads.StepClock(clock=FakeClock([0, 1, 1, 2, 5, 6, 6])),
                           host=fixed_reference(*[reference.NOMINAL_S] * 9))
    rec.sampler, rec.sample_every = (lambda: None), 2
    rec.host.ref()
    rec.clock.begin()             # t = 0
    rec.after_step()              # t = 1
    rec.after_step()              # t = 2, then a sample until t = 5
    rec.after_step()              # t = 6
    assert rec.clock.times == [1, 1, 1]
    assert rec.step_scaled == [1, 1, 1] and len(rec.host.samples) == 4


# --- host-speed scaling ----------------------------------------------------------

def test_an_event_is_scaled_by_the_references_on_both_sides():
    nominal = reference.NOMINAL_S
    host = fixed_reference(nominal, 3 * nominal, 2 * nominal)
    host.ref()
    assert host.scaled(4.0) == pytest.approx(2.0)     # the reference ran 2x slow
    assert host.scaled(5.0) == pytest.approx(2.0)     # ... then 2.5x
    assert host.samples == [nominal, 3 * nominal, 2 * nominal]


def test_reference_is_the_mean_of_its_repeats_with_the_collector_off():
    seen = []
    ticks = iter([0.0, 6.0])

    def clock():
        seen.append(gc.isenabled())
        return next(ticks)

    assert reference.reference_s(clock=clock) == 6.0 / reference._REPEATS
    assert seen == [False, False] and gc.isenabled()


# --- generators ----------------------------------------------------------------

def test_same_seed_same_instances(tmp_path):
    for name in ("short_pretrain", "long_pretrain", "cli_infer"):
        setup = workloads.WORKLOADS[name].setup
        a = setup(5, tmp_path / "a").fingerprint
        b = setup(5, tmp_path / "b").fingerprint
        c = setup(6, tmp_path / "c").fingerprint
        assert a == b != c, name


def test_long_instances_spread_over_64_to_128_tokens_with_8_channels(tmp_path):
    inputs = workloads.long_setup(3, tmp_path)
    sources = inputs.items["sources"]
    assert len({ds.id for ds in sources}) == 2
    pools = {"Animal": synth.ANIMALS, "Color": synth.COLORS, "City": synth.CITIES,
             "Person": synth.PERSONS, "Org": synth.ORGS, "Place": synth.PLACES}
    lengths = []
    for ds in sources:
        assert ds.label_space.num_channels == 8
        for inst in ds.splits.train + ds.splits.dev + ds.splits.test:
            lengths.append(len(inst.tokens))
            for m in inst.entities:      # re-indexed spans still cover their cue words
                assert all(t in pools[m.type] for t in inst.tokens[m.start:m.end + 1])
            for lk in inst.links:
                (s, _), s_type = inst.resolve(lk.subject)
                (o, _), o_type = inst.resolve(lk.object)
                assert (lk.type, s_type) in (("Works_At", "Person"), ("Based_In", "Org"))
                assert o_type == {"Works_At": "Org", "Based_In": "Place"}[lk.type]
            assert codec.encode(inst, ds.label_space).collisions == 0
    assert min(lengths) >= 64 and max(lengths) <= 128
    assert min(lengths) < 80 and max(lengths) > 112
    assert inputs.items["cfg"].max_len >= max(lengths)


# --- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why

    rec = workloads.Record(setup=[(1.0, 1.0)], step_inst=[4] * 100, step_s=[1.0] * 100,
                           step_scaled=[1.0] * 100, eval=[(4, 1.0, 1.0)] * 3,
                           decode=[(4, 1.0, 1.0)] * 3, attempted=1)
    e2e, missing = run.end_to_end_metrics(rec)
    assert missing == []
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]

    per_layer, missing = layers.layer_metrics(Tracer(), Tracer(), rec, 1.0, [],
                                              BENCH.parent / "src" / "tie")
    assert missing == []
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in per_layer.items()]
