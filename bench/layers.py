"""Per-layer metrics derived from the spans of a traced run.

Spans under a training call (``bench.train``) and outside dev evaluation
form the training context; per-instance and per-step figures there are
divided by the instances and steps the benchmark itself scheduled, so they
stay comparable when the program changes how it batches. A metric whose
boundary is absent from the program is left out and named instead.
"""

from __future__ import annotations

import bisect
from pathlib import Path

from spans import summarize

TRAIN_ROOT = "bench.train"
# Spans that start an inference context wherever they are called from.
INFER_ROOTS = ("evaluate.evaluate_split", "evaluate.predict_split",
               "cli.cmd_eval", "cli.cmd_decode")
FORWARD_LAYERS = ("encode_sentence", "decode_instruction", "gather_slots",
                  "label_attention", "biaffine_score")


def contexts(spans) -> list[str]:
    """'train', 'infer' or 'other' for every span, inherited from parents."""
    out = []
    for s in spans:
        if s.name == TRAIN_ROOT:
            ctx = "train"
        elif s.name in INFER_ROOTS:
            ctx = "infer"
        elif s.parent is not None:
            ctx = out[s.parent]
        else:
            ctx = "other"
        out.append(ctx)
    return out


def coverage(spans, ctx, intervals, step_seconds: float) -> float:
    """Share of training step wall time covered by layer spans: the summed
    durations of the top-level spans of training calls that lie inside a
    step interval, over the summed step times. Dev evaluation is left out of
    both."""
    inside = sorted(intervals)
    covered = 0.0
    for s, c in zip(spans, ctx):
        if c != "train" or s.parent is None or spans[s.parent].name != TRAIN_ROOT:
            continue
        i = bisect.bisect_right(inside, (s.start, float("inf"))) - 1
        if i >= 0 and s.end <= inside[i][1]:
            covered += s.end - s.start
    return covered / step_seconds if step_seconds else 0.0


def src_lines(src_dir: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(Path(src_dir).rglob("*.py")))


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(tracer, setup_tracer, rec, overhead, absent, src_dir):
    """({name: (value, unit)}, [absent metric names])."""
    spans = tracer.spans
    ctx = contexts(spans)
    train = summarize(spans, [c == "train" for c in ctx])
    measured = summarize(spans)
    setup = summarize(setup_tracer.spans)
    inst = sum(rec.step_inst)
    steps = len(rec.step_s)

    def ms(totals, name, field="total_s"):
        t = totals.get(name)
        return 1000.0 * getattr(t, field) if t else 0.0

    def calls(totals, name):
        t = totals.get(name)
        return t.calls if t else 0

    def records(totals, name):
        t = totals.get(name)
        return t.records if t else 0

    table = []   # (name, unit, boundaries it needs, value thunk)
    for layer in FORWARD_LAYERS:
        span = f"model.{layer}"
        table.append((f"{span}.ms_per_inst", "ms", (span,),
                      lambda s=span: _per(ms(train, s), inst)))
        table.append((f"{span}.records_per_inst", "count", (span, "autodiff.Tape.record"),
                      lambda s=span: _per(records(train, s), inst)))
    table += [
        ("model.forward.self_ms_per_inst", "ms", ("model.forward",),
         lambda: _per(ms(train, "model.forward", "self_s"), inst)),
        ("autodiff.records_per_inst", "count", ("autodiff.Tape.record",),
         lambda: _per(records(train, TRAIN_ROOT), inst)),
        ("autodiff.backward.ms_per_step", "ms", ("autodiff.backward",),
         lambda: _per(ms(train, "autodiff.backward"), steps)),
        ("model.Parameters.grads.ms_per_step", "ms", ("model.Parameters.grads",),
         lambda: _per(ms(train, "model.Parameters.grads"), steps)),
        ("model.Parameters.zero_grads.ms_per_step", "ms", ("model.Parameters.zero_grads",),
         lambda: _per(ms(train, "model.Parameters.zero_grads"), steps)),
        ("trainer.gated_step.ms_per_step", "ms", ("trainer.gated_step",),
         lambda: _per(ms(train, "trainer.gated_step"), steps)),
        ("trainer.loss.ms_per_inst", "ms", ("trainer.loss",),
         lambda: _per(ms(train, "trainer.loss"), inst)),
        ("evaluate.predict_split.ms_per_inst", "ms", ("evaluate.predict_split",),
         lambda: _per(ms(measured, "evaluate.predict_split"),
                      tracer.counts.get("evaluate.predict_split.instances", 0))),
        ("codec.decode.ms_per_inst", "ms", ("codec.decode",),
         lambda: _per(ms(measured, "codec.decode"), calls(measured, "codec.decode"))),
        ("codec.decode.structures_per_inst", "count", ("codec.decode",),
         lambda: _per(tracer.counts.get("codec.decode.structures", 0),
                      calls(measured, "codec.decode"))),
        ("metrics.task_metric.ms_per_call", "ms", ("metrics.task_metric",),
         lambda: _per(ms(measured, "metrics.task_metric"),
                      calls(measured, "metrics.task_metric"))),
        ("checkpoint.load_checkpoint.ms", "ms", ("checkpoint.load_checkpoint",),
         lambda: _per(ms(measured, "checkpoint.load_checkpoint"),
                      calls(measured, "checkpoint.load_checkpoint"))),
        ("checkpoint.save_checkpoint.ms", "ms", ("checkpoint.save_checkpoint",),
         lambda: _per(ms(measured, "checkpoint.save_checkpoint"),
                      calls(measured, "checkpoint.save_checkpoint"))),
        ("checkpoint.bytes", "B", (), lambda: rec.checkpoint_bytes),
        ("data.load_manifest.ms", "ms", ("data.load_manifest",),
         lambda: _per(ms(measured, "data.load_manifest"),
                      calls(measured, "data.load_manifest"))),
        ("cli.eval.self_ms", "ms", ("cli.cmd_eval",),
         lambda: _per(ms(measured, "cli.cmd_eval", "self_s"), calls(measured, "cli.cmd_eval"))),
        ("cli.decode.self_ms", "ms", ("cli.cmd_decode",),
         lambda: _per(ms(measured, "cli.cmd_decode", "self_s"),
                      calls(measured, "cli.cmd_decode"))),
        ("synth.make_synth.ms", "ms", ("synth.make_synth",),
         lambda: ms(setup, "synth.make_synth")),
        ("data.build_vocab.ms", "ms", ("data.build_vocab",),
         lambda: ms(setup, "data.build_vocab")),
        ("instructions.parse_template.ms", "ms", ("instructions.parse_template",),
         lambda: ms(setup, "instructions.parse_template")),
        ("codec.encode.ms_per_inst", "ms", ("codec.encode",),
         lambda: _per(ms(setup, "codec.encode") + ms(measured, "codec.encode"),
                      calls(setup, "codec.encode") + calls(measured, "codec.encode"))),
        ("trainer.gate.update_ratio", "ratio", (),
         lambda: _per(rec.gate_updated, rec.gate_considered)),
        ("trainer.gate.considered", "count", (), lambda: rec.gate_considered),
        ("train.steps", "count", (), lambda: steps),
        ("headline_f1", "ratio", (),
         lambda: rec.headline_f1[0] if rec.headline_f1 else 0.0),
        ("train.loss_final", "nats", (),
         lambda: rec.loss_final[0] if rec.loss_final else 0.0),
        ("trace.coverage", "ratio", (),
         lambda: coverage(spans, ctx, rec.clock.intervals, sum(rec.step_s))),
        ("trace.overhead", "ratio", (), lambda: overhead),
        ("trace.absent_boundaries", "count", (), lambda: len(absent)),
        ("code.src_lines", "count", (), lambda: src_lines(src_dir)),
    ]

    values, missing = {}, []
    for name, unit, needs, value in table:
        if any(b in absent for b in needs):
            missing.append(name)
        else:
            values[name] = (float(value()), unit)
    return values, missing

