#!/usr/bin/env python3
"""Benchmark entry point: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload short_pretrain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout. With ``--trace 0`` the run sets up at least seven times, then
runs the workload in a closed loop of whole rounds for at least
``--seconds`` with only step-boundary probes installed, and reports the
end-to-end metrics as medians over every sample of the run, each scaled
by the host's speed around it (see ``reference``). With
``--trace 1`` it runs the workload once untraced and then traced, and
reports the per-layer metrics.
The last line of standard output is the JSON result; earlier lines hold the
host record and a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import stats
from layers import layer_metrics
from spans import Probes, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
SETUP_REPEATS = (7, 25)  # set-ups per run: at least, at most...
SETUP_SECONDS = 3.0      # ...going on past the least until this much time


def import_program():
    """Pin BLAS threads, then import ``tie`` from this checkout's ``src/``;
    None if it is not there. numpy must not have been imported before."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["TIE_LOG"] = "warn"
    sys.path.insert(0, str(SRC))
    try:
        import tie
    except ImportError:
        return None
    if not Path(tie.__file__).resolve().is_relative_to(SRC):
        return None
    return tie


# --- probes ----------------------------------------------------------------

def install_step_probes(probes, rec):
    """Step boundaries for the end-to-end step times, in every run."""
    clock = rec.clock

    def after_step(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.after_step()
            return result
        return wrapper

    def excluded(fn):
        def wrapper(*args, **kwargs):
            t0 = clock.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.exclude(clock.clock() - t0)
        return wrapper

    clock.hooked = probes.install("trainer.gated_step", after_step)
    probes.install("evaluate.evaluate_split", excluded)


# Layer boundaries wrapped in spans in the traced run.
LAYER_SPANS = (
    "synth.make_synth", "data.build_vocab", "data.load_manifest",
    "instructions.parse_template", "codec.encode", "codec.decode",
    "model.forward", "model.encode_sentence", "model.decode_instruction",
    "model.gather_slots", "model.label_attention", "model.biaffine_score",
    "model.Parameters.grads", "model.Parameters.zero_grads",
    "autodiff.backward", "trainer.loss", "trainer.gated_step",
    "evaluate.evaluate_split", "evaluate.predict_split", "metrics.task_metric",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "cli.cmd_eval", "cli.cmd_decode",
)
RECORD_COUNTER = "autodiff.Tape.record"


def install_layer_probes(probes, tracer):
    def count(key, measure):
        def on_result(result):
            tracer.counts[key] = tracer.counts.get(key, 0) + measure(result)
        return on_result

    observers = {
        "codec.decode": count("codec.decode.structures",
                              lambda p: len(p.entities) + len(p.links)),
        "evaluate.predict_split": count("evaluate.predict_split.instances", len),
    }
    for target in LAYER_SPANS:
        probes.install(target, lambda fn, t=target: tracer.wrap(t, fn, observers.get(t)))
    probes.install(RECORD_COUNTER, tracer.counting)


# --- running ---------------------------------------------------------------

def run_rounds(workload, inputs, rec, state, seconds: float):
    """Closed loop: whole rounds until ``seconds`` have passed, at least
    one. A round that raises ends the loop. Returns the seconds of each
    round."""
    start = time.perf_counter()
    took = []
    while True:
        t0 = time.perf_counter()
        try:
            state = workload.round(inputs, rec, state)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rec.check("round_completed", False, traceback.format_exc(limit=1))
            break
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            break
    return took


def end_to_end(workload, seed: int, seconds: float, work: Path):
    from workloads import Record

    rec, prints = Record(), []
    least, most = SETUP_REPEATS
    while len(rec.setup) < least or (sum(s for s, _ in rec.setup) < SETUP_SECONDS
                                     and len(rec.setup) < most):
        rec.host.ref()
        t0 = time.perf_counter()
        inputs = workload.setup(seed, work)
        took = time.perf_counter() - t0
        rec.setup.append((took, rec.host.scaled(took)))
        prints.append(inputs.fingerprint)
    rec.check("setup_deterministic", len(set(prints)) == 1)
    with Probes() as probes:
        install_step_probes(probes, rec)
        state = workload.prepare(inputs, rec)
        rounds = run_rounds(workload, inputs, rec, state, seconds)

    metrics, missing = end_to_end_metrics(rec)
    wall, _ = end_to_end_metrics(rec, scaled=False)
    summary = {
        "rounds": len(rounds),
        "wall_clock": {name: value for name, (value, _) in wall.items()},
        "reference_ms.p50": 1000.0 * stats.median(rec.host.samples),
        "samples": {"setup": len(rec.setup), "train.step": len(rec.step_s),
                    "eval": len(rec.eval), "decode": len(rec.decode)},
        "failed_frac": rec.failed / rec.attempted,
        "headline_f1": rec.headline_f1[0] if rec.headline_f1 else None,
        "train.loss_final": rec.loss_final[0] if rec.loss_final else None,
        "absent_boundaries": probes.absent,
        "absent_metrics": missing,
        "failures": rec.failures,
    }
    return rec, metrics, summary


def end_to_end_metrics(rec, scaled: bool = True) -> tuple[dict, list]:
    """({name: (value, unit)}, [absent metric names]) for one run.

    Every timing is an order statistic over all of the run's samples of its
    kind, of their times scaled by the host's speed (see ``reference``) or,
    with ``scaled`` false, of their wall-clock times.
    ``train.step_ms.p90`` needs 100 steps (see ``stats``). A metric without
    enough samples (no timed step, say, because the step boundary is gone,
    or a round that failed early) is left out and named.
    """
    pick = 1 if scaled else 0
    setup = [s[pick] for s in rec.setup]
    step_s = rec.step_scaled if scaled else rec.step_s

    def rate(samples):
        return stats.median([s[0] / s[1 + pick] for s in samples])

    table = [
        ("setup_s", "s", lambda: stats.median(setup)),
        ("train.inst_per_s", "1/s", lambda: stats.rate(rec.step_inst, step_s)),
        ("train.step_ms.p50", "ms", lambda: 1000.0 * stats.median(step_s)),
        ("train.step_ms.p90", "ms", lambda: 1000.0 * stats.percentile(step_s, 0.9)),
        ("eval.inst_per_s", "1/s", lambda: rate(rec.eval)),
        ("decode.inst_per_s", "1/s", lambda: rate(rec.decode)),
        ("peak_rss_mb", "MB", peak_rss_mb),
        ("ok_frac", "ratio", lambda: (rec.attempted - rec.failed) / rec.attempted),
    ]
    metrics, missing = {}, []
    for name, unit, value in table:
        try:
            metrics[name] = (value(), unit)
        except stats.TooFewSamples:
            missing.append(name)
    return metrics, missing


def traced(workload, seed: int, seconds: float, work: Path):
    from workloads import Record

    setup_tracer = Tracer()
    with Probes() as probes:
        install_layer_probes(probes, setup_tracer)
        inputs = workload.setup(seed, work)

    plain = Record()
    with Probes() as probes:
        install_step_probes(probes, plain)
        state = workload.prepare(inputs, plain)
        prepared = len(plain.losses)
        plain_rounds = run_rounds(workload, inputs, plain, state, 0.0)

    tracer = Tracer()
    rec = Record(tracer=tracer)
    with Probes() as probes:
        install_layer_probes(probes, tracer)
        install_step_probes(probes, rec)
        absent = list(probes.absent)
        rounds = run_rounds(workload, inputs, rec, state, seconds)
    plain_losses = plain.losses[prepared:]
    if any(plain_losses):
        rec.check("traced_losses_equal_untraced",
                  rec.losses[:len(plain_losses)] == plain_losses)
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.failures += plain.failures

    overhead = stats.median(plain_rounds) / stats.median(rounds) if rounds else 0.0
    metrics, missing = layer_metrics(tracer, setup_tracer, rec, overhead, absent,
                                     SRC / "tie")
    summary = {"rounds": len(rounds), "absent_boundaries": absent,
               "absent_metrics": missing, "failures": rec.failures}
    return rec, metrics, summary


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_program() is None:
        print(f"error: cannot import the tie package from {SRC}", file=sys.stderr)
        return 2
    from host import host_record
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({"host": host_record(BLAS_THREADS)}, sort_keys=True), flush=True)

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure = traced if args.trace else end_to_end
        rec, metrics, summary = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while another run uses it
            work.parent.rmdir()

    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               **summary}
    print(json.dumps({"summary": summary}, sort_keys=True), flush=True)
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
