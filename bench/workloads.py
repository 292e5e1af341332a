"""Seeded workloads: input generators and the closed-loop work they run.

Each workload turns ``--seed`` into generated inputs (its set-up) and then
runs fixed rounds of work on them in a closed loop: the next round starts
only when the previous one has returned. The program sees only the generated
inputs. Every call into ``tie`` goes through a module attribute
(``trainer.pretrain(...)``), so probes installed on those attributes see it.

A shared host runs faster and slower for seconds at a time, so every run
spreads its samples over the whole measured time and the metrics are
medians over all of them: training workloads score and decode a chunk every
few steps (from a hook at the step boundary, with the time taken out of the
step times), and ``cli_infer`` alternates its eval and decode calls. Each
timed event also keeps its time scaled by the host's speed around it (see
``reference``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import HostScale
from tie import checkpoint, cli, data, evaluate, instructions, metrics, model, synth, trainer

# --- workload shapes -------------------------------------------------------

# short_pretrain: the toy shape of the paper's pipeline.
SHORT = dict(train_size=1600, d=32, heads=4, batch=16, lr=3e-3,
             pretrain_steps=100, finetune_steps=100, chunk=16, sample_every=6)
# long_pretrain: 64-128 token sentences over an 8-channel RE label space.
# Sampling starts once the first steps have pushed the logits down; at
# initialisation about half of all cells decode as structures.
LONG = dict(train_size=48, eval_size=32, min_len=64, max_len=128, d=64, heads=4,
            batch=4, lr=1e-3, pretrain_steps=40, chunk=4, sample_every=5,
            sample_after=25)
# cli_infer: a checkpoint on synth RE, trained once before the measured loop
# of CLI eval and decode calls on it. Its steps give the workload's training
# figures; at batch 16 the slow steps (about one in four, from periodic
# garbage collection) lie clear of the p90, which batch 8 put on its edge.
CLI = dict(train_size=600, d=32, heads=4, batch=16, lr=3e-3, base_steps=250)

LOSS_WINDOW = 20
TAU = 0.5
NEVER = 10**9   # epoch counts; runs are bounded by their max_steps instead

LONG_ENTITY_TYPES = ["Animal", "Color", "City", "Person", "Org", "Place"]
LONG_RELATION_TYPES = ["Works_At", "Based_In"]
LONG_TEMPLATES = [
    "Identify the {Animal}, {Color}, {City}, {Person}, {Org} and {Place} "
    "entities and the {Works_At} and {Based_In} relations between them.",
    "Find all {Animal}, {Color}, {City}, {Person}, {Org}, {Place} mentions, "
    "then mark {Works_At}, {Based_In} pairs.",
    "Mark every {Animal}, {Color}, {City}, {Person}, {Org} and {Place} span "
    "and connect them with {Works_At} and {Based_In} links.",
    "Locate entities of kind {Animal}, {Color}, {City}, {Person}, {Org}, "
    "{Place} plus their {Works_At}, {Based_In} relations.",
    "Extract each {Animal}, {Color}, {City}, {Person}, {Org} and {Place} "
    "mention and each {Works_At} and {Based_In} relation.",
]


# --- measurement records ---------------------------------------------------

class StepClock:
    """Per-step wall times, taken at each return of ``trainer.gated_step``.

    A step interval runs from one return to the next, so a training call's
    first step is not timed: its interval would also hold the call's own
    preparation (encoding the training set). Time spent in ``evaluate_split``
    during a step interval (dev eval inside ``finetune``) is excluded from
    that interval. ``intervals`` keeps each step's (start, end) for the
    trace's coverage.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.hooked = False     # set when the gated_step probe is installed
        self._mark = None
        self._excluded = 0.0

    def start_call(self):
        """A training call starts; its first step return opens an interval."""
        self._mark = None

    def begin(self):
        """Open a step interval now."""
        self._mark = self.clock()
        self._excluded = 0.0

    def step(self):
        now = self.clock()
        if self._mark is not None:
            self.times.append(now - self._mark - self._excluded)
            self.intervals.append((self._mark, now))
        self._mark = now
        self._excluded = 0.0

    def exclude(self, seconds: float):
        self._excluded += seconds


@dataclass
class Record:
    """What one measured pass observed."""

    tracer: object = None       # spans.Tracer in the traced run
    clock: StepClock = field(default_factory=StepClock)
    sampler: object = None      # called every few steps while training
    sample_every: int = 0
    sample_after: int = 0
    host: HostScale = field(default_factory=HostScale)
    setup: list = field(default_factory=list)       # (seconds, scaled) per set-up
    step_inst: list = field(default_factory=list)   # instances per step
    step_s: list = field(default_factory=list)      # seconds per step
    step_scaled: list = field(default_factory=list)     # scaled seconds per step
    eval: list = field(default_factory=list)        # (instances, seconds, scaled) per call
    decode: list = field(default_factory=list)      # (instances, seconds, scaled) per call
    losses: list = field(default_factory=list)      # per training call
    headline_f1: list = field(default_factory=list)
    loss_final: list = field(default_factory=list)
    gate_updated: int = 0
    gate_considered: int = 0
    checkpoint_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    _call_steps: int = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def after_step(self):
        """Called at each return of ``trainer.gated_step``. The next step
        is timed from after the reference sample and the eval and decode
        sample taken here."""
        timed = len(self.clock.times)
        self.clock.step()
        if len(self.clock.times) > timed:
            self.step_scaled.append(self.host.scaled(self.clock.times[-1]))
        else:
            self.host.ref()
        self._call_steps += 1
        n = self._call_steps
        if self.sampler and n >= self.sample_after and n % self.sample_every == 0:
            self.sampler()
        self.clock.begin()

    def train(self, call, batch: int):
        """Run one training call (returning a ``TrainResult``) and record
        its steps. Without the gated_step probe no step is timed."""
        start = len(self.clock.times)
        self._call_steps = 0
        self.clock.start_call()
        if self.tracer is None:
            result = call()
        else:
            idx = self.tracer.open("bench.train")
            try:
                result = call()
            finally:
                self.tracer.close(idx)
        reports = [r.to_json() for r in result.step_reports]
        n = len(reports)
        times = self.clock.times[start:]
        if self.clock.hooked and len(times) != max(n - 1, 0):
            self.check("step_count", False, f"{len(times) + 1} step returns for {n} steps")
        self.step_s.extend(times)
        self.step_inst.extend([batch] * len(times))
        self.attempted += n
        self.losses.append([r["loss"] for r in reports])
        self.loss_final.append(float(np.mean([r["loss"] for r in reports[-LOSS_WINDOW:]]))
                               if reports else 0.0)
        for report in reports:
            if report["gated"]:
                for decision in report["groups"].values():
                    if decision["dot"] is not None:
                        self.gate_considered += 1
                        self.gate_updated += int(decision["updated"])
        return result


# --- generators ------------------------------------------------------------

def _pool(pairs, vocab, max_instr_len):
    pool = instructions.InstructionPool()
    for ds, templates in pairs:
        for t in templates:
            pool.add(instructions.parse_template(
                t, ds.label_space, vocab, dataset_id=ds.id, max_instr_len=max_instr_len))
    return pool


def _shift(inst, offset: int, ent_offset: int):
    ents = [data.Mention(m.type, m.start + offset, m.end + offset) for m in inst.entities]
    links = []
    for lk in inst.links:
        refs = [r + ent_offset if isinstance(r, int) else (r[0] + offset, r[1] + offset)
                for r in (lk.subject, lk.object)]
        links.append(data.Link(lk.type, *refs))
    return ents, links


def concat_instances(rng, pieces, length: int, dataset_id: str) -> data.Instance:
    """One sentence of exactly ``length`` tokens: random pieces laid end to
    end while they fit, spans and links re-indexed, then filler tokens."""
    tokens, entities, links = [], [], []
    while True:
        piece = pieces[int(rng.integers(len(pieces)))]
        if len(tokens) + len(piece.tokens) > length:
            break
        ents, lks = _shift(piece, len(tokens), len(entities))
        tokens.extend(piece.tokens)
        entities.extend(ents)
        links.extend(lks)
    while len(tokens) < length:
        tokens.append(synth.FILLER[int(rng.integers(len(synth.FILLER)))])
    return data.Instance(tokens=tokens, entities=entities, links=links,
                         dataset_id=dataset_id)


def spread_lengths(rng, count: int, lo: int, hi: int) -> list[int]:
    """``count`` lengths evenly spaced over [lo, hi], in random order.

    The same spread for every seed keeps the work per epoch from varying
    with the seed; only which sentence gets which length does.
    """
    grid = np.rint(np.linspace(lo, hi, count)).astype(int)
    return [int(n) for n in rng.permutation(grid)]


def long_dataset(seed: int, stream: int, dataset_id: str, train_size: int,
                 eval_size: int, min_len: int, max_len: int) -> data.Dataset:
    """Synth NER and RE instances concatenated into 64-128 token sentences
    over one 8-channel RE label space."""
    space = data.LabelSpace(LONG_ENTITY_TYPES, LONG_RELATION_TYPES)
    (ner, _), = synth.make_synth("ner", 200, seed * 16 + stream)
    (rel, _), = synth.make_synth("re", 200, seed * 16 + stream + 8)
    pieces = ner.splits.train + rel.splits.train
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, 0x10]))
    splits = {}
    for split, count in (("train", train_size), ("dev", eval_size), ("test", eval_size)):
        splits[split] = [concat_instances(rng, pieces, n, dataset_id)
                         for n in spread_lengths(rng, count, min_len, max_len)]
    return data.Dataset(id=dataset_id, task_kind="RE", label_space=space,
                        splits=data.Splits(**splits))


def fingerprint(datasets) -> str:
    """A digest of every generated instance, to compare set-ups."""
    h = hashlib.sha256()
    for ds in datasets:
        for split in ("train", "dev", "test"):
            for inst in getattr(ds.splits, split):
                h.update(json.dumps(synth.instance_to_json(inst), sort_keys=True).encode())
    return h.hexdigest()


# --- shared pieces of the measured work ------------------------------------

def _chunks(dataset, split: str, size: int):
    rows = getattr(dataset.splits, split)
    return [data.Dataset(id=dataset.id, task_kind=dataset.task_kind,
                         label_space=dataset.label_space,
                         splits=data.Splits(train=[], dev=[], test=rows[lo:lo + size]))
            for lo in range(0, len(rows), size)]


class InferSampler:
    """Scores and then decodes one chunk of a split per call, cycling over
    the chunks; each call is one eval and one decode timing sample."""

    def __init__(self, rec: Record, params, vocab, pool, dataset, split: str, chunk: int):
        self.rec = rec
        self.args = (params, vocab, pool)
        self.parts = _chunks(dataset, split, chunk)
        self.calls = 0

    def __call__(self):
        rec = self.rec
        part = self.parts[self.calls % len(self.parts)]
        self.calls += 1
        n = len(part.splits.test)
        t0 = time.perf_counter()
        reports, _ = evaluate.evaluate_split(*self.args, part, "test", TAU)
        seconds = time.perf_counter() - t0
        rec.eval.append((n, seconds, rec.host.scaled(seconds)))
        t0 = time.perf_counter()
        preds = evaluate.predict_split(*self.args, part, "test", TAU)
        seconds = time.perf_counter() - t0
        rec.decode.append((n, seconds, rec.host.scaled(seconds)))
        rec.attempted += 2 * n
        if len(preds) != n:
            rec.check("predict_count", False, f"{len(preds)} predictions for {n} instances")
        return reports

    def final_pass(self, task_kind: str):
        """One pass over every chunk; records the pooled headline F1."""
        self.calls = 0
        pooled = {}
        for _ in self.parts:
            self.rec.host.ref()
            for name, report in self().items():
                pooled.setdefault(name, metrics.ScoreReport(metric=name)).overall.add(
                    report.overall)
        self.rec.headline_f1.append(metrics.headline_f1(pooled, task_kind))


def checkpoint_roundtrip(rec: Record, path: Path, cfg, vocab, state, seed: int):
    """Save, load and save again: both files must be byte-identical."""
    ckpt = checkpoint.Checkpoint(config=cfg, num_channels=state.params.num_channels,
                                 seed=seed, step=state.step, vocab=vocab, state=state)
    checkpoint.save_checkpoint(path, ckpt)
    loaded = checkpoint.load_checkpoint(path)
    again = path.with_suffix(".again")
    checkpoint.save_checkpoint(again, loaded)
    first, second = path.read_bytes(), again.read_bytes()
    rec.checkpoint_bytes = len(first)
    rec.check("checkpoint_roundtrip", first == second,
              f"{len(first)} vs {len(second)} bytes")
    return loaded


# --- the workloads ---------------------------------------------------------

@dataclass
class Inputs:
    seed: int
    work: Path
    fingerprint: str
    items: dict


def short_setup(seed: int, work: Path) -> Inputs:
    p = SHORT
    made = synth.make_synth("aligned_pair", p["train_size"], seed)
    sources = [ds for ds, _ in made[:2]]
    target = made[2][0]
    vocab = data.build_vocab(sources, extra_texts=[t for _, ts in made for t in ts])
    cfg = model.ModelConfig(d=p["d"], heads=p["heads"], max_len=32, max_instr_len=32,
                            vocab_size=len(vocab))
    pool = _pool(made, vocab, cfg.max_instr_len)
    return Inputs(seed, work, fingerprint([ds for ds, _ in made]),
                  dict(sources=sources, target=target, vocab=vocab, cfg=cfg, pool=pool))


def short_round(inputs: Inputs, rec: Record, state):
    """Gated pretraining, best-dev finetuning, checkpoint round trip, test F1.
    Every round repeats the first one, and must reproduce its losses."""
    p, it, seed = SHORT, inputs.items, inputs.seed
    before = len(rec.losses)
    params = model.Parameters(it["cfg"], it["target"].label_space.num_channels,
                              trainer.rng_for(seed, "init"))
    sampler = InferSampler(rec, params, it["vocab"], it["pool"], it["target"], "test",
                           p["chunk"])
    rec.sampler, rec.sample_every, rec.sample_after = sampler, p["sample_every"], 0
    st = trainer.TrainState.fresh(params, p["lr"])
    pre = trainer.TrainConfig(batch_size=p["batch"], lr=p["lr"], pretrain_epochs=NEVER,
                              pretrain_max_steps=p["pretrain_steps"])
    rec.train(lambda: trainer.pretrain(st, it["sources"], it["pool"], it["vocab"], pre,
                                       seed, eval_dev=False), p["batch"])
    ft = trainer.TrainConfig(batch_size=p["batch"], lr=p["lr"], finetune_epochs=NEVER,
                             finetune_max_steps=p["finetune_steps"])
    result = rec.train(lambda: trainer.finetune(st, it["target"], it["pool"], it["vocab"],
                                                ft, seed), p["batch"])
    rec.sampler = None
    checkpoint_roundtrip(rec, inputs.work / "short.ckpt", it["cfg"], it["vocab"],
                         result.state, seed)
    sampler.final_pass(it["target"].task_kind)
    losses = rec.losses[before:]
    if state is not None:
        rec.check("rounds_deterministic", losses == state)
    return losses if state is None else state


def long_setup(seed: int, work: Path) -> Inputs:
    p = LONG
    sources = [long_dataset(seed, i, f"long-{tag}", p["train_size"], p["eval_size"],
                            p["min_len"], p["max_len"])
               for i, tag in enumerate("ab")]
    vocab = data.build_vocab(sources, extra_texts=LONG_TEMPLATES)
    cfg = model.ModelConfig(d=p["d"], heads=p["heads"], max_len=p["max_len"],
                            max_instr_len=48, vocab_size=len(vocab))
    pool = _pool([(ds, LONG_TEMPLATES) for ds in sources], vocab, cfg.max_instr_len)
    return Inputs(seed, work, fingerprint(sources),
                  dict(sources=sources, vocab=vocab, cfg=cfg, pool=pool))


def long_round(inputs: Inputs, rec: Record, state):
    """Forty more steps of gated pretraining on the long sources (rounds
    continue one run, so every round sees new batches), a checkpoint round
    trip and the dev F1."""
    p, it, seed = LONG, inputs.items, inputs.seed
    if state is None:
        params = model.Parameters(it["cfg"],
                                  len(LONG_ENTITY_TYPES) + len(LONG_RELATION_TYPES),
                                  trainer.rng_for(seed, "init"))
        state = trainer.TrainState.fresh(params, p["lr"])
        rec.sample_after = p["sample_after"]
    else:
        rec.sample_after = 0
    sampler = InferSampler(rec, state.params, it["vocab"], it["pool"], it["sources"][0],
                           "dev", p["chunk"])
    rec.sampler, rec.sample_every = sampler, p["sample_every"]
    pre = trainer.TrainConfig(batch_size=p["batch"], lr=p["lr"], pretrain_epochs=NEVER,
                              pretrain_max_steps=state.step + p["pretrain_steps"])
    rec.train(lambda: trainer.pretrain(state, it["sources"], it["pool"], it["vocab"], pre,
                                       seed, eval_dev=False), p["batch"])
    rec.sampler = None
    checkpoint_roundtrip(rec, inputs.work / "long.ckpt", it["cfg"], it["vocab"], state, seed)
    sampler.final_pass("RE")
    return state


def cli_setup(seed: int, work: Path) -> Inputs:
    p = CLI
    data_dir = work / "data"
    synth.write_synth(data_dir, "re", p["train_size"], seed)
    base = data_dir / "synth-re"
    target = data.load_manifest(base / "manifest.json", max_len=64)
    templates = json.loads((base / "instructions.json").read_text())["templates"]
    config = {
        "seed": seed,
        "out": str(work / "out"),
        "model": {"d": p["d"], "heads": p["heads"], "max_len": 64, "max_instr_len": 48},
        "train": {"lr": p["lr"], "batch_size": p["batch"], "threshold": TAU},
        "target": str(base / "manifest.json"),
        "instructions": [str(base / "instructions.json")],
    }
    config_path = work / "run.json"
    config_path.write_text(json.dumps(config, indent=2))
    return Inputs(seed, work, fingerprint([target]),
                  dict(target=target, templates=templates, config=config_path,
                       decode_input=base / "test.jsonl"))


def cli_base(inputs: Inputs, rec: Record) -> Path:
    """Train and save the checkpoint the CLI calls load. Its steps are the
    workload's training figures."""
    p, it, seed = CLI, inputs.items, inputs.seed
    target = it["target"]
    vocab = data.build_vocab([target], extra_texts=it["templates"])
    cfg = model.ModelConfig(d=p["d"], heads=p["heads"], max_len=64, max_instr_len=48,
                            vocab_size=len(vocab))
    pool = _pool([(target, it["templates"])], vocab, cfg.max_instr_len)
    params = model.Parameters(cfg, target.label_space.num_channels,
                              trainer.rng_for(seed, "init"))
    ft = trainer.TrainConfig(batch_size=p["batch"], lr=p["lr"], finetune_epochs=NEVER,
                             finetune_max_steps=p["base_steps"])
    state = trainer.TrainState.fresh(params, p["lr"])
    result = rec.train(lambda: trainer.finetune(state, target, pool, vocab, ft, seed,
                                                eval_dev=False), p["batch"])
    path = inputs.work / "base.ckpt"
    checkpoint_roundtrip(rec, path, cfg, vocab, result.state, seed)
    return path


def cli_references(inputs: Inputs, ckpt_path: Path) -> dict:
    """In-process results the CLI's outputs must equal, on one checkpoint."""
    it = inputs.items
    target = it["target"]
    loaded = checkpoint.load_checkpoint(ckpt_path)
    pool = _pool([(target, it["templates"])], loaded.vocab, loaded.config.max_instr_len)
    _, headline = evaluate.evaluate_split(loaded.state.params, loaded.vocab, pool,
                                          target, "test", TAU)
    preds = evaluate.predict_split(loaded.state.params, loaded.vocab, pool,
                                   target, "test", TAU)
    return dict(headline=headline, preds=[_pred_key(p) for p in preds])


def _pred_key(pred):
    ents = sorted((e.type, e.start, e.end, e.score) for e in pred.entities)
    links = sorted((l.type, tuple(l.subject), tuple(l.object), l.score) for l in pred.links)
    return ents, links


def _row_key(row):
    ents = sorted((e["type"], e["start"], e["end"], e["score"]) for e in row["entities"])
    links = sorted((l["type"], (l["subject"]["start"], l["subject"]["end"]),
                    (l["object"]["start"], l["object"]["end"]), l["score"])
                   for l in row["links"])
    return ents, links


def _cli(argv) -> tuple[int, float]:
    """``cli.main(argv)`` with its tables kept off our standard output."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, time.perf_counter() - t0


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def cli_prepare(inputs: Inputs, rec: Record) -> dict:
    """The checkpoint and the in-process results the CLI must match."""
    it = inputs.items
    base = cli_base(inputs, rec)
    return {"ref": cli_references(inputs, base), "n": len(it["target"].splits.test),
            "common": ["--config", str(it["config"]), "--checkpoint", str(base)]}


def cli_round(inputs: Inputs, rec: Record, state):
    """One ``tie eval`` and one ``tie decode`` on the checkpoint, each
    checked against the in-process references."""
    ref, out = state["ref"], inputs.work / "out"
    rec.host.ref()
    code, seconds = _cli(["eval", *state["common"], "--split", "test",
                          "--out", str(out / "eval")])
    scaled = rec.host.scaled(seconds)
    rec.attempted += 1
    rec.check("cli_eval_exit", code == 0, f"exit {code}")
    if code == 0:
        rec.eval.append((state["n"], seconds, scaled))
        got = json.loads((out / "eval" / "metrics.json").read_text())["headline_f1"]
        rec.headline_f1.append(got)
        rec.check("cli_eval_headline", got == ref["headline"],
                  f"{got!r} != {ref['headline']!r}")

    rec.host.ref()
    code, seconds = _cli(["decode", *state["common"], "--input",
                          str(inputs.items["decode_input"]), "--out", str(out / "decode")])
    scaled = rec.host.scaled(seconds)
    rec.attempted += 1
    rec.check("cli_decode_exit", code == 0, f"exit {code}")
    if code == 0:
        rows = _jsonl(out / "decode" / "predictions.jsonl")
        rec.decode.append((len(rows), seconds, scaled))
        rec.check("cli_decode_equals_predict_split",
                  [_row_key(r) for r in rows] == ref["preds"])
    return state


def no_prepare(inputs: Inputs, rec: Record):
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object       # (seed, work dir) -> Inputs; timed as setup_s
    round: object       # (inputs, record, state) -> state; one unit of the loop
    prepare: object = no_prepare    # (inputs, record) -> first state; untimed


# The why-sentence of each workload BENCHMARK.json gates is also its "why" there.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "short_pretrain",
            "Paper pipeline at toy shape (gated pretrain, best-dev finetune, test eval); "
            "bound by per-op framework overhead, forward dominates a step.",
            short_setup, short_round),
        Workload(
            "long_pretrain",
            "Gated pretraining on 64-128 token sentences, d=64, K=8; bound by numpy "
            "kernels (biaffine, backward) and memory, exposes padding waste.",
            long_setup, long_round),
        Workload(
            "cli_infer",
            "tie eval and tie decode through cli.main on a trained checkpoint; the "
            "forward-only path: codec decode, metrics, checkpoint and manifest loading.",
            cli_setup, cli_round, cli_prepare),
    )
}
