"""Command-line pipeline: pretrain, finetune, eval, decode, gradcheck, synth.

Configuration is one JSON document; a handful of flags override individual
fields and the effective merged config is echoed into the output directory,
alongside a manifest of every file the command produced. Every field is
type- and range-checked as the config is built; an error names its path
(``model.heads: must be >= 1, got 0``). Each command parses only the dataset
splits it reads: training reads train and dev, eval one split, decode none.
Logs are JSON lines on stderr (filtered by TIE_LOG = debug|info|warn);
human-readable tables go to stdout. Exit code 0 means the command completed;
2 means bad input or a run whose numbers went non-finite, reported as one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .autodiff import NonFiniteError
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import DataError, build_vocab, load_jsonl, load_manifest, read_text
from .evaluate import evaluate_split, predict_instances
from .gradcheck import run_gradcheck
from .instructions import InstructionError, build_pool, read_templates
from .model import ModelConfig, Parameters, at_least, check_fields
from .synth import SYNTH_KINDS, write_synth
from .trainer import TrainConfig, TrainResult, TrainState, rng_for
from . import trainer

__all__ = ["main", "RunConfig", "ConfigError"]

_LEVELS = {"debug": 0, "info": 1, "warn": 2}


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending field path."""


def _log_level() -> int:
    name = os.environ.get("TIE_LOG", "info").lower()
    return _LEVELS.get(name, 1)


def log(level: str, event: str, **fields):
    if _LEVELS[level] >= _log_level():
        line = {"level": level, "event": event, **fields}
        print(json.dumps(line, sort_keys=True), file=sys.stderr)


def _unknown_key(values: dict, cls):
    """The first key of ``values`` that names no field of the dataclass
    ``cls``, or None; a misspelt field would otherwise run with its default."""
    names = {f.name for f in fields(cls)}
    return next((key for key in values if key not in names), None)


@dataclass
class RunConfig:
    seed: int = field(metadata=at_least(0))
    out: str
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sources: list = field(default_factory=list)
    target: str | None = None
    instructions: list = field(default_factory=list)

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config: file not found: {path}")
        try:
            raw = json.loads(read_text(path, ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: malformed JSON ({exc.msg})") from None
        return cls.from_dict(raw, overrides or {}, base=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict, base: Path) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        for key in ("model", "train"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(f"{key}: must be a JSON object")
        if overrides.get("seed") is not None:
            raw["seed"] = overrides["seed"]
        if overrides.get("out") is not None:
            raw["out"] = overrides["out"]   # relative to the working directory
        elif isinstance(raw.get("out"), str):
            raw["out"] = str(base / raw["out"])
        if overrides.get("threshold") is not None:
            raw.setdefault("train", {})["threshold"] = overrides["threshold"]

        unknown = _unknown_key(raw, cls)
        if unknown is not None:
            raise ConfigError(f"config: unknown field {unknown!r}")
        if "seed" not in raw:
            raise ConfigError("seed: required field is missing")
        if "out" not in raw:
            raise ConfigError("out: required field is missing")
        sections = {}
        for key, section in (("model", ModelConfig), ("train", TrainConfig)):
            values = raw.get(key, {})
            unknown = _unknown_key(values, section)
            if unknown is not None:
                raise ConfigError(f"{key}.{unknown}: unknown field")
            try:
                sections[key] = section(**values)
            except ValueError as exc:
                raise ConfigError(f"{key}.{exc}") from None

        def resolve(where, p):
            if not isinstance(p, str):
                raise ConfigError(f"{where}: must be a path string, got {p!r}")
            p = Path(p) if Path(p).is_absolute() else base / p
            if not p.exists():
                raise ConfigError(f"{where}: path not found: {p}")
            return str(p)

        def resolve_list(key):
            paths = raw.get(key, [])
            if not isinstance(paths, list):
                raise ConfigError(f"{key}: must be a list of paths, got {paths!r}")
            return [resolve(f"{key}[{i}]", p) for i, p in enumerate(paths)]

        sources = resolve_list("sources")
        target = resolve("target", raw["target"]) if raw.get("target") else None
        instructions = resolve_list("instructions")
        try:
            return cls(seed=raw["seed"], out=raw["out"], **sections, sources=sources,
                       target=target, instructions=instructions)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def __post_init__(self):
        check_fields(self)

    def to_json(self) -> dict:
        return asdict(self)


class _OutDir:
    """Tracks produced files and writes the output manifest."""

    def __init__(self, out: str):
        self.base = Path(out)
        self.base.mkdir(parents=True, exist_ok=True)
        self.files: list[str] = []

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.base / name

    def write_json(self, name: str, obj) -> Path:
        p = self.path(name)
        p.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return p

    def write_jsonl(self, name: str, rows) -> Path:
        """One ``json.dumps(row, sort_keys=True)`` line per row, from one
        encoder, written at once."""
        p = self.path(name)
        encode = json.JSONEncoder(sort_keys=True).encode
        p.write_text("".join(encode(row) + "\n" for row in rows), encoding="utf-8")
        return p

    def finish(self):
        manifest = self.base / "files.json"
        manifest.write_text(
            json.dumps({"files": sorted(set(self.files))}, indent=2) + "\n",
            encoding="utf-8",
        )


def _load_datasets(paths, config: RunConfig):
    """The training datasets with their train and dev splits; no command
    that trains reads a test split."""
    return [load_manifest(p, max_len=config.model.max_len, splits=("train", "dev"))
            for p in paths]


def _shared_channels(datasets) -> int:
    ks = {ds.id: ds.label_space.num_channels for ds in datasets}
    if len(set(ks.values())) != 1:
        raise ConfigError(f"sources: datasets disagree on channel count: {ks}")
    return next(iter(ks.values()))


def _score_table(reports: dict) -> str:
    rows = []
    header = f"{'metric':<18} {'dataset':<16} {'P':>7} {'R':>7} {'F1':>7} {'TP':>5} {'FP':>5} {'FN':>5}"
    rows.append(header)
    rows.append("-" * len(header))
    for name, report in sorted(reports.items()):
        views = [("(all)", report.overall)] + sorted(report.per_dataset.items())
        for ds_id, c in views:
            rows.append(
                f"{name:<18} {ds_id:<16} {c.precision:7.4f} {c.recall:7.4f} "
                f"{c.f1:7.4f} {c.tp:5d} {c.fp:5d} {c.fn:5d}"
            )
    return "\n".join(rows)


def _fresh_start(config: RunConfig, datasets, templates: dict, num_channels: int):
    """Vocabulary and untrained state for a run without a checkpoint."""
    flat = [t for ts in templates.values() for t in ts]
    vocab = build_vocab(datasets, extra_texts=flat)
    params = Parameters(replace(config.model, vocab_size=len(vocab)), num_channels,
                        rng_for(config.seed, "init"))
    return vocab, TrainState.fresh(params, config.train.lr)


def _check_continues(config: RunConfig, ckpt: Checkpoint):
    """Raise ConfigError naming the first ``model`` field of ``config``
    (``vocab_size`` aside, as the vocabulary is the checkpoint's) that
    differs from the checkpoint's, which a run from ``ckpt`` would not use."""
    for f in fields(ModelConfig):
        want, have = getattr(config.model, f.name), getattr(ckpt.config, f.name)
        if f.name != "vocab_size" and want != have:
            raise ConfigError(f"model.{f.name}: checkpoint was built with {have!r}, "
                              f"config has {want!r}")


def _write_training(out: _OutDir, config: RunConfig, result: TrainResult, vocab,
                    phase: str) -> Path:
    """Step reports, epoch metrics, the checkpoint of ``phase`` and the
    echoed config."""
    out.write_jsonl("step_reports.jsonl", [r.to_json() for r in result.step_reports])
    out.write_jsonl("epoch_metrics.jsonl", result.epoch_metrics)
    ckpt_path = out.path({"pretrain": "pretrained.ckpt", "finetune": "finetuned.ckpt"}[phase])
    params = result.state.params
    save_checkpoint(ckpt_path, Checkpoint(
        config=params.config, num_channels=params.num_channels, seed=config.seed,
        step=result.state.step, vocab=vocab, state=result.state, phase=phase,
    ))
    out.write_json("config.json", config.to_json())
    out.finish()
    return ckpt_path


def cmd_pretrain(config: RunConfig, checkpoint_path: str | None) -> int:
    out = _OutDir(config.out)
    sources = _load_datasets(config.sources, config)
    if len(sources) < 2:
        raise ConfigError("sources: pretraining needs at least 2 source datasets")
    templates = read_templates(config.instructions)
    num_channels = _shared_channels(sources)

    if checkpoint_path:
        ckpt = load_checkpoint(checkpoint_path)
        if ckpt.phase == "finetune":
            # its step count is the finetune's: resuming the pretraining plan
            # there would skip that many of the plan's batches
            raise ConfigError(f"checkpoint: {checkpoint_path} was written by finetune; "
                              f"pretrain resumes only a pretraining checkpoint")
        if ckpt.phase is None:
            # written before checkpoints recorded their phase: it may be a
            # finetune's, whose step count would skip plan batches
            log("warn", "checkpoint_phase_unknown", path=str(checkpoint_path))
        if ckpt.seed != config.seed:
            raise ConfigError(
                f"seed: checkpoint was trained with seed {ckpt.seed}, config has {config.seed}"
            )
        if num_channels != ckpt.num_channels:
            raise ConfigError(f"sources: datasets have {num_channels} channels, "
                              f"checkpoint was built for {ckpt.num_channels}")
        _check_continues(config, ckpt)
        lr = ckpt.state.optimizer.lr
        if config.train.lr != lr:
            raise ConfigError(f"train.lr: the run continues the checkpoint's optimizer at lr "
                              f"{lr!r}, config has {config.train.lr!r}")
        vocab, state = ckpt.vocab, ckpt.state
        log("info", "resume", step=state.step)
    else:
        vocab, state = _fresh_start(config, sources, templates, num_channels)

    pool = build_pool(sources, templates, vocab, state.params.config.max_instr_len)
    result = trainer.pretrain(state, sources, pool, vocab, config.train, config.seed)
    ckpt_path = _write_training(out, config, result, vocab, "pretrain")
    log("info", "pretrain_done", steps=state.step,
        skip_rate=trainer.skip_rate(result.step_reports))
    print(f"pretrained {state.step} steps over {len(sources)} sources -> {ckpt_path}")
    return 0


def cmd_finetune(config: RunConfig, checkpoint_path: str | None) -> int:
    out = _OutDir(config.out)
    if not config.target:
        raise ConfigError("target: required for finetune")
    target = _load_datasets([config.target], config)[0]
    num_channels = target.label_space.num_channels
    templates = read_templates(config.instructions)

    if checkpoint_path:
        ckpt = load_checkpoint(checkpoint_path)
        _check_continues(config, ckpt)
        vocab, state = ckpt.vocab, ckpt.state
        if num_channels != ckpt.num_channels:
            log("info", "reinit_channels", old=ckpt.num_channels, new=num_channels)
            state.params.reinit_channels(num_channels, rng_for(config.seed, "reinit"))
    else:
        vocab, state = _fresh_start(config, [target], templates, num_channels)

    pool = build_pool([target], templates, vocab, state.params.config.max_instr_len)
    result = trainer.finetune(state, target, pool, vocab, config.train, config.seed)
    ckpt_path = _write_training(out, config, result, vocab, "finetune")
    best = result.best_dev_f1 if result.best_dev_f1 is not None else float("nan")
    log("info", "finetune_done", steps=result.state.step, best_dev_f1=best)
    print(f"finetuned on {target.id}: best dev F1 {best:.4f} -> {ckpt_path}")
    return 0


def _load_for_inference(config: RunConfig, checkpoint_path: str | None, splits):
    """The checkpoint, the target with only ``splits`` parsed, and its pool."""
    if not checkpoint_path:
        raise ConfigError("checkpoint: required for this command")
    if not Path(checkpoint_path).exists():
        raise ConfigError(f"checkpoint: file not found: {checkpoint_path}")
    if not config.target:
        raise ConfigError("target: required for this command")
    ckpt = load_checkpoint(checkpoint_path)
    target = load_manifest(config.target, max_len=ckpt.config.max_len, splits=splits)
    if target.label_space.num_channels != ckpt.num_channels:
        raise ConfigError(
            f"target: dataset has {target.label_space.num_channels} channels, "
            f"checkpoint was built for {ckpt.num_channels}"
        )
    pool = build_pool([target], read_templates(config.instructions), ckpt.vocab,
                      ckpt.config.max_instr_len)
    return ckpt, target, pool


def cmd_eval(config: RunConfig, checkpoint_path: str | None, split: str) -> int:
    out = _OutDir(config.out)
    ckpt, target, pool = _load_for_inference(config, checkpoint_path, (split,))
    reports, headline = evaluate_split(ckpt.state.params, ckpt.vocab, pool,
                                       target, split, config.train.threshold)
    out.write_json("metrics.json", {
        "dataset": target.id,
        "split": split,
        "threshold": config.train.threshold,
        "headline_f1": headline,
        "reports": {k: v.to_json() for k, v in reports.items()},
    })
    out.write_json("config.json", config.to_json())
    out.finish()
    print(_score_table(reports))
    print(f"headline F1: {headline:.4f}")
    return 0


def cmd_decode(config: RunConfig, checkpoint_path: str | None, input_path: str) -> int:
    out = _OutDir(config.out)
    ckpt, target, pool = _load_for_inference(config, checkpoint_path, ())
    if not Path(input_path).exists():
        raise ConfigError(f"input: file not found: {input_path}")
    instances, dropped = load_jsonl(input_path, target.label_space,
                                    dataset_id=target.id, max_len=ckpt.config.max_len)
    if dropped:
        log("warn", "dropped_long_sentences", count=dropped)
    preds = predict_instances(ckpt.state.params, ckpt.vocab, pool, target, instances,
                              config.train.threshold)
    rows = []
    for inst, pred in zip(instances, preds):
        rows.append({
            "tokens": inst.tokens,
            "entities": [
                {"type": e.type, "start": e.start, "end": e.end, "score": e.score}
                for e in pred.entities
            ],
            "links": [
                {"type": l.type,
                 "subject": {"start": l.subject[0], "end": l.subject[1]},
                 "object": {"start": l.object[0], "end": l.object[1]},
                 "score": l.score}
                for l in pred.links
            ],
        })
    out.write_jsonl("predictions.jsonl", rows)
    out.write_json("config.json", config.to_json())
    out.finish()
    print(f"decoded {len(rows)} instances -> {out.base / 'predictions.jsonl'}")
    return 0


def cmd_gradcheck(config: RunConfig) -> int:
    out = _OutDir(config.out)
    report = run_gradcheck(d=8, layers=1, heads=2, n_tokens=6, n_instr=10,
                           num_channels=5, seed=config.seed)
    out.write_json("gradcheck.json", report.to_json())
    out.write_json("config.json", config.to_json())
    out.finish()
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {status}: worst rel err {report.worst_rel_err:.3e} "
          f"({report.worst_tensor}) over {report.n_elements} parameters")
    return 0 if report.passed else 1


def cmd_synth(kind: str, size: int, seed: int, out_dir: str) -> int:
    # write_synth raises before it writes anything, so bad arguments leave no directory
    written = write_synth(out_dir, kind, size, seed)
    out = _OutDir(out_dir)
    for p in written:
        out.files.append(str(p.relative_to(out.base)))
    out.finish()
    print(f"wrote {len(written)} files for kind {kind!r} under {out.base}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and reused: building
    it takes ~0.8 ms (2-vCPU x86 host), a parse ~0.03 ms, and a process that
    calls ``main`` repeatedly would otherwise pay the build every time."""
    parser = argparse.ArgumentParser(
        prog="tie",
        description="Instruction-conditioned token-pair extraction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config, help="run config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--out", default=None, help="output directory override")

    p = sub.add_parser("pretrain", help="gated training over source datasets")
    common(p)
    p.add_argument("--checkpoint", default=None, help="resume from this checkpoint")

    p = sub.add_parser("finetune", help="plain training on the target dataset")
    common(p)
    p.add_argument("--checkpoint", default=None,
                   help="start from this checkpoint (omit for random init)")

    p = sub.add_parser("eval", help="score a checkpoint on a target split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")

    p = sub.add_parser("decode", help="emit predictions for a JSONL file")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="instances JSONL")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--size", type=int, default=100, help="training instances per dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.kind, args.size, args.seed, args.out)

        overrides = {"seed": args.seed, "threshold": args.threshold, "out": args.out}
        config = RunConfig.load(args.config, overrides)
        log("debug", "config_loaded", command=args.command, out=config.out)

        if args.command == "pretrain":
            return cmd_pretrain(config, args.checkpoint)
        if args.command == "finetune":
            return cmd_finetune(config, args.checkpoint)
        if args.command == "eval":
            return cmd_eval(config, args.checkpoint, args.split)
        if args.command == "decode":
            return cmd_decode(config, args.checkpoint, args.input)
        if args.command == "gradcheck":
            return cmd_gradcheck(config)
        raise AssertionError(f"unreachable command {args.command}")
    except (ConfigError, DataError, InstructionError, CheckpointError, ValueError, OSError,
            NonFiniteError, trainer.TrainingDiverged) as exc:
        log("warn", "error", kind=type(exc).__name__, message=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
