"""Command-line pipeline: pretrain, finetune, eval, decode, gradcheck, synth.

Configuration is one JSON document; a handful of flags override individual
fields and the effective merged config is echoed into the output directory,
alongside a manifest of every file the command produced. Logs are JSON lines
on stderr (filtered by TIE_LOG = debug|info|warn); human-readable tables go
to stdout. Exit code 0 means the command completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import DataError, build_vocab, load_jsonl, load_manifest
from .evaluate import evaluate_split, predict_instances
from .gradcheck import run_gradcheck
from .instructions import InstructionError, InstructionPool, parse_template
from .model import ModelConfig, Parameters
from .synth import SYNTH_KINDS, write_synth
from .trainer import TrainConfig, TrainState, rng_for
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


@dataclass
class RunConfig:
    seed: int
    out: str
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sources: list = field(default_factory=list)
    target: str | None = None
    instructions: list = field(default_factory=list)
    lowercase: bool = False

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config: file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: malformed JSON ({exc.msg})") from None
        return cls.from_dict(raw, overrides or {}, base=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict, base: Path) -> "RunConfig":
        if overrides.get("seed") is not None:
            raw["seed"] = overrides["seed"]
        if overrides.get("out") is not None:
            raw["out"] = overrides["out"]
        if overrides.get("threshold") is not None:
            raw.setdefault("train", {})["threshold"] = overrides["threshold"]

        if "seed" not in raw:
            raise ConfigError("seed: required field is missing")
        if "out" not in raw:
            raise ConfigError("out: required field is missing")
        try:
            model = ModelConfig.from_json(raw.get("model", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from None
        try:
            train = TrainConfig(**raw.get("train", {})).validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"train: {exc}") from None

        def resolve(p):
            p = Path(p)
            return p if p.is_absolute() else base / p

        sources = [str(resolve(p)) for p in raw.get("sources", [])]
        target = str(resolve(raw["target"])) if raw.get("target") else None
        instructions = [str(resolve(p)) for p in raw.get("instructions", [])]
        for i, p in enumerate(sources):
            if not Path(p).exists():
                raise ConfigError(f"sources[{i}]: path not found: {p}")
        if target and not Path(target).exists():
            raise ConfigError(f"target: path not found: {target}")
        for i, p in enumerate(instructions):
            if not Path(p).exists():
                raise ConfigError(f"instructions[{i}]: path not found: {p}")

        return cls(seed=int(raw["seed"]), out=str(raw["out"]), model=model,
                   train=train, sources=sources, target=target,
                   instructions=instructions, lowercase=bool(raw.get("lowercase", False)))

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "out": self.out,
            "model": self.model.to_json(),
            "train": vars(self.train).copy(),
            "sources": list(self.sources),
            "target": self.target,
            "instructions": list(self.instructions),
            "lowercase": self.lowercase,
        }


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
        p = self.path(name)
        with p.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return p

    def finish(self):
        manifest = self.base / "files.json"
        manifest.write_text(
            json.dumps({"files": sorted(set(self.files))}, indent=2) + "\n",
            encoding="utf-8",
        )


def _raw_templates(paths) -> dict:
    """instruction file path list -> {dataset id: [template strings]}"""
    out = {}
    for p in paths:
        spec = json.loads(Path(p).read_text(encoding="utf-8"))
        for key in ("dataset", "templates"):
            if key not in spec:
                raise ConfigError(f"instructions: {p} missing field {key!r}")
        out.setdefault(spec["dataset"], []).extend(spec["templates"])
    return out


def _build_pool(datasets, templates_by_id, vocab, max_instr_len) -> InstructionPool:
    pool = InstructionPool()
    for ds in datasets:
        for template in templates_by_id.get(ds.id, []):
            pool.add(parse_template(template, ds.label_space, vocab,
                                    dataset_id=ds.id, max_instr_len=max_instr_len))
    pool.require([ds.id for ds in datasets])
    return pool


def _load_datasets(paths, config: RunConfig):
    return [load_manifest(p, max_len=config.model.max_len, lowercase=config.lowercase)
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


def cmd_pretrain(config: RunConfig, checkpoint_path: str | None) -> int:
    out = _OutDir(config.out)
    sources = _load_datasets(config.sources, config)
    if len(sources) < 2:
        raise ConfigError("sources: pretraining needs at least 2 source datasets")
    templates = _raw_templates(config.instructions)

    if checkpoint_path:
        ckpt = load_checkpoint(checkpoint_path)
        if ckpt.seed != config.seed:
            raise ConfigError(
                f"seed: checkpoint was trained with seed {ckpt.seed}, config has {config.seed}"
            )
        vocab, model_cfg, state = ckpt.vocab, ckpt.config, ckpt.state
        num_channels = ckpt.num_channels
        log("info", "resume", step=state.step)
    else:
        flat = [t for ts in templates.values() for t in ts]
        vocab = build_vocab(sources, min_count=config.train.min_count, extra_texts=flat)
        num_channels = _shared_channels(sources)
        model_cfg = ModelConfig(**{**config.model.to_json(), "vocab_size": len(vocab)})
        params = Parameters(model_cfg, num_channels, rng_for(config.seed, "init"))
        state = TrainState.fresh(params, config.train.lr)

    pool = _build_pool(sources, templates, vocab, model_cfg.max_instr_len)
    result = trainer.pretrain(state, sources, pool, vocab, config.train, config.seed)

    out.write_jsonl("step_reports.jsonl", [r.to_json() for r in result.step_reports])
    out.write_jsonl("epoch_metrics.jsonl", result.epoch_metrics)
    ckpt_path = out.path("pretrained.ckpt")
    save_checkpoint(ckpt_path, Checkpoint(
        config=model_cfg, num_channels=num_channels, seed=config.seed,
        step=state.step, vocab=vocab, state=state,
    ))
    out.write_json("config.json", config.to_json())
    out.finish()
    log("info", "pretrain_done", steps=state.step,
        skip_rate=trainer.skip_rate(result.step_reports))
    print(f"pretrained {state.step} steps over {len(sources)} sources -> {ckpt_path}")
    return 0


def cmd_finetune(config: RunConfig, checkpoint_path: str | None) -> int:
    out = _OutDir(config.out)
    if not config.target:
        raise ConfigError("target: required for finetune")
    target = _load_datasets([config.target], config)[0]
    templates = _raw_templates(config.instructions)

    if checkpoint_path:
        ckpt = load_checkpoint(checkpoint_path)
        vocab, model_cfg = ckpt.vocab, ckpt.config
        params = ckpt.state.params
        if target.label_space.num_channels != ckpt.num_channels:
            log("info", "reinit_channels", old=ckpt.num_channels,
                new=target.label_space.num_channels)
            params.reinit_channels(target.label_space.num_channels,
                                   rng_for(config.seed, "reinit"))
        state = ckpt.state
    else:
        flat = [t for ts in templates.values() for t in ts]
        vocab = build_vocab([target], min_count=config.train.min_count, extra_texts=flat)
        model_cfg = ModelConfig(**{**config.model.to_json(), "vocab_size": len(vocab)})
        params = Parameters(model_cfg, target.label_space.num_channels,
                            rng_for(config.seed, "init"))
        state = TrainState.fresh(params, config.train.lr)

    pool = _build_pool([target], templates, vocab, model_cfg.max_instr_len)
    result = trainer.finetune(state, target, pool, vocab, config.train, config.seed)

    out.write_jsonl("step_reports.jsonl", [r.to_json() for r in result.step_reports])
    out.write_jsonl("epoch_metrics.jsonl", result.epoch_metrics)
    ckpt_path = out.path("finetuned.ckpt")
    save_checkpoint(ckpt_path, Checkpoint(
        config=model_cfg, num_channels=target.label_space.num_channels,
        seed=config.seed, step=result.state.step, vocab=vocab, state=result.state,
    ))
    out.write_json("config.json", config.to_json())
    out.finish()
    best = result.best_dev_f1 if result.best_dev_f1 is not None else float("nan")
    log("info", "finetune_done", steps=result.state.step, best_dev_f1=best)
    print(f"finetuned on {target.id}: best dev F1 {best:.4f} -> {ckpt_path}")
    return 0


def _load_for_inference(config: RunConfig, checkpoint_path: str | None):
    if not checkpoint_path:
        raise ConfigError("checkpoint: required for this command")
    if not Path(checkpoint_path).exists():
        raise ConfigError(f"checkpoint: file not found: {checkpoint_path}")
    if not config.target:
        raise ConfigError("target: required for this command")
    ckpt = load_checkpoint(checkpoint_path)
    target = load_manifest(config.target, max_len=ckpt.config.max_len,
                           lowercase=config.lowercase)
    if target.label_space.num_channels != ckpt.num_channels:
        raise ConfigError(
            f"target: dataset has {target.label_space.num_channels} channels, "
            f"checkpoint was built for {ckpt.num_channels}"
        )
    templates = _raw_templates(config.instructions)
    pool = _build_pool([target], templates, ckpt.vocab, ckpt.config.max_instr_len)
    return ckpt, target, pool


def cmd_eval(config: RunConfig, checkpoint_path: str | None, split: str) -> int:
    out = _OutDir(config.out)
    ckpt, target, pool = _load_for_inference(config, checkpoint_path)
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
    ckpt, target, pool = _load_for_inference(config, checkpoint_path)
    if not Path(input_path).exists():
        raise ConfigError(f"input: file not found: {input_path}")
    instances, dropped = load_jsonl(input_path, target.label_space,
                                    dataset_id=target.id, max_len=ckpt.config.max_len,
                                    lowercase=config.lowercase)
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
    out = _OutDir(out_dir)
    written = write_synth(out.base, kind, size, seed)
    for p in written:
        out.files.append(str(p.relative_to(out.base)))
    out.finish()
    print(f"wrote {len(written)} files for kind {kind!r} under {out.base}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    except (ConfigError, DataError, InstructionError, CheckpointError, ValueError) as exc:
        log("warn", "error", kind=type(exc).__name__, message=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
