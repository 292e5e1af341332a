import json
from pathlib import Path

import numpy as np
import pytest

from tie.cli import RunConfig, main

from test_checkpoint import _split_header, _with_header


def make_config(tmp_path, kind="aligned_pair", size=8, seed=5, train=None, model=None):
    data_dir = tmp_path / "data"
    rc = main(["synth", "--kind", kind, "--size", str(size), "--seed", str(seed),
               "--out", str(data_dir)])
    assert rc == 0
    ids = sorted(p.name for p in data_dir.iterdir() if p.is_dir())
    config = {
        "seed": seed,
        "out": str(tmp_path / "out"),
        "model": {"d": 8, "layers_enc": 1, "layers_dec": 1, "heads": 2,
                  "max_len": 16, "max_instr_len": 24, **(model or {})},
        "train": {"batch_size": 4, "pretrain_epochs": 1, "finetune_epochs": 2,
                  **(train or {})},
        "sources": [f"data/{ids[0]}/manifest.json", f"data/{ids[1]}/manifest.json"],
        "target": f"data/{ids[2]}/manifest.json",
        "instructions": [f"data/{i}/instructions.json" for i in ids],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path, config


def test_synth_writes_manifest_of_files(tmp_path):
    rc = main(["synth", "--kind", "ner", "--size", "5", "--seed", "1",
               "--out", str(tmp_path / "s")])
    assert rc == 0
    files = json.loads((tmp_path / "s" / "files.json").read_text())["files"]
    assert "synth-ner/manifest.json" in files
    assert "synth-ner/train.jsonl" in files


def test_full_pipeline(tmp_path, capsys):
    cfg_path, config = make_config(tmp_path)
    out = Path(config["out"])

    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert (out / "pretrained.ckpt").exists()
    produced = json.loads((out / "files.json").read_text())["files"]
    assert "step_reports.jsonl" in produced and "config.json" in produced
    reports = [json.loads(l) for l in (out / "step_reports.jsonl").read_text().splitlines()]
    assert reports and all("groups" in r for r in reports)
    assert all(r["gated"] for r in reports)

    ft_out = tmp_path / "ft"
    assert main(["finetune", "--config", str(cfg_path), "--out", str(ft_out),
                 "--checkpoint", str(out / "pretrained.ckpt")]) == 0
    assert (ft_out / "finetuned.ckpt").exists()
    # only gated steps keep a snapshot, so a finetuned file stores none
    header, _ = _split_header((ft_out / "finetuned.ckpt").read_bytes())
    assert header["manifest"]
    assert not [e for e in header["manifest"] if e["name"].startswith("snapshot/")]

    ev_out = tmp_path / "ev"
    assert main(["eval", "--config", str(cfg_path), "--out", str(ev_out),
                 "--checkpoint", str(ft_out / "finetuned.ckpt"), "--split", "dev"]) == 0
    metrics = json.loads((ev_out / "metrics.json").read_text())
    assert metrics["split"] == "dev"
    assert "ent_f1" in metrics["reports"]
    stdout = capsys.readouterr().out
    assert "headline F1" in stdout and "ent_f1" in stdout

    dec_out = tmp_path / "dec"
    target_jsonl = tmp_path / "data" / "aligned-target" / "dev.jsonl"
    assert main(["decode", "--config", str(cfg_path), "--out", str(dec_out),
                 "--checkpoint", str(ft_out / "finetuned.ckpt"),
                 "--input", str(target_jsonl)]) == 0
    rows = [json.loads(l) for l in (dec_out / "predictions.jsonl").read_text().splitlines()]
    assert len(rows) == len(target_jsonl.read_text().splitlines())
    assert all("tokens" in r and "entities" in r and "links" in r for r in rows)


def test_pretrain_reruns_byte_identical(tmp_path):
    cfg_path, config = make_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "pretrained.ckpt").read_bytes() == (out_b / "pretrained.ckpt").read_bytes()
    assert (out_a / "step_reports.jsonl").read_bytes() == (out_b / "step_reports.jsonl").read_bytes()


def test_finetune_from_random_init(tmp_path):
    cfg_path, config = make_config(tmp_path)
    ft_out = tmp_path / "ft0"
    assert main(["finetune", "--config", str(cfg_path), "--out", str(ft_out)]) == 0
    assert (ft_out / "finetuned.ckpt").exists()


def test_config_out_resolves_against_the_config_directory(tmp_path, monkeypatch):
    # a config in run/ with "out": "ft", run from its parent directory
    cfg_path, config = make_config(tmp_path / "run", train={"finetune_epochs": 1})
    cfg_path.write_text(json.dumps({**config, "out": "ft"}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["finetune", "--config", "run/config.json"]) == 0
    assert (tmp_path / "run" / "ft" / "finetuned.ckpt").exists()
    assert not (tmp_path / "ft").exists()
    echoed = json.loads((tmp_path / "run" / "ft" / "config.json").read_text())
    assert echoed["out"] == str(Path("run") / "ft")
    # the --out flag stays relative to the working directory, like --checkpoint
    assert main(["eval", "--config", "run/config.json", "--checkpoint",
                 "run/ft/finetuned.ckpt", "--split", "test", "--out", "ev"]) == 0
    assert (tmp_path / "ev" / "metrics.json").exists()
    assert not (tmp_path / "run" / "ev").exists()


def test_missing_seed_is_field_path_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"out": "o"}), encoding="utf-8")
    rc = main(["pretrain", "--config", str(bad)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_synth_negative_seed_is_field_path_error(tmp_path, capsys):
    rc = main(["synth", "--kind", "ner", "--size", "5", "--seed", "-1",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "error: seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_bad_source_path_is_field_path_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "seed": 1, "out": str(tmp_path / "o"),
        "sources": ["nope/manifest.json"],
    }), encoding="utf-8")
    rc = main(["pretrain", "--config", str(bad)])
    assert rc == 2
    assert "sources[0]" in capsys.readouterr().err


def _write(path, text, config):
    Path(path).write_text(text, encoding="utf-8")
    return config


def _append_line(path, line, config):
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return config


def _set(section, key, value):
    return lambda d, c: {**c, section: {**c[section], key: value}}


# case -> (turns (config dir, config) into the config to write, after
# damaging a file the config names where it needs to; text the error names)
MALFORMED_INPUTS = {
    "config is a string": (lambda d, c: "seed out", "top level"),
    "seed is a list": (lambda d, c: {**c, "seed": [1]}, "seed"),
    "seed is a float": (lambda d, c: {**c, "seed": 7.9}, "seed: must be an integer"),
    "seed is negative": (lambda d, c: {**c, "seed": -1}, "seed: must be >= 0, got -1"),
    "lowercase is a string": (lambda d, c: {**c, "lowercase": "no"},
                              "config: unknown field 'lowercase'"),
    "d is a float": (_set("model", "d", 32.0), "model.d: must be an integer"),
    "dropout is a string": (_set("model", "dropout", "0.1"), "model.dropout: must be a number"),
    "heads is 0": (_set("model", "heads", 0), "model.heads: must be >= 1, got 0"),
    "batch_size is a float": (_set("train", "batch_size", 4.0), "train.batch_size"),
    "pretrain_epochs is a float": (_set("train", "pretrain_epochs", 1.5),
                                   "train.pretrain_epochs"),
    "epochs is a boolean": (_set("train", "finetune_epochs", True), "train.finetune_epochs"),
    "lr is a boolean": (_set("train", "lr", False), "train.lr: must be a number"),
    "max steps is a float": (_set("train", "pretrain_max_steps", 2.0),
                             "train.pretrain_max_steps: must be an integer or null"),
    "pretrain_epochs is 0": (_set("train", "pretrain_epochs", 0),
                             "train.pretrain_epochs: must be >= 1, got 0"),
    "finetune_epochs is negative": (_set("train", "finetune_epochs", -2),
                                    "train.finetune_epochs: must be >= 1, got -2"),
    "min_count is 0": (_set("train", "min_count", 0), "train.min_count: unknown field"),
    "residual_label_attn is true": (_set("model", "residual_label_attn", True),
                                    "model.residual_label_attn: unknown field"),
    "max steps is 0": (_set("train", "finetune_max_steps", 0),
                       "train.finetune_max_steps: must be >= 1, got 0"),
    "reset_optimizer_on_finetune is a string": (
        _set("train", "reset_optimizer_on_finetune", "no"),
        "train.reset_optimizer_on_finetune: unknown field"),
    "gate_granularity is layer": (_set("train", "gate_granularity", "layer"),
                                  "train.gate_granularity: must be 'group' or 'global', "
                                  "got 'layer'"),
    "threshold is 1": (_set("train", "threshold", 1.0),
                       "train.threshold: must be in (0, 1), got 1.0"),
    "lr is 0": (_set("train", "lr", 0), "train.lr: must be positive and finite, got 0"),
    "lr is Infinity": (_set("train", "lr", float("inf")),
                       "train.lr: must be positive and finite, got inf"),
    "dropout is 1": (_set("model", "dropout", 1.0), "model.dropout: must be in [0, 1), got 1.0"),
    "d is no multiple of heads": (lambda d, c: {**c, "model": {**c["model"], "d": 30, "heads": 4}},
                                  "model.d: must be a multiple of heads 4, got 30"),
    "unknown top-level field": (lambda d, c: {**c, "lowercse": True},
                                "config: unknown field 'lowercse'"),
    "unknown model field": (_set("model", "dd", 8), "model.dd: unknown field"),
    "unknown train field": (_set("train", "epochs", 2), "train.epochs: unknown field"),
    "sources is a number": (lambda d, c: {**c, "sources": 5}, "sources"),
    "instructions entry is a number": (lambda d, c: {**c, "instructions": [3]},
                                       "instructions[0]"),
    "instruction file is a string": (lambda d, c: _write(
        d / c["instructions"][0], '"dataset templates"', c), "JSON object"),
    "template is a number": (lambda d, c: _write(
        d / c["instructions"][0], '{"dataset": "aligned-a", "templates": [5]}', c),
        "list of strings"),
    "templates is a string": (lambda d, c: _write(
        d / c["instructions"][0], '{"dataset": "aligned-a", "templates": "{Animal}"}', c),
        "list of strings"),
    "dataset is a list": (lambda d, c: _write(
        d / c["instructions"][0], '{"dataset": ["x"], "templates": ["{Animal}"]}', c),
        "'dataset'"),
    "instruction file is not JSON": (lambda d, c: _write(d / c["instructions"][0], "{", c),
                                     "instructions.json"),
    "JSONL line is a list": (lambda d, c: _append_line(
        (d / c["sources"][0]).parent / "train.jsonl", "[1]", c), "train.jsonl:"),
    "entity is a number": (lambda d, c: _append_line(
        (d / c["sources"][0]).parent / "train.jsonl", '{"tokens": ["a"], "entities": [5]}', c),
        "train.jsonl:"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_run_input_exits_2(tmp_path, capsys, case):
    cfg_path, config = make_config(tmp_path)
    damage, named = MALFORMED_INPUTS[case]
    cfg_path.write_text(json.dumps(damage(tmp_path, config)), encoding="utf-8")
    assert main(["pretrain", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and named in err


def _written(out):
    """Every file a command wrote, by name, with the echoed config's output
    directory left out."""
    files = json.loads((out / "files.json").read_text())["files"]
    written = {name: (out / name).read_bytes() for name in files}
    echoed = json.loads(written.pop("config.json"))
    del echoed["out"]
    return written, echoed


@pytest.mark.parametrize("kind", ["config", "manifest", "jsonl"])
def test_input_that_is_not_utf8_exits_2_naming_its_file(tmp_path, capsys, kind):
    cfg_path, config = make_config(tmp_path)
    manifest = tmp_path / config["sources"][0]
    damaged = {"config": cfg_path, "manifest": manifest,
               "jsonl": manifest.parent / "train.jsonl"}[kind]
    damaged.write_bytes(damaged.read_bytes() + b"\xff\n")
    assert main(["pretrain", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    error_line = next(line for line in err.splitlines() if line.startswith("error: "))
    assert str(damaged) in error_line and "not UTF-8" in error_line
    assert "Traceback" not in err


def test_training_ignores_a_malformed_test_split(tmp_path):
    # pretrain and finetune read only the train and dev splits
    cfg_path, config = make_config(tmp_path)

    def train(tag):
        runs = {}
        for command in ("pretrain", "finetune"):
            out = tmp_path / tag / command
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            runs[command] = _written(out)
        return runs

    good = train("good")
    for manifest in [*config["sources"], config["target"]]:
        _append_line((tmp_path / manifest).parent / "test.jsonl", "[1]", config)
    assert train("bad") == good


def test_config_accepts_integer_for_float_and_null_max_steps(tmp_path):
    cfg_path, config = make_config(tmp_path, train={"lr": 1, "pretrain_max_steps": None,
                                                    "finetune_max_steps": None})
    loaded = RunConfig.load(cfg_path)
    assert loaded.train.lr == 1 and loaded.train.pretrain_max_steps is None


def test_missing_checkpoint_nonzero_exit(tmp_path, capsys):
    cfg_path, _config = make_config(tmp_path)
    rc = main(["eval", "--config", str(cfg_path),
               "--checkpoint", str(tmp_path / "does-not-exist.ckpt")])
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err


def test_malformed_checkpoint_header_exits_2(tmp_path, capsys):
    cfg_path, config = make_config(tmp_path)
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    ckpt = Path(config["out"]) / "pretrained.ckpt"
    raw = ckpt.read_bytes()
    header, _ = _split_header(raw)
    no_adam = {k: v for k, v in header.items() if k != "adam"}
    cfg = header["model_config"]
    for mutant, named in ((no_adam, "malformed header"),
                          ({**header, "model_config": {**cfg, "vocab_size": 10**14}},
                           "vocab_size is 100000000000000"),
                          ({**header, "model_config": {**cfg, "max_len": 10**14}},
                           "the model's manifest covers {'name': 'param/embed.pos_x', "
                           "'dtype': 'f8', 'dims': [100000000000000, 8]")):
        ckpt.write_bytes(_with_header(raw, mutant))
        rc = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "ev"),
                   "--checkpoint", str(ckpt)])
        assert rc == 2
        assert named in capsys.readouterr().err


def test_checkpoint_with_nan_parameter_exits_2(tmp_path, capsys):
    from tie.checkpoint import load_checkpoint, save_checkpoint

    cfg_path, config = make_config(tmp_path)
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    ckpt = Path(config["out"]) / "pretrained.ckpt"
    loaded = load_checkpoint(ckpt)
    loaded.state.params["score.b"].data[0] = float("nan")
    save_checkpoint(ckpt, loaded)
    rc = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "ev"),
               "--checkpoint", str(ckpt)])
    assert rc == 2
    assert "param/score.b holds NaN" in capsys.readouterr().err


def test_eval_whose_logits_overflow_exits_2(tmp_path, capsys):
    # every weight is finite, so the checkpoint loads; the forward overflows
    from tie.checkpoint import load_checkpoint, save_checkpoint

    cfg_path, config = make_config(tmp_path)
    ft_out = tmp_path / "ft"
    assert main(["finetune", "--config", str(cfg_path), "--out", str(ft_out)]) == 0
    ckpt = ft_out / "finetuned.ckpt"
    loaded = load_checkpoint(ckpt)
    loaded.state.params["score.w"].data[...] = 1e308
    loaded.state.params["biaffine.w4"].data[...] = 1e10
    save_checkpoint(ckpt, loaded)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "ev"),
                   "--checkpoint", str(ckpt)])
    assert rc == 2
    assert "error: forward logits is non-finite" in capsys.readouterr().err


def _absa_retarget(tmp_path, train=None):
    """Pretrain a 3-channel model, then write a config targeting the
    5-channel synth ABSA set; returns (pretrained out dir, new config path)."""
    cfg_path, config = make_config(tmp_path, train=train)  # aligned pair, K=3
    out = Path(config["out"])
    assert main(["pretrain", "--config", str(cfg_path)]) == 0

    absa_dir = tmp_path / "absa"
    assert main(["synth", "--kind", "absa", "--size", "6", "--seed", "2",
                 "--out", str(absa_dir)]) == 0
    config2 = dict(config)
    config2["target"] = str(absa_dir / "synth-absa" / "manifest.json")
    config2["instructions"] = config["instructions"] + [
        str(absa_dir / "synth-absa" / "instructions.json")]
    config2["train"] = {**config["train"], "finetune_epochs": 1}
    cfg2 = tmp_path / "config2.json"
    cfg2.write_text(json.dumps(config2), encoding="utf-8")
    return out, cfg2


def test_finetune_onto_target_with_different_channel_count(tmp_path):
    from tie.checkpoint import load_checkpoint

    out, cfg2 = _absa_retarget(tmp_path)

    # eval with the 3-channel checkpoint on the 5-channel target must refuse
    assert main(["eval", "--config", str(cfg2), "--out", str(tmp_path / "ev5"),
                 "--checkpoint", str(out / "pretrained.ckpt")]) == 2

    ft_out = tmp_path / "ft5"
    assert main(["finetune", "--config", str(cfg2), "--out", str(ft_out),
                 "--checkpoint", str(out / "pretrained.ckpt")]) == 0
    ckpt = load_checkpoint(ft_out / "finetuned.ckpt")
    assert ckpt.num_channels == 5
    assert ckpt.state.params.tensors["biaffine.w4"].shape == (5, 16)


def _rewritten(tmp_path, config, name, section, **values):
    """A copy of the run config at ``name`` with ``values`` set in ``section``."""
    path = tmp_path / name
    path.write_text(json.dumps({**config, section: {**config[section], **values}}),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_run_from_checkpoint_with_another_model_field_exits_2(tmp_path, capsys, command):
    # the checkpoint's model would run, not the config's
    cfg_path, config = make_config(tmp_path)
    ckpt = str(Path(config["out"]) / "pretrained.ckpt")
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    for field, value in (("d", 16), ("dropout", 0.5), ("ffn_mult", 1)):
        other = _rewritten(tmp_path, config, "other.json", "model", **{field: value})
        assert main([command, "--config", other, "--checkpoint", ckpt,
                     "--out", str(tmp_path / "other")]) == 2
        assert f"error: model.{field}: checkpoint was built with" in capsys.readouterr().err
    # the vocabulary is the checkpoint's, so vocab_size may differ
    same = _rewritten(tmp_path, config, "same.json", "model", vocab_size=3)
    assert main([command, "--config", same, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "same")]) == 0


def test_run_continuing_a_checkpoints_optimizer_at_another_lr_exits_2(tmp_path, capsys):
    cfg_path, config = make_config(tmp_path)
    ckpt = str(Path(config["out"]) / "pretrained.ckpt")
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    resume = _rewritten(tmp_path, config, "resume.json", "train", lr=0.5)
    assert main(["pretrain", "--config", resume, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "pretrain")]) == 2
    assert "error: train.lr: the run continues the checkpoint's optimizer at lr 0.001, " \
           "config has 0.5" in capsys.readouterr().err
    assert not (tmp_path / "pretrain" / "pretrained.ckpt").exists()
    # a finetune starts a fresh optimizer, at the config's lr
    from tie.checkpoint import load_checkpoint

    assert main(["finetune", "--config", resume, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "reset")]) == 0
    assert load_checkpoint(tmp_path / "reset" / "finetuned.ckpt").state.optimizer.lr == 0.5


def test_pretrain_resume_on_sources_of_other_channel_counts_exits_2(tmp_path, capsys):
    cfg_path, config = make_config(tmp_path)   # aligned pair, K=3
    ckpt = str(Path(config["out"]) / "pretrained.ckpt")
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    for kind in ("re", "absa"):   # K=5 each
        assert main(["synth", "--kind", kind, "--size", "6", "--seed", "2",
                     "--out", str(tmp_path / kind)]) == 0
    capsys.readouterr()
    re_manifest, absa_manifest = (str(tmp_path / kind / f"synth-{kind}" / "manifest.json")
                                  for kind in ("re", "absa"))
    for name, sources, message in (
            ("mixed", [config["sources"][0], re_manifest],
             "error: sources: datasets disagree on channel count"),
            ("five", [re_manifest, absa_manifest],
             "error: sources: datasets have 5 channels, checkpoint was built for 3")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "sources": sources}), encoding="utf-8")
        out = tmp_path / name
        assert main(["pretrain", "--config", str(path), "--checkpoint", ckpt,
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "pretrained.ckpt").exists()


def test_eval_table_shows_perfect_scores_for_gold_predictions():
    # the rendering path the eval command uses, fed predictions == gold
    from tie.cli import _score_table
    from tie.codec import PredEntity, Prediction
    from tie.data import Instance, Mention
    from tie.metrics import task_metric

    golds = [Instance(tokens=["w"] * 6, entities=[Mention("PER", 0, 1)],
                      dataset_id="fixture")]
    preds = [Prediction(entities=[PredEntity("PER", 0, 1, 0.99)])]
    reports = task_metric("NER", preds, golds)
    assert all(r.overall.f1 == 1.0 for r in reports.values())
    table = _score_table(reports)
    assert "1.0000" in table and "ent_f1" in table


def test_log_level_filtering(tmp_path, capsys, monkeypatch):
    from tie.cli import log

    monkeypatch.setenv("TIE_LOG", "warn")
    log("info", "hidden")
    log("warn", "shown")
    err = capsys.readouterr().err
    assert "hidden" not in err and "shown" in err
    monkeypatch.setenv("TIE_LOG", "debug")
    log("debug", "visible")
    assert "visible" in capsys.readouterr().err


def test_threshold_flag_overrides_config(tmp_path):
    cfg_path, config = make_config(tmp_path)
    out = Path(config["out"])
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    ev_out = tmp_path / "ev2"
    assert main(["eval", "--config", str(cfg_path), "--out", str(ev_out),
                 "--checkpoint", str(out / "pretrained.ckpt"),
                 "--split", "dev", "--threshold", "0.9"]) == 0
    metrics = json.loads((ev_out / "metrics.json").read_text())
    assert metrics["threshold"] == 0.9
    echoed = json.loads((ev_out / "config.json").read_text())
    assert echoed["train"]["threshold"] == 0.9


def _finetuned_target(tmp_path):
    """A config, a checkpoint finetuned on its target, and the target's
    directory; the checkpoint is made before any target file is damaged."""
    cfg_path, config = make_config(tmp_path)
    assert main(["finetune", "--config", str(cfg_path), "--out", str(tmp_path / "ft")]) == 0
    return cfg_path, config, tmp_path / "ft" / "finetuned.ckpt", tmp_path / "data" / "aligned-target"


def test_pretrain_resume_from_a_finetuned_checkpoint_exits_2(tmp_path, capsys):
    # the finetune's step count would resume the pretraining epoch plan part
    # way through and skip that many of its batches
    from tie.checkpoint import load_checkpoint

    cfg_path, config = make_config(tmp_path)   # aligned pair, K=3 sources and target
    pre, ft = Path(config["out"]) / "pretrained.ckpt", tmp_path / "ft" / "finetuned.ckpt"
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["finetune", "--config", str(cfg_path), "--out", str(ft.parent),
                 "--checkpoint", str(pre)]) == 0
    assert load_checkpoint(pre).phase == "pretrain"
    assert load_checkpoint(ft).phase == "finetune" and load_checkpoint(ft).num_channels == 3
    capsys.readouterr()
    out = tmp_path / "again"
    assert main(["pretrain", "--config", str(cfg_path), "--checkpoint", str(ft),
                 "--out", str(out)]) == 2
    assert "was written by finetune" in capsys.readouterr().err
    assert not (out / "pretrained.ckpt").exists()
    assert main(["pretrain", "--config", str(cfg_path), "--checkpoint", str(pre),
                 "--out", str(out)]) == 0


def test_pretrain_resume_from_a_checkpoint_without_phase_warns(tmp_path, capsys):
    # the committed fixture predates the phase key: resumed as before, with a warning
    fixture = Path(__file__).parent / "fixtures" / "two_gated_steps.ckpt"
    cfg_path, config = make_config(tmp_path, size=4, seed=5, train={"batch_size": 2},
                                   model={"d": 4, "max_len": 12, "max_instr_len": 20,
                                          "ffn_mult": 1})
    capsys.readouterr()
    assert main(["pretrain", "--config", str(cfg_path), "--checkpoint", str(fixture)]) == 0
    warns = [json.loads(line) for line in capsys.readouterr().err.splitlines()
             if '"checkpoint_phase_unknown"' in line]
    assert warns == [{"level": "warn", "event": "checkpoint_phase_unknown",
                      "path": str(fixture)}]
    assert (Path(config["out"]) / "pretrained.ckpt").exists()


def test_eval_and_decode_parse_only_the_split_they_read(tmp_path):
    from tie.checkpoint import load_checkpoint
    from tie.data import load_manifest
    from tie.evaluate import evaluate_split, predict_split
    from tie.instructions import build_pool, read_templates
    from tie.trainer import TrainConfig

    cfg_path, config, ckpt_path, target_dir = _finetuned_target(tmp_path)
    ckpt = load_checkpoint(ckpt_path)
    target = load_manifest(target_dir / "manifest.json", max_len=ckpt.config.max_len)
    assert target.splits.train and target.splits.test
    pool = build_pool([target], read_templates([tmp_path / p for p in config["instructions"]]),
                      ckpt.vocab, ckpt.config.max_instr_len)
    args = (ckpt.state.params, ckpt.vocab, pool, target, "test", TrainConfig().threshold)
    reports, headline = evaluate_split(*args)
    preds = predict_split(*args)

    _append_line(target_dir / "train.jsonl", "[1]", config)
    common = ["--config", str(cfg_path), "--checkpoint", str(ckpt_path)]
    assert main(["eval", *common, "--split", "test", "--out", str(tmp_path / "ev")]) == 0
    metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
    assert metrics["headline_f1"] == headline
    assert metrics["reports"] == {k: v.to_json() for k, v in reports.items()}
    assert main(["decode", *common, "--input", str(target_dir / "test.jsonl"),
                 "--out", str(tmp_path / "dec")]) == 0
    rows = [json.loads(l) for l in (tmp_path / "dec" / "predictions.jsonl").read_text().splitlines()]
    assert len(rows) == len(preds)
    for row, pred in zip(rows, preds):
        got = ([(e["type"], e["start"], e["end"], e["score"]) for e in row["entities"]],
               [(l["type"], (l["subject"]["start"], l["subject"]["end"]),
                 (l["object"]["start"], l["object"]["end"]), l["score"]) for l in row["links"]])
        assert got == ([(e.type, e.start, e.end, e.score) for e in pred.entities],
                       [(l.type, tuple(l.subject), tuple(l.object), l.score) for l in pred.links])


def test_eval_of_a_malformed_split_exits_2_naming_its_file(tmp_path, capsys):
    cfg_path, config, ckpt_path, target_dir = _finetuned_target(tmp_path)
    _append_line(target_dir / "dev.jsonl", "[1]", config)
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt_path),
                 "--split", "dev", "--out", str(tmp_path / "ev")]) == 2
    assert "dev.jsonl" in capsys.readouterr().err


def test_eval_and_decode_still_need_every_split_file(tmp_path, capsys):
    cfg_path, config, ckpt_path, target_dir = _finetuned_target(tmp_path)
    (target_dir / "train.jsonl").unlink()
    common = ["--config", str(cfg_path), "--checkpoint", str(ckpt_path)]
    assert main(["eval", *common, "--out", str(tmp_path / "ev")]) == 2
    assert "train split not found" in capsys.readouterr().err
    assert main(["decode", *common, "--input", str(target_dir / "test.jsonl"),
                 "--out", str(tmp_path / "dec")]) == 2
    assert "train split not found" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--checkpoint", "--input", "--config"])
def test_a_directory_given_as_a_file_exits_2(tmp_path, capsys, flag):
    cfg_path, _config, ckpt_path, target_dir = _finetuned_target(tmp_path)
    paths = {"--config": cfg_path, "--checkpoint": ckpt_path,
             "--input": target_dir / "test.jsonl", flag: target_dir}
    command = ["decode", "--input", str(paths["--input"])] if flag == "--input" else ["eval"]
    assert main([*command, "--config", str(paths["--config"]), "--out", str(tmp_path / "o"),
                 "--checkpoint", str(paths["--checkpoint"])]) == 2
    err = capsys.readouterr().err
    assert f"error: [Errno 21] Is a directory: '{target_dir}'" in err
    assert "Traceback" not in err
