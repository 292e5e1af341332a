"""A fixed run of the ``tie`` command line, pinned in
``tests/fixtures/golden_run.json``.

    python tests/golden.py --check   # run it and compare with the fixture
    python tests/golden.py --write   # run it and rewrite the fixture

The run takes a few seconds in a temporary directory, through ``cli.main``:
synth ``aligned_pair`` and ``re`` data; three gated pretrainings on the two
aligned sources (dropout 0, dropout 0.1, and the ``global`` gate with two
encoder and two decoder layers at dropout 0.1); the dropout 0.1 pretraining
again, cut at step 3 and resumed from its checkpoint; a finetune from each
of the first two onto ``re``, whose channel count differs, so
``reinit_channels`` runs; then ``eval`` on the test split and ``decode`` of
it for each finetuned model. It imports ``tie`` from this checkout's
``src/``.

The record holds each run's step datasets, its step losses as
``float.hex`` and each step's ``updated`` bit per group, every headline F1 (each finetune epoch's dev F1
and each eval's test F1), the SHA-256 of every output file but the echoed
config and file list (they name the temporary directory) and the numpy and
BLAS versions it was made with. ``--check`` prints the digests that
changed, the largest relative loss difference and each gate decision that
changed, and exits 1 unless ``problems`` finds none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "src"))

import numpy as np  # noqa: E402

from tie import cli  # noqa: E402

FIXTURE = TESTS / "fixtures" / "golden_run.json"
LOSS_RTOL = 1e-12   # the largest relative loss difference allowed on the fixture's build

MODEL = {"d": 16, "heads": 2, "max_len": 64, "max_instr_len": 64}
# a high rate, so that the gate freezes groups within six steps, and a low
# threshold, so that an F1 moves off zero within fifteen
TRAIN = {"lr": 0.03, "threshold": 0.3, "batch_size": 8, "pretrain_epochs": 1,
         "pretrain_max_steps": 6, "finetune_epochs": 3, "finetune_max_steps": 15}
SOURCES = ["pair/aligned-a/manifest.json", "pair/aligned-b/manifest.json"]
INSTRUCTIONS = ["pair/aligned-a/instructions.json", "pair/aligned-b/instructions.json",
                "re/synth-re/instructions.json"]
# name -> (model overrides, train overrides) of each pretraining config
PRETRAIN = {"plain": ({}, {}),
            "dropout": ({"dropout": 0.1}, {}),
            "global": ({"dropout": 0.1, "layers_enc": 2, "layers_dec": 2},
                       {"gate_granularity": "global"}),
            "half": ({"dropout": 0.1}, {"pretrain_max_steps": 3})}
OUTPUTS = ("step_reports.jsonl", "epoch_metrics.jsonl", "pretrained.ckpt", "finetuned.ckpt",
           "metrics.json", "predictions.jsonl")


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 prints its config only
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code:
        raise RuntimeError(f"tie {' '.join(map(str, argv))} exited {code}")


def _config(work: Path, name: str, model: dict, train: dict) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps({
        "seed": 1, "out": name, "model": {**MODEL, **model}, "train": {**TRAIN, **train},
        "sources": SOURCES, "target": "re/synth-re/manifest.json",
        "instructions": INSTRUCTIONS}), encoding="utf-8")
    return path


def _reports(out: Path) -> list:
    return [json.loads(line) for line in (out / "step_reports.jsonl").read_text().splitlines()]


def run(work: Path) -> dict:
    """Run the sequence in ``work`` and return its record."""
    os.environ["TIE_LOG"] = "warn"
    _cli("synth", "--kind", "aligned_pair", "--size", 40, "--seed", 1, "--out", work / "pair")
    _cli("synth", "--kind", "re", "--size", 40, "--seed", 1, "--out", work / "re")
    configs = {name: _config(work, name, *over) for name, over in PRETRAIN.items()}
    for name, config in configs.items():
        _cli("pretrain", "--config", config)
    _cli("pretrain", "--config", configs["dropout"], "--out", work / "resumed",
         "--checkpoint", work / "half" / "pretrained.ckpt")
    for name in ("plain", "dropout"):
        ft, ev, dec = (work / f"{name}-{what}" for what in ("ft", "ev", "dec"))
        _cli("finetune", "--config", configs[name], "--out", ft,
             "--checkpoint", work / name / "pretrained.ckpt")
        _cli("eval", "--config", configs[name], "--out", ev, "--split", "test",
             "--checkpoint", ft / "finetuned.ckpt")
        _cli("decode", "--config", configs[name], "--out", dec,
             "--checkpoint", ft / "finetuned.ckpt", "--input", work / "re/synth-re/test.jsonl")

    runs, f1 = {}, {}
    for out in sorted(p for p in work.iterdir() if (p / "step_reports.jsonl").exists()):
        reports = _reports(out)
        runs[out.name] = {"groups": list(reports[0]["groups"]),
                          "dataset": [r["dataset"] for r in reports],
                          "loss": [float(r["loss"]).hex() for r in reports],
                          "updated": ["".join("01"[g["updated"]] for g in r["groups"].values())
                                      for r in reports]}
    for out in sorted(work.glob("*-ft")):
        f1[f"{out.name}/dev"] = [json.loads(line)["dev_f1"]
                                 for line in (out / "epoch_metrics.jsonl").read_text().splitlines()]
    for out in sorted(work.glob("*-ev")):
        f1[f"{out.name}/test"] = json.loads((out / "metrics.json").read_text())["headline_f1"]
    digests = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(work.rglob("*")) if p.name in OUTPUTS}
    # the resumed run must be the uninterrupted one's second half, bit for bit
    resumed = (_reports(work / "resumed") == _reports(work / "dropout")[3:]
               and digests["resumed/pretrained.ckpt"] == digests["dropout/pretrained.ckpt"])
    return {"numpy": np.__version__, "blas": _blas(), "runs": runs, "f1": f1,
            "digests": digests, "resumed_matches": resumed}


def compare(fixture: dict, record: dict) -> dict:
    """What differs between two records: the changed digests, the largest
    relative loss difference, the changed decisions as (run, step, group),
    the changed F1s, and whether both come from the same numpy and BLAS. A
    run missing from one record, or with other datasets or groups, counts
    as an infinite loss difference and a decision (run, None, None)."""
    digests = sorted(k for k in fixture["digests"].keys() | record["digests"].keys()
                     if fixture["digests"].get(k) != record["digests"].get(k))
    worst, decisions = 0.0, []
    for name in fixture["runs"].keys() | record["runs"].keys():
        want, got = fixture["runs"].get(name), record["runs"].get(name)
        if want is None or got is None or want["dataset"] != got["dataset"] \
                or want["groups"] != got["groups"]:
            worst = math.inf
            decisions.append((name, None, None))
            continue
        for a, b in zip(want["loss"], got["loss"]):
            a, b = float.fromhex(a), float.fromhex(b)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0)
        for step, (a, b) in enumerate(zip(want["updated"], got["updated"]), start=1):
            decisions += [(name, step, group)
                          for group, x, y in zip(want["groups"], a, b) if x != y]
    f1 = sorted(k for k in fixture["f1"].keys() | record["f1"].keys()
                if fixture["f1"].get(k) != record["f1"].get(k))
    same_build = (fixture["numpy"], fixture["blas"]) == (record["numpy"], record["blas"])
    return {"digests": digests, "worst_loss_rel": worst, "decisions": sorted(decisions, key=str),
            "f1": f1, "same_build": same_build}


def problems(diff: dict, record: dict) -> list:
    """The ways ``record`` fails the fixture it was compared with: a changed
    decision or F1, a resumed run that is not the uninterrupted one's second
    half, or, on the fixture's numpy and BLAS, a loss off by more than
    ``LOSS_RTOL`` relative. On another build float bits may move further."""
    found = []
    if diff["decisions"]:
        found.append(f"{len(diff['decisions'])} gate decisions changed")
    if diff["f1"]:
        found.append(f"F1 changed: {', '.join(diff['f1'])}")
    if not record["resumed_matches"]:
        found.append("the resumed pretraining differs from the uninterrupted one")
    if diff["same_build"] and not diff["worst_loss_rel"] <= LOSS_RTOL:
        found.append(f"a loss moved by {diff['worst_loss_rel']:.3g} relative, over {LOSS_RTOL}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare a fresh run with the fixture")
    mode.add_argument("--write", action="store_true", help="rewrite the fixture from a fresh run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        record = run(Path(work))
    if args.write:
        FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURE.name}: {len(record['runs'])} runs, "
              f"{sum(len(r['loss']) for r in record['runs'].values())} steps")
        return 0
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    diff = compare(fixture, record)
    print(f"build: numpy {record['numpy']}, {record['blas']} "
          f"({'same as' if diff['same_build'] else 'differs from'} the fixture's: "
          f"numpy {fixture['numpy']}, {fixture['blas']})")
    print(f"changed digests ({len(diff['digests'])} of {len(fixture['digests'])}):")
    for name in diff["digests"]:
        print(f"  {name}")
    print(f"largest relative loss difference: {diff['worst_loss_rel']:.3g}")
    print(f"changed gate decisions: {len(diff['decisions'])}")
    for name, step, group in diff["decisions"]:
        print(f"  {name} step {step} group {group}")
    print(f"changed F1: {diff['f1'] or 'none'}")
    print(f"resumed run matches the uninterrupted one: {record['resumed_matches']}")
    found = problems(diff, record)
    print("FAIL: " + "; ".join(found) if found else "PASS")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
