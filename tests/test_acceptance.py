"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Benchmark-scale score reproduction is out of scope by design (it needs large
pretrained backbones and licensed corpora); this property suite is the
substitute: gradient fidelity, codec invertibility, gate semantics, scheduler
laws, metric oracles, capacity, directional transfer/conflict behavior, and
bit-level reproducibility.
"""

import json
import time

import numpy as np
import pytest

from tie.cli import main
from tie.codec import decode, encode
from tie.data import Instance, LabelSpace, Link, Mention, build_vocab
from tie.instructions import build_pool
from tie.metrics import arg_f1, ent_f1, rel_f1, senti_triplet_f1, trig_f1
from tie.model import ModelConfig, Parameters
from tie.synth import make_synth
from tie import trainer as T
from tie.evaluate import predict_split
from tie.trainer import TrainConfig, TrainState, gated_step

from fuzz import FUZZ_SPACES, fuzz_instance
from grids import entity_set, gold_link_set, lift, link_set


_live_capsys = None


@pytest.fixture(autouse=True)
def _live(capsys):
    global _live_capsys
    _live_capsys = capsys
    yield
    _live_capsys = None


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"\nACCEPTANCE {name}: {status}{suffix}"
    if _live_capsys is not None:
        with _live_capsys.disabled():  # keep the verdict visible when green
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def test_gradient_fidelity(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 0, "out": str(tmp_path / "out")}),
                   encoding="utf-8")
    t0 = time.time()
    rc = main(["gradcheck", "--config", str(cfg)])
    elapsed = time.time() - t0
    report = json.loads((tmp_path / "out" / "gradcheck.json").read_text())
    _report(
        "gradient-fidelity",
        rc == 0 and report["passed"] and elapsed < 120.0,
        f"worst rel err {report['worst_rel_err']:.2e} at {report['worst_tensor']}, "
        f"{report['n_elements']} params, {elapsed:.0f}s",
    )


def test_codec_roundtrip():
    failures = 0
    for task in ("NER", "RE", "EE", "ABSA"):
        rng = np.random.default_rng(1000 + len(task))
        space = FUZZ_SPACES[task]
        for _ in range(1000):
            inst = fuzz_instance(task, rng)
            gold = encode(inst, space)
            if gold.collisions != 0:
                failures += 1
                continue
            pred = decode(lift(gold), space, 0.5, task)
            if (entity_set(pred) != entity_set(inst)
                    or link_set(pred) != gold_link_set(inst)):
                failures += 1

    # constructed degenerate case: two links claim the same head-head cell
    space = LabelSpace(["E"], ["r"])
    degenerate = Instance(
        tokens=["a", "b", "c", "d", "e"],
        entities=[Mention("E", 0, 0), Mention("E", 2, 3), Mention("E", 2, 4)],
        links=[Link("r", 0, 1), Link("r", 0, 2)],
    )
    collisions = encode(degenerate, space).collisions
    _report(
        "codec-roundtrip",
        failures == 0 and collisions == 1,
        f"4000 fuzzed instances, {failures} failures; "
        f"degenerate case counted {collisions} collision(s)",
    )


def test_regularization_gate():
    cfg = ModelConfig(d=4, layers_enc=1, layers_dec=1, heads=2, max_len=6,
                      max_instr_len=6, vocab_size=8)
    problems = []

    def fresh():
        state = TrainState.fresh(Parameters(cfg, 2, np.random.default_rng(0)), lr=1e-3)
        return state, state.params, state.optimizer

    def grads(p, sign=1.0):
        p.grad[...] = sign
        return p.grads()

    # per-group: flipping exactly one group's gradient freezes exactly it,
    # bit-identically, optimizer moments included
    _, base_p, _ = fresh()
    for flipped in base_p.groups:
        state, p, adam = fresh()
        grads(p)
        gated_step(state)
        before = {n: t.data.copy() for n, t in p.tensors.items()}
        m_before = {g: adam.moments[0][s].copy() for g, s in p.slices.items()}
        v_before = {g: adam.moments[1][s].copy() for g, s in p.slices.items()}
        t_before = dict(adam.t)
        g2 = grads(p)
        g2[flipped] *= -1.0
        decisions = gated_step(state)
        for group, d in decisions.items():
            want = group != flipped
            if d["updated"] != want or (d["dot"] > 0) != want:
                problems.append(f"{flipped}: wrong decision for {group}")
        for name in p.groups[flipped]:
            if not np.array_equal(p.tensors[name].data, before[name]):
                problems.append(f"{flipped}: {name} not bit-identical when frozen")
        if not (np.array_equal(adam.moments[0][p.slices[flipped]], m_before[flipped])
                and np.array_equal(adam.moments[1][p.slices[flipped]], v_before[flipped])):
            problems.append(f"{flipped}: moments not bit-identical when frozen")
        if adam.t[flipped] != t_before[flipped]:
            problems.append(f"{flipped}: step counter advanced while frozen")
        changed = any(
            not np.array_equal(p.tensors[n].data, before[n])
            for g in p.groups if g != flipped for n in p.groups[g]
        )
        if not changed:
            problems.append(f"{flipped}: other groups did not update")

    # strict inequality at zero
    state, p, _ = fresh()
    grads(p, sign=0.0)
    gated_step(state)
    grads(p)
    decisions = gated_step(state)
    if any(d["dot"] != 0.0 or d["updated"] for d in decisions.values()):
        problems.append("zero dot did not skip")

    # first step always updates; equal/negated gradients behave as signed dots
    state, p, _ = fresh()
    grads(p)
    d0 = gated_step(state)
    grads(p)
    d1 = gated_step(state)
    grads(p, -1.0)
    d2 = gated_step(state)
    if not all(v["updated"] and v["dot"] is None for v in d0.values()):
        problems.append("first step did not update unconditionally")
    if not all(v["updated"] and v["dot"] > 0 for v in d1.values()):
        problems.append("aligned gradients did not update")
    if any(v["updated"] or v["dot"] >= 0 for v in d2.values()):
        problems.append("opposed gradients did not freeze")

    _report("regularization-gate", not problems, "; ".join(problems[:3]))


def test_scheduler():
    rng = np.random.default_rng(7)
    bad = 0
    forced_total = 0
    for trial in range(1000):
        sizes = {f"d{i}": int(rng.integers(3, 40)) for i in range(11)}
        batch = int(rng.integers(2, 9))
        plan = T.plan_epoch(sizes, batch, T.rng_for(trial, "accept-plan"))
        seen = {d: [] for d in sizes}
        for ds_id, indices in plan.batches:
            if not indices or len(indices) > batch:
                bad += 1
            seen[ds_id].extend(indices)
        for ds_id, n in sizes.items():
            if sorted(seen[ds_id]) != list(range(n)):
                bad += 1
        forced = set(plan.forced_adjacent)
        forced_total += len(forced)
        for i in range(1, len(plan.batches)):
            if plan.batches[i][0] == plan.batches[i - 1][0] and i not in forced:
                bad += 1
    _report(
        "scheduler",
        bad == 0,
        f"1000 plans over 11 sources, 0 unlogged adjacency violations, "
        f"exact coverage; {forced_total} logged tail cases",
    )


def _oracle(pred_lists, gold_lists):
    tp = fp = fn = 0
    for P, G in zip(pred_lists, gold_lists):
        P, G = list(dict.fromkeys(P)), list(dict.fromkeys(G))
        used = [False] * len(G)
        for item in P:
            for i, g in enumerate(G):
                if not used[i] and g == item:
                    used[i] = True
                    tp += 1
                    break
            else:
                fp += 1
        fn += used.count(False)
    return tp, fp, fn


def test_metric_oracle():
    from tie.codec import PredEntity, PredLink, Prediction

    rng = np.random.default_rng(9)
    types = ["A", "B", "C"]
    rels = ["r1", "r2", "r3"]

    def rand_span():
        s = int(rng.integers(0, 8))
        return (s, s + int(rng.integers(0, 3)))

    def rand_ent_tuples(k):
        return [(types[int(rng.integers(3))], *rand_span()) for _ in range(k)]

    def rand_link_tuples(k):
        return [
            (rels[int(rng.integers(3))], types[int(rng.integers(3))], rand_span(),
             types[int(rng.integers(3))], rand_span())
            for _ in range(k)
        ]

    def derive(gold, mutate):
        out = []
        for item in gold:
            if rng.random() < 0.55:
                out.append(item)
            else:
                out.append(mutate(item))
        return out

    checks = []
    n_pairs = 0
    for _ in range(250):
        ent_gold, ent_pred, link_gold, link_pred = [], [], [], []
        for _ in range(5):
            g = rand_ent_tuples(int(rng.integers(0, 5)))
            p = derive(g, lambda e: (e[0], e[1], e[2] + 1)) + rand_ent_tuples(
                int(rng.integers(0, 3)))
            ent_gold.append(g)
            ent_pred.append(p)
            lg = rand_link_tuples(int(rng.integers(0, 4)))
            lp = derive(lg, lambda l: (l[0], l[1], l[2], l[3], (l[4][0], l[4][1] + 1)))
            link_gold.append(lg)
            link_pred.append(lp)
            n_pairs += 1

        ent_preds = [Prediction(entities=[PredEntity(t, s, e, 0.9) for t, s, e in p])
                     for p in ent_pred]
        ent_golds = [Instance(tokens=["w"] * 12,
                              entities=[Mention(t, s, e) for t, s, e in g])
                     for g in ent_gold]
        for fn_impl, tuples in ((ent_f1, None), (trig_f1, None)):
            rep = fn_impl(ent_preds, ent_golds)
            oracle = _oracle(ent_pred, ent_gold)
            checks.append((rep.overall.tp, rep.overall.fp, rep.overall.fn) == oracle)

        link_preds = [
            Prediction(links=[PredLink(type=r, subject=s, object=o, score=0.9,
                                       subject_type=st, object_type=ot)
                              for r, st, s, ot, o in p])
            for p in link_pred
        ]
        link_golds = []
        for g in link_gold:
            ents = []
            links = []
            for r, st, s, ot, o in g:
                ents.append(Mention(st, *s))
                ents.append(Mention(ot, *o))
                links.append(Link(r, len(ents) - 2, len(ents) - 1))
            link_golds.append(Instance(tokens=["w"] * 12, entities=ents, links=links))

        rep = rel_f1(link_preds, link_golds)
        oracle = _oracle(
            [[(r, st, s, ot, o) for r, st, s, ot, o in p] for p in link_pred],
            [[(r, st, s, ot, o) for r, st, s, ot, o in g] for g in link_gold],
        )
        checks.append((rep.overall.tp, rep.overall.fp, rep.overall.fn) == oracle)

        rep = arg_f1(link_preds, link_golds)
        oracle = _oracle(
            [[(o, r, st) for r, st, s, ot, o in p] for p in link_pred],
            [[(o, r, st) for r, st, s, ot, o in g] for g in link_gold],
        )
        checks.append((rep.overall.tp, rep.overall.fp, rep.overall.fn) == oracle)

        rep = senti_triplet_f1(link_preds, link_golds)
        oracle = _oracle(
            [[(s, o, r) for r, st, s, ot, o in p] for p in link_pred],
            [[(s, o, r) for r, st, s, ot, o in g] for g in link_gold],
        )
        checks.append((rep.overall.tp, rep.overall.fp, rep.overall.fn) == oracle)

    from tie.codec import PredEntity as PE, Prediction as P
    hand_gold = Instance(tokens=["w"] * 6,
                         entities=[Mention("PER", 0, 1), Mention("ORG", 3, 4)])
    hand_pred = P(entities=[PE("PER", 0, 1, 0.9), PE("ORG", 3, 5, 0.9)])
    hand = ent_f1([hand_pred], [hand_gold])
    hand_ok = hand.overall.f1 == 0.5

    _report(
        "metric-oracle",
        all(checks) and hand_ok and n_pairs >= 1000,
        f"{len(checks)} oracle comparisons over {n_pairs} instance pairs; "
        f"hand case F1={hand.overall.f1}",
    )


def test_capacity():
    t0 = time.time()
    ds, templates = make_synth("ner", 8, 11)[0]
    vocab = build_vocab([ds], extra_texts=templates)
    cfg = ModelConfig(d=32, layers_enc=1, layers_dec=1, heads=4, max_len=16,
                      max_instr_len=24, vocab_size=len(vocab))
    pool = build_pool([ds], {ds.id: templates}, vocab, cfg.max_instr_len)
    params = Parameters(cfg, ds.label_space.num_channels, T.rng_for(11, "init"))
    tcfg = TrainConfig(batch_size=8, finetune_epochs=500, finetune_max_steps=500,
                       lr=1e-3)
    state = TrainState.fresh(params, tcfg.lr)
    T.finetune(state, ds, pool, vocab, tcfg, seed=11, eval_dev=False)
    preds = predict_split(state.params, vocab, pool, ds, "train", 0.5)
    f1 = ent_f1(preds, ds.splits.train).overall.f1
    elapsed = time.time() - t0
    _report(
        "capacity",
        f1 >= 0.99 and elapsed < 300.0,
        f"train Ent.F1 {f1:.4f} after 500 steps in {elapsed:.0f}s",
    )


def _pair_run(kind, seed, lr=2e-3, epochs=5):
    datasets = make_synth(kind, 500, seed)
    templates = [t for _, ts in datasets for t in ts]
    sources = [ds for ds, _ in datasets][:2]
    target = [ds for ds, _ in datasets][2]
    vocab = build_vocab(sources, extra_texts=templates)
    cfg = ModelConfig(d=24, layers_enc=1, layers_dec=1, heads=2, max_len=16,
                      max_instr_len=24, vocab_size=len(vocab))
    pool = build_pool([ds for ds, _ in datasets], {ds.id: ts for ds, ts in datasets},
                      vocab, cfg.max_instr_len)
    params = Parameters(cfg, target.label_space.num_channels, T.rng_for(seed, "init"))
    ptcfg = TrainConfig(batch_size=16, pretrain_epochs=epochs, lr=lr)
    result = T.pretrain(TrainState.fresh(params, lr), sources, pool, vocab,
                        ptcfg, seed=seed, eval_dev=False)
    return params, T.skip_rate(result.step_reports), (target, vocab, pool, cfg)


def test_transfer_smoke():
    lr = 2e-3
    seeds = (1, 2, 3, 4, 5)
    transfer_wins = 0
    gate_wins = 0
    details = []
    for seed in seeds:
        pretrained, skip_aligned, (target, vocab, pool, cfg) = _pair_run(
            "aligned_pair", seed, lr=lr)
        _, skip_conflict, _ = _pair_run("conflict_pair", seed, lr=lr)

        ftcfg = TrainConfig(batch_size=16, finetune_epochs=50,
                            finetune_max_steps=32, lr=lr)
        warm = Parameters(cfg, target.label_space.num_channels, T.rng_for(seed, "init"))
        warm.vector[...] = pretrained.vector
        r_warm = T.finetune(TrainState.fresh(warm, lr), target, pool, vocab,
                            ftcfg, seed=seed + 100)
        cold = Parameters(cfg, target.label_space.num_channels,
                          T.rng_for(seed + 50, "init"))
        r_cold = T.finetune(TrainState.fresh(cold, lr), target, pool, vocab,
                            ftcfg, seed=seed + 100)

        if r_warm.best_dev_f1 >= r_cold.best_dev_f1:
            transfer_wins += 1
        if skip_conflict > 0 and skip_conflict > skip_aligned:
            gate_wins += 1
        details.append(
            f"s{seed}: warm={r_warm.best_dev_f1:.2f} cold={r_cold.best_dev_f1:.2f} "
            f"skip(c/a)={skip_conflict:.2f}/{skip_aligned:.2f}"
        )
    _report(
        "transfer-smoke",
        transfer_wins >= 4 and gate_wins >= 4,
        f"transfer {transfer_wins}/5, gate {gate_wins}/5 | " + "; ".join(details),
    )


def test_reproducibility(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--kind", "aligned_pair", "--size", "20", "--seed", "6",
                 "--out", str(data_dir)]) == 0
    ids = sorted(p.name for p in data_dir.iterdir() if p.is_dir())
    config = {
        "seed": 6,
        "out": "",
        "model": {"d": 8, "layers_enc": 1, "layers_dec": 1, "heads": 2,
                  "max_len": 16, "max_instr_len": 24},
        "train": {"batch_size": 5, "pretrain_epochs": 1, "finetune_epochs": 2},
        "sources": [f"data/{ids[0]}/manifest.json", f"data/{ids[1]}/manifest.json"],
        "target": f"data/{ids[2]}/manifest.json",
        "instructions": [f"data/{i}/instructions.json" for i in ids],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    def pipeline(tag):
        out = tmp_path / tag
        assert main(["pretrain", "--config", str(cfg_path),
                     "--out", str(out / "pre")]) == 0
        assert main(["finetune", "--config", str(cfg_path), "--out", str(out / "ft"),
                     "--checkpoint", str(out / "pre" / "pretrained.ckpt")]) == 0
        assert main(["eval", "--config", str(cfg_path), "--out", str(out / "ev"),
                     "--checkpoint", str(out / "ft" / "finetuned.ckpt"),
                     "--split", "dev"]) == 0
        return out

    run1, run2 = pipeline("run1"), pipeline("run2")
    pairs = [
        ("pre/pretrained.ckpt", True),
        ("ft/finetuned.ckpt", True),
        ("ev/metrics.json", True),
        ("pre/step_reports.jsonl", True),
    ]
    mismatches = [
        rel for rel, _ in pairs
        if (run1 / rel).read_bytes() != (run2 / rel).read_bytes()
    ]
    _report(
        "reproducibility",
        not mismatches,
        "byte-identical checkpoints and metric JSON" if not mismatches
        else f"mismatch in {mismatches}",
    )
