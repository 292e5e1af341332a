import numpy as np
import pytest

from tie.codec import PredEntity, PredLink, Prediction
from tie.data import Instance, Link, Mention
from tie import metrics
from tie.metrics import arg_f1, ent_f1, headline_f1, rel_f1, senti_triplet_f1, trig_f1


def pred_of(entities=(), links=()):
    return Prediction(
        entities=[PredEntity(t, s, e, 0.9) for (t, s, e) in entities],
        links=[PredLink(type=t, subject=subj, object=obj, score=0.9,
                        subject_type=st, object_type=ot)
               for (t, st, subj, ot, obj) in links],
    )


def gold_of(entities=(), links=(), dataset="d", n_tokens=12):
    ents = [Mention(t, s, e) for (t, s, e) in entities]
    lks = [Link(t, subj, obj) for (t, subj, obj) in links]
    return Instance(tokens=["w"] * n_tokens, entities=ents, links=lks, dataset_id=dataset)


# Independent oracle: greedy matching with used flags over deduplicated lists.


def oracle_counts(pred_tuple_lists, gold_tuple_lists):
    tp = fp = fn = 0
    for P, G in zip(pred_tuple_lists, gold_tuple_lists):
        P = list(dict.fromkeys(P))
        G = list(dict.fromkeys(G))
        used = [False] * len(G)
        for p in P:
            for i, g in enumerate(G):
                if not used[i] and g == p:
                    used[i] = True
                    tp += 1
                    break
            else:
                fp += 1
        fn += used.count(False)
    return tp, fp, fn


def test_ent_perfect_match():
    gold = gold_of([("PER", 0, 1), ("ORG", 3, 4)])
    pred = pred_of([("PER", 0, 1), ("ORG", 3, 4)])
    rep = ent_f1([pred], [gold])
    assert rep.overall.precision == rep.overall.recall == rep.overall.f1 == 1.0


def test_ent_hand_case_f1_half():
    gold = gold_of([("PER", 0, 1), ("ORG", 3, 4)])
    pred = pred_of([("PER", 0, 1), ("ORG", 3, 5)])
    rep = ent_f1([pred], [gold])
    assert (rep.overall.tp, rep.overall.fp, rep.overall.fn) == (1, 1, 1)
    assert rep.overall.f1 == 0.5


def test_ent_empty_predictions():
    gold = gold_of([("PER", 0, 1)])
    rep = ent_f1([pred_of()], [gold])
    assert rep.overall.precision == 0.0
    assert rep.overall.recall == 0.0
    assert rep.overall.f1 == 0.0


def test_ent_misaligned_lists_error():
    with pytest.raises(ValueError):
        ent_f1([pred_of()], [])


def test_ent_duplicates_deduplicated():
    gold = gold_of([("PER", 0, 1)])
    pred = pred_of([("PER", 0, 1), ("PER", 0, 1)])
    rep = ent_f1([pred], [gold])
    assert (rep.overall.tp, rep.overall.fp, rep.overall.fn) == (1, 0, 0)


def test_rel_three_cases():
    link = ("Work_For", "PER", (0, 1), "ORG", (4, 6))
    gold = gold_of([("PER", 0, 1), ("ORG", 4, 6)], [("Work_For", 0, 1)])
    assert rel_f1([pred_of(links=[link])], [gold]).overall.f1 == 1.0

    wrong_span = ("Work_For", "PER", (0, 1), "ORG", (4, 5))
    rep = rel_f1([pred_of(links=[wrong_span])], [gold])
    assert (rep.overall.tp, rep.overall.fp, rep.overall.fn) == (0, 1, 1)

    wrong_type = ("Work_For", "PER", (0, 1), "LOC", (4, 6))
    rep = rel_f1([pred_of(links=[wrong_type])], [gold])
    assert rep.overall.tp == 0


def test_trig_and_arg_cases():
    gold = gold_of([("Attack", 2, 2)], [("Target", 0, (5, 6))])
    pred_ok = pred_of(
        [("Attack", 2, 2)],
        [("Target", "Attack", (2, 2), None, (5, 6))],
    )
    assert trig_f1([pred_ok], [gold]).overall.f1 == 1.0
    assert arg_f1([pred_ok], [gold]).overall.f1 == 1.0

    # role correct, argument span shifted: one FP plus one FN
    pred_shift = pred_of(
        [("Attack", 2, 2)],
        [("Target", "Attack", (2, 2), None, (5, 7))],
    )
    rep = arg_f1([pred_shift], [gold])
    assert (rep.overall.tp, rep.overall.fp, rep.overall.fn) == (0, 1, 1)


def test_arg_ignores_trigger_offsets():
    gold = gold_of([("Attack", 2, 2)], [("Target", 0, (5, 6))])
    # right event type but wrong trigger span
    pred = pred_of(
        [("Attack", 3, 3)],
        [("Target", "Attack", (3, 3), None, (5, 6))],
    )
    assert arg_f1([pred], [gold]).overall.f1 == 1.0


def test_senti_triplet_cases():
    gold = gold_of(
        [("Expression", 1, 1), ("Aspect", 4, 4)],
        [("Positive", 0, 1)],
    )
    ok = pred_of(links=[("Positive", "Expression", (1, 1), "Aspect", (4, 4))])
    assert senti_triplet_f1([ok], [gold]).overall.f1 == 1.0

    wrong_pol = pred_of(links=[("Negative", "Expression", (1, 1), "Aspect", (4, 4))])
    rep = senti_triplet_f1([wrong_pol], [gold])
    assert (rep.overall.tp, rep.overall.fp, rep.overall.fn) == (0, 1, 1)

    assert senti_triplet_f1([pred_of()], [gold]).overall.f1 == 0.0


def test_micro_pooling_sums_counts():
    g1 = gold_of([("PER", 0, 0)], dataset="a")
    g2 = gold_of([("PER", 1, 1), ("ORG", 3, 3)], dataset="b")
    p1 = pred_of([("PER", 0, 0)])
    p2 = pred_of([("PER", 2, 2)])
    rep = ent_f1([p1, p2], [g1, g2])
    assert (rep.overall.tp, rep.overall.fp, rep.overall.fn) == (1, 1, 2)
    assert rep.per_dataset["a"].f1 == 1.0
    assert rep.per_dataset["b"].tp == 0
    # micro != average of per-dataset F1s
    assert rep.overall.f1 == pytest.approx(2 * 1 / 2 * 1 / 3 / (1 / 2 + 1 / 3))


def _random_ent_case(rng, n_inst=6):
    golds, preds = [], []
    types = ["A", "B", "C"]
    for _ in range(n_inst):
        gold_ents = [(types[int(rng.integers(3))], int(s), int(s) + int(rng.integers(2)))
                     for s in rng.integers(0, 8, size=rng.integers(0, 5))]
        pred_ents = []
        for t, s, e in gold_ents:
            if rng.random() < 0.6:
                pred_ents.append((t, s, e))
        for s in rng.integers(0, 8, size=rng.integers(0, 4)):
            pred_ents.append((types[int(rng.integers(3))], int(s), int(s) + int(rng.integers(2))))
        golds.append(gold_of([(t, s, min(e, 9)) for t, s, e in gold_ents]))
        preds.append(pred_of([(t, s, min(e, 9)) for t, s, e in pred_ents]))
    return preds, golds


def test_ent_fuzz_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        preds, golds = _random_ent_case(rng)
        rep = ent_f1(preds, golds)
        tp, fp, fn = oracle_counts(
            [[(e.type, e.start, e.end) for e in p.entities] for p in preds],
            [[(m.type, m.start, m.end) for m in g.entities] for g in golds],
        )
        assert (rep.overall.tp, rep.overall.fp, rep.overall.fn) == (tp, fp, fn)


def _random_link_case(rng):
    golds, preds = [], []
    rels = ["r1", "r2"]
    for _ in range(4):
        g_links, p_links = [], []
        for _ in range(int(rng.integers(0, 4))):
            r = rels[int(rng.integers(2))]
            s = (int(rng.integers(4)), int(rng.integers(4, 8)))
            o = (int(rng.integers(4)), int(rng.integers(4, 8)))
            g_links.append((r, "T", s, None, o))
            if rng.random() < 0.5:
                p_links.append((r, "T", s, None, o))
            else:
                p_links.append((r, "T", s, None, (o[0], min(9, o[1] + 1))))
        golds.append(gold_of(
            [("T", s[0], s[1]) for (_, _, s, _, _) in g_links],
            [(r, i, o) for i, (r, _, _, _, o) in enumerate(g_links)],
            n_tokens=12,
        ))
        preds.append(pred_of(links=p_links))
    return preds, golds


def test_arg_fuzz_matches_oracle():
    rng = np.random.default_rng(22)
    for _ in range(200):
        preds, golds = _random_link_case(rng)
        rep = arg_f1(preds, golds)
        tp, fp, fn = oracle_counts(
            [[(l.object, l.type, l.subject_type) for l in p.links] for p in preds],
            [[(g.resolve(lk.object)[0], lk.type, g.resolve(lk.subject)[1])
              for lk in g.links] for g in golds],
        )
        assert (rep.overall.tp, rep.overall.fp, rep.overall.fn) == (tp, fp, fn)


def test_monotonicity_properties():
    rng = np.random.default_rng(23)
    for _ in range(100):
        preds, golds = _random_ent_case(rng, n_inst=3)
        base = ent_f1(preds, golds)
        # adding a correct prediction never lowers F1
        target = None
        for g in golds:
            if g.entities:
                target = g
                break
        if target is not None:
            m = target.entities[0]
            idx = golds.index(target)
            better = [Prediction(entities=list(p.entities), links=[]) for p in preds]
            better[idx].entities.append(PredEntity(m.type, m.start, m.end, 0.9))
            assert ent_f1(better, golds).overall.f1 >= base.overall.f1 - 1e-12
        # adding an incorrect prediction never raises recall
        worse = [Prediction(entities=list(p.entities), links=[]) for p in preds]
        worse[0].entities.append(PredEntity("Z", 0, 0, 0.9))
        assert ent_f1(worse, golds).overall.recall <= base.overall.recall + 1e-12


def test_bounds_always_unit_interval():
    rng = np.random.default_rng(24)
    for _ in range(100):
        preds, golds = _random_ent_case(rng, n_inst=2)
        rep = ent_f1(preds, golds)
        for c in [rep.overall, *rep.per_dataset.values()]:
            assert 0.0 <= c.precision <= 1.0
            assert 0.0 <= c.recall <= 1.0
            assert 0.0 <= c.f1 <= 1.0


def test_headline_f1_by_task():
    gold = gold_of([("Attack", 2, 2)], [("Target", 0, (5, 6))])
    pred = pred_of([("Attack", 2, 2)], [("Target", "Attack", (2, 2), None, (5, 7))])
    reports = metrics.task_metric("EE", [pred], [gold])
    assert headline_f1(reports, "EE") == pytest.approx(0.5 * (1.0 + 0.0))
