"""Seeded synthetic corpora for all four task shapes.

The datasets are built from cue-word pools, where each pool maps onto one
label channel so a small model can actually learn the annotation rule. The
"aligned_pair" kind emits two sources plus a target that all agree on the
pool-to-channel mapping; "conflict_pair" emits two sources whose mappings
are a full derangement of each other, so identical surface patterns demand
contradictory channels (plus a target aligned with the first source).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import (
    ABSA_ENTITY_TYPES,
    ABSA_RELATION_TYPES,
    Dataset,
    Instance,
    LabelSpace,
    Link,
    Mention,
    Splits,
)

__all__ = [
    "SYNTH_KINDS",
    "make_synth",
    "write_synth",
    "instance_to_json",
]

SYNTH_KINDS = ("ner", "re", "ee", "absa", "aligned_pair", "conflict_pair")

FILLER = (
    "the a an old quiet near under over beside big small bright dark slow fast "
    "plain stone road hill door tree window river walks sees holds finds keeps "
    "cold warm dry soft long short"
).split()

ANIMALS = "fox heron otter lynx ibex crane stoat marmot".split()
COLORS = "crimson ochre teal indigo umber viridian sepia cobalt".split()
CITIES = "karlsruhe tampere oviedo leuven brno galway kyoto perth".split()

PERSONS = "imre botev salme carsten noor teodora vidal anselm".split()
ORGS = "gruberworks fennolab ostrichsoft quarrycorp milltrade hartfond".split()
PLACES = "dockside uptown foothills lakeside midtown outskirts".split()

TRIGGER_POOLS = {
    "Meeting": "summit assembly huddle briefing".split(),
    "Travel": "voyage trek flight crossing".split(),
}
AGENT_POOL = "delegates envoys scouts pilots clerks".split()
DEST_POOL = "harbor plateau terminal basin depot".split()

EXPR_POOLS = {
    "Positive": "cozy superb delightful gleaming".split(),
    "Negative": "dismal soggy bleak shabby".split(),
    "Neutral": "ordinary standard typical usual".split(),
}
ASPECT_POOL = "service decor menu portions staff terrace".split()


def instance_to_json(inst: Instance) -> dict:
    links = []
    for lk in inst.links:
        def ref(r):
            return r if isinstance(r, int) else {"start": r[0], "end": r[1]}
        links.append({"type": lk.type, "subject": ref(lk.subject), "object": ref(lk.object)})
    return {
        "tokens": list(inst.tokens),
        "entities": [{"type": m.type, "start": m.start, "end": m.end} for m in inst.entities],
        "links": links,
    }


def _slot_list(names):
    holes = ["{%s}" % n for n in names]
    if len(holes) == 1:
        return holes[0], holes[0]
    return ", ".join(holes[:-1]) + " and " + holes[-1], ", ".join(holes)


def _entity_templates(entity_types):
    joined, listed = _slot_list(entity_types)
    return [
        f"Identify the {joined} entities in the sentence.",
        f"Find all mentions of {listed} in the text.",
        f"Mark every {joined} span you can see.",
        f"Locate entities of kind {listed} within the sentence.",
        f"Extract each {joined} mention from the text.",
    ]


def _relation_templates(entity_types, relation_types):
    e_joined, e_listed = _slot_list(entity_types)
    r_joined, r_listed = _slot_list(relation_types)
    return [
        f"Identify the {e_joined} entities and the {r_joined} relations between them.",
        f"Find all {e_listed} mentions, then mark {r_listed} pairs.",
        f"Mark every {e_joined} span and connect them with {r_joined} links.",
        f"Locate entities of kind {e_listed} plus their {r_listed} relations.",
        f"Extract each {e_joined} mention and each {r_joined} relation.",
    ]


def _event_templates(trigger_types, role_types):
    t_joined, t_listed = _slot_list(trigger_types)
    r_joined, r_listed = _slot_list(role_types)
    return [
        f"Locate the event types {t_joined}. Identify the argument roles {r_joined}.",
        f"Find triggers of kind {t_listed} and arguments filling {r_listed}.",
        f"Mark each {t_joined} trigger, then attach its {r_joined} arguments.",
        f"Spot the {t_listed} events with their {r_listed} participants.",
        f"Extract every {t_joined} trigger and every {r_joined} argument span.",
    ]


def _absa_templates():
    return [
        "Judge the sentiment ({Positive}, {Negative} or {Neutral}) of the sentence "
        "and mark the {Expression}, {Aspect} parts.",
        "Label each {Expression} and {Aspect}, then decide if the tone is "
        "{Positive}, {Negative} or {Neutral}.",
        "Tag the {Aspect} under discussion, the {Expression} describing it, and "
        "whether that is {Positive}, {Negative} or {Neutral}.",
        "Which spans are {Expression} or {Aspect}? Classify the opinion as "
        "{Positive}, {Negative} or {Neutral}.",
        "Mark opinion {Expression} spans, their {Aspect} targets, and the "
        "{Positive}, {Negative} or {Neutral} polarity.",
    ]


def _fillers(rng, lo, hi):
    return [FILLER[int(i)] for i in rng.integers(0, len(FILLER), size=int(rng.integers(lo, hi + 1)))]


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _ner_instance(rng, pool_entries, dataset_id: str) -> Instance:
    """Cue words from each pool become mentions of that pool's type name.

    pool_entries is an ordered list of (type name, word pool); draws index
    the list positionally, so two datasets handed the same pools in the same
    order but different names produce identical sentences with different
    labels. Kept dense (2-3 mentions, single fillers between) so the
    positive cells carry a useful share of the gradient at toy scale.
    """
    tokens = _fillers(rng, 0, 1)
    entities = []
    for i in range(int(rng.integers(2, 4))):
        if i:
            tokens.extend(_fillers(rng, 1, 1))
        name, words = pool_entries[int(rng.integers(len(pool_entries)))]
        length = 2 if rng.random() < 0.2 else 1
        start = len(tokens)
        tokens.extend(_pick(rng, words) for _ in range(length))
        entities.append(Mention(name, start, start + length - 1))
    tokens.extend(_fillers(rng, 0, 1))
    return Instance(tokens=tokens, entities=entities, dataset_id=dataset_id)


def _re_instance(rng, dataset_id: str) -> Instance:
    tokens = _fillers(rng, 1, 2)
    person = Mention("Person", len(tokens), len(tokens))
    tokens.append(_pick(rng, PERSONS))
    tokens.extend(_fillers(rng, 1, 2))
    org = Mention("Org", len(tokens), len(tokens))
    tokens.append(_pick(rng, ORGS))
    links = [Link("Works_At", 0, 1)]
    entities = [person, org]
    if rng.random() < 0.5:
        tokens.extend(_fillers(rng, 1, 2))
        place = Mention("Place", len(tokens), len(tokens))
        tokens.append(_pick(rng, PLACES))
        entities.append(place)
        links.append(Link("Based_In", 1, 2))
    tokens.extend(_fillers(rng, 1, 2))
    return Instance(tokens=tokens, entities=entities, links=links, dataset_id=dataset_id)


def _ee_instance(rng, dataset_id: str) -> Instance:
    tokens = _fillers(rng, 1, 2)
    ttype = list(TRIGGER_POOLS)[int(rng.integers(len(TRIGGER_POOLS)))]
    trig = Mention(ttype, len(tokens), len(tokens))
    tokens.append(_pick(rng, TRIGGER_POOLS[ttype]))
    links = []
    tokens.extend(_fillers(rng, 1, 2))
    agent = (len(tokens), len(tokens))
    tokens.append(_pick(rng, AGENT_POOL))
    links.append(Link("Agent", 0, agent))
    if rng.random() < 0.6:
        tokens.extend(_fillers(rng, 1, 2))
        dest = (len(tokens), len(tokens))
        tokens.append(_pick(rng, DEST_POOL))
        links.append(Link("Destination", 0, dest))
    tokens.extend(_fillers(rng, 1, 2))
    return Instance(tokens=tokens, entities=[trig], links=links, dataset_id=dataset_id)


def _absa_instance(rng, dataset_id: str) -> Instance:
    tokens = _fillers(rng, 1, 2)
    polarity = list(EXPR_POOLS)[int(rng.integers(len(EXPR_POOLS)))]
    expr = Mention("Expression", len(tokens), len(tokens))
    tokens.append(_pick(rng, EXPR_POOLS[polarity]))
    tokens.extend(_fillers(rng, 1, 2))
    aspect = Mention("Aspect", len(tokens), len(tokens))
    tokens.append(_pick(rng, ASPECT_POOL))
    tokens.extend(_fillers(rng, 1, 2))
    return Instance(
        tokens=tokens,
        entities=[expr, aspect],
        links=[Link(polarity, 0, 1)],
        dataset_id=dataset_id,
    )


def _build(dataset_id, task, space, sampler, size, seed, dev_size=None):
    dev_size = dev_size if dev_size is not None else max(20, size // 10)
    streams = {}
    for split, count, tag in (("train", size, 0), ("dev", dev_size, 1), ("test", dev_size, 2)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
        streams[split] = [sampler(rng) for _ in range(count)]
    return Dataset(id=dataset_id, task_kind=task, label_space=space,
                   splits=Splits(**streams))


def make_synth(kind: str, size: int, seed: int):
    """Build the datasets of one synth kind; returns [(Dataset, templates)]."""
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synth kind {kind!r}; expected one of {SYNTH_KINDS}")
    if size < 1:
        raise ValueError("size must be positive")

    if kind == "ner":
        entries = [("Animal", ANIMALS), ("Color", COLORS), ("City", CITIES)]
        space = LabelSpace([n for n, _ in entries], [])
        ds = _build("synth-ner", "NER", space,
                    lambda rng: _ner_instance(rng, entries, "synth-ner"), size, seed)
        return [(ds, _entity_templates(space.entity_types))]

    if kind == "re":
        space = LabelSpace(["Person", "Org", "Place"], ["Works_At", "Based_In"])
        ds = _build("synth-re", "RE", space,
                    lambda rng: _re_instance(rng, "synth-re"), size, seed)
        return [(ds, _relation_templates(space.entity_types, space.relation_types))]

    if kind == "ee":
        space = LabelSpace(list(TRIGGER_POOLS), ["Agent", "Destination"])
        ds = _build("synth-ee", "EE", space,
                    lambda rng: _ee_instance(rng, "synth-ee"), size, seed)
        return [(ds, _event_templates(space.entity_types, space.relation_types))]

    if kind == "absa":
        space = LabelSpace(ABSA_ENTITY_TYPES, ABSA_RELATION_TYPES)
        ds = _build("synth-absa", "ABSA", space,
                    lambda rng: _absa_instance(rng, "synth-absa"), size, seed)
        return [(ds, _absa_templates())]

    # Paired kinds: both sources of a pair draw IDENTICAL sentence streams
    # (same sentence seed, same canonical pool order); only the labeling
    # differs. The aligned pair names every pool the same way; the conflict
    # pair's second dataset routes each pool to a different channel (a full
    # derangement), so the same surface pattern demands opposing targets.
    entries_a = [("Animal", ANIMALS), ("Color", COLORS), ("City", CITIES)]
    types_a = [n for n, _ in entries_a]
    if kind == "aligned_pair":
        specs = [
            ("aligned-a", entries_a, types_a, 10),
            ("aligned-b", entries_a, types_a, 10),
            ("aligned-target", entries_a, types_a, 30),
        ]
    else:
        # ANIMALS: channel 0 in a, 1 in b; COLORS: 1 -> 2; CITIES: 2 -> 0.
        entries_b = [("Beast", ANIMALS), ("Shade", COLORS), ("Venue", CITIES)]
        types_b = ["Venue", "Beast", "Shade"]
        specs = [
            ("conflict-a", entries_a, types_a, 10),
            ("conflict-b", entries_b, types_b, 10),
            ("conflict-target", entries_a, types_a, 30),
        ]
    out = []
    for ds_id, entries, type_order, offset in specs:
        space = LabelSpace(type_order, [])
        ds = _build(ds_id, "NER", space,
                    lambda rng, e=entries, i=ds_id: _ner_instance(rng, e, i),
                    size, seed + offset)
        out.append((ds, _entity_templates(space.entity_types)))
    return out


def write_synth(out_dir, kind: str, size: int, seed: int):
    """Write datasets, manifests and instruction files; returns written paths."""
    out_dir = Path(out_dir)
    written = []
    for ds, templates in make_synth(kind, size, seed):
        base = out_dir / ds.id
        base.mkdir(parents=True, exist_ok=True)
        for split in ("train", "dev", "test"):
            path = base / f"{split}.jsonl"
            with path.open("w", encoding="utf-8") as fh:
                for inst in getattr(ds.splits, split):
                    fh.write(json.dumps(instance_to_json(inst), sort_keys=True) + "\n")
            written.append(path)
        manifest = base / "manifest.json"
        manifest.write_text(json.dumps({
            "id": ds.id,
            "task": ds.task_kind,
            "entity_types": ds.label_space.entity_types,
            "relation_types": ds.label_space.relation_types,
            "train": "train.jsonl",
            "dev": "dev.jsonl",
            "test": "test.jsonl",
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(manifest)
        instr = base / "instructions.json"
        instr.write_text(json.dumps({"dataset": ds.id, "templates": templates},
                                    indent=2) + "\n", encoding="utf-8")
        written.append(instr)
    return written
