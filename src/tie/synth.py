"""Seeded synthetic corpora for all four task shapes.

The datasets are built from cue-word pools, where each pool maps onto one
label channel so a small model can actually learn the annotation rule. The
"aligned_pair" kind emits two sources plus a target that all agree on the
pool-to-channel mapping; "conflict_pair" emits two sources whose mappings
are a full derangement of each other, so identical surface patterns demand
contradictory channels (plus a target aligned with the first source). The
two sources of a pair are named from one draw of the sentence stream, so
their sentences are identical by construction.

A corpus is a pure function of (kind, size, seed): each split draws from its
own generator seeded by (seed, split), one scalar draw at a time, and the
golden digests in the tests pin every file ``write_synth`` writes.
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
    """lo..hi filler words, one scalar draw each. A fixed count (lo == hi)
    draws no count: ``integers(lo, lo + 1)`` would not move the stream."""
    count = lo if lo == hi else int(rng.integers(lo, hi + 1))
    return [FILLER[rng.integers(0, len(FILLER))] for _ in range(count)]


def _pick(rng, pool):
    return pool[rng.integers(0, len(pool))]


# The NER kinds' cue-word pools, in the order draws index them, and the two
# ways datasets name them by pool position.
NER_POOLS = (ANIMALS, COLORS, CITIES)
NER_NAMES = ("Animal", "Color", "City")
CONFLICT_NAMES = ("Beast", "Shade", "Venue")


def _ner_draw(rng):
    """One NER sentence as (tokens, [(pool position, start, end)]).

    Cue words from a pool become one mention, which carries the pool's
    position rather than a type name; ``_ner_datasets`` names it, so
    datasets named from one draw have identical sentences with different
    labels. Kept dense (2-3 mentions, single fillers between) so the
    positive cells carry a useful share of the gradient at toy scale.
    """
    tokens = _fillers(rng, 0, 1)
    spans = []
    for i in range(int(rng.integers(2, 4))):
        if i:
            tokens.extend(_fillers(rng, 1, 1))
        pos = int(rng.integers(0, len(NER_POOLS)))
        length = 2 if rng.random() < 0.2 else 1
        start = len(tokens)
        tokens.extend(_pick(rng, NER_POOLS[pos]) for _ in range(length))
        spans.append((pos, start, start + length - 1))
    tokens.extend(_fillers(rng, 0, 1))
    return tokens, spans


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
    ttype = list(TRIGGER_POOLS)[rng.integers(0, len(TRIGGER_POOLS))]
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
    polarity = list(EXPR_POOLS)[rng.integers(0, len(EXPR_POOLS))]
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


def _draw_splits(sample, size, seed):
    """``sample(rng)`` for ``size`` train and max(20, size // 10) dev and test
    items, each split from its own stream seeded by (seed, split tag)."""
    dev_size = max(20, size // 10)
    drawn = {}
    for split, count, tag in (("train", size, 0), ("dev", dev_size, 1), ("test", dev_size, 2)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
        drawn[split] = [sample(rng) for _ in range(count)]
    return drawn


def _dataset(dataset_id, task, space, splits):
    return Dataset(id=dataset_id, task_kind=task, label_space=space, splits=Splits(**splits))


def _ner_datasets(specs, size, seed):
    """NER datasets named from one draw of the sentence stream, each with its
    templates. A spec is (dataset_id, names, type_order): a mention is
    named ``names[pool position]`` and ``type_order`` assigns the names to
    channels. Each draw is named as it is made, so no split of bare draws
    is held; every dataset owns its instances and token lists."""
    def sample(rng):
        tokens, spans = _ner_draw(rng)
        return [Instance(tokens=list(tokens),
                         entities=[Mention(names[pos], start, end) for pos, start, end in spans],
                         dataset_id=dataset_id)
                for dataset_id, names, _ in specs]

    drawn = _draw_splits(sample, size, seed)
    out = []
    for i, (dataset_id, _, type_order) in enumerate(specs):
        space = LabelSpace(list(type_order), [])
        splits = {split: [named[i] for named in items] for split, items in drawn.items()}
        out.append((_dataset(dataset_id, "NER", space, splits),
                    _entity_templates(space.entity_types)))
    return out


def make_synth(kind: str, size: int, seed: int):
    """Build the datasets of one synth kind; returns [(Dataset, templates)],
    a pure function of (kind, size, seed)."""
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synth kind {kind!r}; expected one of {SYNTH_KINDS}")
    if size < 1:
        raise ValueError(f"size: must be >= 1, got {size}")
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed}")

    if kind == "ner":
        return _ner_datasets([("synth-ner", NER_NAMES, NER_NAMES)], size, seed)

    if kind == "re":
        space = LabelSpace(["Person", "Org", "Place"], ["Works_At", "Based_In"])
        ds = _dataset("synth-re", "RE", space,
                      _draw_splits(lambda rng: _re_instance(rng, "synth-re"), size, seed))
        return [(ds, _relation_templates(space.entity_types, space.relation_types))]

    if kind == "ee":
        space = LabelSpace(list(TRIGGER_POOLS), ["Agent", "Destination"])
        ds = _dataset("synth-ee", "EE", space,
                      _draw_splits(lambda rng: _ee_instance(rng, "synth-ee"), size, seed))
        return [(ds, _event_templates(space.entity_types, space.relation_types))]

    if kind == "absa":
        space = LabelSpace(ABSA_ENTITY_TYPES, ABSA_RELATION_TYPES)
        ds = _dataset("synth-absa", "ABSA", space,
                      _draw_splits(lambda rng: _absa_instance(rng, "synth-absa"), size, seed))
        return [(ds, _absa_templates())]

    # Paired kinds: both sources are named from ONE draw of the sentence
    # stream, so only the labeling differs. The aligned pair names every
    # pool the same way; the conflict pair's second dataset routes each pool
    # to a different channel (a full derangement), so the same surface
    # pattern demands opposing targets. The target has a stream of its own.
    if kind == "aligned_pair":
        sources = [("aligned-a", NER_NAMES, NER_NAMES), ("aligned-b", NER_NAMES, NER_NAMES)]
        target = ("aligned-target", NER_NAMES, NER_NAMES)
    else:
        # Animals: channel 0 in a, 1 in b; colors: 1 -> 2; cities: 2 -> 0.
        sources = [("conflict-a", NER_NAMES, NER_NAMES),
                   ("conflict-b", CONFLICT_NAMES, ("Venue", "Beast", "Shade"))]
        target = ("conflict-target", NER_NAMES, NER_NAMES)
    return _ner_datasets(sources, size, seed + 10) + _ner_datasets([target], size, seed + 30)


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
