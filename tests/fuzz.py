"""Structure-random instances that exercise the codec.

Shapes and spans are arbitrary except for the constraints that keep the
two-cell link encoding invertible: spans that participate in links are
pairwise disjoint, and an event trigger carries at most one argument per
role.
"""

import numpy as np

from tie.data import ABSA_ENTITY_TYPES, ABSA_RELATION_TYPES, Instance, LabelSpace, Link, Mention

FUZZ_SPACES = {
    "NER": LabelSpace(["P", "Q", "R"], []),
    "RE": LabelSpace(["P", "Q"], ["r1", "r2"]),
    "EE": LabelSpace(["T1", "T2"], ["roleA", "roleB"]),
    "ABSA": LabelSpace(ABSA_ENTITY_TYPES, ABSA_RELATION_TYPES),
}

_FUZZ_WORDS = [f"w{i}" for i in range(30)]


def _random_tokens(rng, lo=3, hi=12):
    n = int(rng.integers(lo, hi + 1))
    return [_FUZZ_WORDS[int(i)] for i in rng.integers(0, len(_FUZZ_WORDS), size=n)]


def _random_span(rng, n, max_len=3):
    start = int(rng.integers(n))
    end = min(n - 1, start + int(rng.integers(max_len)))
    return start, end


def _disjoint_spans(rng, n, count, max_len=3):
    """Up to `count` pairwise disjoint spans; may return fewer."""
    spans = []
    for _ in range(count * 4):
        if len(spans) == count:
            break
        s, e = _random_span(rng, n, max_len)
        if all(e < s2 or s2e < s for (s2, s2e) in spans):
            spans.append((s, e))
    return spans


def fuzz_instance(task_kind: str, rng: np.random.Generator) -> Instance:
    """A random well-formed instance of one task shape.

    Well-formed means the two-cell link encoding is invertible: linked spans
    never overlap, and an EE trigger has at most one argument per role.
    Entity-only instances may nest and overlap freely.
    """
    space = FUZZ_SPACES[task_kind]
    tokens = _random_tokens(rng)
    n = len(tokens)

    if task_kind == "NER":
        entities = []
        seen = set()
        for _ in range(int(rng.integers(0, 5))):
            s, e = _random_span(rng, n)
            t = space.entity_types[int(rng.integers(len(space.entity_types)))]
            if (t, s, e) not in seen:
                seen.add((t, s, e))
                entities.append(Mention(t, s, e))
        return Instance(tokens=tokens, entities=entities, dataset_id="fuzz-ner")

    if task_kind == "RE":
        spans = _disjoint_spans(rng, n, int(rng.integers(2, 5)))
        entities = [
            Mention(space.entity_types[int(rng.integers(len(space.entity_types)))], s, e)
            for s, e in spans
        ]
        links = []
        seen = set()
        if len(entities) >= 2:
            for _ in range(int(rng.integers(0, 4))):
                i, j = rng.choice(len(entities), size=2, replace=False)
                r = space.relation_types[int(rng.integers(len(space.relation_types)))]
                key = (r, int(i), int(j))
                if key not in seen:
                    seen.add(key)
                    links.append(Link(r, int(i), int(j)))
        return Instance(tokens=tokens, entities=entities, links=links, dataset_id="fuzz-re")

    if task_kind == "EE":
        spans = _disjoint_spans(rng, n, int(rng.integers(1, 4)), max_len=2)
        if not spans:
            return Instance(tokens=tokens, dataset_id="fuzz-ee")
        n_trig = max(1, len(spans) - 2)
        triggers = [
            Mention(space.entity_types[int(rng.integers(len(space.entity_types)))], s, e)
            for s, e in spans[:n_trig]
        ]
        arg_spans = spans[n_trig:]
        links = []
        for a_span in arg_spans:
            t_idx = int(rng.integers(len(triggers)))
            trig = triggers[t_idx]
            if trig.start == trig.end:
                # A single-token trigger folds head and tail cells into one
                # row; multi-token arguments would decode ambiguously there.
                a_span = (a_span[0], a_span[0])
            free_roles = [
                r for r in space.relation_types
                if all(not (lk.subject == t_idx and lk.type == r) for lk in links)
            ]
            if free_roles:
                links.append(Link(free_roles[int(rng.integers(len(free_roles)))],
                                  t_idx, a_span))
        return Instance(tokens=tokens, entities=triggers, links=links, dataset_id="fuzz-ee")

    if task_kind == "ABSA":
        spans = _disjoint_spans(rng, n, 2 * int(rng.integers(1, 3)), max_len=2)
        entities = []
        links = []
        for i in range(len(spans) // 2):
            ei, ai = 2 * i, 2 * i + 1
            entities.append(Mention("Expression", *spans[ei]))
            entities.append(Mention("Aspect", *spans[ai]))
            pol = ABSA_RELATION_TYPES[int(rng.integers(3))]
            links.append(Link(pol, ei, ai))
        return Instance(tokens=tokens, entities=entities, links=links, dataset_id="fuzz-absa")

    raise ValueError(f"unknown task kind {task_kind!r}")
