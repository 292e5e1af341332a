"""Score-grid helpers shared by the codec and trainer tests, the
structure sets the codec and acceptance tests compare, and the
instance-by-instance decode that ``tie.codec.decode_chunk`` must equal."""

import numpy as np

from tie.codec import GoldMatrix, PredEntity, PredLink, Prediction


def dense(gold: GoldMatrix) -> np.ndarray:
    """The float64 ``(n, n, K)`` grid of ``gold``: 1.0 at each cell, 0.0
    elsewhere."""
    grid = np.zeros(gold.shape)
    grid[tuple(gold.cells.T)] = 1.0
    return grid


def lift(gold: GoldMatrix | np.ndarray) -> np.ndarray:
    """Map a binary grid to well-separated probabilities {0 -> .01, 1 -> .99}."""
    data = dense(gold) if isinstance(gold, GoldMatrix) else gold
    return np.where(data > 0.5, 0.99, 0.01)


def annotation_grid(instance, label_space) -> tuple:
    """The reference encoding, written straight into a dense float64 grid:
    ``(grid, collisions)``, a collision being a relation cell that a link
    claims after an earlier link claimed it."""
    n = len(instance.tokens)
    grid = np.zeros((n, n, label_space.num_channels))
    for m in instance.entities:
        grid[m.start, m.end, label_space.channel(m.type)] = 1.0
    collisions = 0
    claimed = set()
    for link in instance.links:
        k = label_space.channel(link.type)
        subj_span, _ = instance.resolve(link.subject)
        obj_span, _ = instance.resolve(link.object)
        for cell in {(subj_span[0], obj_span[0], k), (subj_span[1], obj_span[1], k)}:
            collisions += cell in claimed
            claimed.add(cell)
            grid[cell] = 1.0
    return grid, collisions


def entity_set(structures) -> set:
    """``(type, start, end)`` of each entity of a ``Prediction`` or an
    ``Instance``."""
    return {(e.type, e.start, e.end) for e in structures.entities}


def link_set(prediction) -> set:
    """``(type, subject span, object span)`` of each predicted link."""
    return {(l.type, l.subject, l.object) for l in prediction.links}


def gold_link_set(instance) -> set:
    """``(type, subject span, object span)`` of each gold link, its
    endpoints resolved to spans."""
    return {(link.type, instance.resolve(link.subject)[0], instance.resolve(link.object)[0])
            for link in instance.links}


def reference_decode(scores, label_space, tau, task_kind="NER") -> Prediction:
    """One (n, n, K) probability grid decoded cell by cell and pair by pair
    in Python, as the codec did before it decoded whole chunks."""
    n_ent = len(label_space.entity_types)
    entities = [PredEntity(type=label_space.entity_types[k], start=int(i), end=int(j),
                           score=float(scores[i, j, k]))
                for i, j, k in np.argwhere(scores[:, :, :n_ent] >= tau) if i <= j]
    entities.sort(key=lambda e: (e.start, e.end, e.type))
    prediction = Prediction(entities=entities)
    if not label_space.relation_types or task_kind == "NER":
        return prediction

    def link(rname, k, subj, obj, object_type=None):
        score = float(min(scores[subj.start, obj[0], k], scores[subj.end, obj[1], k]))
        return PredLink(type=rname, subject=(subj.start, subj.end), object=obj, score=score,
                        subject_type=subj.type, object_type=object_type)

    links = []
    for subj in entities:
        for rk, rname in enumerate(label_space.relation_types):
            k = n_ent + rk
            if task_kind == "EE":   # arguments are read off the trigger's rows
                starts = np.flatnonzero(scores[subj.start, :, k] >= tau)
                ends = np.flatnonzero(scores[subj.end, :, k] >= tau)
                links += [link(rname, k, subj, (int(o_s), int(o_e)))
                          for o_s in starts for o_e in ends if o_s <= o_e]
            else:   # RE, ABSA: both endpoints are decoded entities
                links += [link(rname, k, subj, (obj.start, obj.end), obj.type)
                          for obj in entities
                          if scores[subj.start, obj.start, k] >= tau
                          and scores[subj.end, obj.end, k] >= tau]
    links.sort(key=lambda l: (l.subject, l.object, l.type, l.subject_type or "",
                              l.object_type or ""))
    prediction.links = links
    return prediction
