"""Score-grid helpers shared by the codec and trainer tests, and the
structure sets the codec and acceptance tests compare."""

import numpy as np

from tie.codec import GoldMatrix


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
