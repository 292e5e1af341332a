"""Bidirectional mapping between annotations and the token-pair label grid.

An instance over |x| tokens with K label channels becomes a binary
|x| x |x| x K matrix, held as the list of its positive cells. Entity
mentions occupy one cell: (start, end, channel).
A typed link occupies two cells in its relation channel: the head-head cell
(subject start, object start) and the tail-tail cell (subject end, object
end); a link is decoded only when both cells clear the threshold.

Decoding candidate spans differ by task shape: subjects are always decoded
entities; objects are decoded entities for RE and ABSA, while EE argument
spans are read directly off the paired cells (arguments carry no entity
type of their own).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Instance, LabelSpace

__all__ = [
    "GoldMatrix",
    "PredEntity",
    "PredLink",
    "Prediction",
    "encode",
    "decode",
    "decode_chunk",
]


@dataclass
class GoldMatrix:
    """The positive cells of a binary ``(n, n, K)`` target grid, plus a count
    of relation-cell collisions.

    ``cells`` holds one ``(i, j, channel)`` row per cell set to 1, sorted and
    unique; every other cell is 0, and no grid is held. A collision is a
    relation-channel cell claimed by more than one link; such instances are
    degenerate (they cannot round-trip) and are counted rather than
    repaired. Raises ValueError for a cell outside the grid.
    """

    n: int
    num_channels: int
    cells: np.ndarray  # (P, 3) integer rows (i, j, channel)
    collisions: int = 0

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.shape[1] != 3 or cells.dtype.kind not in "iu":
            raise ValueError(f"gold cells must be (P, 3) integer rows, got {cells.dtype} "
                             f"{cells.shape}")
        # plain Python on the rows: a gold holds a few cells, where each
        # numpy call costs more than the whole loop
        rows = cells.tolist()
        n, k = self.n, self.num_channels
        if not all(0 <= i < n and 0 <= j < n and 0 <= c < k for i, j, c in rows):
            raise ValueError(f"gold cells outside the {self.shape} grid")
        # sorted and unique iff each row is past the one before (lists
        # compare in order, as tuples do)
        if any(a >= b for a, b in zip(rows, rows[1:])):
            cells = np.array(sorted(set(map(tuple, rows)))).reshape(-1, 3)
        self.cells = cells.astype(np.intp, copy=False)

    @property
    def shape(self) -> tuple:
        return (self.n, self.n, self.num_channels)

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "GoldMatrix":
        """The cells of a dense ``(n, n, K)`` grid of 0s and 1s; raises
        ValueError for any other shape or value."""
        grid = np.asarray(grid)
        if grid.ndim != 3 or grid.shape[0] != grid.shape[1]:
            raise ValueError(f"gold grid {grid.shape} is not (n, n, K)")
        if not np.all((grid == 0) | (grid == 1)):
            raise ValueError("gold grid holds values other than 0 and 1")
        return cls(grid.shape[0], grid.shape[2], np.argwhere(grid))


@dataclass(frozen=True)
class PredEntity:
    type: str
    start: int
    end: int
    score: float


@dataclass(frozen=True)
class PredLink:
    type: str
    subject: tuple  # (start, end)
    object: tuple
    score: float
    subject_type: str | None = None
    object_type: str | None = None


@dataclass
class Prediction:
    entities: list = field(default_factory=list)
    links: list = field(default_factory=list)


def encode(instance: Instance, label_space: LabelSpace) -> GoldMatrix:
    """The positive cells of an instance's annotations; no grid is made."""
    cells = {(m.start, m.end, label_space.channel(m.type)) for m in instance.entities}
    collisions = 0
    claimed = set()
    for link in instance.links:
        k = label_space.channel(link.type)
        subj_span, _ = instance.resolve(link.subject)
        obj_span, _ = instance.resolve(link.object)
        for cell in {(subj_span[0], obj_span[0], k), (subj_span[1], obj_span[1], k)}:
            if cell in claimed:
                collisions += 1
            claimed.add(cell)
    rows = np.array(sorted(cells | claimed), dtype=np.intp).reshape(-1, 3)
    return GoldMatrix(len(instance.tokens), label_space.num_channels, rows, collisions)


def decode_chunk(probs: np.ndarray, lengths, label_space: LabelSpace, tau: float,
                 task_kind: str = "NER") -> list:
    """Threshold a chunk of probability grids back into typed structures:
    one ``Prediction`` per instance of the (B, n, n, K) ``probs``, whose
    instance b is its first ``lengths[b]`` rows and columns. No cell
    outside them is read, whatever its value.

    probs must already be probabilities in (0, 1); raising tau never adds a
    structure. Each step is one set of array operations over the chunk:
    the entity cells (i <= j) past the threshold, then for RE and ABSA the
    head-head and tail-tail cells of every (subject, object) pair of an
    instance's entities, and for EE the cells of each trigger's start and
    end rows. An instance's entities are ordered by (start, end, type) and
    its links by (subject, object, type, subject type, object type).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {tau}")
    size, n = probs.shape[:2]
    lengths = np.asarray(lengths, dtype=np.intp)
    if probs.shape != (size, n, n, label_space.num_channels) or lengths.shape != (size,) \
            or lengths.max(initial=0) > n:
        raise ValueError(f"score grids {probs.shape} do not match lengths {lengths.tolist()} "
                         f"x {label_space.num_channels} channels")
    n_ent = len(label_space.entity_types)
    # the entity channels in the order of their type names, so that the
    # cells come out of the search in (instance, start, end, type) order
    by_name = np.array(sorted(range(n_ent), key=label_space.entity_types.__getitem__),
                       dtype=np.intp)
    types = [label_space.entity_types[k] for k in by_name]
    cols = np.arange(n)
    real = cols < lengths[:, None]                 # (B, n): each instance's tokens
    upper = cols[:, None] <= cols                  # (n, n): i <= j
    hit = probs >= tau
    spans = hit[..., by_name] & (upper & real[:, None])[..., None]
    owner, start, end, kind = cells = np.array(_where(spans))   # rows b, i, j, type
    scores = probs[owner, start, end, by_name[kind]]
    entities = list(map(PredEntity, [types[t] for t in kind.tolist()], start.tolist(),
                        end.tolist(), scores.tolist()))
    preds = [Prediction(part) for part in _split(entities, owner, size)]
    if not label_space.relation_types or task_kind == "NER":
        return preds

    rel, rel_hit = probs[..., n_ent:], hit[..., n_ent:]
    if task_kind == "EE":
        # Arguments have no entity channel: read their spans (o_s <= o_e,
        # inside the instance) off each trigger's start and end rows.
        ends = rel_hit[owner, end] & real[owner][..., None]
        found = rel_hit[owner, start][:, :, None] & ends[:, None] & upper[..., None]
        subj, o_s, o_e, r = _where(found)                                # (E, o_s, o_e, R)
        obj_types = [None] * len(subj)
    else:  # RE, ABSA: both endpoints are decoded entities of the instance
        subj, obj = _pairs(owner)
        found = rel_hit[owner[subj], start[subj], start[obj]] \
            & rel_hit[owner[subj], end[subj], end[obj]]                  # (pairs, R)
        pair, r = _where(found)
        subj = subj[pair]
        _, o_s, o_e, o_kind = cells[:, obj[pair]]
        obj_types = [types[t] for t in o_kind.tolist()]
    s_owner, s_start, s_end, s_kind = cells[:, subj]
    scores = np.minimum(rel[s_owner, s_start, o_s, r], rel[s_owner, s_end, o_e, r])
    names = label_space.relation_types
    links = list(map(PredLink, [names[c] for c in r.tolist()],
                     zip(s_start.tolist(), s_end.tolist()), zip(o_s.tolist(), o_e.tolist()),
                     scores.tolist(), [types[t] for t in s_kind.tolist()], obj_types))
    for pred, part in zip(preds, _split(links, s_owner, size)):
        pred.links = sorted(part, key=lambda l: (l.subject, l.object, l.type,
                                                 l.subject_type or "", l.object_type or ""))
    return preds


def _split(items: list, owner: np.ndarray, size: int) -> list:
    """``items``, grouped by their sorted ``owner`` in [0, size), as one
    list per owner."""
    bounds = np.searchsorted(owner, np.arange(size + 1)).tolist()
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _where(mask: np.ndarray) -> tuple:
    """``np.nonzero(mask)``, the indices of its true entries in C order,
    through a flat view: several times faster for more than one axis."""
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def _pairs(owner: np.ndarray) -> tuple:
    """Every ordered pair of indices into the grouped ``owner`` whose two
    entries have the same owner, subject-major: (subjects, objects)."""
    first = np.searchsorted(owner, owner)
    count = np.searchsorted(owner, owner, side="right") - first
    subj = np.repeat(np.arange(len(owner)), count)
    offset = np.cumsum(count) - count - first   # each pair's place less its object's index
    return subj, np.arange(len(subj)) - np.repeat(offset, count)


def decode(scores: np.ndarray, label_space: LabelSpace, tau: float,
           task_kind: str = "NER") -> Prediction:
    """Threshold one instance's (n, n, K) probability grid back into typed
    structures: ``decode_chunk`` of a chunk of one, which raises ValueError
    for a grid of another shape.

    scores must already be probabilities in (0, 1); raising tau never adds
    a structure.
    """
    return decode_chunk(scores[None], [len(scores)], label_space, tau, task_kind)[0]
