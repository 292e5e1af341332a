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


def _decode_entities(scores, label_space, tau):
    ents = []
    n_ent = len(label_space.entity_types)
    for i, j, k in np.argwhere(scores[:, :, :n_ent] >= tau):
        if i <= j:
            ents.append(PredEntity(
                type=label_space.entity_types[k],
                start=int(i), end=int(j),
                score=float(scores[i, j, k]),
            ))
    ents.sort(key=lambda e: (e.start, e.end, e.type))
    return ents


def _pair_score(scores, subj, obj, k):
    head = scores[subj[0], obj[0], k]
    tail = scores[subj[1], obj[1], k]
    return float(min(head, tail))


def decode(scores: np.ndarray, label_space: LabelSpace, tau: float,
           task_kind: str = "NER") -> Prediction:
    """Threshold a probability grid back into typed structures.

    scores must already be probabilities in (0, 1); raising tau never adds
    a structure.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {tau}")
    n = scores.shape[0]
    if scores.shape != (n, n, label_space.num_channels):
        raise ValueError(
            f"score grid {scores.shape} does not match {n} tokens "
            f"x {label_space.num_channels} channels"
        )

    entities = _decode_entities(scores, label_space, tau)
    prediction = Prediction(entities=entities)
    n_ent = len(label_space.entity_types)
    if not label_space.relation_types or task_kind == "NER":
        return prediction

    links = []
    if task_kind == "EE":
        # Arguments have no entity channel: read their spans off the cells.
        for subj in entities:
            for rk, rname in enumerate(label_space.relation_types):
                k = n_ent + rk
                starts = np.flatnonzero(scores[subj.start, :, k] >= tau)
                ends = np.flatnonzero(scores[subj.end, :, k] >= tau)
                for o_s in starts:
                    for o_e in ends:
                        if o_s <= o_e:
                            links.append(PredLink(
                                type=rname,
                                subject=(subj.start, subj.end),
                                object=(int(o_s), int(o_e)),
                                score=_pair_score(scores, (subj.start, subj.end),
                                                  (int(o_s), int(o_e)), k),
                                subject_type=subj.type,
                            ))
    else:  # RE, ABSA: both endpoints must be decoded entities
        for subj in entities:
            for obj in entities:
                for rk, rname in enumerate(label_space.relation_types):
                    k = n_ent + rk
                    if (scores[subj.start, obj.start, k] >= tau
                            and scores[subj.end, obj.end, k] >= tau):
                        links.append(PredLink(
                            type=rname,
                            subject=(subj.start, subj.end),
                            object=(obj.start, obj.end),
                            score=_pair_score(scores, (subj.start, subj.end),
                                              (obj.start, obj.end), k),
                            subject_type=subj.type,
                            object_type=obj.type,
                        ))
    links.sort(key=lambda l: (l.subject, l.object, l.type, l.subject_type or "",
                              l.object_type or ""))
    prediction.links = links
    return prediction
