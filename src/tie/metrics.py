"""Strict micro-F1 scores between predictions and gold instances.

Five variants, all exact-match:

* entity: (type, start, end)
* relation: type plus (entity type, span) of both endpoints
* event trigger: (event type, span)
* event argument: (argument span, role, governing trigger's event type)
* sentiment triplet: (expression span, aspect span, polarity)

Counts pool over instances (micro): TP/FP/FN are summed, never averaged.
Identical tuples within one instance are deduplicated before counting, on
both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "MetricCounts",
    "ScoreReport",
    "ent_f1",
    "rel_f1",
    "trig_f1",
    "arg_f1",
    "senti_triplet_f1",
    "METRIC_BY_TASK",
    "task_metric",
]


def _safe_div(num: float, denom: float) -> float:
    return num / denom if denom > 0 else 0.0


@dataclass
class MetricCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return _safe_div(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return _safe_div(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return _safe_div(2 * p * r, p + r)

    def add(self, other: "MetricCounts"):
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn

    def to_json(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
        }


@dataclass
class ScoreReport:
    metric: str
    overall: MetricCounts = field(default_factory=MetricCounts)
    per_dataset: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "overall": self.overall.to_json(),
            "per_dataset": {k: v.to_json() for k, v in sorted(self.per_dataset.items())},
        }


def _score_sets(pred_tuples, gold_tuples) -> MetricCounts:
    p, g = set(pred_tuples), set(gold_tuples)
    return MetricCounts(tp=len(p & g), fp=len(p - g), fn=len(g - p))


def _pooled(name, preds, golds, pred_tuples, gold_tuples) -> ScoreReport:
    if len(preds) != len(golds):
        raise ValueError(
            f"{name}: got {len(preds)} predictions for {len(golds)} gold instances"
        )
    report = ScoreReport(metric=name)
    for pred, gold in zip(preds, golds):
        counts = _score_sets(pred_tuples(pred), gold_tuples(gold))
        report.overall.add(counts)
        bucket = report.per_dataset.setdefault(gold.dataset_id or "", MetricCounts())
        bucket.add(counts)
    return report


def _span_tuples(inst):
    return {(e.type, e.start, e.end) for e in inst.entities}


def ent_f1(preds, golds) -> ScoreReport:
    """A predicted entity counts iff type and both offsets match a gold one."""
    return _pooled("ent_f1", preds, golds, _span_tuples, _span_tuples)


def _gold_rel_tuples(inst):
    out = set()
    for lk in inst.links:
        s_span, s_type = inst.resolve(lk.subject)
        o_span, o_type = inst.resolve(lk.object)
        out.add((lk.type, s_type, s_span, o_type, o_span))
    return out


def rel_f1(preds, golds) -> ScoreReport:
    """Relation type plus both endpoint entity types and spans must match."""
    return _pooled(
        "rel_f1", preds, golds,
        lambda p: {(l.type, l.subject_type, l.subject, l.object_type, l.object)
                   for l in p.links},
        _gold_rel_tuples,
    )


def trig_f1(preds, golds) -> ScoreReport:
    """Event type and trigger offsets must match (triggers live in the
    entity channels of EE datasets)."""
    return _pooled("trig_f1", preds, golds, _span_tuples, _span_tuples)


def arg_f1(preds, golds) -> ScoreReport:
    """Argument offsets, role, and the governing trigger's event type must
    match; the trigger's offsets need not."""

    def pred_tuples(p):
        return {(l.object, l.type, l.subject_type) for l in p.links}

    def gold_tuples(g):
        out = set()
        for lk in g.links:
            _, s_type = g.resolve(lk.subject)
            o_span, _ = g.resolve(lk.object)
            out.add((o_span, lk.type, s_type))
        return out

    return _pooled("arg_f1", preds, golds, pred_tuples, gold_tuples)


def senti_triplet_f1(preds, golds) -> ScoreReport:
    """Expression span, aspect span and polarity must all match; the subject
    side of a polarity link is the expression."""

    def pred_tuples(p):
        return {(l.subject, l.object, l.type) for l in p.links}

    def gold_tuples(g):
        out = set()
        for lk in g.links:
            s_span, _ = g.resolve(lk.subject)
            o_span, _ = g.resolve(lk.object)
            out.add((s_span, o_span, lk.type))
        return out

    return _pooled("senti_triplet_f1", preds, golds, pred_tuples, gold_tuples)


METRIC_BY_TASK = {
    "NER": ("ent_f1",),
    "RE": ("ent_f1", "rel_f1"),
    "EE": ("trig_f1", "arg_f1"),
    "ABSA": ("ent_f1", "senti_triplet_f1"),
}

_FUNCS = {
    "ent_f1": ent_f1,
    "rel_f1": rel_f1,
    "trig_f1": trig_f1,
    "arg_f1": arg_f1,
    "senti_triplet_f1": senti_triplet_f1,
}


def task_metric(task_kind: str, preds, golds) -> dict:
    """All reports for one task shape, keyed by metric name."""
    return {name: _FUNCS[name](preds, golds) for name in METRIC_BY_TASK[task_kind]}


def headline_f1(reports: dict, task_kind: str) -> float:
    """The scalar used for model selection: the task's primary metric, with
    EE averaging trigger and argument scores."""
    if task_kind == "NER":
        return reports["ent_f1"].overall.f1
    if task_kind == "RE":
        return reports["rel_f1"].overall.f1
    if task_kind == "EE":
        return 0.5 * (reports["trig_f1"].overall.f1 + reports["arg_f1"].overall.f1)
    return reports["senti_triplet_f1"].overall.f1
