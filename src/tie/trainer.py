"""Two-phase training: gated multi-source pretraining, then plain finetuning.

Every batch holds instances of exactly one dataset. During pretraining the
epoch plan interleaves datasets so adjacent batches disagree, and each
parameter group's update is gated on the sign of the inner product between
its current gradient and the previous batch's gradient: positive dot applies
the Adam update, anything else freezes the group (parameters and optimizer
moments alike). Finetuning runs ungated single-dataset epochs with dev-based
best-checkpoint selection.

All randomness is drawn from streams derived from (seed, purpose, epoch,
batch), so any step of a run is a pure function of the seed and the step
index; resuming from a checkpoint reproduces the uninterrupted trajectory
bit for bit.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .codec import GoldMatrix, encode
from .data import Dataset, Vocabulary
from .evaluate import evaluate_split
from .instructions import InstructionPool, select
from .model import Parameters, at_least, check_fields, forward, make_batch, rule

__all__ = [
    "TrainConfig",
    "BatchPlan",
    "Adam",
    "StepReport",
    "TrainState",
    "TrainingDiverged",
    "rng_for",
    "loss",
    "plan_epoch",
    "gated_step",
    "pretrain",
    "finetune",
    "skip_rate",
]


class TrainingDiverged(RuntimeError):
    """A gradient went non-finite; the step was aborted."""


def _path_code(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    return zlib.crc32(str(part).encode("utf-8"))


def rng_for(seed: int, *path) -> np.random.Generator:
    """A fresh generator on a stream identified by (seed, *path)."""
    entropy = [int(seed)] + [_path_code(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; every instance that exists passes ``check_fields``."""

    lr: float = field(default=1e-3, metadata=rule(lambda v: 0 < v < math.inf,
                                                  "positive and finite"))
    batch_size: int = field(default=16, metadata=at_least(1))
    pretrain_epochs: int = field(default=3, metadata=at_least(1))
    finetune_epochs: int = field(default=10, metadata=at_least(1))
    pretrain_max_steps: int | None = field(default=None, metadata=at_least(1))
    finetune_max_steps: int | None = field(default=None, metadata=at_least(1))
    threshold: float = field(default=0.5, metadata=rule(lambda v: 0 < v < 1, "in (0, 1)"))
    gate_granularity: str = field(default="group", metadata=rule(
        lambda v: v in ("group", "global"), "'group' or 'global'"))

    def __post_init__(self):
        check_fields(self)


def loss(logits, golds) -> tuple:
    """Binary cross-entropy of a batch's (B, n_max, n_max, K) logits against
    its instances' ``GoldMatrix`` golds, in plain numpy: ``(value, grad)``,
    the loss and its gradient with respect to the logits, to seed
    ``ad.backward``. The value is the mean over each instance's real cells,
    then over the batch; instance b's cells weigh 1/(B * n_b^2 * K), padding
    0. No target grid is made: the gold cells' logits and 1s are subtracted
    at their indices. Raises ShapeError unless B golds of n_b <= n_max
    tokens and K channels fit."""
    size, n_max, _, k = logits.shape
    if len(golds) != size or not all(isinstance(gold, GoldMatrix) and gold.num_channels == k
                                     and 0 < gold.n <= n_max for gold in golds):
        shapes = [gold.shape if isinstance(gold, GoldMatrix) else type(gold).__name__
                  for gold in golds]
        raise ad.ShapeError(f"gold grids {shapes} for logits {logits.shape}")
    cells = np.concatenate([gold.cells for gold in golds])
    rows = np.repeat(np.arange(size), [len(gold.cells) for gold in golds])
    positives = (rows, *cells.T)   # each cell once: golds hold unique cells
    weights = np.zeros((size, n_max, n_max, 1))
    for b, gold in enumerate(golds):
        weights[b, :gold.n, :gold.n] = 1.0 / (size * gold.n * gold.n * k)
    z = logits.data
    e = np.exp(-np.abs(z))
    per_cell = np.maximum(z, 0.0)
    per_cell[positives] -= z[positives]
    per_cell += np.log1p(e)
    grad = ad.sigmoid(z, e)
    grad[positives] -= 1.0
    grad *= weights
    return (per_cell * weights).sum(), grad


@dataclass
class BatchPlan:
    batches: list            # [(dataset_id, [instance indices])]
    forced_adjacent: list = field(default_factory=list)  # plan positions

    def __len__(self):
        return len(self.batches)


def plan_epoch(sizes: dict, batch_size: int, rng: np.random.Generator,
               interleave: bool = True) -> BatchPlan:
    """One epoch's batches over ``sizes`` (dataset id -> training instance
    count): single-dataset batches covering every training instance once.

    With interleaving, the next dataset is drawn (weighted by remaining
    batches) among datasets other than the previous one; when only the
    previous dataset has batches left, the adjacency violation is permitted
    and recorded rather than dropping data.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if any(n < 1 for n in sizes.values()):
        raise ValueError("every dataset needs at least one training instance")
    if interleave and len(sizes) < 2:
        raise ValueError("interleaved pretraining needs at least 2 datasets")

    queues = {}
    for ds_id, n in sizes.items():
        order = rng.permutation(n)
        queues[ds_id] = [
            [int(i) for i in order[lo:lo + batch_size]]
            for lo in range(0, n, batch_size)
        ]

    if not interleave:
        batches = [(ds_id, b) for ds_id in queues for b in queues[ds_id]]
        return BatchPlan(batches=batches)

    batches = []
    forced = []
    prev = None
    while any(queues.values()):
        candidates = [d for d, q in queues.items() if q and d != prev]
        if not candidates:
            ds_id = prev  # tail: only the previous dataset remains
            forced.append(len(batches))
        else:
            weights = np.array([len(queues[d]) for d in candidates], dtype=float)
            ds_id = candidates[int(rng.choice(len(candidates), p=weights / weights.sum()))]
        batches.append((ds_id, queues[ds_id].pop(0)))
        prev = ds_id
    return BatchPlan(batches=batches, forced_adjacent=forced)


class Adam:
    """Adaptive update with per-group step counters so frozen groups keep
    their moments and bias correction untouched.

    The moments are two vectors ``moments`` laid out like
    ``Parameters.vector``: zeros, or, given ``moments``, two such vectors
    as a loaded checkpoint holds them; a group's moments are their slices
    at ``params.slices[group]``. They keep the layout of ``params`` as
    given: after ``reinit_channels`` the run needs a new ``Adam``, as
    ``finetune`` makes. ``update`` steps the groups it is given in place.
    Each maximal run of groups adjacent in the layout is one slice of the
    vectors, updated by one pass of each operation, in two whole-vector
    work buffers made at the first update. Only the bias-correction divides
    go per group, or per run of groups at the same step count. Every
    operation is elementwise, so the result is the per-group step's, bit
    for bit. ``beta1``, ``beta2`` and ``eps`` are Kingma & Ba's constants.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Parameters, lr: float, moments: tuple | None = None):
        self.lr = lr
        if moments is None:
            moments = (np.zeros_like(params.vector), np.zeros_like(params.vector))
        self.moments = moments
        self._work = None
        self.t: dict[str, int] = dict.fromkeys(params.groups, 0)

    def _runs(self, slices: dict, groups) -> list:
        """[lo, hi, [[lo, hi, t], ...]] for each maximal run of ``groups``
        adjacent in the layout of ``slices``, split into parts of equal step
        count."""
        runs = []
        for group, where in slices.items():
            if group not in groups:
                continue
            lo, hi, t = where.start, where.stop, self.t[group]
            if runs and runs[-1][1] == lo:
                run = runs[-1]
                run[1] = hi
                if run[2][-1][2] == t:
                    run[2][-1][1] = hi
                else:
                    run[2].append([lo, hi, t])
            else:
                runs.append([lo, hi, [[lo, hi, t]]])
        return runs

    def update(self, params: Parameters, groups):
        """One Adam step for each of ``groups`` from its gradient in
        ``params.grad``, which is only read."""
        groups = set(groups)
        for group in groups:
            self.t[group] += 1
        if self._work is None:
            self._work = (np.empty_like(params.vector), np.empty_like(params.vector))
        (m_all, v_all), (step_all, denom_all) = self.moments, self._work
        for lo, hi, parts in self._runs(params.slices, groups):
            p, g = params.vector[lo:hi], params.grad[lo:hi]
            m, v, step, denom = m_all[lo:hi], v_all[lo:hi], step_all[lo:hi], denom_all[lo:hi]
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=step)
            m += step
            v *= self.beta2
            np.multiply(g, 1 - self.beta2, out=step)
            step *= g
            v += step
            for a, b, t in parts:
                np.divide(m_all[a:b], 1 - self.beta1 ** t, out=step_all[a:b])
            step *= self.lr
            for a, b, t in parts:
                np.divide(v_all[a:b], 1 - self.beta2 ** t, out=denom_all[a:b])
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step


@dataclass
class StepReport:
    step: int
    dataset_id: str
    loss_value: float
    gated: bool
    decisions: dict    # group -> {"dot": float|None, "updated": bool}
    forced_adjacent: bool = False

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "dataset": self.dataset_id,
            "loss": self.loss_value,
            "gated": self.gated,
            "forced_adjacent": self.forced_adjacent,
            "groups": self.decisions,
        }


@dataclass
class TrainState:
    """A run's parameters, optimizer, step count and the gate's ``snapshot``:
    the previous gated batch's gradient, laid out like ``params.grad``, or
    None before the first gated step; ungated steps leave it as it is."""

    params: Parameters
    optimizer: Adam
    snapshot: np.ndarray | None = None
    step: int = 0

    @classmethod
    def fresh(cls, params: Parameters, lr: float) -> "TrainState":
        return cls(params=params, optimizer=Adam(params, lr))


def gated_step(state: TrainState, *, gate: bool = True, granularity: str = "group") -> dict:
    """Apply one step of ``state.optimizer`` from the gradient in
    ``state.params.grad`` under the gradient-agreement gate.

    A group updates iff the inner product of its current gradient (its view
    from ``params.grads()``) with its slice of ``state.snapshot`` is
    strictly positive; with no snapshot (first step) it always updates.
    Under ``"global"`` granularity one dot over the whole gradient decides
    for all groups. Every group is decided before the optimizer steps the
    updated ones. Under the gate the snapshot then holds a copy of the
    current gradient, every group's, updated or not: made at the first gated
    step, overwritten in place after; ``gate=False`` leaves it as it is.
    Returns per-group decisions {"dot", "updated"}.
    """
    params, snapshot = state.params, state.snapshot
    # the sum screens; an overflowing sum of finite values is rechecked
    if not np.isfinite(params.grad.sum()) and not np.isfinite(params.grad).all():
        name = next(n for n, t in params.tensors.items() if not np.isfinite(t.grad).all())
        raise TrainingDiverged(f"non-finite gradient in {name}")

    grads = params.grads()
    # a gate unit is (its groups, its gradient, the snapshot's): one group,
    # or all groups together under "global"
    if granularity == "group":
        units = [([g], grads[g], None if snapshot is None else snapshot[s])
                 for g, s in params.slices.items()]
    else:
        units = [(list(params.groups), params.grad, snapshot)]
    decisions = {}
    for unit, current, previous in units:
        if gate and previous is not None:
            dot = float(current @ previous)
            updated = dot > 0.0
        else:
            dot, updated = None, True
        for group in unit:
            decisions[group] = {"dot": dot, "updated": updated}
    state.optimizer.update(params, [g for g, d in decisions.items() if d["updated"]])

    if gate and snapshot is None:
        state.snapshot = params.grad.copy()
    elif gate:
        snapshot[...] = params.grad
    return decisions


def _prepared(dataset: Dataset, vocab: Vocabulary):
    ids = [vocab.encode(inst.tokens) for inst in dataset.splits.train]
    golds = [encode(inst, dataset.label_space) for inst in dataset.splits.train]
    return ids, golds


def _train_step(state: TrainState, dataset: Dataset, token_ids, golds,
                batch_indices, pool: InstructionPool, cfg: TrainConfig,
                seed: int, epoch: int, batch_idx: int, gate: bool) -> tuple:
    rng_instr = rng_for(seed, "instr", epoch, batch_idx)
    params = state.params
    # nothing draws from the dropout stream at rate 0
    rng_drop = rng_for(seed, "drop", epoch, batch_idx) if params.config.dropout > 0 else None
    instructions = [select(pool, dataset.id, rng_instr) for _ in batch_indices]
    batch = make_batch([token_ids[i] for i in batch_indices],
                       [ins.token_ids for ins in instructions],
                       [ins.slot_positions(dataset.label_space) for ins in instructions])
    params.zero_grads()
    with ad.Tape():
        logits = forward(params, batch, rng=rng_drop)
        value, grad = loss(logits, [golds[i] for i in batch_indices])
        # ``grad`` becomes the logits' gradient buffer, with no copy. Both
        # stay bound until the step returns: with the heap top kept (see
        # tie/__init__.py) freeing the logits during the sweep made steps at
        # the bench's cli_infer shape no faster
        ad.backward(logits, grad)
    decisions = gated_step(state, gate=gate, granularity=cfg.gate_granularity)
    state.step += 1
    return float(value), decisions


@dataclass
class TrainResult:
    state: TrainState
    step_reports: list = field(default_factory=list)
    epoch_metrics: list = field(default_factory=list)
    best_dev_f1: float | None = None
    best_epoch: int | None = None


def _epochs(result: TrainResult, datasets: list, pool: InstructionPool,
            vocab: Vocabulary, cfg: TrainConfig, seed: int, epochs: int,
            max_steps: int | None, gate: bool):
    """Train ``result.state`` up to ``epochs`` epochs (or ``max_steps``
    steps), yielding ``(epoch, complete)`` after each epoch's last step.

    The gated phase plans interleaved epochs on the "plan" stream, the plain
    phase single-dataset epochs on "ft-plan". Resumable: the plan of epoch e
    and every in-step draw depend only on (seed, e, batch index), so a state
    loaded at step t continues exactly as the uninterrupted run would.
    """
    state = result.state
    by_id = {ds.id: ds for ds in datasets}
    prepared = {ds.id: _prepared(ds, vocab) for ds in datasets}
    sizes = {ds.id: len(ds.splits.train) for ds in datasets}
    bpe = sum(-(-n // cfg.batch_size) for n in sizes.values())
    total = epochs * bpe if max_steps is None else min(epochs * bpe, max_steps)
    while state.step < total:
        epoch, start = divmod(state.step, bpe)
        plan = plan_epoch(sizes, cfg.batch_size,
                          rng_for(seed, "plan" if gate else "ft-plan", epoch),
                          interleave=gate)
        for batch_idx in range(start, min(bpe, start + total - state.step)):
            ds_id, indices = plan.batches[batch_idx]
            value, decisions = _train_step(state, by_id[ds_id], *prepared[ds_id], indices,
                                           pool, cfg, seed, epoch, batch_idx, gate)
            result.step_reports.append(StepReport(
                step=state.step, dataset_id=ds_id, loss_value=value, gated=gate,
                decisions=decisions, forced_adjacent=batch_idx in plan.forced_adjacent,
            ))
        yield epoch, state.step % bpe == 0


def pretrain(state: TrainState, sources: list, pool: InstructionPool,
             vocab: Vocabulary, cfg: TrainConfig, seed: int,
             eval_dev: bool = True) -> TrainResult:
    """Gated interleaved training over >= 2 source datasets, with a dev
    evaluation of every source after each full epoch. Resumable (``_epochs``).
    """
    if len(sources) < 2:
        raise ValueError("pretraining needs at least 2 source datasets")
    pool.require([ds.id for ds in sources])
    result = TrainResult(state=state)
    for epoch, complete in _epochs(result, sources, pool, vocab, cfg, seed,
                                   cfg.pretrain_epochs, cfg.pretrain_max_steps, gate=True):
        if eval_dev and complete:
            for ds in sources:
                _, f1 = evaluate_split(state.params, vocab, pool, ds, "dev",
                                       cfg.threshold)
                result.epoch_metrics.append(
                    {"epoch": epoch, "dataset": ds.id, "dev_f1": f1}
                )
    return result


def finetune(state: TrainState, target: Dataset, pool: InstructionPool,
             vocab: Vocabulary, cfg: TrainConfig, seed: int,
             eval_dev: bool = True) -> TrainResult:
    """Plain (ungated) training on one dataset from ``state``'s parameters
    with a fresh optimizer at ``cfg.lr``, keeping the parameters of the epoch
    with the best dev headline F1."""
    pool.require([target.id])
    state = TrainState.fresh(state.params, cfg.lr)
    result = TrainResult(state=state)
    best = None
    for epoch, _ in _epochs(result, [target], pool, vocab, cfg, seed,
                            cfg.finetune_epochs, cfg.finetune_max_steps, gate=False):
        if eval_dev:
            _, f1 = evaluate_split(state.params, vocab, pool, target, "dev",
                                   cfg.threshold)
            result.epoch_metrics.append(
                {"epoch": epoch, "dataset": target.id, "dev_f1": f1}
            )
            if best is None or f1 > best[0]:
                best = (f1, epoch, state.params.vector.copy())
    if best is not None:
        result.best_dev_f1, result.best_epoch, vector = best
        state.params.vector[...] = vector
    return result


def skip_rate(step_reports) -> float:
    """Fraction of (step, group) decisions that froze the group, over steps
    where the gate had a previous gradient to compare against."""
    skipped = considered = 0
    for report in step_reports:
        for decision in report.decisions.values():
            if decision["dot"] is None:
                continue
            considered += 1
            if not decision["updated"]:
                skipped += 1
    return skipped / considered if considered else 0.0
