"""Model predictions over a dataset split, and their scores.

Evaluation always renders the first instruction of the dataset's pool, so
repeated runs are bit-identical; training is where instruction choice is
randomized.

Batching can move a score in its last bits, so every inference caller
(``predict_split``, ``tie eval``, ``tie decode``) goes through
``predict_instances``.
"""

from __future__ import annotations

from . import autodiff as ad
from .codec import decode, decode_chunk  # noqa: F401 - decode: bench/tests probe its alias here
from .data import DataError, Dataset, Vocabulary
from .instructions import InstructionPool
from .metrics import headline_f1, task_metric
from .model import Parameters, forward, make_batch

__all__ = ["INFER_CHUNK", "predict_instances", "predict_split", "evaluate_split"]

INFER_CHUNK = 32   # instances per forward; bounds the (chunk, n, n, K) grids held


def predict_instances(params: Parameters, vocab: Vocabulary, pool: InstructionPool,
                      dataset: Dataset, instances, tau: float):
    """Decoded predictions for ``instances`` of ``dataset``, in input order;
    forwards run on length-sorted chunks of INFER_CHUNK instances, and each
    chunk's grids are decoded together (``decode_chunk``)."""
    instruction = pool.first(dataset.id)
    slots = instruction.slot_positions(dataset.label_space)
    ids = [vocab.encode(inst.tokens) for inst in instances]
    order = sorted(range(len(ids)), key=lambda i: len(ids[i]))
    preds = [None] * len(ids)
    for lo in range(0, len(order), INFER_CHUNK):
        chunk = order[lo:lo + INFER_CHUNK]
        batch = make_batch([ids[i] for i in chunk], [instruction.token_ids] * len(chunk),
                           [slots] * len(chunk))
        probs = ad.sigmoid(forward(params, batch).data)
        decoded = decode_chunk(probs, batch.rows.lengths, dataset.label_space, tau,
                               dataset.task_kind)
        for i, pred in zip(chunk, decoded):
            preds[i] = pred
    return preds


def _instances(dataset: Dataset, split: str) -> list:
    """The split's instances; a split that ``load_manifest`` was not asked
    to parse is an error, never an empty score."""
    instances = getattr(dataset.splits, split)
    if instances is None:
        raise DataError(f"dataset {dataset.id}: {split} split was not loaded")
    return instances


def predict_split(params: Parameters, vocab: Vocabulary, pool: InstructionPool,
                  dataset: Dataset, split: str, tau: float):
    """Decode predictions for every instance of one split, in split order."""
    return predict_instances(params, vocab, pool, dataset, _instances(dataset, split), tau)


def evaluate_split(params: Parameters, vocab: Vocabulary, pool: InstructionPool,
                   dataset: Dataset, split: str, tau: float):
    """Returns ({metric name: ScoreReport}, headline F1) for one split."""
    preds = predict_split(params, vocab, pool, dataset, split, tau)
    golds = _instances(dataset, split)
    reports = task_metric(dataset.task_kind, preds, golds)
    return reports, headline_f1(reports, dataset.task_kind)
