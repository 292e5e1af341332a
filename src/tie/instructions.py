"""Per-dataset instruction templates, slot extraction, and seeded selection.

A template is free text with one ``{ChannelName}`` placeholder per label
channel of its dataset. Rendering replaces each placeholder with the label's
surface form (the name lowercased, underscores as spaces) and records the
token position where that surface form begins: the slot. The decoder hidden
state at a slot position stands in for that label.

Instruction file format (JSON): {"dataset": str, "templates": [str, ...]}.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SLOT_ID, LabelSpace, Vocabulary, read_text

__all__ = [
    "Instruction",
    "InstructionPool",
    "InstructionError",
    "parse_template",
    "select",
    "read_templates",
    "build_pool",
    "surface_form",
]

_PLACEHOLDER = re.compile(r"\{([^{}]+)\}")


class InstructionError(ValueError):
    """Template does not match its dataset's label channels."""


def surface_form(channel_name: str) -> str:
    return channel_name.lower().replace("_", " ")


@dataclass
class Instruction:
    dataset_id: str
    template: str
    tokens: list
    token_ids: list
    slot_index: dict  # channel name -> position of its first surface token

    def slot_positions(self, label_space: LabelSpace):
        """Slot token positions in channel order."""
        return [self.slot_index[name] for name in label_space.channels]


def parse_template(template: str, label_space: LabelSpace, vocab: Vocabulary,
                   *, dataset_id: str = "", max_instr_len: int = 64) -> Instruction:
    """Render a template against a label space and locate every slot.

    Every channel must appear exactly once as a placeholder. Out-of-vocabulary
    slot tokens map to the reserved slot marker id instead of <unk>, so new
    label channels stay identifiable to the model.
    """
    channels = set(label_space.channels)
    tokens = []
    slot_index = {}

    pos = 0
    for match in _PLACEHOLDER.finditer(template):
        name = match.group(1)
        if name not in channels:
            raise InstructionError(
                f"placeholder {{{name}}} is not a label channel of dataset {dataset_id!r}"
            )
        if name in slot_index:
            raise InstructionError(f"duplicate placeholder {{{name}}}")
        surface = surface_form(name).split()
        if not surface:
            raise InstructionError(
                f"label channel {name!r} of dataset {dataset_id!r} has no surface word"
            )
        tokens.extend(template[pos:match.start()].split())
        slot_index[name] = len(tokens)
        tokens.extend(surface)
        pos = match.end()
    tokens.extend(template[pos:].split())

    missing = sorted(channels - set(slot_index))
    if missing:
        raise InstructionError(
            f"template is missing placeholders for channels {missing}"
        )
    if len(tokens) > max_instr_len:
        raise InstructionError(
            f"rendered instruction has {len(tokens)} tokens, limit is {max_instr_len}"
        )

    token_ids = vocab.encode(tokens)
    for p in slot_index.values():
        if tokens[p] not in vocab:
            token_ids[p] = SLOT_ID

    return Instruction(
        dataset_id=dataset_id,
        template=template,
        tokens=tokens,
        token_ids=token_ids,
        slot_index=slot_index,
    )


class InstructionPool:
    """dataset id -> validated instructions, with uniform seeded selection."""

    def __init__(self):
        self._by_dataset = {}

    def add(self, instruction: Instruction):
        self._by_dataset.setdefault(instruction.dataset_id, []).append(instruction)

    def instructions(self, dataset_id: str) -> list:
        """The dataset's instructions in the order added (not a copy)."""
        items = self._by_dataset.get(dataset_id)
        if not items:
            raise InstructionError(f"no instructions for dataset {dataset_id!r}")
        return items

    def require(self, dataset_ids):
        missing = [d for d in dataset_ids if not self._by_dataset.get(d)]
        if missing:
            raise InstructionError(f"no instructions for datasets {missing}")

    def first(self, dataset_id: str) -> Instruction:
        """Deterministic choice used at evaluation and decode time."""
        return self.instructions(dataset_id)[0]


def select(pool: InstructionPool, dataset_id: str, rng: np.random.Generator) -> Instruction:
    """Uniform draw from the dataset's instructions on the given RNG stream."""
    items = pool.instructions(dataset_id)
    return items[int(rng.integers(len(items)))]


def read_templates(paths) -> dict:
    """Instruction files -> {dataset id: [template, ...]}. Files naming the
    same dataset merge in path order."""
    templates = {}
    for path in map(Path, paths):
        try:
            spec = json.loads(read_text(path, InstructionError))
        except json.JSONDecodeError as exc:
            raise InstructionError(f"{path}: malformed instruction file ({exc})") from None
        if not isinstance(spec, dict):
            raise InstructionError(f"{path}: instruction file must be a JSON object")
        for key in ("dataset", "templates"):
            if key not in spec:
                raise InstructionError(f"{path}: instruction file missing field {key!r}")
        dataset, texts = spec["dataset"], spec["templates"]
        if not isinstance(dataset, str):
            raise InstructionError(f"{path}: 'dataset' must be a string, got {dataset!r}")
        if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
            raise InstructionError(f"{path}: 'templates' must be a non-empty list of strings")
        templates.setdefault(dataset, []).extend(texts)
    return templates


def build_pool(datasets, templates_by_id: dict, vocab: Vocabulary,
               max_instr_len: int) -> InstructionPool:
    """Parse each dataset's templates against its label space; every dataset
    must end up with at least one instruction."""
    pool = InstructionPool()
    for ds in datasets:
        for template in templates_by_id.get(ds.id, []):
            pool.add(parse_template(template, ds.label_space, vocab,
                                    dataset_id=ds.id, max_instr_len=max_instr_len))
    pool.require([ds.id for ds in datasets])
    return pool
