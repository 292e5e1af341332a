"""Task-agnostic instance model, label spaces, tokenizer and JSONL ingestion.

One JSONL line per sentence:

    {"tokens": [...],
     "entities": [{"type": str, "start": int, "end": int}, ...],
     "links": [{"type": str, "subject": ref, "object": ref}, ...]}

where a ref is either an integer index into "entities" or a raw span
{"start": int, "end": int}. Token offsets are inclusive on both ends.

A dataset manifest is a JSON object {"id", "task", "entity_types",
"relation_types", "train", "dev", "test"} with split paths resolved relative
to the manifest file. A caller may parse only the splits it reads; the
others are left ``None``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "DataError",
    "LabelSpace",
    "Mention",
    "Link",
    "Instance",
    "Splits",
    "Dataset",
    "Vocabulary",
    "PAD_ID",
    "UNK_ID",
    "SLOT_ID",
    "tokenize",
    "load_jsonl",
    "load_manifest",
    "read_text",
    "build_vocab",
]

TASK_KINDS = ("NER", "RE", "EE", "ABSA")

ABSA_ENTITY_TYPES = ["Expression", "Aspect"]
ABSA_RELATION_TYPES = ["Positive", "Negative", "Neutral"]

PAD_ID, UNK_ID, SLOT_ID = 0, 1, 2
_RESERVED = ["<pad>", "<unk>", "<slot>"]


class DataError(ValueError):
    """Malformed corpus file, manifest, or annotation."""


class LabelSpace:
    """Ordered entity-type and relation-type channels of one dataset.

    Channel indices run entities first, then relations; K is their total.
    """

    def __init__(self, entity_types, relation_types):
        self.entity_types = list(entity_types)
        self.relation_types = list(relation_types)
        names = self.entity_types + self.relation_types
        if len(set(names)) != len(names):
            raise DataError(f"duplicate label names in {names}")
        if not names:
            raise DataError("label space must have at least one channel")
        self.channel_index = {name: i for i, name in enumerate(names)}

    @property
    def num_channels(self) -> int:
        return len(self.channel_index)

    @property
    def channels(self):
        return self.entity_types + self.relation_types

    def channel(self, name: str) -> int:
        try:
            return self.channel_index[name]
        except KeyError:
            raise DataError(f"unknown label name {name!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, LabelSpace)
            and self.entity_types == other.entity_types
            and self.relation_types == other.relation_types
        )

    def __repr__(self):
        return f"LabelSpace(entities={self.entity_types}, relations={self.relation_types})"


@dataclass(frozen=True)
class Mention:
    type: str
    start: int
    end: int

    @property
    def span(self):
        return (self.start, self.end)


@dataclass(frozen=True)
class Link:
    """A typed directed connection; endpoints are mention indices or raw spans."""

    type: str
    subject: object  # int index into entities, or (start, end)
    object: object


@dataclass
class Instance:
    tokens: list
    entities: list = field(default_factory=list)
    links: list = field(default_factory=list)
    dataset_id: str = ""

    def resolve(self, ref):
        """Turn a link endpoint into ((start, end), entity type or None)."""
        if isinstance(ref, int):
            m = self.entities[ref]
            return m.span, m.type
        return (int(ref[0]), int(ref[1])), None


@dataclass
class Splits:
    """Each split's instances; ``None`` for a split that was not loaded."""

    train: list | None
    dev: list | None
    test: list | None


@dataclass
class Dataset:
    id: str
    task_kind: str
    label_space: LabelSpace
    splits: Splits


def tokenize(text: str):
    return text.split()


def _parse_ref(raw, n_entities: int, where: str):
    if isinstance(raw, bool):
        raise DataError(f"{where}: mention ref must be an index or span")
    if isinstance(raw, int):
        if not 0 <= raw < n_entities:
            raise DataError(f"{where}: mention index {raw} out of range")
        return raw
    if isinstance(raw, dict) and "start" in raw and "end" in raw:
        return _span(raw, where)
    raise DataError(f"{where}: mention ref must be an index or {{start,end}} span")


def _span(raw: dict, where: str):
    # JSON integers only: a float, a string or a boolean is not coerced
    start, end = raw.get("start"), raw.get("end")
    if type(start) is not int or type(end) is not int:
        raise DataError(f"{where}: 'start' and 'end' must be integers")
    return start, end


def _objects(obj: dict, key: str, where: str) -> list:
    """The JSON objects listed under ``key`` (absent means none)."""
    items = obj.get(key, [])
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise DataError(f"{where}: {key!r} must be a list of objects")
    return items


def _check_span(start: int, end: int, n_tokens: int, where: str):
    if not (0 <= start <= end < n_tokens):
        raise DataError(
            f"{where}: span ({start}, {end}) out of bounds for {n_tokens} tokens"
        )


def parse_instance(obj: dict, label_space: LabelSpace, dataset_id: str, where: str) -> Instance:
    if not isinstance(obj, dict):
        raise DataError(f"{where}: an instance must be a JSON object")
    tokens = obj.get("tokens")
    if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) for t in tokens):
        raise DataError(f"{where}: 'tokens' must be a non-empty list of strings")
    n = len(tokens)

    entities = []
    for j, ent in enumerate(_objects(obj, "entities", where)):
        t = ent.get("type")
        if t not in label_space.entity_types:
            raise DataError(f"{where}: unknown entity type {t!r}")
        start, end = _span(ent, f"{where} entity {j}")
        _check_span(start, end, n, f"{where} entity {j}")
        entities.append(Mention(t, start, end))

    links = []
    for j, lk in enumerate(_objects(obj, "links", where)):
        t = lk.get("type")
        if t not in label_space.relation_types:
            raise DataError(f"{where}: unknown relation type {t!r}")
        subj = _parse_ref(lk.get("subject"), len(entities), f"{where} link {j} subject")
        objr = _parse_ref(lk.get("object"), len(entities), f"{where} link {j} object")
        for ref in (subj, objr):
            if isinstance(ref, tuple):
                _check_span(ref[0], ref[1], n, f"{where} link {j}")
        links.append(Link(t, subj, objr))

    return Instance(tokens=tokens, entities=entities, links=links, dataset_id=dataset_id)


def load_jsonl(path, label_space: LabelSpace, *, dataset_id: str = "",
               max_len: int = 128):
    """Load and validate instances; returns (instances, n_dropped_too_long).
    Tokens are kept as written.

    Sentences longer than max_len are dropped, never truncated: truncation
    would corrupt gold offsets.
    """
    path = Path(path)
    instances = []
    dropped = 0
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
        inst = parse_instance(obj, label_space, dataset_id, f"{path}:{lineno}")
        if len(inst.tokens) > max_len:
            dropped += 1
            continue
        instances.append(inst)
    return instances, dropped


def read_text(path: Path, error=DataError) -> str:
    """An input file's text, every line end read as a newline; bytes that
    are not UTF-8 raise ``error`` naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _check_task_shape(task: str, space: LabelSpace):
    if task not in TASK_KINDS:
        raise DataError(f"unknown task kind {task!r}; expected one of {TASK_KINDS}")
    if task == "NER" and space.relation_types:
        raise DataError("NER datasets must have an empty relation-type list")
    if task in ("RE", "EE") and (not space.entity_types or not space.relation_types):
        raise DataError(f"{task} datasets need both entity and relation types")
    if task == "ABSA" and (
        space.entity_types != ABSA_ENTITY_TYPES or space.relation_types != ABSA_RELATION_TYPES
    ):
        raise DataError(
            "ABSA label space is fixed to entities "
            f"{ABSA_ENTITY_TYPES} and relations {ABSA_RELATION_TYPES}"
        )


SPLITS = ("train", "dev", "test")


def load_manifest(path, *, max_len: int = 128, splits=SPLITS) -> Dataset:
    """Load a dataset manifest and parse the named ``splits`` (default all
    three). The manifest is validated and every split file must exist
    whichever splits are named; a split not named is ``None``, not ``[]``,
    so a reader of it fails rather than seeing an empty split."""
    path = Path(path)
    try:
        spec = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON ({exc.msg})") from None
    if not isinstance(spec, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    for key in ("id", "task", "entity_types", "relation_types", "train", "dev", "test"):
        if key not in spec:
            raise DataError(f"{path}: manifest missing field {key!r}")
    for key in ("id", "train", "dev", "test"):
        if not isinstance(spec[key], str):
            raise DataError(f"{path}: manifest field {key!r} must be a string")
    for key in ("entity_types", "relation_types"):
        if not isinstance(spec[key], list) or not all(isinstance(t, str) for t in spec[key]):
            raise DataError(f"{path}: manifest field {key!r} must be a list of strings")
    space = LabelSpace(spec["entity_types"], spec["relation_types"])
    _check_task_shape(spec["task"], space)

    base = path.parent
    loaded = dict.fromkeys(SPLITS)
    for split in SPLITS:
        split_path = base / spec[split]
        if not split_path.exists():
            raise DataError(f"{path}: {split} split not found at {split_path}")
        if split in splits:
            loaded[split], _ = load_jsonl(split_path, space, dataset_id=spec["id"],
                                          max_len=max_len)
    return Dataset(
        id=spec["id"],
        task_kind=spec["task"],
        label_space=space,
        splits=Splits(**loaded),
    )


class Vocabulary:
    """Token -> id map with fixed reserved ids.

    0 is padding, 1 the generic unknown, 2 the slot marker used for label
    words that fall outside the vocabulary (so an unseen label channel still
    renders as an identifiable slot token rather than plain <unk>).
    """

    def __init__(self, tokens):
        self.id_to_token = _RESERVED + list(tokens)
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise DataError("vocabulary tokens must be unique")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, tokens):
        return [self.id(t) for t in tokens]

    def to_json(self) -> list:
        return self.id_to_token[len(_RESERVED):]


def build_vocab(datasets, extra_texts=()) -> Vocabulary:
    """Every token of the training splits (plus optional raw texts, e.g.
    instruction templates), the reserved tokens aside.

    Order is frequency-descending with a lexicographic tiebreak, so identical
    corpora always serialize byte-equally.
    """
    counts = Counter()
    for ds in datasets:
        for inst in ds.splits.train:
            counts.update(inst.tokens)
    for text in extra_texts:
        counts.update(tokenize(text))
    for reserved in _RESERVED:
        counts.pop(reserved, None)
    return Vocabulary(sorted(counts, key=lambda t: (-counts[t], t)))
