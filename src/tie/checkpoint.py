"""Bit-exact binary checkpoints.

Layout:

    magic "TIE1"
    u32 LE format version
    u32 LE header length
    UTF-8 JSON header: run metadata plus a tensor manifest of
        {"name", "dtype", "dims", "offset"} entries, offsets relative to the
        start of the payload region
    payload: the state's group vectors as raw little-endian float64, in order
    u32 LE CRC32 of the payload region

The group vectors are the parameters of all groups in ``Parameters.groups``
order, then the Adam first moments of all groups, then the second moments,
then the gate's previous-batch gradients if the run has them, so a loaded
checkpoint resumes the exact training trajectory. The manifest is derived
from that list, and a loaded file's manifest must equal the one its
model_config implies.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import Vocabulary
from .model import ModelConfig, Parameters
from .trainer import Adam, GradientSnapshot, TrainState

__all__ = ["CheckpointError", "Checkpoint", "save_checkpoint", "load_checkpoint"]

MAGIC = b"TIE1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    config: ModelConfig
    num_channels: int
    seed: int
    step: int
    vocab: Vocabulary
    state: TrainState


def _stored(state: TrainState) -> list:
    """(key, group, vector) for every vector of the payload, in payload order."""
    params, optimizer = state.params, state.optimizer
    return [(key, group, vectors[group])
            for key, vectors in (("param", params.flat), ("adam.m", optimizer.m),
                                 ("adam.v", optimizer.v))
            for group in params.groups] + [
        ("snapshot", group, vec) for group, vec in state.snapshot.prev.items()]


def _manifest(params: Parameters, stored: list) -> list:
    """The header's entries for ``stored``: a model vector's tensors as
    ``split_group`` gives them, a snapshot vector whole."""
    manifest = []
    offset = 0
    for key, group, vec in stored:
        parts = {group: vec} if key == "snapshot" else params.split_group(group, vec)
        for name, arr in parts.items():
            manifest.append({"name": f"{key}/{name}", "dtype": "f8",
                             "dims": list(arr.shape), "offset": offset})
            offset += arr.nbytes
    return manifest


def save_checkpoint(path, checkpoint: Checkpoint):
    state = checkpoint.state
    stored = _stored(state)
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(checkpoint.config),
        "num_channels": checkpoint.num_channels,
        "seed": checkpoint.seed,
        "step": checkpoint.step,
        "vocab": checkpoint.vocab.to_json(),
        "adam": {
            "lr": state.optimizer.lr,
            "beta1": state.optimizer.beta1,
            "beta2": state.optimizer.beta2,
            "eps": state.optimizer.eps,
            "t": dict(state.optimizer.t),
        },
        "manifest": _manifest(state.params, stored),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(vec, dtype="<f8").tobytes() for _, _, vec in stored)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint; any damage raises ``CheckpointError``.

    The header's manifest must equal the one its model_config implies, and
    the error names the first entry that differs. The payload is screened
    for NaN and Inf in one pass over the whole buffer; only when that screen
    fails is each tensor checked on its own, so the error names the first
    bad tensor in manifest order.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack("<II", raw[4:12])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    header_end = 12 + header_len
    try:
        header = json.loads(raw[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from None

    payload = raw[header_end:-4]
    (crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{path}: payload CRC mismatch")
    try:
        return _restore(path, header, payload)
    except CheckpointError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ZeroDivisionError, OverflowError) as exc:
        # a key missing from the header, or a value of the wrong type or range
        raise CheckpointError(
            f"{path}: malformed header ({type(exc).__name__}: {exc})"
        ) from None


def _restore(path: Path, header: dict, payload: bytes) -> Checkpoint:
    if _count(path, header, "format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: header format_version {header['format_version']} "
                              f"does not match the file's {FORMAT_VERSION}")
    config_json = header["model_config"]
    if set(config_json) != {f.name for f in fields(ModelConfig)}:
        # a missing field would silently take its default, e.g. another head count
        raise CheckpointError(f"{path}: model_config fields {sorted(config_json)} do not "
                              f"match the model's")
    try:
        config = ModelConfig(**config_json)
    except ValueError as exc:
        raise CheckpointError(f"{path}: model_config.{exc}") from None
    num_channels = _count(path, header, "num_channels")
    tokens = header["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointError(f"{path}: vocab must be a list of strings")
    vocab = Vocabulary.from_json(tokens)
    if len(vocab) != config.vocab_size:
        # token ids past the embedding table, or tokens read as other rows
        raise CheckpointError(f"{path}: vocab has {len(vocab)} ids (3 reserved), "
                              f"model_config.vocab_size is {config.vocab_size}")

    adam_meta = header["adam"]
    lr, beta1, beta2, eps = (adam_meta[k] for k in ("lr", "beta1", "beta2", "eps"))
    if not (all(type(x) in (int, float) for x in (lr, beta1, beta2, eps))   # no booleans
            and all(math.isfinite(x) for x in (lr, beta1, beta2, eps))
            and lr > 0 and eps > 0 and 0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise CheckpointError(f"{path}: Adam settings must be finite numbers in range: "
                              f"lr={lr!r} beta1={beta1!r} beta2={beta2!r} eps={eps!r}")
    lr, beta1, beta2, eps = map(float, (lr, beta1, beta2, eps))
    try:
        params = Parameters(config, num_channels, None)   # every value is loaded below
        optimizer = Adam(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    except MemoryError as exc:
        raise CheckpointError(f"{path}: model_config implies a model too large to lay out "
                              f"({exc})") from None
    steps = {g: _count(path, adam_meta["t"], g) for g in adam_meta["t"]}
    if set(steps) != set(params.groups):
        raise CheckpointError(f"{path}: Adam step counts do not cover the model's groups")
    optimizer.t = steps
    state = TrainState(params=params, optimizer=optimizer, snapshot=GradientSnapshot(),
                       step=_count(path, header, "step"))

    manifest = header["manifest"]
    stored = _stored(state)
    expected = _manifest(params, stored)
    if len(manifest) > len(expected):
        # the gate stores every group's gradient at once, so a snapshot is
        # absent (before the first step) or has one vector per group
        state.snapshot.prev = {g: np.empty_like(vec) for g, vec in params.flat.items()}
        stored = _stored(state)
        expected = _manifest(params, stored)
    if manifest != expected:
        i, got, want = next((i, a, b) for i, (a, b) in enumerate(zip_longest(manifest, expected))
                            if a != b)
        raise CheckpointError(f"{path}: manifest entry {i} is {got}, where the model's "
                              f"manifest covers {want}")
    size = sum(vec.nbytes for _, _, vec in stored)
    if len(payload) != size:
        raise CheckpointError(f"{path}: payload holds {len(payload)} bytes, "
                              f"the manifest covers {size}")
    words = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(words).all():   # the CRC matches NaNs that were saved
        for entry in expected:
            start = entry["offset"] // 8
            if not np.isfinite(words[start:start + math.prod(entry["dims"])]).all():
                raise CheckpointError(f"{path}: tensor {entry['name']} holds NaN or Inf")
    start = 0
    for _, _, vec in stored:
        vec[...] = words[start:start + vec.size]
        start += vec.size

    return Checkpoint(config=config, num_channels=num_channels,
                      seed=_count(path, header, "seed"), step=state.step,
                      vocab=vocab, state=state)


def _count(path: Path, header: dict, key: str) -> int:
    """A header field that must be a non-negative JSON integer."""
    value = header[key]
    if type(value) is not int or value < 0:
        raise CheckpointError(f"{path}: header field {key!r} must be a non-negative "
                              f"integer, got {value!r}")
    return value
