"""Bit-exact binary checkpoints.

Layout:

    magic "TIE1"
    u32 LE format version
    u32 LE header length
    UTF-8 JSON header: run metadata plus a tensor manifest of
        {"name", "dtype", "dims", "offset"} entries, offsets relative to the
        start of the payload region
    payload: raw little-endian float64 tensor data, in manifest order
    u32 LE CRC32 of the payload region

The payload carries model parameters, Adam moments, and the gate's previous
batch gradients, so a loaded checkpoint resumes the exact training
trajectory.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, fields
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


def _per_tensor(params: Parameters, optimizer: Adam) -> list:
    """(manifest name, view) for every parameter and Adam moment: the views
    that ``split_group`` gives into the per-group vectors, in parameter order."""
    return [(f"{key}/{name}", view)
            for key, vectors in (("param", params.flat), ("adam.m", optimizer.m),
                                 ("adam.v", optimizer.v))
            for group in params.groups
            for name, view in params.split_group(group, vectors[group]).items()]


def save_checkpoint(path, checkpoint: Checkpoint):
    state = checkpoint.state
    tensors = _per_tensor(state.params, state.optimizer) + [
        (f"snapshot/{g}", a) for g, a in state.snapshot.prev.items()]
    manifest = []
    offset = 0
    blobs = []
    for name, arr in tensors:
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        manifest.append({
            "name": name,
            "dtype": "f8",
            "dims": list(arr.shape),
            "offset": offset,
        })
        blobs.append(blob)
        offset += len(blob)

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
        "manifest": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(blobs)

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

    The payload is screened for NaN and Inf in one pass over the whole
    buffer; only when that screen fails is each tensor checked on its own,
    so the error names the first bad tensor in manifest order.
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
    # The CRC matches NaNs that were saved. One screen of every whole word
    # of the payload clears each tensor at a word-aligned offset; a tensor is
    # searched on its own only when that screen fails or it sits off a word.
    finite = np.isfinite(np.frombuffer(payload, dtype="<f8", count=len(payload) // 8)).all()
    arrays = {}    # read-only views into the payload; every consumer copies
    extents = []   # (name, offset, bytes) in manifest order
    for entry in header["manifest"]:
        if entry["dtype"] != "f8":
            raise CheckpointError(f"{path}: tensor {entry['name']} has dtype {entry['dtype']!r}")
        dims = tuple(entry["dims"])
        arr = np.frombuffer(payload, dtype="<f8", count=math.prod(dims), offset=entry["offset"])
        if not (finite and entry["offset"] % 8 == 0) and not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {entry['name']} holds NaN or Inf")
        arrays[entry["name"]] = arr.reshape(dims)
        extents.append((entry["name"], entry["offset"], arr.nbytes))

    def take(key, shape):
        if key not in arrays:
            raise CheckpointError(f"{path}: missing tensor {key}")
        if arrays[key].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {key} has shape {arrays[key].shape}, expected {shape}"
            )
        return arrays[key]

    stored = header["model_config"]
    if set(stored) != {f.name for f in fields(ModelConfig)}:
        # a missing field would silently take its default, e.g. another head count
        raise CheckpointError(f"{path}: model_config fields {sorted(stored)} do not match "
                              f"the model's")
    try:
        config = ModelConfig(**stored)
    except ValueError as exc:
        raise CheckpointError(f"{path}: model_config.{exc}") from None
    num_channels = _count(path, header, "num_channels")
    params = Parameters(config, num_channels, None)   # every value is loaded below

    adam_meta = header["adam"]
    lr, beta1, beta2, eps = (adam_meta[k] for k in ("lr", "beta1", "beta2", "eps"))
    if not (all(type(x) in (int, float) for x in (lr, beta1, beta2, eps))   # no booleans
            and all(math.isfinite(x) for x in (lr, beta1, beta2, eps))
            and lr > 0 and eps > 0 and 0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise CheckpointError(f"{path}: Adam settings must be finite numbers in range: "
                              f"lr={lr!r} beta1={beta1!r} beta2={beta2!r} eps={eps!r}")
    lr, beta1, beta2, eps = map(float, (lr, beta1, beta2, eps))
    optimizer = Adam(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    steps = {g: _count(path, adam_meta["t"], g) for g in adam_meta["t"]}
    if set(steps) != set(params.groups):
        raise CheckpointError(f"{path}: Adam step counts do not cover the model's groups")
    optimizer.t = steps
    for name, view in _per_tensor(params, optimizer):
        view[...] = take(name, view.shape)

    snapshot = GradientSnapshot()
    for name in arrays:
        if name.startswith("snapshot/"):
            group = name[len("snapshot/"):]
            if group not in params.groups:
                raise CheckpointError(f"{path}: snapshot of unknown group {group!r}")
            snapshot.prev[group] = take(name, params.flat[group].shape).copy()
    if snapshot.prev and set(snapshot.prev) != set(params.groups):
        # the gate stores every group's gradient at once, so a real snapshot
        # is empty (before the first step) or complete
        raise CheckpointError(f"{path}: snapshot covers only groups {sorted(snapshot.prev)}")

    # checked once every tensor was found, so a missing one is named as such
    offset = 0
    for name, start, size in extents:
        if start != offset:   # tensors lie back to back in manifest order
            raise CheckpointError(f"{path}: tensor {name} at offset {start}, expected {offset}")
        offset += size
    if offset != len(payload):
        raise CheckpointError(f"{path}: manifest covers {offset} payload bytes of {len(payload)}")

    tokens = header["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointError(f"{path}: vocab must be a list of strings")
    step = _count(path, header, "step")
    state = TrainState(params=params, optimizer=optimizer, snapshot=snapshot, step=step)
    return Checkpoint(
        config=config,
        num_channels=num_channels,
        seed=_count(path, header, "seed"),
        step=step,
        vocab=Vocabulary.from_json(tokens),
        state=state,
    )


def _count(path: Path, header: dict, key: str) -> int:
    """A header field that must be a non-negative JSON integer."""
    value = header[key]
    if type(value) is not int or value < 0:
        raise CheckpointError(f"{path}: header field {key!r} must be a non-negative "
                              f"integer, got {value!r}")
    return value
