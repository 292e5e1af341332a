"""Bit-exact binary checkpoints.

Layout:

    magic "TIE1"
    u32 LE format version
    u32 LE header length
    UTF-8 JSON header: run metadata, the phase that wrote the file
        ("pretrain" or "finetune", absent if not given), and a tensor
        manifest of {"name", "dtype", "dims", "offset"} entries, offsets
        relative to the start of the payload region
    payload: the state's vectors as raw little-endian float64, in order
    u32 LE CRC32 of the payload region

The vectors are ``Parameters.vector`` (all groups end to end), the Adam
first and second moments laid out like it, then ``TrainState.snapshot``, the
gate's copy of the previous batch's gradient, if the run has made one, so a
loaded checkpoint resumes the exact training trajectory. Only gated steps
make a snapshot, so a finetuned file holds none. The manifest is
derived from the model's ``layout`` (names and shapes, no arrays): a tensor
entry for each tensor of the first three vectors, and a ``snapshot/<group>``
entry for each group's slice of the snapshot. A loaded file's manifest must
equal the one its model_config implies, which also holds ``RESIDUAL_KEY``,
always true. A loaded state's parameters, Adam moments and snapshot are
views of one aligned copy of the payload, the file as read.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, fields
from itertools import accumulate, zip_longest
from pathlib import Path

import numpy as np

from .data import Vocabulary
from .model import ModelConfig, Parameters, group_sizes, layout
from .trainer import Adam, TrainState

__all__ = ["CheckpointError", "Checkpoint", "save_checkpoint", "load_checkpoint"]

MAGIC = b"TIE1"
FORMAT_VERSION = 1
PHASES = ("pretrain", "finetune")
# a model_config key of every TIE1 file, for an option the model no longer
# has: the label-attention residual is always on, so the key is always true
RESIDUAL_KEY = "residual_label_attn"


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
    phase: str | None = None   # one of PHASES: the training phase that wrote it


def _stored(state: TrainState) -> list:
    """Every vector of the payload, in payload order."""
    vectors = [state.params.vector, *state.optimizer.moments, state.snapshot]
    return [vec for vec in vectors if vec is not None]


def _manifest(groups: dict, snapshot: bool) -> list:
    """The header's entries for a model of this ``layout``: every tensor of
    the parameters and of both Adam moments, then, with a ``snapshot``,
    each group's slice of it whole."""
    tensors = [(name, list(shape)) for specs in groups.values() for name, shape, _ in specs]
    stored = [(f"{key}/{name}", dims) for key in ("param", "adam.m", "adam.v")
              for name, dims in tensors]
    if snapshot:
        stored += [(f"snapshot/{group}", [size]) for group, size in group_sizes(groups).items()]
    offsets = accumulate((8 * math.prod(dims) for _, dims in stored), initial=0)
    return [{"name": name, "dtype": "f8", "dims": dims, "offset": offset}
            for (name, dims), offset in zip(stored, offsets)]


def save_checkpoint(path, checkpoint: Checkpoint):
    state = checkpoint.state
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": {**asdict(checkpoint.config), RESIDUAL_KEY: True},
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
        "manifest": _manifest(state.params.layout, state.snapshot is not None),
    }
    if checkpoint.phase is not None:
        header["phase"] = checkpoint.phase
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        # each vector goes to the file as it is held (a copy only on a
        # big-endian host), the payload CRC chained over them
        crc = 0
        for vec in _stored(state):
            data = np.ascontiguousarray(vec, dtype="<f8")
            fh.write(data)
            crc = zlib.crc32(data, crc)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint; any damage raises ``CheckpointError``.

    The checks run in this order: magic, format version, header JSON, the
    payload CRC, model_config, vocabulary, Adam settings (a finite positive
    ``lr``, and ``beta1``, ``beta2`` and ``eps`` equal to ``Adam``'s
    constants, which every file stores) and step counts, the phase if the
    header has one, then the manifest, which must equal the one the model's
    ``layout`` implies (the error names the first entry that differs), and
    the payload length. The file is read once into a writable buffer in
    which the payload starts 8-byte aligned, and all checks pass before
    anything else is allocated, so a small file cannot make the loader lay
    out a large model. The payload is screened for NaN and Inf in one pass;
    only when that screen fails is each tensor checked on its own, so the
    error names the first bad tensor in manifest order. The loaded
    parameters, Adam moments and gradient snapshot are views of that one
    copy of the payload.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        version, header_len = struct.unpack("<II", head[4:])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        # the rest of the file, read once into a buffer placed so that the
        # payload starts 8-byte aligned: the loaded vectors are views of it
        size = os.fstat(fh.fileno()).st_size - 12
        buf = np.empty(size + 8, dtype=np.uint8)
        start = -(buf.ctypes.data + header_len) % 8
        body = buf[start:start + size]
        body = body[:fh.readinto(body)]
    try:
        header = json.loads(body[:header_len].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from None

    payload = body[header_len:-4]
    if len(body) < header_len + 4 \
            or zlib.crc32(payload) != struct.unpack("<I", body[-4:].tobytes())[0]:
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


def _restore(path: Path, header: dict, payload: np.ndarray) -> Checkpoint:
    if _count(path, header, "format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: header format_version {header['format_version']} "
                              f"does not match the file's {FORMAT_VERSION}")
    config_json = header["model_config"]
    if set(config_json) != {f.name for f in fields(ModelConfig)} | {RESIDUAL_KEY}:
        # a missing field would silently take its default, e.g. another head count
        raise CheckpointError(f"{path}: model_config fields {sorted(config_json)} do not "
                              f"match the model's")
    if (residual := config_json.pop(RESIDUAL_KEY)) is not True:
        raise CheckpointError(f"{path}: model_config.{RESIDUAL_KEY} must be true, "
                              f"got {json.dumps(residual)}")
    try:
        config = ModelConfig(**config_json)
    except ValueError as exc:
        raise CheckpointError(f"{path}: model_config.{exc}") from None
    num_channels = _count(path, header, "num_channels")
    tokens = header["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointError(f"{path}: vocab must be a list of strings")
    vocab = Vocabulary(tokens)
    if len(vocab) != config.vocab_size:
        # token ids past the embedding table, or tokens read as other rows
        raise CheckpointError(f"{path}: vocab has {len(vocab)} ids (3 reserved), "
                              f"model_config.vocab_size is {config.vocab_size}")

    adam_meta = header["adam"]
    lr, beta1, beta2, eps = (adam_meta[k] for k in ("lr", "beta1", "beta2", "eps"))
    if not (type(lr) in (int, float) and math.isfinite(lr) and lr > 0   # no booleans
            and [beta1, beta2, eps] == [Adam.beta1, Adam.beta2, Adam.eps]):
        raise CheckpointError(f"{path}: Adam settings must be finite, with lr > 0 and "
                              f"(beta1, beta2, eps) = ({Adam.beta1}, {Adam.beta2}, {Adam.eps}): "
                              f"lr={lr!r} beta1={beta1!r} beta2={beta2!r} eps={eps!r}")
    groups = layout(config, num_channels)
    steps = {g: _count(path, adam_meta["t"], g) for g in adam_meta["t"]}
    if set(steps) != set(groups):
        raise CheckpointError(f"{path}: Adam step counts do not cover the model's groups")
    step = _count(path, header, "step")
    phase = header.get("phase")
    if "phase" in header and phase not in PHASES:
        raise CheckpointError(f"{path}: header field 'phase' must be one of {list(PHASES)}, "
                              f"got {phase!r}")

    manifest = header["manifest"]
    # the gate stores the whole gradient at once, so a snapshot is absent
    # (before the first gated step, and in every finetuned file) or covers
    # every group
    with_snapshot = len(manifest) > 3 * sum(map(len, groups.values()))
    sizes = group_sizes(groups)
    expected = _manifest(groups, with_snapshot)
    if manifest != expected:
        i, got, want = next((i, a, b) for i, (a, b) in enumerate(zip_longest(manifest, expected))
                            if a != b)
        raise CheckpointError(f"{path}: manifest entry {i} is {got}, where the model's "
                              f"manifest covers {want}")
    n = sum(sizes.values())
    size = 8 * n * (4 if with_snapshot else 3)
    if len(payload) != size:
        raise CheckpointError(f"{path}: payload holds {len(payload)} bytes, "
                              f"the manifest covers {size}")

    words = payload.view("<f8")
    if not np.isfinite(words).all():   # the CRC matches NaNs that were saved
        for entry in expected:
            start = entry["offset"] // 8
            if not np.isfinite(words[start:start + math.prod(entry["dims"])]).all():
                raise CheckpointError(f"{path}: tensor {entry['name']} holds NaN or Inf")
    params = Parameters.over(config, num_channels, words[:n])
    optimizer = Adam(params, lr=float(lr), moments=(words[n:2 * n], words[2 * n:3 * n]))
    optimizer.t = steps
    state = TrainState(params=params, optimizer=optimizer,
                       snapshot=words[3 * n:] if with_snapshot else None, step=step)
    return Checkpoint(config=config, num_channels=num_channels,
                      seed=_count(path, header, "seed"), step=step, vocab=vocab,
                      state=state, phase=phase)


def _count(path: Path, header: dict, key: str) -> int:
    """A header field that must be a non-negative JSON integer."""
    value = header[key]
    if type(value) is not int or value < 0:
        raise CheckpointError(f"{path}: header field {key!r} must be a non-negative "
                              f"integer, got {value!r}")
    return value
