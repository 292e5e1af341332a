import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tie.codec import encode
from tie.data import load_manifest
from tie.instructions import parse_template
from tie.data import build_vocab
from tie import synth
from tie.synth import make_synth, write_synth

from fuzz import FUZZ_SPACES, fuzz_instance


@pytest.mark.parametrize("kind,expected_ids", [
    ("ner", ["synth-ner"]),
    ("re", ["synth-re"]),
    ("ee", ["synth-ee"]),
    ("absa", ["synth-absa"]),
    ("aligned_pair", ["aligned-a", "aligned-b", "aligned-target"]),
    ("conflict_pair", ["conflict-a", "conflict-b", "conflict-target"]),
])
def test_make_synth_kinds(kind, expected_ids):
    out = make_synth(kind, 10, 1)
    assert [ds.id for ds, _ in out] == expected_ids
    for ds, templates in out:
        assert len(templates) == 5
        assert len(ds.splits.train) == 10
        assert len(ds.splits.dev) >= 20
        for inst in ds.splits.train:
            encode(inst, ds.label_space)  # validates channels and spans


def test_make_synth_deterministic():
    a = make_synth("re", 15, 7)[0][0]
    b = make_synth("re", 15, 7)[0][0]
    assert a.splits.train == b.splits.train


def test_make_synth_unknown_kind():
    with pytest.raises(ValueError):
        make_synth("bogus", 5, 0)


def test_templates_parse_against_label_space():
    for kind in ("ner", "re", "ee", "absa", "conflict_pair"):
        for ds, templates in make_synth(kind, 5, 2):
            vocab = build_vocab([ds], extra_texts=templates)
            for t in templates:
                ins = parse_template(t, ds.label_space, vocab, dataset_id=ds.id)
                assert len(ins.slot_index) == ds.label_space.num_channels


def test_conflict_pair_contradicts_channels():
    (a, _), (b, _), (target, _) = make_synth("conflict_pair", 40, 3)

    def channel_of_word(ds, word):
        for inst in ds.splits.train:
            for m in inst.entities:
                if inst.tokens[m.start] == word:
                    return ds.label_space.channel(m.type)
        return None

    conflicts = 0
    for pool in (synth.ANIMALS, synth.COLORS, synth.CITIES):
        for word in pool:
            ca, cb = channel_of_word(a, word), channel_of_word(b, word)
            if ca is not None and cb is not None:
                assert ca != cb
                conflicts += 1
    assert conflicts >= 5
    # target agrees with source a
    for pool in (synth.ANIMALS, synth.COLORS, synth.CITIES):
        for word in pool:
            ca, ct = channel_of_word(a, word), channel_of_word(target, word)
            if ca is not None and ct is not None:
                assert ca == ct


def test_aligned_pair_agrees_on_channels():
    (a, _), (b, _), _ = make_synth("aligned_pair", 40, 3)
    assert a.label_space == b.label_space

    def words_of_channel(ds, k):
        out = set()
        for inst in ds.splits.train:
            for m in inst.entities:
                if ds.label_space.channel(m.type) == k:
                    out.add(inst.tokens[m.start])
        return out

    for k in range(3):
        overlap = words_of_channel(a, k) & words_of_channel(b, k)
        assert overlap  # same pools land on the same channels


def test_pair_sources_share_one_stream_in_every_split():
    """aligned-b is aligned-a but for the dataset id; conflict-b has the same
    tokens and spans, each type renamed by its pool's position. Each source
    owns its instances and token lists."""
    (a, _), (b, _), _ = make_synth("aligned_pair", 30, 4)
    (ca, _), (cb, _), _ = make_synth("conflict_pair", 30, 4)
    renamed = {"Animal": "Beast", "Color": "Shade", "City": "Venue"}
    for split in ("train", "dev", "test"):
        xs, ys = getattr(a.splits, split), getattr(b.splits, split)
        assert [replace(x, dataset_id="aligned-b") for x in xs] == ys
        assert all(x.dataset_id == "aligned-a" and x is not y and x.tokens is not y.tokens
                   for x, y in zip(xs, ys))
        # the conflict pair is drawn from the same seed as the aligned pair
        assert getattr(ca.splits, split) == [replace(x, dataset_id="conflict-a") for x in xs]
        for x, y in zip(getattr(ca.splits, split), getattr(cb.splits, split)):
            assert x.tokens == y.tokens and x.tokens is not y.tokens
            assert y.entities == [replace(m, type=renamed[m.type]) for m in x.entities]


def test_write_synth_roundtrips_through_manifest(tmp_path):
    written = write_synth(tmp_path, "absa", 8, 5)
    assert all(p.exists() for p in written)
    ds = load_manifest(tmp_path / "synth-absa" / "manifest.json")
    assert ds.task_kind == "ABSA"
    assert len(ds.splits.train) == 8
    spec = json.loads((tmp_path / "synth-absa" / "instructions.json").read_text())
    assert spec["dataset"] == "synth-absa" and len(spec["templates"]) == 5


def test_write_synth_byte_identical_reruns(tmp_path):
    w1 = write_synth(tmp_path / "r1", "aligned_pair", 6, 9)
    w2 = write_synth(tmp_path / "r2", "aligned_pair", 6, 9)
    for p1, p2 in zip(w1, w2):
        assert p1.read_bytes() == p2.read_bytes()


GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "synth_sha256.json").read_text())


@pytest.mark.parametrize("kind", synth.SYNTH_KINDS)
def test_write_synth_matches_golden_digests(tmp_path, kind):
    """A corpus is a pure function of (kind, size, seed): the sha256 of every
    file ``write_synth`` writes must equal the digest in the fixture. The
    digests also pin numpy's Generator stream; regenerate them only for a
    deliberate change of the corpora."""
    written = write_synth(tmp_path, kind, GOLDEN["size"], GOLDEN["seed"])
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in written}
    assert digests == GOLDEN["sha256"][kind]


def test_fuzz_instances_are_valid():
    rng = np.random.default_rng(0)
    for task, space in FUZZ_SPACES.items():
        for _ in range(50):
            inst = fuzz_instance(task, rng)
            n = len(inst.tokens)
            for m in inst.entities:
                assert 0 <= m.start <= m.end < n
            gold = encode(inst, space)
            assert gold.collisions == 0
