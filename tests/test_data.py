import json

import pytest

from tie import data
from tie.data import DataError, Instance, LabelSpace, Mention, Vocabulary


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


CONLL_LIKE = LabelSpace(["PER", "ORG", "LOC", "MISC"], [])


def test_load_jsonl_org_example(tmp_path):
    p = tmp_path / "x.jsonl"
    write_jsonl(p, [{
        "tokens": ["VICORP", "restaurants", "names", "Sabourin", "CFO", "."],
        "entities": [{"type": "ORG", "start": 1, "end": 1}],
        "links": [],
    }])
    insts, dropped = data.load_jsonl(p, CONLL_LIKE, dataset_id="conll-like")
    assert dropped == 0
    assert len(insts) == 1
    assert insts[0].entities == [Mention("ORG", 1, 1)]
    assert insts[0].tokens[1] == "restaurants"


def test_load_jsonl_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    insts, dropped = data.load_jsonl(p, CONLL_LIKE)
    assert insts == [] and dropped == 0


def test_load_jsonl_rejects_inverted_span(tmp_path):
    p = tmp_path / "bad.jsonl"
    write_jsonl(p, [{"tokens": ["a", "b"], "entities": [{"type": "PER", "start": 1, "end": 0}]}])
    with pytest.raises(DataError, match=r"span \(1, 0\)"):
        data.load_jsonl(p, CONLL_LIKE)


def test_load_jsonl_reports_line_number_on_bad_json(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": ["a"]}\n{oops\n', encoding="utf-8")
    with pytest.raises(DataError, match=":2:"):
        data.load_jsonl(p, CONLL_LIKE)


def test_load_jsonl_names_unknown_label(tmp_path):
    p = tmp_path / "bad.jsonl"
    write_jsonl(p, [{"tokens": ["a"], "entities": [{"type": "DATE", "start": 0, "end": 0}]}])
    with pytest.raises(DataError, match="'DATE'"):
        data.load_jsonl(p, CONLL_LIKE)


def test_load_jsonl_drops_overlong_lines(tmp_path):
    p = tmp_path / "long.jsonl"
    write_jsonl(p, [
        {"tokens": ["w"] * 5, "entities": [], "links": []},
        {"tokens": ["w"] * 9, "entities": [], "links": []},
    ])
    insts, dropped = data.load_jsonl(p, CONLL_LIKE, max_len=8)
    assert len(insts) == 1 and dropped == 1


def test_load_jsonl_idempotent(tmp_path):
    p = tmp_path / "x.jsonl"
    write_jsonl(p, [{
        "tokens": ["a", "b", "c"],
        "entities": [{"type": "PER", "start": 0, "end": 1}],
        "links": [],
    }])
    first, _ = data.load_jsonl(p, CONLL_LIKE)
    second, _ = data.load_jsonl(p, CONLL_LIKE)
    assert first == second


def test_link_refs_index_and_span(tmp_path):
    space = LabelSpace(["PER", "ORG"], ["Work_For"])
    p = tmp_path / "re.jsonl"
    write_jsonl(p, [{
        "tokens": ["a", "b", "c", "d", "e", "f", "g"],
        "entities": [
            {"type": "PER", "start": 0, "end": 1},
            {"type": "ORG", "start": 4, "end": 6},
        ],
        "links": [
            {"type": "Work_For", "subject": 0, "object": 1},
            {"type": "Work_For", "subject": 0, "object": {"start": 4, "end": 6}},
        ],
    }])
    insts, _ = data.load_jsonl(p, space)
    inst = insts[0]
    assert inst.resolve(inst.links[0].object) == ((4, 6), "ORG")
    assert inst.resolve(inst.links[1].object) == ((4, 6), None)


@pytest.mark.parametrize("line", [
    "[1]",
    '"tokens"',
    '{"tokens": ["a"], "entities": [5]}',
    '{"tokens": ["a"], "entities": {"type": "PER"}}',
    '{"tokens": ["a"], "entities": [{"type": "PER", "start": 0}]}',
    '{"tokens": ["a"], "entities": [{"type": "PER", "start": [0], "end": 0}]}',
    '{"tokens": ["a"], "links": [7]}',
    # span offsets must be JSON integers, never coerced
    '{"tokens": ["a", "b"], "entities": [{"type": "PER", "start": 1.7, "end": 1}]}',
    '{"tokens": ["a", "b"], "entities": [{"type": "PER", "start": 0, "end": 1.0}]}',
    '{"tokens": ["a", "b"], "entities": [{"type": "PER", "start": "1", "end": 1}]}',
    '{"tokens": ["a", "b"], "entities": [{"type": "PER", "start": true, "end": 1}]}',
    '{"tokens": ["a", "b"], "links": [{"type": "R", "subject": {"start": 0, "end": 0}, '
    '"object": {"start": 1.0, "end": 1}}]}',
    '{"tokens": ["a", "b"], "links": [{"type": "R", "subject": {"start": false, "end": 0}, '
    '"object": {"start": 1, "end": 1}}]}',
])
def test_load_jsonl_rejects_malformed_instance(tmp_path, line):
    p = tmp_path / "x.jsonl"
    p.write_text('{"tokens": ["ok"]}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"x\.jsonl:2\b"):
        data.load_jsonl(p, LabelSpace(["PER"], ["R"]))


def test_link_ref_out_of_range(tmp_path):
    space = LabelSpace(["PER"], ["R"])
    p = tmp_path / "re.jsonl"
    write_jsonl(p, [{
        "tokens": ["a", "b"],
        "entities": [{"type": "PER", "start": 0, "end": 0}],
        "links": [{"type": "R", "subject": 0, "object": 3}],
    }])
    with pytest.raises(DataError, match="index 3 out of range"):
        data.load_jsonl(p, space)


def test_nested_spans_permitted(tmp_path):
    p = tmp_path / "nested.jsonl"
    write_jsonl(p, [{
        "tokens": ["a", "b", "c"],
        "entities": [
            {"type": "PER", "start": 0, "end": 2},
            {"type": "ORG", "start": 1, "end": 1},
        ],
    }])
    insts, _ = data.load_jsonl(p, CONLL_LIKE)
    assert len(insts[0].entities) == 2


def test_label_space_duplicates_rejected():
    with pytest.raises(DataError):
        LabelSpace(["A", "B"], ["B"])


def test_label_space_channel_order():
    space = LabelSpace(["E1", "E2"], ["R1"])
    assert space.num_channels == 3
    assert space.channel("R1") == 2


def test_absa_shape_enforced(tmp_path):
    manifest = tmp_path / "m.json"
    for split in ("train", "dev", "test"):
        (tmp_path / f"{split}.jsonl").write_text("", encoding="utf-8")
    manifest.write_text(json.dumps({
        "id": "bad-absa", "task": "ABSA",
        "entity_types": ["Aspect", "Expression"],
        "relation_types": ["Positive", "Negative", "Neutral"],
        "train": "train.jsonl", "dev": "dev.jsonl", "test": "test.jsonl",
    }), encoding="utf-8")
    with pytest.raises(DataError, match="ABSA"):
        data.load_manifest(manifest)


def test_ner_manifest_requires_empty_relations(tmp_path):
    manifest = tmp_path / "m.json"
    for split in ("train", "dev", "test"):
        (tmp_path / f"{split}.jsonl").write_text("", encoding="utf-8")
    manifest.write_text(json.dumps({
        "id": "bad-ner", "task": "NER",
        "entity_types": ["PER"], "relation_types": ["R"],
        "train": "train.jsonl", "dev": "dev.jsonl", "test": "test.jsonl",
    }), encoding="utf-8")
    with pytest.raises(DataError, match="NER"):
        data.load_manifest(manifest)


@pytest.mark.parametrize("spec", [
    5,
    {"id": 5, "task": "NER", "entity_types": ["PER"], "relation_types": [],
     "train": "train.jsonl", "dev": "dev.jsonl", "test": "test.jsonl"},
    {"id": "d", "task": "NER", "entity_types": "PER", "relation_types": [],
     "train": "train.jsonl", "dev": "dev.jsonl", "test": "test.jsonl"},
    {"id": "d", "task": "NER", "entity_types": ["PER"], "relation_types": [],
     "train": ["train.jsonl"], "dev": "dev.jsonl", "test": "test.jsonl"},
])
def test_load_manifest_rejects_malformed_spec(tmp_path, spec):
    manifest = tmp_path / "m.json"
    for split in ("train", "dev", "test"):
        (tmp_path / f"{split}.jsonl").write_text("", encoding="utf-8")
    manifest.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(DataError, match="m.json"):
        data.load_manifest(manifest)


def test_load_manifest_parses_only_the_named_splits(tmp_path):
    from tie.evaluate import evaluate_split, predict_split

    manifest = tmp_path / "m.json"
    for split in ("train", "dev", "test"):
        write_jsonl(tmp_path / f"{split}.jsonl", [{"tokens": ["a", split]}])
    (tmp_path / "train.jsonl").write_text("[1]\n", encoding="utf-8")   # never parsed
    manifest.write_text(json.dumps({
        "id": "d", "task": "NER", "entity_types": ["PER"], "relation_types": [],
        "train": "train.jsonl", "dev": "dev.jsonl", "test": "test.jsonl",
    }), encoding="utf-8")
    none = data.load_manifest(manifest, splits=())
    assert none.splits == data.Splits(train=None, dev=None, test=None)
    test_only = data.load_manifest(manifest, splits=("test",))
    assert test_only.splits.dev is None and test_only.splits.test[0].tokens == ["a", "test"]
    for score in (evaluate_split, predict_split):
        with pytest.raises(DataError, match="dev split was not loaded"):
            score(None, None, None, test_only, "dev", 0.5)
    with pytest.raises(DataError, match="train.jsonl:1"):
        data.load_manifest(manifest)


def _ds(sentences):
    insts = [Instance(tokens=s.split()) for s in sentences]
    return data.Dataset(
        id="d", task_kind="NER",
        label_space=LabelSpace(["X"], []),
        splits=data.Splits(train=insts, dev=[], test=[]),
    )


def test_build_vocab_deterministic_serialization():
    v1 = data.build_vocab([_ds(["c a b b", "a"])])
    v2 = data.build_vocab([_ds(["c a b b", "a"])])
    assert json.dumps(v1.to_json()) == json.dumps(v2.to_json())
    # frequency desc, lexicographic tiebreak
    assert v1.to_json() == ["a", "b", "c"]


def test_build_vocab_roundtrip_random_corpus():
    import numpy as np

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(40)]
    sents = [" ".join(rng.choice(words, size=rng.integers(3, 9))) for _ in range(100)]
    vocab = data.build_vocab([_ds(sents)])
    restored = Vocabulary(json.loads(json.dumps(vocab.to_json())))
    for tok in vocab.to_json():
        assert restored.id_to_token[vocab.id(tok)] == tok
        assert restored.id(tok) == vocab.id(tok)


def test_vocab_reserved_ids():
    v = Vocabulary(["hello"])
    assert v.id("<pad>") == 0 and v.id("<unk>") == 1 and v.id("<slot>") == 2
    assert v.id("hello") == 3
    assert v.id("missing") == data.UNK_ID


def test_build_vocab_extra_texts():
    vocab = data.build_vocab([_ds(["a b"])], extra_texts=["find the things"])
    assert "find" in vocab and "things" in vocab
