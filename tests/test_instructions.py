import json

import numpy as np
import pytest

from tie.data import SLOT_ID, UNK_ID, Dataset, LabelSpace, Splits, Vocabulary
from tie import instructions as instr
from tie.instructions import (
    InstructionError, InstructionPool, build_pool, parse_template, read_templates, select,
)

ABSA_SPACE = LabelSpace(["Expression", "Aspect"], ["Positive", "Negative", "Neutral"])

ABSA_TEMPLATE = (
    "Find the sentiment ({Positive}, {Negative} or {Neutral}) of the sentence "
    "and identify the {Expression}, {Aspect} element."
)


def absa_vocab():
    words = (
        "find the sentiment ( , or ) of sentence and identify element . "
        "positive negative neutral expression aspect"
    ).split()
    return Vocabulary(sorted(set(words)))


def test_absa_template_has_five_slots():
    ins = parse_template(ABSA_TEMPLATE, ABSA_SPACE, absa_vocab(), dataset_id="16res-like")
    assert len(ins.slot_index) == ABSA_SPACE.num_channels == 5
    for name, p in ins.slot_index.items():
        assert ins.tokens[p] == instr.surface_form(name).split()[0]
    # slots are distinct, in-range positions
    assert len(set(ins.slot_index.values())) == 5
    assert all(0 <= p < len(ins.tokens) for p in ins.slot_index.values())


def test_minimal_single_channel_template():
    space = LabelSpace(["X"], [])
    ins = parse_template("{X}", space, Vocabulary(["x"]))
    assert ins.tokens == ["x"]
    assert ins.slot_index == {"X": 0}


def test_missing_placeholder_names_channel():
    with pytest.raises(InstructionError, match="Aspect"):
        parse_template(
            "Find the sentiment ({Positive}, {Negative} or {Neutral}) "
            "and identify the {Expression}.",
            ABSA_SPACE, absa_vocab(),
        )


def test_unknown_placeholder_rejected():
    with pytest.raises(InstructionError, match="Bogus"):
        parse_template("{X} and {Bogus}", LabelSpace(["X"], []), Vocabulary(["x", "and"]))


def test_duplicate_placeholder_rejected():
    with pytest.raises(InstructionError, match="duplicate"):
        parse_template("{X} then {X}", LabelSpace(["X"], []), Vocabulary(["x", "then"]))


@pytest.mark.parametrize("entities, links, template", [
    (["_"], [], "find {_}"),
    (["A_", "__"], [], "find {A_} and {__} here"),
    (["X"], ["_"], "{X} {_}"),
])
def test_channel_without_surface_word_rejected(entities, links, template):
    vocab = Vocabulary(["find", "a", "and", "here", "x"])
    with pytest.raises(InstructionError, match="no surface word"):
        parse_template(template, LabelSpace(entities, links), vocab, dataset_id="d")


def test_multi_token_label_slot_is_first_token():
    space = LabelSpace(["PER"], ["Work_For"])
    vocab = Vocabulary(["find", "work", "for", "per"])
    ins = parse_template("find {Work_For} {PER}", space, vocab)
    assert ins.tokens == ["find", "work", "for", "per"]
    assert ins.slot_index["Work_For"] == 1
    assert ins.slot_index["PER"] == 3


def test_oov_slot_tokens_get_slot_marker():
    space = LabelSpace(["Gadget"], [])
    vocab = Vocabulary(["mark", "every"])
    ins = parse_template("mark every {Gadget}", space, vocab)
    assert ins.token_ids == [vocab.id("mark"), vocab.id("every"), SLOT_ID]


def test_oov_plain_tokens_get_unk():
    space = LabelSpace(["X"], [])
    vocab = Vocabulary(["x"])
    ins = parse_template("zzz {X}", space, vocab)
    assert ins.token_ids == [UNK_ID, vocab.id("x")]


def test_length_limit():
    space = LabelSpace(["X"], [])
    long = " ".join(["word"] * 70) + " {X}"
    with pytest.raises(InstructionError, match="limit"):
        parse_template(long, space, Vocabulary(["word", "x"]), max_instr_len=64)


def test_slot_positions_follow_channel_order():
    ins = parse_template(ABSA_TEMPLATE, ABSA_SPACE, absa_vocab())
    pos = ins.slot_positions(ABSA_SPACE)
    assert pos == [ins.slot_index[c] for c in
                   ["Expression", "Aspect", "Positive", "Negative", "Neutral"]]


def _dataset(dataset_id="d"):
    return Dataset(dataset_id, "NER", LabelSpace(["X"], []), Splits([], [], []))


def _pool(n, dataset="d"):
    vocab = Vocabulary(["x", "variant"] + [f"w{i}" for i in range(n)])
    templates = [f"variant w{i} {{X}}" for i in range(n)]
    return build_pool([_dataset(dataset)], {dataset: templates}, vocab, 64)


def test_select_single_instruction():
    pool = _pool(1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert select(pool, "d", rng).template.endswith("{X}")


def test_select_uniform_over_five():
    pool = _pool(5)
    rng = np.random.default_rng(42)
    counts = {}
    for _ in range(10_000):
        ins = select(pool, "d", rng)
        counts[ins.template] = counts.get(ins.template, 0) + 1
    assert len(counts) == 5
    for c in counts.values():
        assert 1800 <= c <= 2200


def test_select_deterministic_per_seed():
    pool = _pool(5)
    seq1 = [select(pool, "d", np.random.default_rng(9)).template for _ in range(1)]
    draws1 = []
    rng = np.random.default_rng(9)
    for _ in range(20):
        draws1.append(select(pool, "d", rng).template)
    rng = np.random.default_rng(9)
    draws2 = [select(pool, "d", rng).template for _ in range(20)]
    assert draws1 == draws2
    assert seq1[0] == draws1[0]


def test_select_empty_pool_errors():
    pool = InstructionPool()
    with pytest.raises(InstructionError):
        select(pool, "nope", np.random.default_rng(0))


def test_pool_require():
    pool = _pool(2)
    pool.require(["d"])
    with pytest.raises(InstructionError, match="other"):
        pool.require(["d", "other"])


def test_read_templates_and_build_pool(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps({"dataset": "d", "templates": ["{X} here", "find {X}"]}),
                     encoding="utf-8")
    second.write_text(json.dumps({"dataset": "d", "templates": ["{X} again"]}),
                      encoding="utf-8")
    templates = read_templates([first, second])
    assert templates == {"d": ["{X} here", "find {X}", "{X} again"]}  # path order

    pool = build_pool([_dataset()], templates, Vocabulary(["x", "here", "find"]), 64)
    parsed = pool.instructions("d")
    assert [i.dataset_id for i in parsed] == ["d", "d", "d"]
    assert parsed[1].slot_index == {"X": 1}
    with pytest.raises(InstructionError, match="other"):
        build_pool([_dataset(), _dataset("other")], templates, Vocabulary(["x"]), 64)


@pytest.mark.parametrize("text, message", [
    ('"just a string"', "JSON object"),
    ('{"dataset": "d", "templates": [5]}', "list of strings"),
    ('{"dataset": "d", "templates": "{X} here"}', "list of strings"),
    ('{"dataset": "d", "templates": []}', "list of strings"),
    ('{"dataset": ["x"], "templates": ["{X}"]}', "'dataset' must be a string"),
    ('{"templates": ["{X}"]}', "missing field 'dataset'"),
    ('{"dataset": "d", "templates": [', "malformed"),
])
def test_read_templates_rejects_malformed_file(tmp_path, text, message):
    path = tmp_path / "bad-instructions.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InstructionError, match=message) as info:
        read_templates([path])
    assert "bad-instructions.json" in str(info.value)
