import tracemalloc

import numpy as np
import pytest

from tie import codec
from tie.codec import GoldMatrix, decode, decode_chunk, encode
from tie.data import Instance, LabelSpace, Link, Mention

from fuzz import FUZZ_SPACES, fuzz_instance
from grids import dense, entity_set, gold_link_set, lift, link_set, reference_decode

CONLL_LIKE = LabelSpace(["PER", "ORG", "LOC", "MISC"], [])


def test_encode_single_entity_cell():
    inst = Instance(
        tokens=["VICORP", "restaurants", "names", "Sabourin", "CFO", "."],
        entities=[Mention("ORG", 1, 1)],
    )
    gold = encode(inst, CONLL_LIKE)
    assert gold.shape == (6, 6, 4)
    assert gold.cells.tolist() == [[1, 1, CONLL_LIKE.channel("ORG")]]


def test_encode_empty_instance_all_zero():
    inst = Instance(tokens=["a", "b", "c"])
    gold = encode(inst, CONLL_LIKE)
    assert gold.cells.shape == (0, 3)
    assert dense(gold).shape == (3, 3, 4) and dense(gold).sum() == 0.0
    assert gold.collisions == 0


def test_encode_relation_two_cell_convention():
    space = LabelSpace(["PER", "ORG"], ["Work_For"])
    inst = Instance(
        tokens=["a", "b", "c", "d", "e", "f", "g"],
        entities=[Mention("PER", 0, 1), Mention("ORG", 4, 6)],
        links=[Link("Work_For", 0, 1)],
    )
    gold = encode(inst, space)
    wf = space.channel("Work_For")
    assert gold.cells.tolist() == sorted([
        [0, 1, space.channel("PER")],
        [4, 6, space.channel("ORG")],
        [0, 4, wf],
        [1, 6, wf],
    ])


def test_encode_counts_collisions():
    space = LabelSpace(["E"], ["r"])
    # Both links put a head-head cell at (0, 2) in channel r.
    inst = Instance(
        tokens=["a", "b", "c", "d", "e"],
        entities=[Mention("E", 0, 0), Mention("E", 2, 3), Mention("E", 2, 4)],
        links=[Link("r", 0, 1), Link("r", 0, 2)],
    )
    gold = encode(inst, space)
    assert gold.collisions == 1


def test_encode_single_token_link_is_one_cell_no_collision():
    space = LabelSpace(["E"], ["r"])
    inst = Instance(
        tokens=["a", "b", "c"],
        entities=[Mention("E", 0, 0), Mention("E", 2, 2)],
        links=[Link("r", 0, 1)],
    )
    gold = encode(inst, space)
    assert gold.collisions == 0
    assert gold.cells.tolist() == [[0, 0, 0], [0, 2, space.channel("r")], [2, 2, 0]]


def test_encode_allocates_no_grid():
    # 128 tokens x 8 channels: the dense float64 grid would take 1 MB
    space = LabelSpace(["A", "B", "C", "D"], ["r", "s", "t", "u"])
    inst = Instance(
        tokens=["w"] * 128,
        entities=[Mention("ABCD"[i % 4], 4 * i, 4 * i + 2) for i in range(32)],
        links=[Link("rstu"[i % 4], 2 * i, 2 * i + 1) for i in range(16)],
    )
    encode(inst, space)  # first-call set-up stays out of the measurement
    tracemalloc.start()
    try:
        gold = encode(inst, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gold.cells) == 32 + 2 * 16
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("cells", [
    [[3, 0, 0]],        # row past n
    [[0, 3, 1]],        # column past n
    [[0, 0, 2]],        # channel past K
    [[-1, 0, 0]],       # negative
    [[0, 0]],           # not (i, j, channel) rows
    [[0.0, 0.0, 0.0]],  # not integers
], ids=["row", "column", "channel", "negative", "two columns", "float"])
def test_gold_cells_outside_the_grid_are_rejected(cells):
    with pytest.raises(ValueError, match="gold cells"):
        GoldMatrix(3, 2, np.array(cells))


def test_gold_cells_are_kept_sorted_and_unique():
    gold = GoldMatrix(3, 2, np.array([[2, 1, 0], [0, 2, 1], [2, 1, 0]]))
    assert gold.cells.tolist() == [[0, 2, 1], [2, 1, 0]]


@pytest.mark.parametrize("grid", [
    np.zeros((3, 3)),             # no channel axis
    np.zeros((3, 2, 2)),          # not square
    np.pad([[[0.5]]], ((1, 1), (1, 1), (0, 1))),   # one 0.5 cell
], ids=["2-D", "not square", "half"])
def test_from_grid_rejects_what_is_not_a_0_1_grid(grid):
    with pytest.raises(ValueError, match="gold grid"):
        GoldMatrix.from_grid(grid)


def test_from_grid_round_trips_the_dense_grid():
    grid = (np.random.default_rng(3).random((5, 5, 3)) < 0.3).astype(float)
    gold = GoldMatrix.from_grid(grid)
    assert gold.shape == (5, 5, 3)
    assert np.array_equal(dense(gold), grid)


def test_decode_all_low_scores_empty():
    space = FUZZ_SPACES["RE"]
    scores = np.full((4, 4, space.num_channels), 0.01)
    pred = decode(scores, space, 0.5, "RE")
    assert pred.entities == [] and pred.links == []


def test_decode_threshold_range():
    space = FUZZ_SPACES["NER"]
    scores = np.full((2, 2, space.num_channels), 0.5)
    with pytest.raises(ValueError):
        decode(scores, space, 1.0, "NER")
    with pytest.raises(ValueError):
        decode(scores, space, 0.0, "NER")


def test_decode_requires_both_link_cells():
    space = LabelSpace(["E"], ["r"])
    inst = Instance(
        tokens=["a", "b", "c", "d"],
        entities=[Mention("E", 0, 1), Mention("E", 2, 3)],
        links=[Link("r", 0, 1)],
    )
    scores = lift(encode(inst, space))
    k = space.channel("r")
    scores[1, 3, k] = 0.01  # erase the tail-tail cell
    pred = decode(scores, space, 0.5, "RE")
    assert link_set(pred) == set()
    assert entity_set(pred) == entity_set(inst)


def test_decode_ignores_lower_triangle_entities():
    space = FUZZ_SPACES["NER"]
    scores = np.full((3, 3, space.num_channels), 0.01)
    scores[2, 0, 0] = 0.99  # start > end: not a span
    pred = decode(scores, space, 0.5, "NER")
    assert pred.entities == []


@pytest.mark.parametrize("task", ["NER", "RE", "EE", "ABSA"])
def test_roundtrip_fuzz(task):
    rng = np.random.default_rng(100 + len(task))
    space = FUZZ_SPACES[task]
    for _ in range(200):
        inst = fuzz_instance(task, rng)
        gold = encode(inst, space)
        assert gold.collisions == 0
        pred = decode(lift(gold), space, 0.5, task)
        assert entity_set(pred) == entity_set(inst)
        assert link_set(pred) == gold_link_set(inst)


def test_decode_monotone_in_tau():
    rng = np.random.default_rng(5)
    for task in ("RE", "EE", "ABSA"):
        space = FUZZ_SPACES[task]
        for _ in range(30):
            n = int(rng.integers(2, 7))
            scores = rng.random((n, n, space.num_channels))
            lo = decode(scores, space, 0.3, task)
            hi = decode(scores, space, 0.7, task)
            assert entity_set(hi) <= entity_set(lo)
            assert link_set(hi) <= link_set(lo)


def test_decode_scores_in_open_interval():
    rng = np.random.default_rng(6)
    inst = fuzz_instance("RE", rng)
    pred = decode(lift(encode(inst, FUZZ_SPACES["RE"])), FUZZ_SPACES["RE"], 0.5, "RE")
    for e in pred.entities:
        assert 0.0 < e.score < 1.0
    for l in pred.links:
        assert 0.0 < l.score < 1.0


def test_decode_ee_links_carry_trigger_type():
    space = FUZZ_SPACES["EE"]
    inst = Instance(
        tokens=["w"] * 6,
        entities=[Mention("T1", 0, 1)],
        links=[Link("roleA", 0, (3, 4))],
    )
    pred = decode(lift(encode(inst, space)), space, 0.5, "EE")
    assert len(pred.links) == 1
    link = pred.links[0]
    assert link.subject_type == "T1"
    assert link.object == (3, 4)
    assert link.object_type is None


def test_single_token_trigger_multi_token_arg_is_degenerate():
    # Head and tail cells collapse into one row, so decode over-generates;
    # well-formed corpora avoid this shape (the fuzzer enforces it).
    space = FUZZ_SPACES["EE"]
    inst = Instance(
        tokens=["w"] * 6,
        entities=[Mention("T1", 1, 1)],
        links=[Link("roleA", 0, (3, 4))],
    )
    pred = decode(lift(encode(inst, space)), space, 0.5, "EE")
    assert gold_link_set(inst) <= link_set(pred)
    assert len(link_set(pred)) > 1


def test_decode_keeps_nested_entities():
    space = FUZZ_SPACES["NER"]
    inst = Instance(
        tokens=["w"] * 4,
        entities=[Mention("P", 0, 3), Mention("Q", 1, 2), Mention("P", 1, 3)],
    )
    pred = decode(lift(encode(inst, space)), space, 0.5, "NER")
    assert entity_set(pred) == entity_set(inst)


@pytest.mark.parametrize("task", ["NER", "RE", "EE", "ABSA"])
@pytest.mark.parametrize("tau", [0.3, 0.5, 0.7])
def test_decode_chunk_equals_the_instance_by_instance_reference(task, tau):
    # chunks of 1-6 instances of unequal lengths, with every padded cell
    # above tau: the same structures, in the same order, with the same float
    # scores as each instance's grid decoded on its own; skewed draws keep
    # some grids sparse and others dense in hits
    rng = np.random.default_rng(40 + int(10 * tau) + len(task))
    space = FUZZ_SPACES[task]
    for _ in range(12):
        lengths = rng.integers(1, 8, size=int(rng.integers(1, 7)))
        n = int(lengths.max())
        probs = np.full((len(lengths), n, n, space.num_channels), 0.99)
        for b, m in enumerate(lengths):
            probs[b, :m, :m] = rng.random((m, m, space.num_channels)) ** rng.choice([1.0, 3.0])
        got = decode_chunk(probs, lengths, space, tau, task)
        assert len(got) == len(lengths)
        for pred, grid, m in zip(got, probs, lengths):
            want = reference_decode(grid[:m, :m], space, tau, task)
            assert pred.entities == want.entities and pred.links == want.links
            assert decode(grid[:m, :m], space, tau, task) == pred


def test_decode_chunk_rejects_lengths_that_do_not_fit():
    space = FUZZ_SPACES["NER"]
    probs = np.full((2, 3, 3, space.num_channels), 0.5)
    with pytest.raises(ValueError, match="do not match"):
        decode_chunk(probs, [3, 4], space, 0.5)
    with pytest.raises(ValueError, match="do not match"):
        decode_chunk(probs, [3], space, 0.5)
    with pytest.raises(ValueError, match="threshold"):
        decode_chunk(probs, [3, 2], space, 1.0)
