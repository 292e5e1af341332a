import json

import golden


def test_golden_run_keeps_its_decisions_f1_and_losses(tmp_path):
    # every gate decision and F1 as pinned, the resumed pretraining equal to
    # the uninterrupted one's second half bit for bit, and, on the fixture's
    # numpy and BLAS, every loss within 1e-12 relative
    record = golden.run(tmp_path)
    fixture = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))
    diff = golden.compare(fixture, record)
    assert golden.problems(diff, record) == [], diff
