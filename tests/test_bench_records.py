"""The benchmark session's BENCH_engine.json record is merged by test
name: a session that runs some benchmarks keeps the others' records
byte-identical."""

import json
import os
import shutil

from benchmarks import conftest as bench

COMMITTED = os.path.join(bench.RESULTS_DIR, "BENCH_engine.json")


def _block(text, name):
    """The text of one benchmark's record in a BENCH_engine.json."""
    start = text.index('    "%s": {' % name)
    return text[start:text.index("\n    }", start)]


def test_a_partial_session_keeps_the_other_records(tmp_path):
    shutil.copy(COMMITTED, str(tmp_path / "BENCH_engine.json"))
    before = (tmp_path / "BENCH_engine.json").read_text()
    names = sorted(json.loads(before)["figures"])
    assert len(names) >= 2
    ran, kept = names[-1], names[:-1]
    bench.merge_engine_records({ran: {"wall_clock_s": 1.5}},
                               str(tmp_path))
    after = (tmp_path / "BENCH_engine.json").read_text()
    figures = json.loads(after)["figures"]
    assert sorted(figures) == names
    assert figures[ran] == {"wall_clock_s": 1.5}
    for name in kept:
        assert _block(after, name) == _block(before, name)


def test_a_first_session_writes_a_new_record(tmp_path):
    bench.merge_engine_records({"test_x": {"wall_clock_s": 2.0}},
                               str(tmp_path / "results"))
    with open(str(tmp_path / "results" / "BENCH_engine.json")) as f:
        doc = json.load(f)
    assert doc["schema"] == "silo-repro-bench-engine/1"
    assert doc["figures"] == {"test_x": {"wall_clock_s": 2.0}}
