"""Seeded serve inputs reproduce byte for byte and have the shape each
workload relies on."""

import json

from perfbench import serve


def test_warm_streams_reproduce_byte_for_byte():
    def bodies(seed):
        pool = serve.warm_pool(seed)
        streams = [[(pool[i], fmt) for i, fmt in s]
                   for s in serve.warm_streams(seed, 400)]
        return serve.request_bodies(streams)

    first = bodies(3)
    assert first == bodies(3)
    assert first != bodies(4)
    assert len(first) == 400
    formats = [json.loads(b)["format"] for b in first]
    assert 0 < formats.count("json") < formats.count("pickle")


def test_warm_pool_is_distinct_memo_resident_and_16_core():
    from repro.serve.server import MEMO_ENTRIES

    pool = serve.warm_pool(1)
    assert len(pool) == 8 * len(serve.SYSTEMS)
    assert len(pool) < MEMO_ENTRIES
    assert len({json.dumps(r.canonical(), sort_keys=True)
                for r in pool}) == len(pool)
    assert {r.config.num_cores for r in pool} == {16}


def test_cold_streams_reproduce_and_stay_in_the_trust_region():
    from repro.analytic.estimator import in_trust_region

    first, twins = serve.cold_streams(5, 600)
    again, twins_again = serve.cold_streams(5, 600)
    assert serve.request_bodies(first) == serve.request_bodies(again)
    assert twins == twins_again
    assert serve.request_bodies(first) != serve.request_bodies(
        serve.cold_streams(6, 600)[0])
    flat = [req for stream in first for req, _fmt in stream]
    assert all(in_trust_region(req) for req in flat)
    assert {fmt for stream in first for _req, fmt in stream} == {"pickle"}
    assert {r.config.num_cores for r in flat} == set(serve.COLD_CORES)
    assert {r.config.llc_kind for r in flat} == {"shared",
                                                 "private_vault"}


def test_cold_streams_repeat_the_measured_share():
    streams, twins = serve.cold_streams(5, 600)
    flat = [req for stream in streams for req, _fmt in stream]
    keys = [json.dumps(r.canonical(), sort_keys=True) for r in flat]
    assert len(twins) == round(600 * serve.TWIN_SHARE)
    assert all(streams[0][j][0] is streams[1][j][0] for j in twins)
    repeats = len(keys) - len(set(keys))
    assert repeats == round(600 * serve.TWIN_SHARE) + round(
        600 * serve.MEMO_SHARE)
    assert abs(repeats / len(keys) - serve.REPEAT_SHARE) < 0.01
