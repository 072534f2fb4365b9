"""Span recording, self-time arithmetic and the sampler's layer map."""

import asyncio
import sys

from perfbench import spans
from perfbench.spans import Span, covered, layer_of, self_times


def test_covered_merges_overlapping_and_clips_to_parent():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([(1, 2), (2, 3)], 0, 10) == 2
    assert covered([], 0, 10) == 0
    assert covered([(-5, -1), (11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    rows = [Span(1, "parent", 0.0, 10.0, None, None, {}),
            Span(2, "a", 1.0, 4.0, 1, None, {}),
            Span(3, "b", 3.0, 6.0, 1, None, {}),
            Span(4, "c", 8.0, 12.0, 1, None, {}),
            Span(5, "grandchild", 1.5, 2.0, 2, None, {})]
    got = self_times(rows)
    assert got[1] == 3.0           # 10 - |[1,6] u [8,10]|
    assert got[2] == 2.5           # 3 - 0.5
    assert got[3] == 3.0 and got[4] == 4.0 and got[5] == 0.5


class _Target:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_wrappers_link_parents_share_request_and_uninstall():
    tracer = spans.Tracer()
    original = _Target.__dict__["outer"]
    tracer.wrap(_Target, "outer", "outer", new_rid=True,
                note=lambda a, _k, r: {"result": r})
    tracer.wrap(_Target, "inner", "inner")
    assert _Target().outer(3) == 7
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.rid == outer.rid == outer.sid
    assert outer.attrs == {"result": 7}
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.uninstall()
    assert _Target.__dict__["outer"] is original
    assert _Target().outer(3) == 7 and len(tracer.spans) == 2


def test_sticky_request_identity_spans_later_calls_in_one_task():
    class Proto:
        @staticmethod
        async def read():
            await asyncio.sleep(0)
            return b"x"

        @staticmethod
        def parse(body):
            return body.decode()

    tracer = spans.Tracer()
    tracer.wrap(Proto, "read", "read", new_rid=True, sticky=True)
    tracer.wrap(Proto, "parse", "parse")

    async def connection():
        for _ in range(2):
            Proto.parse(await Proto.read())

    async def main():
        await asyncio.gather(connection(), connection())

    asyncio.run(main())
    reads = [s for s in tracer.spans if s.name == "read"]
    parses = [s for s in tracer.spans if s.name == "parse"]
    assert len(reads) == len(parses) == 4
    assert sorted(p.rid for p in parses) == sorted(r.sid for r in reads)


def _frame_in(module, inner_module=None):
    """A live frame whose innermost function belongs to ``module`` (or
    to ``inner_module`` called from it)."""
    inner = {"__name__": inner_module or module, "sys": sys}
    exec("def leaf():\n    return sys._getframe()", inner)
    outer = {"__name__": module, "leaf": inner["leaf"]}
    exec("def call():\n    return leaf()", outer)
    return outer["call"]()


def test_layer_map():
    assert layer_of("repro.sim.system") == "sim.system"
    assert layer_of("repro.sim.fastpath") == "sim.fastpath"
    assert layer_of("repro.caches.sram_cache") == "caches"
    assert layer_of("repro.coherence") == "coherence"
    assert layer_of("repro.sim") == "sim"
    assert layer_of("repro") is None
    assert layer_of("numpy.core.numeric") is None
    assert layer_of(None) is None


def test_sampler_charges_innermost_repro_frame_under_context():
    sampler = spans.Sampler()
    sampler._on_signal(0, _frame_in("repro.noc.mesh"))      # no context
    sampler.context = "silo"
    sampler._on_signal(0, _frame_in("repro.noc.mesh"))
    sampler._on_signal(0, _frame_in("repro.sim.system", "numpy.x"))
    sampler._on_signal(0, _frame_in("repro.caches.a", "repro.memory.b"))
    assert sampler.counts["silo"] == {"noc": 1, "sim.system": 1,
                                      "memory": 1}
    assert sampler.shares("silo")["noc"] == 1 / 3
    assert sampler.shares("shared") == {}
