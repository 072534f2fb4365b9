"""Optional event tracer: a bounded ring buffer with per-kind counts.

The simulator never constructs a tracer on its own -- ``System.tracer``
is ``None`` until ``System.attach_tracer`` is called, so the disabled
cost is one ``is not None`` check per instrumented site.  When enabled,
each event is a small immutable record kept in a ``deque(maxlen=...)``
(old events fall off the back) and counted by kind.

Event kinds
-----------
``coherence``       a line's coherence state changed (upgrades, fills)
``directory``       a duplicate-tag / sharer-table directory lookup
``invalidate``      a peer copy was invalidated
``downgrade``       a MOESI/MESI supplier downgrade (M->O / M->S)
``vault_eviction``  a direct-mapped vault evicted its set resident
``fault``           an injected fault fired or a recovery path ran
"""

from collections import deque
from typing import NamedTuple, Optional

EV_COHERENCE = "coherence"
EV_DIRECTORY = "directory"
EV_INVALIDATE = "invalidate"
EV_DOWNGRADE = "downgrade"
EV_EVICTION = "vault_eviction"
EV_FAULT = "fault"


class TraceEvent(NamedTuple):
    """One traced simulator event."""

    kind: str
    cycle: float
    core: int            # acting core (or home node for directory)
    block: int
    detail: Optional[str] = None


class EventTracer:
    """Ring buffer of :class:`TraceEvent` with per-kind counts."""

    def __init__(self, capacity=4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self.emitted = 0
        self.counts = {}

    def emit(self, kind, cycle, core, block, detail=None):
        self._ring.append(TraceEvent(kind, cycle, core, block, detail))
        self.emitted += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def events(self):
        """The retained (most recent) events, oldest first."""
        return list(self._ring)

    @property
    def dropped(self):
        """Events emitted but no longer retained in the ring."""
        return self.emitted - len(self._ring)

    def summary(self):
        """Per-kind emit counts plus ring occupancy."""
        return {"emitted": self.emitted, "retained": len(self._ring),
                "dropped": self.dropped,
                "by_kind": dict(sorted(self.counts.items()))}

    def clear(self):
        self._ring.clear()
        self.emitted = 0
        self.counts = {}
