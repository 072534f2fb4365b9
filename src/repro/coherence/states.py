"""Coherence states shared by the MESI (baseline) and MOESI (SILO)
protocols (Sec. V-B).

States are small ints for speed.  ``OWNED`` exists only under MOESI: a
valid, dirty block whose holder must respond to coherence requests,
letting a modified block be supplied to readers without a memory
writeback -- the property SILO relies on to keep writebacks off the
critical path when main memory is the point of coherence.
"""

INVALID = 0
SHARED = 1
EXCLUSIVE = 2
OWNED = 3
MODIFIED = 4

MESI_STATES = (INVALID, SHARED, EXCLUSIVE, MODIFIED)
MOESI_STATES = (INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED)

_NAMES = {
    INVALID: "I",
    SHARED: "S",
    EXCLUSIVE: "E",
    OWNED: "O",
    MODIFIED: "M",
}


def is_dirty(state):
    """Dirty states must be written back when dropped: M and O."""
    return state == MODIFIED or state == OWNED


def state_name(state):
    """Single-letter name of a state (for debugging and tests)."""
    try:
        return _NAMES[state]
    except KeyError:
        raise ValueError("unknown coherence state %r" % (state,))

