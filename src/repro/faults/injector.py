"""Runtime fault injection driven by a counter-based hash stream.

The injector deliberately does **not** draw from a sequential RNG.
Every decision is a pure hash of ``(plan seed, draw site, per-site
counter, lane)`` -- splitmix64 over a structured index.  Two
consequences the test suite relies on:

* **Isolation**: fault draws never perturb the workload RNG stream,
  and an injector whose rates are all zero performs no draws at all,
  so fault-off runs are bit-identical to runs without the package.
* **Monotonicity by construction**: for a fixed seed the uniform
  variate attached to draw ``(site, counter)`` is the same at every
  rate, and a fault fires iff that variate falls below the rate --
  so the fault set at rate r1 < r2 is a subset of the fault set at
  r2, and auxiliary choices (bit positions, retry counts, double-bit
  classification) of the common faults are identical.  IPC
  degradation is therefore non-increasing in the fault rate, which
  the metamorphic suite asserts.

The injector owns the recovery counters and the vault offline state;
the recovery *semantics* (what an uncorrectable error or an offline
vault does to the memory hierarchy) live in ``repro.sim.system`` and
``repro.memory.controller``.
"""

from repro.faults import ecc

_M64 = (1 << 64) - 1
_TWO64 = float(1 << 64)
_GOLDEN = 0x9E3779B97F4A7C15

# Draw sites: each gets an independent counter so the streams for the
# four fault classes never interleave.
SITE_DATA = 0
SITE_TAG = 1
SITE_DIRECTORY = 2
SITE_STALL = 3
_NUM_SITES = 4

# Lanes within one draw: lane 0 decides whether the fault fires; the
# rest parameterize a fired fault without consuming further counters.
_LANE_FIRE = 0
_LANE_DOUBLE = 1
_LANE_BIT1 = 2
_LANE_BIT2 = 3
_LANE_WAY = 4
_LANE_RETRIES = 5


def _mix(z):
    """splitmix64 output function (Steele, Lea & Flood)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


class FaultInjector:
    """Draws faults per :class:`~repro.faults.plan.FaultPlan` and
    tracks every injection/recovery counter.
    """

    def __init__(self, plan, num_targets):
        self.plan = plan
        self.num_targets = num_targets
        self._seed = _mix((plan.seed & _M64) ^ 0xD1B54A32D192ED03)
        self._counters = [0] * _NUM_SITES
        self._data_on = plan.data_flip_rate > 0.0
        self._tag_on = plan.tag_flip_rate > 0.0
        self._dir_on = plan.directory_flip_rate > 0.0
        self._stall_on = plan.stall_rate > 0.0
        self._events = list(plan.vault_events)
        self._next_event = 0
        # Vault/bank availability; shared with System's degraded paths.
        self.offline = [False] * num_targets
        self.has_offline = False
        # Whole-run counters: the fault clock that schedules vault
        # events, and the transitions those events made.
        self.accesses = 0
        self.offline_events = 0
        self.online_events = 0
        # The window counters start at zero: reset_stats defines them.
        self.reset_stats()

    def reset_stats(self):
        """Zero the twelve injection and recovery counters of the
        measurement window (the warm-up reset); the whole-run counters
        ``accesses``, ``offline_events`` and ``online_events`` keep
        counting."""
        # Injection counters.
        self.injected = 0
        self.corrected = 0
        self.uncorrectable = 0
        # Recovery counters.
        self.data_loss_events = 0
        self.refetches = 0
        self.directory_rebuilds = 0
        self.remapped_accesses = 0
        self.write_throughs = 0
        self.broadcast_snoops = 0
        self.stall_events = 0
        # An int until a stall adds cycles: a window without stalls
        # records 0, not 0.0.
        self.stall_cycles = 0
        self.drained_dirty = 0

    # -- hash stream -------------------------------------------------

    def _hash(self, site, counter, lane=0):
        """64-bit hash of one (site, counter, lane) draw index."""
        index = (counter << 8) | (site << 4) | lane
        return _mix((self._seed + _GOLDEN * index) & _M64)

    def _fire(self, site, rate, target_id=None):
        """One Bernoulli(rate) draw at ``site``.

        Returns the draw's counter value if the fault fires, else
        ``None``.  ``target_id`` is checked against the plan's target
        filter (``None`` disables filtering, e.g. for channel stalls);
        filtered-out accesses do not advance the counter, so a
        targeted plan sees the same per-target draw sequence as an
        untargeted one restricted to that target.
        """
        if (target_id is not None and self.plan.target is not None
                and target_id != self.plan.target):
            return None
        counter = self._counters[site]
        self._counters[site] = counter + 1
        if self._hash(site, counter) / _TWO64 >= rate:
            return None
        return counter

    # -- scheduled whole-vault events --------------------------------

    def tick(self, system):
        """Advance the global access counter; apply due vault events."""
        self.accesses += 1
        while (self._next_event < len(self._events)
               and self._events[self._next_event][0] <= self.accesses):
            _, vault, action = self._events[self._next_event]
            self._next_event += 1
            system._apply_vault_event(vault, action)

    def set_offline(self, target_id, offline):
        self.offline[target_id] = offline
        self.has_offline = any(self.offline)

    # -- bit-flip faults ---------------------------------------------

    def _corrupt_word(self, site, counter, word):
        """Flip one (or two) bits of ``word``'s SECDED codeword and
        decode.  Returns ``True`` if the ECC corrected the flip,
        ``False`` if it detected an uncorrectable error.
        """
        double = (self._hash(site, counter, _LANE_DOUBLE) / _TWO64
                  < self.plan.double_bit_fraction)
        cw = ecc.encode(word)
        first = self._hash(site, counter, _LANE_BIT1) % ecc.CODEWORD_BITS
        cw ^= 1 << first
        if double:
            second = (self._hash(site, counter, _LANE_BIT2)
                      % (ecc.CODEWORD_BITS - 1))
            if second >= first:
                second += 1
            cw ^= 1 << second
        decoded, status = ecc.decode(cw)
        self.injected += 1
        if status == ecc.CORRECTED:
            assert decoded == word
            self.corrected += 1
            return True
        assert status == ecc.DETECTED
        self.uncorrectable += 1
        return False

    def data_fault(self, target_id, block):
        """Maybe flip bits in the data array holding ``block``.

        Returns ``None`` (no fault), ``True`` (corrected in flight) or
        ``False`` (detected-uncorrectable; the caller must recover).
        """
        if not self._data_on:
            return None
        counter = self._fire(SITE_DATA, self.plan.data_flip_rate,
                             target_id)
        if counter is None:
            return None
        return self._corrupt_word(SITE_DATA, counter,
                                  ecc.line_word(block))

    def tag_fault(self, target_id, word):
        """Maybe flip bits in a tag/metadata word; same contract as
        :meth:`data_fault`.
        """
        if not self._tag_on:
            return None
        counter = self._fire(SITE_TAG, self.plan.tag_flip_rate,
                             target_id)
        if counter is None:
            return None
        return self._corrupt_word(SITE_TAG, counter, word)

    def directory_fault(self, directory, home, block):
        """Maybe corrupt one way of ``block``'s directory set.

        Marks the entry corrupt, runs its encoded form through the
        ECC model and recovers: a corrected flip is scrubbed in place,
        a detected-uncorrectable one triggers a rebuild of the whole
        set from the vault tag arrays the directory mirrors.  Returns
        ``None``, ``"corrected"`` or ``"rebuilt"``.
        """
        if not self._dir_on:
            return None
        counter = self._fire(SITE_DIRECTORY,
                             self.plan.directory_flip_rate, home)
        if counter is None:
            return None
        set_index = directory.set_index(block)
        way = (self._hash(SITE_DIRECTORY, counter, _LANE_WAY)
               % directory.num_cores)
        directory.mark_corrupt(set_index, way)
        word = directory.entry_word(set_index, way)
        if self._corrupt_word(SITE_DIRECTORY, counter, word):
            directory.clear_corrupt(set_index, way)
            return "corrected"
        directory.rebuild_set(set_index)
        self.directory_rebuilds += 1
        return "rebuilt"

    # -- transient channel stalls ------------------------------------

    def channel_stall(self, busy_cycles):
        """Extra cycles a memory-channel access spends on transient
        stalls (refresh-storm style), retried with exponential
        backoff: ``r`` retries cost ``busy_cycles * (2^r - 1)``.
        Returns 0.0 when no stall fires.
        """
        if not self._stall_on:
            return 0.0
        counter = self._fire(SITE_STALL, self.plan.stall_rate)
        if counter is None:
            return 0.0
        retries = 1 + (self._hash(SITE_STALL, counter, _LANE_RETRIES)
                       % self.plan.stall_retries_max)
        penalty = float(busy_cycles) * ((1 << retries) - 1)
        self.stall_events += 1
        self.stall_cycles += penalty
        return penalty

    # -- reporting ---------------------------------------------------

    def counters_dict(self):
        """Stable dict of every counter, for summaries and manifests."""
        return {
            "accesses": self.accesses,
            "injected": self.injected,
            "corrected": self.corrected,
            "uncorrectable": self.uncorrectable,
            "data_loss_events": self.data_loss_events,
            "refetches": self.refetches,
            "directory_rebuilds": self.directory_rebuilds,
            "remapped_accesses": self.remapped_accesses,
            "write_throughs": self.write_throughs,
            "broadcast_snoops": self.broadcast_snoops,
            "stall_events": self.stall_events,
            "stall_cycles": self.stall_cycles,
            "offline_events": self.offline_events,
            "online_events": self.online_events,
            "drained_dirty": self.drained_dirty,
        }

    def describe(self):
        """Manifest fragment: the plan plus the counters it produced."""
        return {"plan": self.plan.canonical(),
                "counters": self.counters_dict()}
