"""The simulated CMP: cores, caches, coherence, NOC and memory.

``System.access`` is the whole machine's reaction to one memory
reference: it walks the private hierarchy, the LLC (shared NUCA or the
core's private DRAM vault), the coherence directory and main memory,
updating cache and coherence state and returning the exposed latency in
cycles.  ``System(config, core_params)`` builds the class of
``config.llc_kind``; the two organizations are:

* :class:`SharedSystem` (``shared``) -- the baseline's non-inclusive
  MESI with a sharer-table directory and an S-NUCA LLC (optionally
  backed by a conventional page-based DRAM cache), also used for
  Vaults-Sh and the 3-level SRAM/eDRAM designs;
* :class:`VaultSystem` (``private_vault``) -- SILO: per-core
  direct-mapped inclusive DRAM vaults kept coherent by MOESI with the
  duplicate-tag directory whose metadata lives in the vaults (a
  directory lookup costs a DRAM access at the block's home node unless
  the directory-cache optimization is on).

Each class has one flat miss path, ``_miss``: it reads bank sets, the
mesh hop table, sharer-table entries and memory channels directly, and
tests optional features on locals read once at its top (DESIGN.md Sec.
2f).  Rare work -- ECC recovery, broadcast snoops, the DRAM-cache
probe, L2 victims -- stays in helpers.
"""

from repro import params as P
from repro.caches.sram_cache import SetAssocCache
from repro.caches.vault_cache import VaultCache
from repro.caches.nuca import SharedNUCA
from repro.caches.dram_cache import PageDRAMCache
from repro.coherence.states import (
    SHARED, EXCLUSIVE, OWNED, MODIFIED, is_dirty)
from repro.coherence.sharer_table import SharerTable
from repro.coherence.dup_tag_directory import DupTagDirectory
from repro.cores.perf_model import (
    CoreModel, LEVEL_NAMES, LEVEL_L1, LEVEL_L2, LEVEL_LLC_LOCAL,
    LEVEL_LLC_REMOTE, LEVEL_DRAM_CACHE, LEVEL_MEMORY)
from repro.energy.model import EnergyModel
from repro.memory.main_memory import MainMemory
from repro.noc.mesh import Mesh2D
from repro.obs.trace import (EV_COHERENCE, EV_DIRECTORY, EV_FAULT,
                             EV_INVALIDATE, EV_DOWNGRADE, EV_EVICTION)
from repro.sim.config import LLC_SHARED

_NO_OWNER = SharerTable.NO_OWNER


def _channel_stats(controllers):
    """``channelN`` groups of a list of closed-page controllers."""
    return {"channel%d" % i: {"accesses": ctrl.accesses,
                              "conflicts": ctrl.conflicts,
                              "utilization": ctrl.utilization()}
            for i, ctrl in enumerate(controllers)}


class System:
    """One simulated machine: ``System(config, core_params)`` returns
    a :class:`SharedSystem` or a :class:`VaultSystem`.  This base holds
    what both share (L1s, cores, mesh, memory, stats, observability,
    :meth:`access`, the prefetch hook); each subclass supplies
    ``_miss``, ``_write_upgrade`` and ``_drain``."""

    def __new__(cls, config, core_params):
        if cls is System:
            cls = (SharedSystem if config.llc_kind == LLC_SHARED
                   else VaultSystem)
        return super().__new__(cls)

    def __init__(self, config, core_params):
        """``core_params`` is a list of CoreParams, one per core (they
        may differ under colocation)."""
        if len(core_params) != config.num_cores:
            raise ValueError("need CoreParams for each of %d cores"
                             % config.num_cores)
        self.config = config
        n = config.num_cores
        self.num_cores = n
        self.cores = [CoreModel(c, core_params[c]) for c in range(n)]
        self.mesh = Mesh2D(n, hop_latency=config.hop_latency)

        l1_bytes = config.scaled(config.l1_size_bytes)
        self.l1i = [SetAssocCache(l1_bytes, config.l1_ways)
                    for _ in range(n)]
        self.l1d = [SetAssocCache(l1_bytes, config.l1_ways)
                    for _ in range(n)]
        self.l1_latency = config.l1_latency

        self.l2 = None
        if config.l2_size_bytes:
            l2_bytes = config.scaled(config.l2_size_bytes)
            self.l2 = [SetAssocCache(l2_bytes, config.l2_ways)
                       for _ in range(n)]
        self.l2_latency = config.l2_latency

        self.kind = config.llc_kind
        self.llc_latency = config.llc_latency
        if self.kind == LLC_SHARED:
            llc_bytes = config.scaled(config.llc_size_bytes)
            self.llc = SharedNUCA(llc_bytes, config.llc_ways,
                                  num_banks=n,
                                  bank_latency=config.llc_latency)
            self.sharer_table = SharerTable(n)
            self.vaults = None
            self.directory = None
        else:
            vault_bytes = config.scaled(config.llc_size_bytes)
            self.vaults = [VaultCache(vault_bytes) for _ in range(n)]
            self.directory = DupTagDirectory(self.vaults)
            self.llc = None
            self.sharer_table = None

        self.dram_cache = None
        self.dram_cache_ctrl = None
        if config.dram_cache_bytes:
            self.dram_cache = PageDRAMCache(
                config.scaled(config.dram_cache_bytes))
            # The conventional DRAM cache is built from commodity DRAM:
            # its banks occupy like main memory's (the paper's
            # infinite-bandwidth assumption is optimistic; its own
            # result -- near-zero gain on scale-out -- matches a
            # bandwidth-constrained cache).
            from repro.memory.controller import ClosedPageController
            self.dram_cache_ctrl = [
                ClosedPageController(8, config.dram_cache_latency // 2)
                for _ in range(8)]
        self.dram_cache_latency = config.dram_cache_latency

        self.memory = MainMemory(latency=config.memory_latency,
                                 model_queueing=config.memory_queueing)
        self.local_mp = config.local_miss_predictor
        if self.local_mp is True:
            self.local_mp = "ideal"
        self.dir_cache = config.directory_cache
        if self.dir_cache is True:
            self.dir_cache = "ideal"
        self.missmaps = None
        if self.local_mp == "missmap":
            from repro.caches.missmap import default_missmap_for
            self.missmaps = [default_missmap_for(v.num_sets)
                             for v in (self.vaults or [])]
        self.sram_dir_cache = None
        if self.dir_cache == "sram":
            from repro.coherence.directory_cache import DirectoryCache
            self.sram_dir_cache = DirectoryCache(n)
        self.moesi = config.protocol == "moesi"
        self.victim_replication = config.victim_replication
        self.prefetchers = None
        if config.l1_prefetcher:
            from repro.caches.prefetcher import StridePrefetcher
            self.prefetchers = [StridePrefetcher() for _ in range(n)]
        # A directory lookup reads a metadata set, not a 64 B TAD: it
        # pays the DRAM array + controller delay but not the data
        # serialization cycles.
        self.dir_latency = max(
            1, config.llc_latency - P.SILO_SERIALIZATION_LATENCY)

        # Ground truth range of the RW-shared region (Fig. 4 accounting)
        self.rw_shared_range = (0, 0)
        self.measuring = True
        self.now = 0.0
        # Event tracing is off unless attach_tracer is called: every
        # instrumented site costs one `is not None` check when off.
        self.tracer = None
        # Fault injection is off unless attach_faults is called; like
        # the tracer, the disabled cost is one `is not None` check per
        # instrumented site, so fault-off runs stay bit-identical.
        self.faults = None
        # Always None: the repository benchmark's traced run
        # (perfbench/simulate.py) still reads this attribute.
        self.shadow_filter = None

        # Optional LLC-access sharing classification (Fig. 3)
        self.track_sharing = False
        # The system-level counters and the classification dicts start
        # at zero: reset_stats defines them.
        self.reset_stats()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer):
        """Enable event tracing through ``tracer`` (see repro.obs.trace);
        returns the tracer for chaining."""
        self.tracer = tracer
        return tracer

    def attach_faults(self, injector):
        """Enable fault injection through ``injector`` (repro.faults).

        Wires the injector into the memory channels (transient stalls);
        its counters join :meth:`counters` and :meth:`stats` under
        ``"faults"``.  Returns the injector for chaining.
        """
        expected = self.num_cores
        if injector.num_targets != expected:
            raise ValueError(
                "injector built for %d targets, system has %d vaults/"
                "banks" % (injector.num_targets, expected))
        self.faults = injector
        self.memory.attach_faults(injector)
        return injector

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    # silolint: hotpath
    def access(self, core, block, is_write, is_ifetch, now=0.0):
        """Process one reference; returns exposed latency in cycles
        beyond the L1 (an L1 hit returns 0).  An L1 miss is the
        organization's ``_miss``, which fills the L1 and records the
        core's latency.

        ``repro.sim.driver._drive`` retires the trivial L1 hits (ifetch
        hit, read hit, write hit on MODIFIED) inline and hands a miss
        straight to ``_miss``; it calls this method only for a store to
        an S/E/O line, and for every event of a system with faults or
        prefetchers.  The drive-loop pin (tests/test_engine.py)
        compares the two paths."""
        self.now = now
        if self.faults is not None:
            # per-event only when fault injection is on (SL007: the
            # chain is behind the is-not-None guard, faults are rare)
            self.faults.tick(self)  # silolint: disable=SL007
        if is_ifetch:
            if self.l1i[core].lookup(block) is not None:
                if self.measuring:
                    c = self.cores[core]
                    c.ifetch_count[LEVEL_L1] += 1
                return 0
            return self._miss(core, block, False, False, now)

        st = self.l1d[core].lookup(block)
        if st is not None:
            if is_write and st != MODIFIED:
                # A store hit a line in S/E/O: gain write permission.
                # The store latency is hidden by the store buffer.
                tracer = self.tracer
                if tracer is not None:
                    tracer.emit(EV_COHERENCE, now, core, block,
                                "upgrade:%d->M" % st)
                self._write_upgrade(core, block, st)
            if self.measuring:
                c = self.cores[core]
                c.data_count[LEVEL_L1] += 1
            if self.prefetchers is not None:
                self._maybe_prefetch(core, block)
            return 0

        lat = self._miss(core, block, is_write, True, now)
        if self.prefetchers is not None:
            self._maybe_prefetch(core, block)
        return lat

    def _maybe_prefetch(self, core, block):
        """Issue a non-blocking stride prefetch into the L1-D: the
        predicted block is fetched through the normal hierarchy (cache
        state and energy are updated) but no stall is charged."""
        candidate = self.prefetchers[core].observe(block)
        if candidate is None or self.l1d[core].contains(candidate):
            return
        measuring = self.measuring
        self.measuring = False
        try:
            self._miss(core, candidate, False, True, self.now)
        finally:
            self.measuring = measuring
        # Like every other statistic, prefetch fills only count inside
        # the measurement window (the saved flag: the nested miss above
        # runs with measuring forced off).
        if measuring:
            self.prefetch_fills += 1

    def _apply_vault_event(self, target, action):
        """Apply a scheduled whole-vault (or shared-bank) offline /
        online transition from the fault plan."""
        faults = self.faults
        if not 0 <= target < self.num_cores:
            raise ValueError("vault event targets %r; system has %d "
                             "vaults/banks" % (target, self.num_cores))
        if action == "offline":
            if faults.offline[target]:
                return
            self._drain(target)
            faults.set_offline(target, True)
            faults.offline_events += 1
        else:
            if not faults.offline[target]:
                return
            self._rejoin(target)
            faults.set_offline(target, False)
            faults.online_events += 1
        if self.tracer is not None:
            self.tracer.emit(EV_FAULT, self.now, target, -1,
                             "vault_" + action)

    def _rejoin(self, target):
        """Prepare an offline vault/bank to come back online (nothing
        to do for a shared bank: it simply starts filling again)."""

    # ------------------------------------------------------------------
    # statistics helpers
    # ------------------------------------------------------------------

    def reset_stats(self):
        """Zero all measurement state (after warmup): the system's own
        counters and sharing classification here, every other counter
        through its owner's reset.  Architectural state (cache
        contents, predictor tables, learned strides, cached directory
        sets) is never touched."""
        self.llc_accesses = 0          # SRAM bank / DRAM vault accesses
        self.dram_cache_accesses = 0
        self.invalidations = 0
        self.l1_writebacks = 0
        self.llc_writebacks = 0        # dirty evictions leaving the LLC
        self.vault_evictions = 0
        self.directory_lookups = 0
        self.remote_forwards = 0
        self.replica_hits = 0          # victim-replication local hits
        self.prefetch_fills = 0
        # the Fig. 3 sharing classification (kept when track_sharing)
        self.block_readers = {}
        self.block_writers = {}
        self.llc_reads = 0
        self.llc_demand_writes = 0
        self.llc_writes_by_block = {}
        for core in self.cores:
            core.reset()
        self.mesh.reset_stats()
        self.memory.reset_stats()
        for owners in (self.dram_cache_ctrl, self.missmaps,
                       self.prefetchers):
            for owner in owners or ():
                owner.reset_stats()
        if self.sram_dir_cache is not None:
            self.sram_dir_cache.reset_stats()
        if self.faults is not None:
            self.faults.reset_stats()

    def counters(self):
        """The counters a run summary records and telemetry samples,
        plus the injector's under ``"faults"`` for a faulted run."""
        counters = {
            "llc_accesses": self.llc_accesses,
            "dram_cache_accesses": self.dram_cache_accesses,
            "invalidations": self.invalidations,
            "l1_writebacks": self.l1_writebacks,
            "llc_writebacks": self.llc_writebacks,
            "vault_evictions": self.vault_evictions,
            "directory_lookups": self.directory_lookups,
            "remote_forwards": self.remote_forwards,
            "replica_hits": self.replica_hits,
            "prefetch_fills": self.prefetch_fills,
            "link_traversals": self.mesh.link_traversals,
            "memory_accesses": self.memory.accesses,
            "memory_reads": self.memory.reads,
            "memory_writes": self.memory.writes,
        }
        if self.faults is not None:
            counters["faults"] = self.faults.counters_dict()
        return counters

    def stats(self):
        """The whole machine's statistics as nested plain dicts: the
        tree ``--stats`` prints (:func:`repro.obs.stats.dump`).  Each
        counter of :meth:`counters` sits under its subsystem, beside
        the sharing counts, the optional structures' counters, every
        channel controller's, each core's per-level counts and latency
        histogram, and the derived values (mean hops, bank
        utilization, directory-cache hit rate, energy)."""
        caches = self.counters()
        faults = caches.pop("faults", None)
        coherence = {name: caches.pop(name) for name in (
            "invalidations", "directory_lookups", "remote_forwards")}
        noc = {"link_traversals": caches.pop("link_traversals"),
               "avg_hops": self.mesh.average_hops()}
        memory = {"reads": caches.pop("memory_reads"),
                  "writes": caches.pop("memory_writes"),
                  "accesses": caches.pop("memory_accesses")}
        memory.update(_channel_stats(self.memory.controllers))
        # What is left of counters() is the cache hierarchy's.
        if self.prefetchers is not None:
            caches["prefetcher"] = {
                "issued": sum(p.issued for p in self.prefetchers)}
        if self.missmaps is not None:
            caches["missmap"] = {
                "known_misses": sum(m.known_misses for m in self.missmaps),
                "unknown": sum(m.unknown for m in self.missmaps),
                "evicted_segments": sum(m.evicted_segments
                                        for m in self.missmaps)}
        if self.dram_cache_ctrl is not None:
            caches["dram_cache_ctrl"] = _channel_stats(self.dram_cache_ctrl)
        if self.sram_dir_cache is not None:
            dc = self.sram_dir_cache
            coherence["directory_cache"] = {
                "hits": dc.hits, "misses": dc.misses,
                "hit_rate": dc.hit_rate()}
        coherence["sharing"] = {"llc_reads": self.llc_reads,
                                "llc_demand_writes": self.llc_demand_writes}
        cores = {}
        for c in self.cores:
            core = cores["core%d" % c.core_id] = {
                "instructions": c.instructions}
            for lvl, name in enumerate(LEVEL_NAMES):
                core[name.lower()] = {
                    "data_count": c.data_count[lvl],
                    "ifetch_count": c.ifetch_count[lvl],
                    "data_latency": c.data_latency[lvl],
                    "latency": c.latency_hist[lvl].value()}
        energy = EnergyModel().breakdown(self)
        del energy["memory_static_w"]
        tree = {"caches": caches, "coherence": coherence, "noc": noc,
                "memory": memory, "cores": cores, "energy": energy}
        if faults is not None:
            tree["faults"] = faults
        return tree

    def occupancy_by_bank(self):
        """Per-bank occupancy fractions (resident blocks over capacity)
        of the LLC level: one entry per NUCA bank (shared) or per vault
        cache (private) -- the telemetry heatmap series
        (repro.obs.telemetry)."""
        banks = self.llc.banks if self.llc is not None else self.vaults
        return [bank.occupancy() / bank.capacity_blocks
                for bank in banks]

    def sharing_breakdown(self):
        """Fig. 3 classification of LLC accesses: (reads,
        writes_nosharing, writes_rwsharing).  Requires
        ``track_sharing``."""
        rw_writes = 0
        total_writes = 0
        for block, count in self.llc_writes_by_block.items():
            total_writes += count
            writers = self.block_writers.get(block, 0)
            readers = self.block_readers.get(block, 0)
            if writers and (readers & ~writers):
                rw_writes += count
        return (self.llc_reads, total_writes - rw_writes, rw_writes)


class SharedSystem(System):
    """Shared S-NUCA LLC with a sharer-table directory over the L1s
    (non-inclusive MESI): Baseline, Baseline+DRAM$, Baseline+VR,
    Vaults-Sh and the 3-level SRAM/eDRAM designs."""

    def _miss(self, core, block, is_write, is_data, now):
        """L1 miss: private L2 (if any), a victim replica in the local
        bank, the home bank (or a peer L1 holding the line dirty), the
        conventional DRAM cache (if any), memory; then the L1 fill and,
        when measuring, the core's latency record.  Returns the
        latency."""
        faults = self.faults
        l2s = self.l2
        llc = self.llc
        banks = llc.banks
        nbanks = llc.num_banks
        mesh = self.mesh
        if l2s is not None and l2s[core].lookup(block) is not None:
            lat = self.l2_latency
            level = LEVEL_L2
        elif (is_data and self.victim_replication
              and block % nbanks != core
              and banks[core].lookup(block) is not None):
            # Replica hit in the local bank: no mesh traversal.  (A
            # write drops every replica in the L1 fill below.)
            self.llc_accesses += 1
            self.replica_hits += 1
            lat = mesh.INJECTION_OVERHEAD + llc.bank_latency
            level = LEVEL_LLC_LOCAL
        else:
            bank = block % nbanks
            bank_offline = faults is not None and faults.offline[bank]
            lat = mesh.round_trip(core, bank)
            if bank_offline:
                # The bank's controller forwards the request off-chip
                # without touching the (drained) data array.
                faults.remapped_accesses += 1
            else:
                lat += llc.bank_latency
                self.llc_accesses += 1
            if self.track_sharing and is_data:
                if is_write:
                    self.llc_demand_writes += 1
                    self.block_writers[block] = (
                        self.block_writers.get(block, 0) | (1 << core))
                    self.llc_writes_by_block[block] = (
                        self.llc_writes_by_block.get(block, 0) + 1)
                else:
                    self.llc_reads += 1
                    self.block_readers[block] = (
                        self.block_readers.get(block, 0) | (1 << core))

            hops = mesh._hops
            hop_lat = mesh.hop_latency
            level = LEVEL_LLC_LOCAL
            served = False
            if is_data:
                # A peer L1 may hold the line dirty (non-inclusive MESI).
                owner = self.sharer_table.owner(block)
                if owner != _NO_OWNER and owner != core:
                    peer = self.l1d[owner]
                    owner_state = peer.lookup(block, touch=False)
                    if owner_state is not None:
                        # Forward from the peer; dirty data is also
                        # written back to the LLC (MESI downgrade M->S).
                        h1 = hops[bank][owner]
                        h2 = hops[owner][core]
                        mesh.link_traversals += h1 + h2
                        lat += (h1 * hop_lat + self.l1_latency
                                + h2 * hop_lat)
                        self.remote_forwards += 1
                        if owner_state == MODIFIED:
                            self._insert_llc(owner, block, dirty=True)
                        peer.update(block, SHARED)
                        self.sharer_table._entries[block][1] = _NO_OWNER
                        level = LEVEL_LLC_REMOTE
                        served = True

            if not served:
                st = None
                if not bank_offline:
                    home = banks[bank]
                    entries = home._sets[(block // nbanks)
                                         % home.num_sets]
                    st = entries.get(block)
                    if st is not None:
                        del entries[block]
                        entries[block] = st
                if st is not None and faults is not None:
                    if self._shared_llc_fault(bank, block, st):
                        st = None  # uncorrectable: line gone, miss
                if st is None:
                    # Off-chip, through the core's nearest memory port.
                    port = mesh._nearest[core]
                    h = hops[core][port]
                    mesh.link_traversals += h
                    noc = 2 * (h * hop_lat)
                    queue = None
                    if self.dram_cache is not None:
                        queue = self._probe_dram_cache(block)
                    if queue is not None:
                        lat += noc + self.dram_cache_latency + queue
                        level = LEVEL_DRAM_CACHE
                    else:
                        mem = self.memory
                        mem.reads += 1
                        mlat = mem.latency
                        if mem.model_queueing:
                            mlat += mem.controllers[
                                (block >> 3) % mem.num_channels].access(
                                    block, now)
                        lat += noc + mlat
                        level = LEVEL_MEMORY
                    self._insert_llc(core, block, dirty=False)

            if l2s is not None:
                l2victim = l2s[core].insert(block, SHARED)
                if l2victim is not None:
                    self._handle_l2_victim(core, l2victim)

        if not is_data:
            # code is read-only: no victim care
            self.l1i[core].insert(block, SHARED)
            if self.measuring:
                self.cores[core].record_ifetch(level, lat)
            return lat
        # L1-D fill with MESI state, recorded in the sharer table.
        sharers = self.sharer_table._entries
        bit = 1 << core
        if is_write:
            self._invalidate_peer_l1s(core, block)
        entry = sharers.get(block)
        if is_write or entry is None or not entry[0] & ~bit:
            # the sole copy: the core becomes the M/E owner
            state = MODIFIED if is_write else EXCLUSIVE
            if entry is None:
                sharers[block] = [bit, core]
            else:
                entry[0] |= bit
                entry[1] = core
        else:
            state = SHARED
            entry[0] |= bit
        victim = self.l1d[core].insert(block, state)
        if victim is not None:
            vb, vst = victim
            entry = sharers.get(vb)
            if entry is not None:
                entry[0] &= ~bit
                if entry[1] == core:
                    entry[1] = _NO_OWNER
                if not entry[0]:
                    del sharers[vb]
            if vst == MODIFIED or vst == OWNED:
                self.l1_writebacks += 1
                if l2s is not None:
                    l2s[core].insert(vb, MODIFIED)
                    # (victim of this insert handled lazily on next use)
                else:
                    self._insert_llc(core, vb, dirty=True)
            elif (self.victim_replication and vb % nbanks != core
                  and not (faults is not None and faults.offline[core])):
                # clean victim: keep a low-priority replica in the
                # local bank (LRU position: replicas earn retention by
                # being re-referenced, they never displace hot blocks
                # on arrival)
                banks[core].insert_cold(vb, False)
                self.llc_accesses += 1
        if self.measuring:
            lo, hi = self.rw_shared_range
            self.cores[core].record_data(level, lat,
                                         rw_shared=lo <= block < hi)
        return lat

    def _probe_dram_cache(self, block):
        """LLC miss with a conventional DRAM cache: returns a hit's
        queueing delay, or None on a miss (perfect miss prediction, so
        no wasted probe: the page fills from memory in the
        background)."""
        self.dram_cache_accesses += 1
        if self.dram_cache.lookup_block(block):
            ctrl = self.dram_cache_ctrl[(block >> 3) % 8]
            return ctrl.access(block, self.now)
        victim = self.dram_cache.fill(block)
        if victim is not None and victim[1]:
            self.memory.access(block, self.now, is_write=True)
        return None

    def _write_upgrade(self, core, block, l1_state):
        """A store hit an L1 line in S/E: invalidate peer copies and
        take the line to M."""
        if l1_state != EXCLUSIVE:
            self._invalidate_peer_l1s(core, block)
        self.l1d[core].update(block, MODIFIED)
        self.sharer_table.add_sharer(block, core, exclusive=True)

    def _invalidate_peer_l1s(self, core, block):
        """Invalidate every other core's L1 copy.  Under victim
        replication, stale bank replicas die with them (the home-bank
        copy is the authoritative one)."""
        if self.victim_replication:
            home = block % self.llc.num_banks
            for b, bank in enumerate(self.llc.banks):
                if b != home:
                    bank.invalidate(block)
        table = self.sharer_table
        mask = table.sharers(block) & ~(1 << core)
        if not mask:
            return
        for s in range(self.num_cores):
            if mask & (1 << s):
                st = self.l1d[s].invalidate(block)
                if st is not None and is_dirty(st):
                    # stale dirty peer: its data reaches the LLC
                    self._insert_llc(s, block, dirty=True)
                if self.l2 is not None:
                    l2st = self.l2[s].invalidate(block)
                    if l2st is not None and is_dirty(l2st):
                        self._insert_llc(s, block, dirty=True)
                table.remove_sharer(block, s)
                self.invalidations += 1
                if self.tracer is not None:
                    self.tracer.emit(EV_INVALIDATE, self.now, s, block,
                                     "peer_l1")

    def _insert_llc(self, core, block, dirty):
        """Allocate a block in its home bank; handles dirty victims."""
        faults = self.faults
        bank_id = block % self.llc.num_banks
        if faults is not None and faults.offline[bank_id]:
            # Home bank offline: nothing to allocate into; dirty data
            # goes straight to memory instead.
            faults.remapped_accesses += 1
            if dirty:
                self.memory.access(block, self.now, is_write=True)
            return
        self.llc_accesses += 1
        if self.track_sharing and dirty:
            self.block_writers[block] = (
                self.block_writers.get(block, 0) | (1 << core))
            self.llc_writes_by_block[block] = (
                self.llc_writes_by_block.get(block, 0) + 1)
        bank = self.llc.banks[bank_id]
        entries = bank._sets[(block // bank.index_stride) % bank.num_sets]
        if block in entries:
            if dirty:
                entries[block] = True
            return
        victim = bank.insert(block, dirty)
        if victim is not None and victim[1]:
            self.llc_writebacks += 1
            vb = victim[0]
            if self.dram_cache is not None:
                self.dram_cache_accesses += 1
                if self.dram_cache.lookup_block(vb):
                    self.dram_cache.touch_write(vb)
                else:
                    dvic = self.dram_cache.fill(vb, dirty=True)
                    if dvic is not None and dvic[1]:
                        self.memory.access(vb, self.now, is_write=True)
            else:
                self.memory.access(vb, self.now, is_write=True)

    def _handle_l2_victim(self, core, victim):
        """L2 eviction: the block leaves the core's private hierarchy
        entirely (L1 inclusion enforced), so its sharer entry is
        dropped; dirty data (in either level) reaches the LLC."""
        vb, vst = victim
        l1st = self.l1d[core].invalidate(vb)
        self.l1i[core].invalidate(vb)
        if l1st is not None and is_dirty(l1st):
            vst = MODIFIED
        self.sharer_table.remove_sharer(vb, core)
        if is_dirty(vst):
            self._insert_llc(core, vb, dirty=True)

    def _shared_llc_fault(self, bank, block, dirty):
        """Data-array fault draw on a shared-LLC bank hit.  Returns
        True when the line was lost to an uncorrectable error (the
        caller falls through to the off-chip path and refills clean).
        """
        faults = self.faults
        ok = faults.data_fault(bank, block)
        if ok is not False:
            return False
        if dirty:
            faults.data_loss_events += 1
        faults.refetches += 1
        self.llc.invalidate(block)
        if self.tracer is not None:
            self.tracer.emit(
                EV_FAULT, self.now, bank, block,
                "data_uncorrectable:%s" % (
                    "data_loss" if dirty else "refetch"))
        return True

    def _drain(self, bank_id):
        """Take a shared-LLC bank offline: flush dirty lines to memory
        and clear it.  L1 coherence is unaffected (the sharer table is
        SRAM at the tiles, not in the bank)."""
        faults = self.faults
        bank = self.llc.banks[bank_id]
        for vb, dirty in list(bank.blocks()):
            if dirty:
                self.memory.access(vb, self.now, is_write=True)
                faults.drained_dirty += 1
        bank.clear()


class VaultSystem(System):
    """SILO: a private direct-mapped DRAM vault per core, inclusive of
    its L1s (and L2s), kept coherent by MOESI through the duplicate-tag
    directory."""

    def _miss(self, core, block, is_write, is_data, now):
        """L1 miss: private L2 (if any), the local vault, then the home
        node's directory, which forwards from a peer vault or fetches
        from memory; then the L1 fill and, when measuring, the core's
        latency record.  Returns the latency."""
        faults = self.faults
        l2s = self.l2
        vault = self.vaults[core]
        vsets = vault.num_sets
        s = block % vsets
        offline = faults is not None and faults.offline[core]
        state = None
        if l2s is not None:
            state = l2s[core].lookup(block)
        if state is not None:
            # Private L2 hit (3-level hierarchies).
            if is_write and state != MODIFIED:
                state = self._write_upgrade(core, block, state)
            lat = self.l2_latency
            level = LEVEL_L2
        elif not offline and vault.tags[s] == block:
            # Local vault hit: one TAD access resolves tag + data.
            state = vault.states[s]
            lat = self.llc_latency
            self.llc_accesses += 1
            if faults is not None:
                state, fault_lat = self._vault_hit_faults(core, block,
                                                          state)
                lat += fault_lat
            if is_write and state != MODIFIED:
                state = self._write_upgrade(core, block, state)
            level = LEVEL_LLC_LOCAL
        else:
            # Local vault miss (or the vault is offline and bypassed).
            missmaps = self.missmaps
            tracer = self.tracer
            if offline:
                faults.remapped_accesses += 1
                lat = 0
            elif self.local_mp == "ideal":
                lat = 0
            elif (missmaps is not None
                  and missmaps[core].predicts_miss(block)):
                lat = 0
            else:
                lat = self.llc_latency
                self.llc_accesses += 1  # the probe that found the miss
            mesh = self.mesh
            hops = mesh._hops
            hop_lat = mesh.hop_latency
            home = block % self.num_cores
            h = hops[core][home]
            mesh.link_traversals += h
            lat += h * hop_lat
            self.directory_lookups += 1
            if tracer is not None:
                tracer.emit(EV_DIRECTORY, self.now, home, block,
                            "write" if is_write else "read")
            home_offline = faults is not None and faults.offline[home]
            if home_offline:
                # The home vault physically stores this block's
                # directory set; with it offline, the home node falls
                # back to broadcast-snooping every online vault's tags.
                lat += self._broadcast_snoop(home)
            elif self.dir_cache == "ideal":
                pass  # metadata always in SRAM, zero cost
            elif self.sram_dir_cache is not None:
                if not self.sram_dir_cache.lookup(home, s):
                    lat += self.dir_latency
                    self.llc_accesses += 1
            else:
                lat += self.dir_latency  # directory metadata is in DRAM
                self.llc_accesses += 1
            if faults is not None and not home_offline:
                lat += self._directory_faults(home, block)

            holders = self.directory.holder_states(block)
            state = MODIFIED if is_write else EXCLUSIVE
            if holders:
                if is_write:
                    self._invalidate_peer_vaults(core, block)
                    # data supplied by the (former) owner before
                    # invalidation
                    supplier = holders[0][0]
                else:
                    supplier, sup_state = max(
                        holders, key=lambda cs: cs[1])  # M > O > E > S
                lat += (mesh.latency(home, supplier)
                        + self.llc_latency
                        + mesh.latency(supplier, core))
                self.llc_accesses += 1
                self.remote_forwards += 1
                if not is_write:
                    self._downgrade_supplier(supplier, block, sup_state)
                    state = SHARED
                level = LEVEL_LLC_REMOTE
            else:
                port = mesh._nearest[home]
                h2 = hops[home][port]
                h3 = hops[port][core]
                mesh.link_traversals += h2 + h3
                mem = self.memory
                mem.reads += 1
                mlat = mem.latency
                if mem.model_queueing:
                    mlat += mem.controllers[
                        (block >> 3) % mem.num_channels].access(block,
                                                                now)
                lat += h2 * hop_lat + mlat + h3 * hop_lat
                level = LEVEL_MEMORY
                if is_write and faults is not None and faults.has_offline:
                    # no holders, so _invalidate_peer_vaults did not
                    # run; directory-invisible offline copies still
                    # need killing
                    self._invalidate_offline_l1s(core, block)

            if offline:
                # No vault to fill: the line lives in L1/L2 only, kept
                # Shared; stores write through (below) so memory stays
                # current.
                state = SHARED
            else:
                # Fill the vault, evicting the set's resident
                # (inclusion: the victim leaves L1/L2 too; dirty
                # victims are written back to memory).
                victim = vault.insert(block, state)
                self.llc_accesses += 1  # the fill write
                if missmaps is not None:
                    mm = missmaps[core]
                    mm.record_fill(block)
                    if victim is not None:
                        mm.record_eviction(victim[0])
                if victim is not None:
                    vb, vst = victim
                    dirty = vst == MODIFIED or vst == OWNED
                    self.vault_evictions += 1
                    if tracer is not None:
                        tracer.emit(EV_EVICTION, self.now, core, vb,
                                    "dirty" if dirty else "clean")
                    l1st = self.l1d[core].invalidate(vb)
                    self.l1i[core].invalidate(vb)
                    if l2s is not None:
                        l2s[core].invalidate(vb)
                    if dirty or l1st == MODIFIED or l1st == OWNED:
                        self.memory.access(vb, self.now, is_write=True)

        if l2s is not None and level != LEVEL_L2:
            l2victim = l2s[core].insert(block, state)
            if l2victim is not None:
                self._handle_l2_victim(core, l2victim)
        if is_data:
            if offline:
                state = SHARED  # degraded mode: stores write through
            elif is_write:
                state = MODIFIED
            victim = self.l1d[core].insert(block, state)
            if victim is not None:
                vb, vst = victim
                if vst == MODIFIED or vst == OWNED:
                    self.l1_writebacks += 1
                    # Inclusive hierarchy: the dirty data lands in the
                    # vault (or L2), which already tracks the block as M.
                    if l2s is None and vault.tags[vb % vsets] == vb:
                        self.llc_accesses += 1
            if offline and is_write and level != LEVEL_L2:
                self.memory.access(block, self.now, is_write=True)
                faults.write_throughs += 1
            if self.measuring:
                lo, hi = self.rw_shared_range
                self.cores[core].record_data(level, lat,
                                             rw_shared=lo <= block < hi)
        else:
            self.l1i[core].insert(block, SHARED)
            if self.measuring:
                self.cores[core].record_ifetch(level, lat)
        return lat

    def _write_upgrade(self, core, block, state):
        """A store hit a line in S/E/O (in the L1, or on an L1 miss in
        the L2 or vault): invalidate peers and take every level holding
        it to M.  Returns the new state: MODIFIED, or ``state`` in
        degraded mode (vault offline), where the store writes through
        to memory -- no M state without a vault to track it."""
        faults = self.faults
        if faults is not None and faults.offline[core]:
            self._invalidate_peer_vaults(core, block)
            self.memory.access(block, self.now, is_write=True)
            faults.write_throughs += 1
            return state
        # While any vault is offline, its core may hold Shared copies
        # the directory cannot see, so even a silent E->M upgrade must
        # sweep peers.
        if state != EXCLUSIVE or (faults is not None
                                  and faults.has_offline):
            self._invalidate_peer_vaults(core, block)
        l1 = self.l1d[core]
        if l1.contains(block):
            l1.update(block, MODIFIED)
        vault = self.vaults[core]
        if vault.contains(block):
            vault.update(block, MODIFIED)
        if self.l2 is not None and self.l2[core].contains(block):
            self.l2[core].update(block, MODIFIED)
        return MODIFIED

    def _invalidate_peer_vaults(self, core, block):
        """Invalidate the block in every other core's vault (and its
        L1/L2 by inclusion).  Dirty remote copies would be supplied to
        the writer, not written back, under MOESI."""
        s = block % self.vaults[0].num_sets
        for c, vault in enumerate(self.vaults):
            if c == core or vault.tags[s] != block:
                continue
            vault.invalidate(block)
            if self.missmaps is not None:
                self.missmaps[c].record_eviction(block)
            self.l1d[c].invalidate(block)
            self.l1i[c].invalidate(block)
            if self.l2 is not None:
                self.l2[c].invalidate(block)
            self.invalidations += 1
            if self.tracer is not None:
                self.tracer.emit(EV_INVALIDATE, self.now, c, block,
                                 "peer_vault")
        if self.faults is not None and self.faults.has_offline:
            # Cores with an offline vault hold directory-invisible
            # Shared copies; a write must invalidate those too.
            self._invalidate_offline_l1s(core, block)

    def _downgrade_supplier(self, supplier, block, sup_state):
        """MOESI read response: a dirty holder keeps ownership as O, a
        clean holder drops to S; its L1 copy follows.  Under the MESI
        ablation the dirty holder must write back to memory first and
        both copies end up Shared -- the cost the O state avoids
        (Sec. V-B)."""
        if sup_state in (MODIFIED, OWNED):
            if self.moesi:
                new = OWNED
            else:
                self.memory.access(block, self.now, is_write=True)
                new = SHARED
        else:
            new = SHARED
        if self.tracer is not None:
            self.tracer.emit(EV_DOWNGRADE, self.now, supplier, block,
                             "%d->%d" % (sup_state, new))
        self.vaults[supplier].update(block, new)
        l1 = self.l1d[supplier]
        l1st = l1.lookup(block, touch=False)
        if l1st is not None and l1st != new:
            if l1st == MODIFIED:
                self.llc_accesses += 1  # fresh data copied down to vault
            l1.update(block, new)
        if self.l2 is not None:
            l2 = self.l2[supplier]
            if l2.contains(block):
                l2.update(block, new)

    def _handle_l2_victim(self, core, victim):
        """L2 eviction: inclusion drops the block from the L1s; dirty
        L1 data returns to the (inclusive) vault."""
        vb = victim[0]
        l1st = self.l1d[core].invalidate(vb)
        self.l1i[core].invalidate(vb)
        if l1st is not None and is_dirty(l1st):
            vault = self.vaults[core]
            if vault.contains(vb):
                vault.update(vb, MODIFIED)
                self.llc_accesses += 1

    # ------------------------------------------------------------------
    # fault injection and recovery (repro.faults)
    # ------------------------------------------------------------------

    def _vault_hit_faults(self, core, block, vst):
        """Tag- and data-array fault draws on a local vault hit.

        Returns the possibly-degraded coherence state and any extra
        recovery latency.  Corrected single-bit flips cost nothing (the
        vault controller fixes them in flight); detected-uncorrectable
        flips invalidate the line and refetch it from memory.
        """
        faults = self.faults
        vault = self.vaults[core]
        tag_ok = faults.tag_fault(
            core, vault.metadata_word(vault.set_index(block)))
        data_ok = None
        if tag_ok is not False:
            data_ok = faults.data_fault(core, block)
        if tag_ok is False or data_ok is False:
            kind = "tag" if tag_ok is False else "data"
            return self._vault_uncorrectable(core, block, vst, kind)
        return vst, 0

    def _vault_uncorrectable(self, core, block, vst, kind):
        """Recover a resident vault line from a detected-uncorrectable
        ECC error: invalidate and refetch from memory.

        If the vault copy was the only up-to-date one (dirty, with no
        surviving on-chip copy above it), the data is gone -- a
        declared data-loss event.  A dirty line whose L1/L2 still holds
        a copy is written back from there first (recovered).  The
        refill is clean, so Modified drops to Exclusive and Owned to
        Shared (its peers' Shared copies stay valid).
        """
        faults = self.faults
        vault = self.vaults[core]
        dirty = is_dirty(vst)
        l1st = self.l1d[core].invalidate(block)
        l1ist = self.l1i[core].invalidate(block)
        l2st = None
        if self.l2 is not None:
            l2st = self.l2[core].invalidate(block)
        vault.invalidate(block)
        if self.missmaps is not None:
            self.missmaps[core].record_eviction(block)
        recovered = (l1st is not None or l1ist is not None
                     or l2st is not None)
        if dirty:
            if recovered:
                # an on-chip copy above the vault still has the data
                self.memory.access(block, self.now, is_write=True)
            else:
                faults.data_loss_events += 1
        faults.refetches += 1
        if self.tracer is not None:
            self.tracer.emit(
                EV_FAULT, self.now, core, block,
                "%s_uncorrectable:%s" % (
                    kind,
                    "data_loss" if dirty and not recovered else "refetch"))
        port = self.mesh.nearest_memory_port(core)
        lat = (self.mesh.latency(core, port)
               + self.memory.access(block, self.now)
               + self.mesh.latency(port, core))
        new_state = SHARED if vst in (SHARED, OWNED) else EXCLUSIVE
        vault.insert(block, new_state)
        self.llc_accesses += 1  # the refill write
        if self.missmaps is not None:
            self.missmaps[core].record_fill(block)
        return new_state, lat

    def _directory_faults(self, home, block):
        """Directory-entry fault draw at a home-node lookup; returns
        extra recovery latency.  A corrected flip is scrubbed in place;
        an uncorrectable one rebuilds the whole set from the vault tag
        arrays it mirrors, costing one more metadata access."""
        verdict = self.faults.directory_fault(self.directory, home,
                                              block)
        if verdict is None:
            return 0
        if self.tracer is not None:
            self.tracer.emit(EV_FAULT, self.now, home, block,
                             "directory_" + verdict)
        if verdict == "rebuilt":
            self.llc_accesses += 1  # re-reading the mirrored vault tags
            return self.dir_latency
        return 0

    def _broadcast_snoop(self, home):
        """Directory fallback when the home vault is offline: the home
        node queries every online vault's tag array directly.  Probes
        proceed in parallel, so the farthest online peer bounds the
        latency."""
        faults = self.faults
        faults.broadcast_snoops += 1
        worst = 0
        for c in range(self.num_cores):
            if faults.offline[c]:
                continue
            self.llc_accesses += 1  # each online vault checks its tags
            hops = self.mesh.latency(home, c)
            if hops > worst:
                worst = hops
        return 2 * worst + self.llc_latency

    def _invalidate_offline_l1s(self, core, block):
        """Kill directory-invisible copies: cores whose vault is
        offline cache read-only Shared lines the duplicate-tag
        directory cannot track, so writes broadcast an invalidation to
        them.  Offline copies are never dirty (write-through), so they
        are simply dropped."""
        faults = self.faults
        for c in range(self.num_cores):
            if c == core or not faults.offline[c]:
                continue
            hit = self.l1d[c].invalidate(block) is not None
            if self.l1i[c].invalidate(block) is not None:
                hit = True
            if (self.l2 is not None
                    and self.l2[c].invalidate(block) is not None):
                hit = True
            if hit:
                self.invalidations += 1
                if self.tracer is not None:
                    self.tracer.emit(EV_INVALIDATE, self.now, c, block,
                                     "offline_l1")

    def _drain(self, core):
        """Take a private vault offline: write dirty lines back to
        memory, invalidate everything above it (inclusion) and clear
        the arrays.  The duplicate-tag directory stays consistent
        automatically -- an empty vault simply has no entries."""
        faults = self.faults
        vault = self.vaults[core]
        for vb, vst in list(vault.blocks()):
            l1st = self.l1d[core].invalidate(vb)
            self.l1i[core].invalidate(vb)
            l2st = None
            if self.l2 is not None:
                l2st = self.l2[core].invalidate(vb)
            if self.missmaps is not None:
                self.missmaps[core].record_eviction(vb)
            if (is_dirty(vst) or (l1st is not None and is_dirty(l1st))
                    or (l2st is not None and is_dirty(l2st))):
                self.memory.access(vb, self.now, is_write=True)
                faults.drained_dirty += 1
        vault.clear()
        # Inclusion means nothing survives above an empty vault, but
        # clear explicitly so degraded mode starts from a known state.
        self._rejoin(core)

    def _rejoin(self, core):
        """Drop the core's (clean, write-through) degraded-mode copies
        so everything it caches next is vault-tracked."""
        self.l1d[core].clear()
        self.l1i[core].clear()
        if self.l2 is not None:
            self.l2[core].clear()
