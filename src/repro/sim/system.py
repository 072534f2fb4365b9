"""The simulated CMP: cores, caches, coherence, NOC and memory.

``System.access`` is the whole machine's reaction to one memory
reference: it walks the private hierarchy, the LLC (shared NUCA or the
core's private DRAM vault), the coherence directory and main memory,
updating cache and coherence state and returning the exposed latency in
cycles.  Two organizations are implemented:

* **shared** -- the baseline's non-inclusive MESI with a sharer-table
  directory and an S-NUCA LLC (optionally backed by a conventional
  page-based DRAM cache), also used for Vaults-Sh and the 3-level
  SRAM/eDRAM designs;
* **private_vault** -- SILO: per-core direct-mapped inclusive DRAM
  vaults kept coherent by MOESI with the duplicate-tag directory whose
  metadata lives in the vaults (a directory lookup costs a DRAM access
  at the block's home node unless the directory-cache optimization is
  on).
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
    CoreModel, LEVEL_L1, LEVEL_L2, LEVEL_LLC_LOCAL, LEVEL_LLC_REMOTE,
    LEVEL_DRAM_CACHE, LEVEL_MEMORY)
from repro.memory.main_memory import MainMemory
from repro.noc.mesh import Mesh2D
from repro.obs.stats import Group
from repro.obs.trace import (EV_COHERENCE, EV_DIRECTORY, EV_FAULT,
                             EV_INVALIDATE, EV_DOWNGRADE, EV_EVICTION)
from repro.sim.config import LLC_SHARED, LLC_PRIVATE_VAULT


class System:
    """One simulated machine (see module docstring)."""

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
        self.replica_hits = 0
        self.prefetchers = None
        if config.l1_prefetcher:
            from repro.caches.prefetcher import StridePrefetcher
            self.prefetchers = [StridePrefetcher() for _ in range(n)]
        self.prefetch_fills = 0
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

        # System-level counters
        self.llc_accesses = 0          # SRAM bank / DRAM vault accesses
        self.dram_cache_accesses = 0
        self.invalidations = 0
        self.l1_writebacks = 0
        self.llc_writebacks = 0        # dirty evictions leaving the LLC
        self.vault_evictions = 0
        self.directory_lookups = 0
        self.remote_forwards = 0

        # Optional LLC-access sharing classification (Fig. 3)
        self.track_sharing = False
        self.block_readers = {}
        self.block_writers = {}
        self.llc_reads = 0
        self.llc_demand_writes = 0
        self.llc_writes_by_block = {}

        #: Root of the hierarchical stats registry.  Every counter above
        #: (and the per-subsystem ones owned by cores, mesh, memory,
        #: optimization structures and the energy model) is reachable
        #: through it; ``reset_stats`` delegates to its ``reset``.
        self.stats = self._build_stats()

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

        Wires the injector into the memory channels (transient stalls)
        and registers its counters as the ``system.faults`` stats
        group; returns the injector for chaining.
        """
        expected = self.num_cores
        if injector.num_targets != expected:
            raise ValueError(
                "injector built for %d targets, system has %d vaults/"
                "banks" % (injector.num_targets, expected))
        self.faults = injector
        self.memory.attach_faults(injector)
        injector.register_stats(
            self.stats.group("faults", "fault injection and recovery"))
        return injector

    def _build_stats(self):
        """Assemble the stats registry over every subsystem."""
        root = Group("system", "all statistics of one simulated machine")

        caches = root.group("caches", "cache hierarchy counters")
        caches.bind(self, "llc_accesses",
                    desc="SRAM bank / DRAM vault accesses")
        caches.bind(self, "dram_cache_accesses",
                    desc="conventional DRAM cache accesses")
        caches.bind(self, "l1_writebacks", desc="dirty L1 evictions")
        caches.bind(self, "llc_writebacks",
                    desc="dirty evictions leaving the LLC")
        caches.bind(self, "vault_evictions",
                    desc="direct-mapped vault set evictions")
        caches.bind(self, "replica_hits",
                    desc="victim-replication local-bank hits")
        caches.bind(self, "prefetch_fills",
                    desc="stride prefetches issued to the hierarchy")
        if self.prefetchers is not None:
            pf = caches.group("prefetcher", "stride prefetcher totals")
            pf.callback(
                "issued",
                lambda: sum(p.issued for p in self.prefetchers),
                desc="prefetch candidates produced")
            pf.callback(
                "useful",
                lambda: sum(p.hits_observed for p in self.prefetchers),
                desc="observed hits on prefetched strides")

            def _reset_prefetch_stats():
                for p in self.prefetchers:
                    p.reset_stats()
            pf.on_reset(_reset_prefetch_stats)
        if self.missmaps is not None:
            mm = caches.group("missmap", "local miss predictor totals")
            mm.callback(
                "known_misses",
                lambda: sum(m.known_misses for m in self.missmaps),
                desc="probes skipped on predicted misses")
            mm.callback(
                "unknown",
                lambda: sum(m.unknown for m in self.missmaps),
                desc="lookups outside tracked segments")

            def _reset_missmap_stats():
                for m in self.missmaps:
                    m.reset_stats()
            mm.on_reset(_reset_missmap_stats)
        if self.dram_cache_ctrl is not None:
            dcc = caches.group("dram_cache_ctrl",
                               "conventional DRAM cache channels")
            for i, ctrl in enumerate(self.dram_cache_ctrl):
                ctrl.register_stats(dcc.group("channel%d" % i))
                dcc.on_reset(ctrl.reset)

        coh = root.group("coherence", "coherence protocol counters")
        coh.bind(self, "invalidations",
                 desc="peer copies invalidated")
        coh.bind(self, "directory_lookups",
                 desc="home-node directory lookups")
        coh.bind(self, "remote_forwards",
                 desc="cache-to-cache data forwards")
        if self.sram_dir_cache is not None:
            self.sram_dir_cache.register_stats(
                coh.group("directory_cache", "SRAM directory cache"))
        sharing = coh.group("sharing", "Fig. 3 access classification")
        sharing.bind(self, "llc_reads", desc="tracked LLC data reads")
        sharing.bind(self, "llc_demand_writes",
                     desc="tracked LLC demand writes")

        def _reset_sharing():
            self.block_readers = {}
            self.block_writers = {}
            self.llc_writes_by_block = {}
        sharing.on_reset(_reset_sharing)

        self.mesh.register_stats(root.group("noc", "2D mesh"))
        self.memory.register_stats(root.group("memory", "main memory"))

        cores = root.group("cores", "per-core performance model")
        for c in self.cores:
            c.register_stats(cores.group("core%d" % c.core_id))

        from repro.energy import EnergyModel
        EnergyModel().register_stats(
            root.group("energy", "derived energy model (Table III)"),
            self)
        return root

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    # silolint: hotpath
    def access(self, core, block, is_write, is_ifetch, now=0.0):
        """Process one reference; returns exposed latency in cycles
        beyond the L1 (an L1 hit returns 0).

        ``repro.sim.driver._drive`` repeats the trivial L1-hit branches
        (ifetch hit, read hit, write hit on MODIFIED) inline; keep the
        two in lockstep -- the drive-loop pin (tests/test_engine.py)
        compares them."""
        self.now = now
        if self.faults is not None:
            # per-event only when fault injection is on (SL007: the
            # chain is behind the is-not-None guard, faults are rare)
            self.faults.tick(self)  # silolint: disable=SL007
        if is_ifetch:
            l1 = self.l1i[core]
            if l1.lookup(block) is not None:
                if self.measuring:
                    c = self.cores[core]
                    c.ifetch_count[LEVEL_L1] += 1
                return 0
            if self.kind == LLC_SHARED:
                lat, level = self._miss_shared(core, block, False, False,
                                               now)
            else:
                lat, level = self._miss_private(core, block, False, False,
                                                now)
            l1.insert(block, SHARED)  # code is read-only: no victim care
            if self.measuring:
                self.cores[core].record_ifetch(level, lat)
            return lat

        l1 = self.l1d[core]
        st = l1.lookup(block)
        if st is not None:
            if is_write and st != MODIFIED:
                self._write_upgrade(core, block, st)
            if self.measuring:
                c = self.cores[core]
                c.data_count[LEVEL_L1] += 1
            if self.prefetchers is not None:
                self._maybe_prefetch(core, block)
            return 0

        if self.kind == LLC_SHARED:
            lat, level = self._miss_shared(core, block, is_write, True,
                                           now)
        else:
            lat, level = self._miss_private(core, block, is_write, True,
                                            now)
        if self.measuring:
            lo, hi = self.rw_shared_range
            self.cores[core].record_data(level, lat,
                                         rw_shared=lo <= block < hi)
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
            if self.kind == LLC_SHARED:
                self._miss_shared(core, candidate, False, True, self.now)
            else:
                self._miss_private(core, candidate, False, True, self.now)
        finally:
            self.measuring = measuring
        # Like every other statistic, prefetch fills only count inside
        # the measurement window (the saved flag: the nested miss above
        # runs with measuring forced off).
        if measuring:
            self.prefetch_fills += 1

    # ------------------------------------------------------------------
    # write upgrades (store hits on non-M lines)
    # ------------------------------------------------------------------

    def _write_upgrade(self, core, block, l1_state):
        """A store hit an L1 line in S/E/O: gain write permission.
        State changes happen; the store latency itself is hidden by the
        store buffer (no stall charged)."""
        if self.tracer is not None:
            self.tracer.emit(EV_COHERENCE, self.now, core, block,
                             "upgrade:%d->M" % l1_state)
        if self.kind == LLC_SHARED:
            if l1_state != EXCLUSIVE:
                self._invalidate_peer_l1s(core, block)
            self.l1d[core].update(block, MODIFIED)
            self.sharer_table.add_sharer(block, core, exclusive=True)
        else:
            if self.faults is not None and self.faults.offline[core]:
                # Degraded mode (vault offline): no M state without a
                # vault to track it -- invalidate peers and write
                # through to memory, keeping the L1 copy Shared.
                self._invalidate_peer_vaults(core, block)
                self.memory.access(block, self.now, is_write=True)
                self.faults.write_throughs += 1
                return
            # While any vault is offline, its core may hold Shared
            # copies the directory cannot see, so even a silent E->M
            # upgrade must sweep peers.
            if l1_state != EXCLUSIVE or (
                    self.faults is not None and self.faults.has_offline):
                self._invalidate_peer_vaults(core, block)
            self.l1d[core].update(block, MODIFIED)
            vault = self.vaults[core]
            if vault.contains(block):
                vault.update(block, MODIFIED)
            if self.l2 is not None and self.l2[core].contains(block):
                self.l2[core].update(block, MODIFIED)

    def _invalidate_replicas(self, block):
        """Victim replication: drop every replica of a written block
        (the home-bank copy is the authoritative one)."""
        home = self.llc.bank_of(block)
        for b, bank in enumerate(self.llc.banks):
            if b != home:
                bank.invalidate(block)

    def _invalidate_peer_l1s(self, core, block):
        """Shared org: invalidate every other core's L1 copy.  Under
        victim replication, stale bank replicas die with them."""
        if self.victim_replication:
            self._invalidate_replicas(block)
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

    def _invalidate_peer_vaults(self, core, block):
        """SILO: invalidate the block in every other core's vault (and
        its L1/L2 by inclusion).  Dirty remote copies would be supplied
        to the writer, not written back, under MOESI."""
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

    # ------------------------------------------------------------------
    # shared-LLC (baseline / Vaults-Sh / 3-level SRAM & eDRAM) path
    # ------------------------------------------------------------------

    def _miss_shared(self, core, block, is_write, is_data, now):
        """L1 miss in a shared-LLC system.  Returns (latency, level)."""
        # Private L2 (3-level hierarchies)
        if self.l2 is not None:
            l2 = self.l2[core]
            st = l2.lookup(block)
            if st is not None:
                lat = self.l2_latency
                self._fill_l1_shared(core, block, is_write, is_data,
                                     from_state=st)
                return lat, LEVEL_L2

        if self.victim_replication and is_data:
            home_bank = self.llc.bank_of(block)
            if home_bank != core:
                local = self.llc.banks[core]
                if local.lookup(block) is not None:
                    # replica hit in the local bank: no mesh traversal
                    self.llc_accesses += 1
                    self.replica_hits += 1
                    lat = (self.mesh.INJECTION_OVERHEAD
                           + self.llc.bank_latency)
                    self._fill_l1_shared(core, block, is_write, True,
                                         from_state=None)
                    if is_write:
                        self._invalidate_replicas(block)
                    return lat, LEVEL_LLC_LOCAL

        bank = self.llc.bank_of(block)
        bank_offline = (self.faults is not None
                        and self.faults.offline[bank])
        lat = self.mesh.round_trip(core, bank)
        if bank_offline:
            # The bank's controller forwards the request off-chip
            # without touching the (drained) data array.
            self.faults.remapped_accesses += 1
        else:
            lat += self.llc.bank_latency
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

        level = LEVEL_LLC_LOCAL
        served = False
        if is_data:
            # A peer L1 may hold the line dirty (non-inclusive MESI).
            owner = self.sharer_table.owner(block)
            if owner != SharerTable.NO_OWNER and owner != core:
                owner_state = self.l1d[owner].lookup(block, touch=False)
                if owner_state is not None:
                    # Forward from the peer; dirty data is also written
                    # back to the LLC (MESI downgrade M->S).
                    lat += (self.mesh.latency(bank, owner)
                            + self.l1_latency
                            + self.mesh.latency(owner, core))
                    self.remote_forwards += 1
                    if owner_state == MODIFIED:
                        self._insert_llc(owner, block, dirty=True)
                    self.l1d[owner].update(block, SHARED)
                    self.sharer_table.clear_owner(block)
                    level = LEVEL_LLC_REMOTE
                    served = True

        if not served:
            st = None if bank_offline else self.llc.lookup(block)
            if st is not None and self.faults is not None:
                if self._shared_llc_fault(bank, block, st):
                    st = None  # uncorrectable: line gone, miss instead
            if st is not None:
                served = True
            else:
                lat2, level = self._off_chip_shared(core, block, is_write,
                                                    now)
                lat += lat2
                self._insert_llc(core, block, dirty=False)

        if self.l2 is not None:
            l2victim = self.l2[core].insert(block, SHARED)
            if l2victim is not None:
                self._handle_l2_victim(core, l2victim)
        self._fill_l1_shared(core, block, is_write, is_data,
                             from_state=None)
        return lat, level

    def _off_chip_shared(self, core, block, is_write, now):
        """LLC miss: conventional DRAM cache (if any), then memory."""
        port = self.mesh.nearest_memory_port(core)
        noc = 2 * self.mesh.latency(core, port)
        if self.dram_cache is not None:
            self.dram_cache_accesses += 1
            if self.dram_cache.lookup_block(block):
                ctrl = self.dram_cache_ctrl[(block >> 3) % 8]
                queue = ctrl.access(block, self.now)
                return (noc + self.dram_cache_latency + queue,
                        LEVEL_DRAM_CACHE)
            # Perfect miss prediction: no wasted DRAM$ probe.  Fill the
            # page from memory in the background.
            victim = self.dram_cache.fill(block)
            if victim is not None and victim[1]:
                self.memory.access(block, self.now, is_write=True)
        return (noc + self.memory.access(block, now), LEVEL_MEMORY)

    def _insert_llc(self, core, block, dirty):
        """Allocate a block in the shared LLC; handles dirty victims."""
        if (self.faults is not None
                and self.faults.offline[self.llc.bank_of(block)]):
            # Home bank offline: nothing to allocate into; dirty data
            # goes straight to memory instead.
            self.faults.remapped_accesses += 1
            if dirty:
                self.memory.access(block, self.now, is_write=True)
            return
        self.llc_accesses += 1
        if self.track_sharing and dirty:
            self.block_writers[block] = (
                self.block_writers.get(block, 0) | (1 << core))
            self.llc_writes_by_block[block] = (
                self.llc_writes_by_block.get(block, 0) + 1)
        existing = self.llc.lookup(block, touch=False)
        if existing is not None:
            if dirty:
                self.llc.update(block, True)
            return
        victim = self.llc.insert(block, dirty)
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

    def _fill_l1_shared(self, core, block, is_write, is_data, from_state):
        """Fill the L1 after a shared-org miss, with MESI state."""
        if not is_data:
            return  # the ifetch path fills L1-I at the call site
        table = self.sharer_table
        if is_write:
            self._invalidate_peer_l1s(core, block)
            state = MODIFIED
            table.add_sharer(block, core, exclusive=True)
        else:
            others = table.sharers(block) & ~(1 << core)
            state = EXCLUSIVE if others == 0 else SHARED
            table.add_sharer(block, core, exclusive=others == 0)
        victim = self.l1d[core].insert(block, state)
        if victim is not None:
            vb, vst = victim
            table.remove_sharer(vb, core)
            if is_dirty(vst):
                self.l1_writebacks += 1
                if self.l2 is not None:
                    self.l2[core].insert(vb, MODIFIED)
                    # (victim of this insert handled lazily on next use)
                else:
                    self._insert_llc(core, vb, dirty=True)
            elif (self.victim_replication
                  and self.llc.bank_of(vb) != core
                  and not (self.faults is not None
                           and self.faults.offline[core])):
                # clean victim: keep a low-priority replica in the
                # local bank (LRU position: replicas earn retention by
                # being re-referenced, they never displace hot blocks
                # on arrival)
                self.llc.banks[core].insert_cold(vb, False)
                self.llc_accesses += 1

    # ------------------------------------------------------------------
    # SILO (private vault) path
    # ------------------------------------------------------------------

    def _miss_private(self, core, block, is_write, is_data, now):
        """L1 miss in SILO.  Returns (latency, level)."""
        faults = self.faults
        if faults is None and self.l2 is None and self.tracer is None:
            # The shape every headline run takes (no fault injector, no
            # L2 level, no event tracer): a flattened replica of the
            # path below with the per-feature branches removed and the
            # single-use helpers inlined.  Misses are where suite time
            # goes (DESIGN.md Sec. 2f), and the call fan-out here was
            # the largest single cost on miss-bound workloads.  Every
            # operation runs in the original order, so results are
            # bit-identical; the differential pin suite holds both
            # paths together.
            return self._miss_private_plain(core, block, is_write,
                                            is_data, now)
        if self.l2 is not None:
            l2 = self.l2[core]
            st = l2.lookup(block)
            if st is not None:
                if is_write and st != MODIFIED:
                    if faults is not None and faults.offline[core]:
                        # degraded mode: stores write through, the
                        # on-chip copies stay Shared (no vault to
                        # anchor an M line)
                        self._invalidate_peer_vaults(core, block)
                        self.memory.access(block, self.now,
                                           is_write=True)
                        faults.write_throughs += 1
                    else:
                        # treat as an upgrade through the normal
                        # machinery (sweep peers on E->M too while any
                        # vault is offline: see _write_upgrade)
                        if st != EXCLUSIVE or (faults is not None
                                               and faults.has_offline):
                            self._invalidate_peer_vaults(core, block)
                        l2.update(block, MODIFIED)
                        vault = self.vaults[core]
                        if vault.contains(block):
                            vault.update(block, MODIFIED)
                        st = MODIFIED
                self._fill_l1_private(core, block, is_write, is_data, st)
                return self.l2_latency, LEVEL_L2

        offline = faults is not None and faults.offline[core]
        vault = self.vaults[core]
        if not offline:
            vst = vault.lookup(block)
            if vst is not None:
                # Local vault hit: one TAD access resolves tag + data.
                lat = self.llc_latency
                self.llc_accesses += 1
                if faults is not None:
                    vst, fault_lat = self._vault_hit_faults(core, block,
                                                            vst)
                    lat += fault_lat
                if is_write and vst != MODIFIED:
                    if vst != EXCLUSIVE or (faults is not None
                                            and faults.has_offline):
                        self._invalidate_peer_vaults(core, block)
                    vault.update(block, MODIFIED)
                    vst = MODIFIED
                self._fill_private_levels(core, block, is_write, is_data,
                                          vst)
                return lat, LEVEL_LLC_LOCAL

        # Local vault miss (or the vault is offline and is bypassed).
        if offline:
            faults.remapped_accesses += 1
            probe_skipped = True
        elif self.local_mp == "ideal":
            probe_skipped = True
        elif self.missmaps is not None:
            probe_skipped = self.missmaps[core].predicts_miss(block)
        else:
            probe_skipped = False
        lat = 0 if probe_skipped else self.llc_latency
        if not probe_skipped:
            self.llc_accesses += 1  # the probe that discovered the miss
        home = block % self.num_cores
        lat += self.mesh.latency(core, home)
        self.directory_lookups += 1
        if self.tracer is not None:
            self.tracer.emit(EV_DIRECTORY, self.now, home, block,
                             "write" if is_write else "read")
        home_offline = faults is not None and faults.offline[home]
        if home_offline:
            # The home vault physically stores this block's directory
            # set; with it offline, the home node falls back to
            # broadcast-snooping every online vault's tag array.
            lat += self._broadcast_snoop(home)
        elif self.dir_cache == "ideal":
            pass  # metadata always in SRAM, zero cost
        elif self.sram_dir_cache is not None:
            dir_set = block % self.vaults[0].num_sets
            if not self.sram_dir_cache.lookup(home, dir_set):
                lat += self.dir_latency
                self.llc_accesses += 1
        else:
            lat += self.dir_latency  # directory metadata is in DRAM
            self.llc_accesses += 1
        if faults is not None and not home_offline:
            lat += self._directory_faults(home, block)

        holders = self.directory.holder_states(block)
        new_state = MODIFIED if is_write else EXCLUSIVE
        if holders:
            if is_write:
                self._invalidate_peer_vaults(core, block)
                # data supplied by the (former) owner before invalidation
                supplier = holders[0][0]
                lat += (self.mesh.latency(home, supplier)
                        + self.llc_latency
                        + self.mesh.latency(supplier, core))
                self.llc_accesses += 1
                self.remote_forwards += 1
                level = LEVEL_LLC_REMOTE
            else:
                supplier, sup_state = max(
                    holders, key=lambda cs: cs[1])  # prefer M > O > E > S
                lat += (self.mesh.latency(home, supplier)
                        + self.llc_latency
                        + self.mesh.latency(supplier, core))
                self.llc_accesses += 1
                self.remote_forwards += 1
                self._downgrade_supplier(supplier, block, sup_state)
                new_state = SHARED
                level = LEVEL_LLC_REMOTE
        else:
            port = self.mesh.nearest_memory_port(home)
            lat += (self.mesh.latency(home, port)
                    + self.memory.access(block, now)
                    + self.mesh.latency(port, core))
            level = LEVEL_MEMORY
            if is_write and faults is not None and faults.has_offline:
                # no holders, so _invalidate_peer_vaults did not run;
                # directory-invisible offline copies still need killing
                self._invalidate_offline_l1s(core, block)

        if offline:
            # No vault to fill: the line lives in L1/L2 only, kept
            # Shared; stores write through so memory stays current.
            self._fill_private_levels(core, block, is_write, is_data,
                                      SHARED)
            if is_write:
                self.memory.access(block, self.now, is_write=True)
                faults.write_throughs += 1
            return lat, level
        self._fill_vault(core, block, new_state)
        self._fill_private_levels(core, block, is_write, is_data,
                                  new_state)
        return lat, level

    def _miss_private_plain(self, core, block, is_write, is_data, now):
        """Flattened ``_miss_private`` for the common shape (no fault
        injector, no L2, no tracer): identical operations in identical
        order with the single-use helpers (``_fill_vault``,
        ``_fill_private_levels``, ``_fill_l1_private``, the mesh/memory
        frontends) inlined.  Keep the two bodies in lockstep -- the
        drive-loop pin (tests/test_engine.py) runs both."""
        vault = self.vaults[core]
        s = block % vault.num_sets
        if vault.tags[s] == block:
            # Local vault hit: one TAD access resolves tag + data.
            vst = vault.states[s]
            self.llc_accesses += 1
            if is_write and vst != MODIFIED:
                if vst != EXCLUSIVE:
                    self._invalidate_peer_vaults(core, block)
                vault.update(block, MODIFIED)
                vst = MODIFIED
            if is_data:
                victim = self.l1d[core].insert(
                    block, MODIFIED if is_write else vst)
                if victim is not None:
                    vb, vstate = victim
                    if is_dirty(vstate):
                        self.l1_writebacks += 1
                        if vault.tags[vb % vault.num_sets] == vb:
                            self.llc_accesses += 1
            return self.llc_latency, LEVEL_LLC_LOCAL

        # Local vault miss.
        if self.local_mp == "ideal":
            probe_skipped = True
        elif self.missmaps is not None:
            probe_skipped = self.missmaps[core].predicts_miss(block)
        else:
            probe_skipped = False
        if probe_skipped:
            lat = 0
        else:
            lat = self.llc_latency
            self.llc_accesses += 1  # the probe that discovered the miss
        mesh = self.mesh
        hops_tbl = mesh._hops
        hop_lat = mesh.hop_latency
        home = block % self.num_cores
        h = hops_tbl[core][home]
        mesh.link_traversals += h
        lat += h * hop_lat
        self.directory_lookups += 1
        if self.dir_cache == "ideal":
            pass  # metadata always in SRAM, zero cost
        elif self.sram_dir_cache is not None:
            dir_set = block % self.vaults[0].num_sets
            if not self.sram_dir_cache.lookup(home, dir_set):
                lat += self.dir_latency
                self.llc_accesses += 1
        else:
            lat += self.dir_latency  # directory metadata is in DRAM
            self.llc_accesses += 1

        holders = self.directory.holder_states(block)
        new_state = MODIFIED if is_write else EXCLUSIVE
        if holders:
            if is_write:
                self._invalidate_peer_vaults(core, block)
                # data supplied by the (former) owner before invalidation
                supplier = holders[0][0]
                lat += (mesh.latency(home, supplier)
                        + self.llc_latency
                        + mesh.latency(supplier, core))
                self.llc_accesses += 1
                self.remote_forwards += 1
                level = LEVEL_LLC_REMOTE
            else:
                supplier, sup_state = max(
                    holders, key=lambda cs: cs[1])  # prefer M > O > E > S
                lat += (mesh.latency(home, supplier)
                        + self.llc_latency
                        + mesh.latency(supplier, core))
                self.llc_accesses += 1
                self.remote_forwards += 1
                self._downgrade_supplier(supplier, block, sup_state)
                new_state = SHARED
                level = LEVEL_LLC_REMOTE
        else:
            port = mesh._nearest[home]
            h2 = hops_tbl[home][port]
            h3 = hops_tbl[port][core]
            mesh.link_traversals += h2 + h3
            mem = self.memory
            mem.reads += 1
            mlat = mem.latency
            if mem.model_queueing:
                mlat += mem.controllers[
                    (block >> 3) % mem.num_channels].access(block, now)
            lat += h2 * hop_lat + mlat + h3 * hop_lat
            level = LEVEL_MEMORY

        # _fill_vault, inlined (tracer/missmap branches preserved).
        victim = vault.insert(block, new_state)
        self.llc_accesses += 1  # the fill write
        if self.missmaps is not None:
            mm = self.missmaps[core]
            mm.record_fill(block)
            if victim is not None:
                mm.record_eviction(victim[0])
        if victim is not None:
            vb, vst2 = victim
            self.vault_evictions += 1
            l1st = self.l1d[core].invalidate(vb)
            self.l1i[core].invalidate(vb)
            if (l1st is not None and is_dirty(l1st)) or is_dirty(vst2):
                self.memory.access(vb, self.now, is_write=True)
        # _fill_private_levels -> _fill_l1_private, inlined (no L2).
        if is_data:
            victim = self.l1d[core].insert(
                block, MODIFIED if is_write else new_state)
            if victim is not None:
                vb2, vst3 = victim
                if is_dirty(vst3):
                    self.l1_writebacks += 1
                    # Inclusive: the dirty data lands in the vault.
                    if vault.tags[vb2 % vault.num_sets] == vb2:
                        self.llc_accesses += 1
        return lat, level

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

    def _fill_vault(self, core, block, state):
        """Fill the core's direct-mapped vault, evicting the set's
        current resident (inclusion: the victim leaves L1/L2 too; dirty
        victims are written back to memory)."""
        vault = self.vaults[core]
        victim = vault.insert(block, state)
        self.llc_accesses += 1  # the fill write
        if self.missmaps is not None:
            self.missmaps[core].record_fill(block)
            if victim is not None:
                self.missmaps[core].record_eviction(victim[0])
        if victim is None:
            return
        vb, vst = victim
        self.vault_evictions += 1
        if self.tracer is not None:
            self.tracer.emit(EV_EVICTION, self.now, core, vb,
                             "dirty" if is_dirty(vst) else "clean")
        l1st = self.l1d[core].invalidate(vb)
        self.l1i[core].invalidate(vb)
        if self.l2 is not None:
            self.l2[core].invalidate(vb)
        if (l1st is not None and is_dirty(l1st)) or is_dirty(vst):
            self.memory.access(vb, self.now, is_write=True)

    def _fill_private_levels(self, core, block, is_write, is_data, state):
        """Fill L2 (if present) and L1 after a vault/remote/memory
        response in SILO."""
        if self.faults is not None and self.faults.offline[core]:
            state = SHARED  # degraded mode: no dirty on-chip state
        if self.l2 is not None:
            l2victim = self.l2[core].insert(block, state)
            if l2victim is not None:
                vb, vst = l2victim
                l1st = self.l1d[core].invalidate(vb)
                self.l1i[core].invalidate(vb)
                if l1st is not None and is_dirty(l1st):
                    # dirty data returns to the (inclusive) vault
                    if self.vaults[core].contains(vb):
                        self.vaults[core].update(vb, MODIFIED)
                        self.llc_accesses += 1
        self._fill_l1_private(core, block, is_write, is_data, state)

    def _fill_l1_private(self, core, block, is_write, is_data, state):
        if not is_data:
            return
        if self.faults is not None and self.faults.offline[core]:
            l1state = SHARED  # degraded mode: stores write through
        else:
            l1state = MODIFIED if is_write else state
        victim = self.l1d[core].insert(block, l1state)
        if victim is not None:
            vb, vst = victim
            if is_dirty(vst):
                self.l1_writebacks += 1
                # Inclusive hierarchy: the dirty data lands in the vault
                # (or L2), which already tracks the block as M.
                if self.l2 is None and self.vaults[core].contains(vb):
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
        return vst, 0.0

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

    def _directory_faults(self, home, block):
        """Directory-entry fault draw at a home-node lookup; returns
        extra recovery latency.  A corrected flip is scrubbed in place;
        an uncorrectable one rebuilds the whole set from the vault tag
        arrays it mirrors, costing one more metadata access."""
        verdict = self.faults.directory_fault(self.directory, home,
                                              block)
        if verdict is None:
            return 0.0
        if self.tracer is not None:
            self.tracer.emit(EV_FAULT, self.now, home, block,
                             "directory_" + verdict)
        if verdict == "rebuilt":
            self.llc_accesses += 1  # re-reading the mirrored vault tags
            return float(self.dir_latency)
        return 0.0

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
            if self.kind == LLC_SHARED:
                self._drain_bank(target)
            else:
                self._drain_vault(target)
            faults.set_offline(target, True)
            faults.offline_events += 1
        else:
            if not faults.offline[target]:
                return
            if self.kind != LLC_SHARED:
                # Drop the core's (clean, write-through) degraded-mode
                # copies so everything it caches next is vault-tracked.
                self.l1d[target].clear()
                self.l1i[target].clear()
                if self.l2 is not None:
                    self.l2[target].clear()
            faults.set_offline(target, False)
            faults.online_events += 1
        if self.tracer is not None:
            self.tracer.emit(EV_FAULT, self.now, target, -1,
                             "vault_" + action)

    def _drain_vault(self, core):
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
        self.l1d[core].clear()
        self.l1i[core].clear()
        if self.l2 is not None:
            self.l2[core].clear()

    def _drain_bank(self, bank_id):
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

    # ------------------------------------------------------------------
    # statistics helpers
    # ------------------------------------------------------------------

    def reset_stats(self):
        """Zero all measurement state (after warmup).

        Delegates to the stats registry, which owns the complete list
        of resettable statistics -- including ones the pre-registry
        code forgot (replica hits, prefetch fills, directory-cache and
        missmap counters).  Architectural state (cache contents,
        predictor tables) is never touched."""
        self.stats.reset()

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
