"""Out-of-order core performance model.

The paper models ARM-like 3-way OoO cores (128-entry ROB) at 2 GHz and
attributes performance differences to memory system behaviour: server
workloads have low memory-level parallelism (MLP), so L1 misses expose
most of their latency to the core (Sec. II-B).  We capture that with a
first-order interval model:

``cycles = instructions * base_cpi
         + sum(ifetch_miss_latency) * ifetch_stall_factor
         + sum(data_miss_latency) / mlp``

* ``base_cpi`` -- CPI with a perfect memory system beyond the L1s
  (issue restrictions, branch mispredictions, dependencies).
* Instruction-fetch misses starve the front end; a 128-entry ROB hides
  only a sliver of that, captured by ``ifetch_stall_factor`` (< 1).
* Data misses overlap with each other up to the workload's MLP; low MLP
  (1.2-2 for server workloads) exposes most of each miss.

The model keeps *raw* latency sums per service level so that experiment
code can re-evaluate performance under scaled latencies (Fig. 2, Fig. 4)
without re-simulating.
"""

from dataclasses import dataclass

from repro.obs.stats import Distribution

# Service levels an access can be satisfied at.
LEVEL_L1 = 0
LEVEL_L2 = 1
LEVEL_LLC_LOCAL = 2    # shared-LLC hit / local vault hit
LEVEL_LLC_REMOTE = 3   # remote vault hit / dirty peer-L1 supply
LEVEL_DRAM_CACHE = 4
LEVEL_MEMORY = 5
NUM_LEVELS = 6

LEVEL_NAMES = ("L1", "L2", "LLC_LOCAL", "LLC_REMOTE", "DRAM_CACHE",
               "MEMORY")


@dataclass(frozen=True)
class CoreParams:
    """Per-workload core model parameters."""

    base_cpi: float = 0.7
    mlp: float = 1.5
    ifetch_stall_factor: float = 0.45
    ifetch_per_instr: float = 1.0 / 16.0  # one 64B iblock per 16 instrs
    data_refs_per_instr: float = 0.25

    def __post_init__(self):
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        if self.mlp < 1.0:
            raise ValueError("mlp must be >= 1")


class CoreModel:
    """One core's instruction and stall accounting."""

    __slots__ = ("core_id", "params", "instructions",
                 "data_latency", "data_count",
                 "ifetch_latency", "ifetch_count",
                 "rw_shared_latency", "rw_shared_count", "latency_hist")

    def __init__(self, core_id, params):
        self.core_id = core_id
        self.params = params
        self.instructions = 0
        # Raw (unscaled) latency sums and access counts, indexed by
        # service level, split by access kind and by whether the block
        # belongs to the RW-shared region (for Fig. 4 re-evaluation).
        self.data_latency = [0.0] * NUM_LEVELS
        self.data_count = [0] * NUM_LEVELS
        self.ifetch_latency = [0.0] * NUM_LEVELS
        self.ifetch_count = [0] * NUM_LEVELS
        self.rw_shared_latency = 0.0
        self.rw_shared_count = 0
        # Exposed-latency histograms per service level (L1 hits return
        # before reaching record_*, so these cover L1 misses -- the
        # accesses whose latency the core actually sees).
        self.latency_hist = [Distribution("latency", desc=name)
                             for name in LEVEL_NAMES]

    def retire(self, instructions):
        """Account for ``instructions`` retired instructions."""
        self.instructions += instructions

    def record_data(self, level, latency, rw_shared=False):
        self.data_latency[level] += latency
        self.data_count[level] += 1
        self.latency_hist[level].record(latency)
        if rw_shared:
            self.rw_shared_latency += latency
            self.rw_shared_count += 1

    def record_ifetch(self, level, latency):
        self.ifetch_latency[level] += latency
        self.ifetch_count[level] += 1
        self.latency_hist[level].record(latency)

    # -- performance evaluation -------------------------------------------

    def stall_cycles(self, level_scale=None, rw_shared_extra_factor=0.0):
        """Total stall cycles.

        ``level_scale`` optionally multiplies the recorded latency of
        each service level (a 6-element sequence), which re-evaluates
        the run under different LLC/memory latencies.
        ``rw_shared_extra_factor`` adds that multiple of the RW-shared
        latency sum on top (e.g. 1.0 doubles RW-shared block latency,
        3.0 quadruples it -- Fig. 4).
        """
        p = self.params
        data = 0.0
        ifetch = 0.0
        if level_scale is None:
            data = sum(self.data_latency)
            ifetch = sum(self.ifetch_latency)
        else:
            for lvl in range(NUM_LEVELS):
                data += self.data_latency[lvl] * level_scale[lvl]
                ifetch += self.ifetch_latency[lvl] * level_scale[lvl]
        data += self.rw_shared_latency * rw_shared_extra_factor
        return ifetch * p.ifetch_stall_factor + data / p.mlp

    def cycles(self, level_scale=None, rw_shared_extra_factor=0.0):
        return (self.instructions * self.params.base_cpi
                + self.stall_cycles(level_scale, rw_shared_extra_factor))

    def ipc(self, level_scale=None, rw_shared_extra_factor=0.0):
        cyc = self.cycles(level_scale, rw_shared_extra_factor)
        return self.instructions / cyc if cyc > 0 else 0.0

    def reset(self):
        # In place, not rebound: the stats registry holds references
        # to these lists across reset_stats().
        self.instructions = 0
        for lvl in range(NUM_LEVELS):
            self.data_latency[lvl] = 0.0
            self.data_count[lvl] = 0
            self.ifetch_latency[lvl] = 0.0
            self.ifetch_count[lvl] = 0
        self.rw_shared_latency = 0.0
        self.rw_shared_count = 0
        for h in self.latency_hist:
            h.reset()

    def register_stats(self, group):
        """Register this core's statistics under ``group`` (counters
        are views; resetting goes through :meth:`reset` so the lists
        and histograms stay the objects the hot path writes to)."""
        group.bind(self, "instructions", desc="instructions retired",
                   resettable=False)
        for lvl, name in enumerate(LEVEL_NAMES):
            g = group.group(name.lower())
            g.callback("data_count",
                       lambda c=self, l=lvl: c.data_count[l],
                       desc="data accesses satisfied here")
            g.callback("ifetch_count",
                       lambda c=self, l=lvl: c.ifetch_count[l],
                       desc="ifetches satisfied here")
            g.callback("data_latency",
                       lambda c=self, l=lvl: c.data_latency[l],
                       desc="summed exposed data latency (cycles)")
            g.add(self.latency_hist[lvl])
        group.on_reset(self.reset)
        return group
