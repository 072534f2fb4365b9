"""Main memory: 50 ns access latency (Table II) behind closed-page
banked controllers at the mesh's corner memory ports."""

from repro.params import MEMORY_LATENCY
from repro.memory.controller import ClosedPageController


class MainMemory:
    """Fixed-latency main memory with optional bank queueing.

    Parameters
    ----------
    latency:
        Core cycles per access (100 at 2 GHz / 50 ns).
    num_channels:
        Independent channels (one per mesh memory port).
    banks_per_channel:
        DRAM banks per channel for the queueing model.
    model_queueing:
        If False, every access takes exactly ``latency`` cycles --
        matching the paper's infinite-bandwidth assumption where noted.
    """

    #: Fraction of the end-to-end latency a bank stays occupied (tRC
    #: relative to latency incl. controller and queue margins).
    DEFAULT_BANK_BUSY_FRACTION = 0.5

    def __init__(self, latency=MEMORY_LATENCY, num_channels=4,
                 banks_per_channel=8, model_queueing=True,
                 bank_busy_fraction=DEFAULT_BANK_BUSY_FRACTION):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.latency = latency
        self.num_channels = num_channels
        self.model_queueing = model_queueing
        self.controllers = [
            ClosedPageController(banks_per_channel,
                                 int(latency * bank_busy_fraction))
            for _ in range(num_channels)
        ]
        self.reads = 0
        self.writes = 0

    def access(self, block, now=0.0, is_write=False):
        """Access a block at approximate time ``now``; returns total
        latency in cycles including any bank queueing delay."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        total = self.latency
        if self.model_queueing:
            channel = self.controllers[(block >> 3) % self.num_channels]
            total += channel.access(block, now)
        return total

    @property
    def accesses(self):
        return self.reads + self.writes

    def attach_faults(self, injector):
        """Route transient-stall fault draws to every channel
        controller (no-op for timing until the injector's stall rate
        is non-zero)."""
        for ctrl in self.controllers:
            ctrl.attach_faults(injector)

    def reset_stats(self):
        self.reads = 0
        self.writes = 0
        for c in self.controllers:
            c.reset_stats()
