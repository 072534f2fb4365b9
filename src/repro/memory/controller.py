"""Closed-page memory controller with a utilization-based queueing model.

The paper assumes a closed page policy for all DRAM (cache and main
memory), which outperforms open-page on server workloads [28].  Under a
closed-page policy every access occupies its bank for the full
activate+read+precharge time; contention therefore grows with bank
utilization.  Because the trace driver interleaves cores in chunks
(each core's chunk spans a wall-clock interval that overlaps other
cores'), tracking exact per-bank busy-until timestamps would see
artificial bursts, so we estimate queueing delay from measured bank
utilization with an M/D/1 waiting-time term:

``wait = service * rho / (2 * (1 - rho))``

which is order-insensitive and stable.
"""


class ClosedPageController:
    """Bank-utilization queueing for one memory channel."""

    #: Utilization is clamped here so a transient burst cannot produce
    #: unbounded delays.
    MAX_UTILIZATION = 0.95

    def __init__(self, num_banks, bank_busy_cycles):
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if bank_busy_cycles < 0:
            raise ValueError("bank_busy_cycles must be non-negative")
        self.num_banks = num_banks
        self.bank_busy_cycles = bank_busy_cycles
        self.accesses = 0
        self.conflicts = 0
        self._window_start = 0.0
        self._latest_now = 0.0
        # Optional fault injector (repro.faults): adds transient-stall
        # retry/backoff cycles to accesses.  None keeps the controller
        # bit-identical to a fault-free build.
        self.faults = None

    def utilization(self):
        """Measured bank utilization in the current window."""
        elapsed = self._latest_now - self._window_start
        if elapsed <= 0:
            return 0.0
        rho = (self.bank_busy_cycles * self.accesses
               / (self.num_banks * elapsed))
        return min(self.MAX_UTILIZATION, rho)

    def access(self, block, now):
        """Issue an access at approximate time ``now``; returns the
        estimated queueing delay in cycles (plus any transient-stall
        retry/backoff penalty when a fault injector is attached)."""
        self.accesses += 1
        if now > self._latest_now:
            self._latest_now = now
        stall = 0.0
        if self.faults is not None:
            stall = self.faults.channel_stall(self.bank_busy_cycles)
        # utilization() inlined: this runs once per memory access and
        # the extra call frame was measurable on miss-bound workloads.
        busy = self.bank_busy_cycles
        elapsed = self._latest_now - self._window_start
        if elapsed <= 0:
            return stall
        rho = busy * self.accesses / (self.num_banks * elapsed)
        if rho > self.MAX_UTILIZATION:
            rho = self.MAX_UTILIZATION
        if rho <= 0:
            return stall
        wait = busy * rho / (2.0 * (1.0 - rho))
        if wait >= 1.0:
            self.conflicts += 1
        return wait + stall

    def attach_faults(self, injector):
        """Route transient-stall draws through ``injector``."""
        self.faults = injector

    def bank_of(self, block):
        return block % self.num_banks

    def conflict_rate(self):
        return self.conflicts / self.accesses if self.accesses else 0.0

    def reset_stats(self):
        """Start a new measurement window (keeps the clock)."""
        self.accesses = 0
        self.conflicts = 0
        self._window_start = self._latest_now
