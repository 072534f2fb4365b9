"""2D mesh interconnect timing model.

Each hop costs a fixed router+link delay (3 cycles per Table II).  The
mesh connects core/LLC-bank tiles; memory controllers sit at the four
corner tiles, matching common server floorplans.  Precomputed hop tables
keep the per-access cost at a dict lookup.
"""

from repro.params import MESH_HOP_LATENCY
from repro.noc.topology import mesh_side, xy_hops


class Mesh2D:
    """A ``side x side`` mesh of tiles with XY routing.

    Parameters
    ----------
    num_nodes:
        Number of tiles (must be a perfect square: 4, 16, 64...).
    hop_latency:
        Cycles per hop (router traversal + link).
    """

    #: Fixed network-interface cost (injection + ejection queues) added
    #: once per transaction; with this the 4x4 mesh reproduces the
    #: paper's 23-cycle average LLC round trip (5-cycle banks) and the
    #: 41-cycle Vaults-Sh round trip (23-cycle vaults).
    INJECTION_OVERHEAD = 3

    def __init__(self, num_nodes, hop_latency=MESH_HOP_LATENCY):
        self.side = mesh_side(num_nodes)
        self.num_nodes = num_nodes
        self.hop_latency = hop_latency
        self._hops = [[xy_hops(s, d, self.side) for d in range(num_nodes)]
                      for s in range(num_nodes)]
        # Memory controllers at the four corner tiles.
        corners = {0, self.side - 1,
                   num_nodes - self.side, num_nodes - 1}
        self.memory_ports = sorted(corners)
        # Nearest-port LUT: the mapping is pure topology, and the min
        # scan sat on the miss path (one lookup per memory access).
        self._nearest = [min(self.memory_ports,
                             key=lambda p: self._hops[n][p])
                         for n in range(num_nodes)]
        self.link_traversals = 0

    def hops(self, src, dst):
        """Hop count between two tiles."""
        return self._hops[src][dst]

    def latency(self, src, dst):
        """One-way latency in cycles between two tiles."""
        h = self._hops[src][dst]
        self.link_traversals += h
        return h * self.hop_latency

    def round_trip(self, src, dst):
        """Request + response latency between two tiles, including the
        fixed network-interface overhead."""
        h = self._hops[src][dst]
        self.link_traversals += h
        return self.INJECTION_OVERHEAD + 2 * (h * self.hop_latency)

    def nearest_memory_port(self, node):
        """Tile of the closest memory controller to ``node``."""
        return self._nearest[node]

    def average_hops(self):
        """Mean hop count over all (src, dst) pairs, src != dst included
        as well as src == dst (an address-interleaved LLC maps 1/N of
        the space to the local bank)."""
        total = sum(sum(row) for row in self._hops)
        return total / (self.num_nodes ** 2)

    def average_round_trip(self, bank_latency):
        """Average round-trip latency to an address-interleaved bank,
        including the bank access itself.  For the paper's 4x4 mesh with
        3-cycle hops and a 5-cycle bank this is 23 cycles (Sec. VI-A);
        with 23-cycle latency-optimized vaults it is the 41 cycles
        quoted for Vaults-Sh."""
        return (self.INJECTION_OVERHEAD
                + 2 * self.average_hops() * self.hop_latency
                + bank_latency)

    def reset_stats(self):
        self.link_traversals = 0
