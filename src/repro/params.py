"""Global constants shared across the SILO reproduction.

The values here mirror Table II of the paper ("Microarchitectural
parameters of the simulated systems") and the text of Sec. VI.  Everything
is expressed in core clock cycles at 2 GHz unless a name says otherwise.
"""

# ---------------------------------------------------------------------------
# Clock and block geometry
# ---------------------------------------------------------------------------

CORE_FREQ_GHZ = 2.0
NS_PER_CYCLE = 1.0 / CORE_FREQ_GHZ  # 0.5 ns at 2 GHz

BLOCK_BYTES = 64
BLOCK_SHIFT = 6  # log2(BLOCK_BYTES)

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def ns_to_cycles(ns):
    """Convert a nanosecond latency to (rounded) 2 GHz core cycles."""
    return int(round(ns / NS_PER_CYCLE))


def cycles_to_ns(cycles):
    """Convert 2 GHz core cycles to nanoseconds."""
    return cycles * NS_PER_CYCLE


# ---------------------------------------------------------------------------
# Table II: microarchitectural parameters
# ---------------------------------------------------------------------------

NUM_CORES = 16
ROB_ENTRIES = 128
ISSUE_WIDTH = 3

L1_SIZE_BYTES = 64 * KB
L1_WAYS = 8
L1_LATENCY = 3  # cycles

L2_SIZE_BYTES = 512 * KB  # 3-level studies (Sec. VII-F)
L2_WAYS = 8
L2_LATENCY = 8  # cycles

MESH_HOP_LATENCY = 3  # cycles per hop (4x4 2D mesh)

# Baseline shared on-chip LLC (Scale-out Processors style)
BASELINE_LLC_SIZE_BYTES = 8 * MB
BASELINE_LLC_WAYS = 16
BASELINE_LLC_BANK_LATENCY = 5  # cycles per bank access
# "The average round trip time for an LLC hit, including the NOC, is 23
# cycles" -- this emerges from bank latency + mesh hops in our model.
BASELINE_LLC_AVG_ROUND_TRIP = 23

# SILO die-stacked DRAM LLC (per-core private vault)
SILO_VAULT_SIZE_BYTES = 256 * MB
SILO_VAULT_RAW_LATENCY = 11        # cycles: latency-optimized DRAM array
SILO_SERIALIZATION_LATENCY = 8     # cycles: 64-bit interface, TAD transfer
SILO_CONTROLLER_LATENCY = 4        # cycles: vault controller
SILO_VAULT_TOTAL_LATENCY = 23      # = 11 + 8 + 4

SILO_CO_VAULT_SIZE_BYTES = 512 * MB
SILO_CO_VAULT_RAW_LATENCY = 20
SILO_CO_VAULT_TOTAL_LATENCY = 32   # = 20 + 8 + 4

SILO_PAGE_BYTES = 512

# Die-stacked shared vaults (Vaults-Sh): average hit round trip 41 cycles
VAULTS_SH_AVG_ROUND_TRIP = 41

# Conventional DRAM cache (Baseline+DRAM$)
TRAD_DRAM_CACHE_SIZE_BYTES = 8 * GB
TRAD_DRAM_CACHE_LATENCY_NS = 40.0
TRAD_DRAM_CACHE_LATENCY = ns_to_cycles(TRAD_DRAM_CACHE_LATENCY_NS)  # 80
TRAD_DRAM_CACHE_PAGE_BYTES = 4096

# Main memory
MEMORY_LATENCY_NS = 50.0
MEMORY_LATENCY = ns_to_cycles(MEMORY_LATENCY_NS)  # 100 cycles

# 3-level study LLCs (Sec. VII-F)
THREE_LEVEL_SRAM_LLC_BYTES = 32 * MB
THREE_LEVEL_EDRAM_LLC_BYTES = 128 * MB
THREE_LEVEL_LLC_BANK_LATENCY = 7

# ---------------------------------------------------------------------------
# Resilience: SECDED ECC geometry and fault-recovery parameters
# ---------------------------------------------------------------------------

# Die-stacked DRAM vault lines, vault tag metadata and duplicate-tag
# directory entries are protected at 64-bit word granularity by a
# SECDED (72,64) extended Hamming code (repro.faults.ecc): 7 syndrome
# parity bits plus one overall parity bit per word.
ECC_DATA_BITS = 64
ECC_CHECK_BITS = 8
ECC_CODEWORD_BITS = ECC_DATA_BITS + ECC_CHECK_BITS  # 72

# Transient memory-channel stalls (refresh-storm style) are retried
# with exponential backoff; a stall event costs the controller between
# 1 and FAULT_STALL_RETRIES_MAX retries of the bank busy time.
FAULT_STALL_RETRIES_MAX = 4

# ---------------------------------------------------------------------------
# Table III: energy / power parameters for the memory subsystem
# ---------------------------------------------------------------------------

SRAM_LLC_STATIC_W_PER_BANK = 0.030     # 30 mW per bank
SRAM_LLC_DYNAMIC_NJ_PER_ACCESS = 0.25

VAULT_STATIC_W = 0.120                 # 120 mW per vault
VAULT_DYNAMIC_NJ_PER_ACCESS = 0.40

MEMORY_STATIC_W = 4.0
MEMORY_DYNAMIC_NJ_PER_ACCESS = 20.0
