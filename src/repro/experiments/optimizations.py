"""Fig. 12: SILO performance optimizations in the limit (Sec. VII-B).

Four SILO variants: NoOpt, an ideal local-vault miss predictor
(LocalMP: a known miss skips the vault probe), an ideal directory cache
(DirCache: directory metadata served from SRAM at zero cost), and both
together.  Normalized to NoOpt per workload.
"""

from repro.core.systems import silo_config
from repro.workloads.scaleout import SCALEOUT_LABELS
from repro.experiments.common import run_points, DEFAULT_SCALE, DEFAULT_SEED

VARIANTS = (
    ("NoOpt", dict(local_miss_predictor=False, directory_cache=False)),
    ("LocalMP", dict(local_miss_predictor=True, directory_cache=False)),
    ("DirCache", dict(local_miss_predictor=False, directory_cache=True)),
    ("LocalMP+DirCache", dict(local_miss_predictor=True,
                              directory_cache=True)),
)

#: Extension beyond the paper: realistic implementations of the two
#: optimizations (a MissMap [24] and an SRAM directory cache [25])
#: alongside the ideal limit study.
REALISTIC_VARIANTS = (
    ("NoOpt", dict(local_miss_predictor=False, directory_cache=False)),
    ("MissMap", dict(local_miss_predictor="missmap",
                     directory_cache=False)),
    ("SRAM-DirCache", dict(local_miss_predictor=False,
                           directory_cache="sram")),
    ("MissMap+SRAM-DirCache", dict(local_miss_predictor="missmap",
                                   directory_cache="sram")),
    ("Ideal-Both", dict(local_miss_predictor=True,
                        directory_cache=True)),
)


def _run_variants(variants, plan, scale, seed, workloads):
    grid = run_points({label: silo_config(scale=scale, **opts)
                       for label, opts in variants},
                      plan, seed, workloads)
    rows = []
    for wname, results in grid.items():
        base = results[variants[0][0]].performance()
        for label, result in results.items():
            rows.append({
                "workload": SCALEOUT_LABELS.get(wname, wname),
                "variant": label,
                "normalized_performance": result.performance() / base,
            })
    return rows


def fig12_optimizations(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                        workloads=None):
    """Fig. 12: performance of the four SILO optimization variants
    (ideal limit study), normalized to NoOpt."""
    return _run_variants(VARIANTS, plan, scale, seed, workloads)


def fig12x_realistic_optimizations(plan=None, scale=DEFAULT_SCALE,
                                   seed=DEFAULT_SEED, workloads=None):
    """Extension: realistic MissMap / SRAM directory cache versus the
    ideal limit, normalized to NoOpt."""
    return _run_variants(REALISTIC_VARIANTS, plan, scale, seed,
                         workloads)
