"""Analytic cache models: differential oracles for the simulator and
the estimate-mode backend that resolves RunRequests without
simulation."""

from repro.analytic.che import che_hit_rate, zipf_weights, lru_hit_rate_irm
from repro.analytic.estimator import (
    DOCUMENTED_BOUNDS, EstimateSummary, can_estimate, error_bounds,
    estimate_request, estimate_to_summary, in_trust_region,
    load_envelope, triage)

__all__ = [
    "che_hit_rate", "zipf_weights", "lru_hit_rate_irm",
    "DOCUMENTED_BOUNDS", "EstimateSummary", "can_estimate",
    "error_bounds", "estimate_request", "estimate_to_summary",
    "in_trust_region", "load_envelope", "triage",
]
