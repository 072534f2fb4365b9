"""Repository benchmark: end-to-end and per-layer performance of the
SILO reproduction (see ``run.py`` and ``BENCHMARK.json``)."""
