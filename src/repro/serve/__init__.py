"""Simulation-as-a-service: asyncio job server and client.

``python -m repro.serve`` starts the server (``--transport local:N``
gives its engine a long-lived process pool); ``python -m
repro.serve.client`` submits, and its
:class:`~repro.serve.client.HttpTransport` lets a
:class:`~repro.sim.engine.RunEngine` resolve points on a server.  See
DESIGN.md section 2h for the architecture (dedup, priorities,
backpressure, transports, trust boundary).
"""

from repro.serve.server import DEFAULT_PORT, JobServer

__all__ = ["DEFAULT_PORT", "JobServer"]
