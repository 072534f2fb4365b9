"""Simulation-as-a-service: asyncio job server, transports, client.

``python -m repro.serve`` starts the server; ``python -m
repro.serve.worker`` runs socket workers; ``python -m
repro.serve.client`` submits, and its
:class:`~repro.serve.client.HttpTransport` lets a
:class:`~repro.sim.engine.RunEngine` resolve points on a server.  See
DESIGN.md section 2h for the architecture (dedup, priorities,
backpressure, transports, failure model).
"""

from repro.serve.server import DEFAULT_PORT, JobServer
from repro.serve.transport import (SocketWorkerTransport,
                                   TransportError, transport_from_spec)

__all__ = [
    "DEFAULT_PORT", "JobServer", "SocketWorkerTransport",
    "TransportError", "transport_from_spec",
]
