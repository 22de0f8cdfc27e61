"""Concurrent query serving over a two-layer grid.

The serving subsystem turns the in-process library into a network
service: an asyncio TCP server speaking a newline-delimited JSON
protocol, built around three production mechanisms rather than socket
plumbing:

* **request micro-batching** (:mod:`repro.server.batcher`) — concurrent
  window/disk queries already queued when a batch starts are drained
  together (no timer holds a batch open) and executed through the
  Section VI tiles-based batch evaluator, so the paper's
  cache-conscious batch strategy is the server's hot path;
* **snapshot isolation** (:mod:`repro.server.snapshot`) — reads run
  against an immutable snapshot while ``insert``/``delete`` are
  serialised onto a writer that publishes a new snapshot atomically
  (tile-level copy-on-write), so readers never block on writers and a
  mid-flight batch sees one consistent index;
* **admission control** (:mod:`repro.server.service`) — a bounded
  request queue returns a structured ``overloaded`` error (with a
  retry-after hint) instead of growing without bound, slow consumers
  get per-connection write timeouts, and SIGTERM drains in-flight
  requests before closing.

:mod:`repro.server.client` is a synchronous, stdlib-only client.
:mod:`repro.server.admin` adds the live-ops surface: the Prometheus
``/metrics`` HTTP listener and the ``--top`` console.  See
``docs/serving.md`` for the protocol reference and deployment notes and
``docs/observability.md`` for the live-operations guide.
"""

from repro.server.admin import MetricsHTTPServer, run_top
from repro.server.batcher import MicroBatcher, PendingRequest
from repro.server.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    Request,
    decode_request,
    encode_error,
    encode_request,
    encode_response,
)
from repro.server.service import ServerConfig, SpatialQueryService
from repro.server.snapshot import Snapshot, SnapshotStore

__all__ = [
    "ERROR_CODES",
    "MetricsHTTPServer",
    "MicroBatcher",
    "PendingRequest",
    "PROTOCOL_VERSION",
    "Request",
    "ServerConfig",
    "Snapshot",
    "SnapshotStore",
    "SpatialQueryService",
    "decode_request",
    "encode_error",
    "encode_request",
    "encode_response",
    "run_top",
]
