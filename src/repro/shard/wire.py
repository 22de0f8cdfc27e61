"""Router <-> worker envelope protocol (internal, NDJSON over TCP).

One short-lived frame type per direction, tagged by ``"t"``:

=============  =========  ===================================================
frame          direction  payload
=============  =========  ===================================================
``hello``      w -> r     ``shard``, ``pid``, ``token`` (boot handshake)
``batch``      r -> w     ``bid``, ``epoch``, ``reqs`` [{id, verb, args,
                          trace}] — one envelope per shard per micro-batch
``batch_r``    w -> r     ``bid``, ``epoch`` (the snapshot actually used),
                          ``kernel_ms``, ``results`` [{id, ok, result |
                          error}]
``write``      r -> w     ``seq``, ``verb`` (insert/delete), ``args``
``write_r``    w -> r     ``seq``, ``ok``, ``version``, ``result | error``
``shutdown``   r -> w     none — worker drains and exits
=============  =========  ===================================================

Reads carry the router's snapshot epoch: the worker executes against its
replica of exactly that version (it keeps a small ring of recent
snapshots), which is what makes scatter-gather reads consistent without
any cross-process locking — the write broadcast is deterministic, so
every replica's version ``v`` has identical contents.

This module is deliberately dumb: encode/decode with no validation
beyond JSON shape.  Both ends are trusted (same process tree); the
public protocol's validation already ran at the router's edge.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ProtocolError

__all__ = ["STREAM_LIMIT", "decode_frame", "encode_frame"]

#: asyncio stream ``limit`` for both ends of the router<->worker socket.
#: A frame is one NDJSON line and a ``batch_r`` carries whole result id
#: lists, so asyncio's 64 KiB default turns any large answer into a
#: ``readline`` error that kills the link; 1 GiB holds a micro-batch of
#: full-domain windows over millions of objects.
STREAM_LIMIT = 1 << 30


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One envelope as a compact NDJSON line."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode()


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one envelope line; raises ProtocolError on garbage."""
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad shard frame: {exc}") from exc
    if not isinstance(frame, dict) or "t" not in frame:
        raise ProtocolError("shard frame must be an object with 't'")
    return frame
