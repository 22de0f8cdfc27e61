"""The serving wire protocol: newline-delimited JSON frames.

One request per line, one response per line.  Requests carry a
client-chosen ``id`` that the server echoes back, so responses may be
matched even when the server answers out of submission order (batched
execution completes whole batches at a time)::

    -> {"id": 7, "verb": "window", "args": {"xl": 0.2, "yl": 0.2, "xu": 0.3, "yu": 0.3}}
    <- {"id": 7, "ok": true, "result": {"ids": [12, 94], "count": 2}, "server": {...}}

Errors are structured — a machine-readable ``code`` plus a human
message, and for ``overloaded`` a ``retry_after_ms`` hint::

    <- {"id": 9, "ok": false, "error": {"code": "overloaded",
        "message": "request queue full (depth 128)", "retry_after_ms": 10}}

This module is dependency-free (stdlib ``json`` + the repro error
hierarchy) and shared verbatim by server and client; all argument
validation lives here so both sides reject malformed frames the same
way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ProtocolError

__all__ = [
    "DATA_VERBS",
    "ERROR_CODES",
    "MAX_TRACE_LEN",
    "PROTOCOL_VERSION",
    "VERBS",
    "Request",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_response",
]

PROTOCOL_VERSION = 2

#: longest accepted client-supplied trace id (opaque string).
MAX_TRACE_LEN = 128

#: structured error codes a server may return.
ERROR_CODES = (
    "bad_request",     # malformed frame or arguments
    "unknown_verb",    # verb not in VERBS
    "invalid_query",   # well-formed frame, semantically invalid query
    "overloaded",      # admission control rejected (carries retry_after_ms)
    "shutting_down",   # server is draining; no new requests accepted
    "internal",        # unexpected server-side failure
    "degraded",        # sharded mode: an owning shard worker is down
)

_REQUIRED = object()


def _float_arg(value, verb: str, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{verb}: argument {name!r} must be a number")
    return float(value)


def _int_arg(value, verb: str, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{verb}: argument {name!r} must be an integer")
    return int(value)


def _str_arg(value, verb: str, name: str) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"{verb}: argument {name!r} must be a string")
    return value


def _bool_arg(value, verb: str, name: str) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(f"{verb}: argument {name!r} must be a boolean")
    return value


#: verb -> {arg name: (coercer, default-or-_REQUIRED)}
VERBS: dict[str, dict[str, tuple]] = {
    "ping": {},
    "window": {
        "xl": (_float_arg, _REQUIRED),
        "yl": (_float_arg, _REQUIRED),
        "xu": (_float_arg, _REQUIRED),
        "yu": (_float_arg, _REQUIRED),
        "predicate": (_str_arg, "intersects"),
    },
    "disk": {
        "cx": (_float_arg, _REQUIRED),
        "cy": (_float_arg, _REQUIRED),
        "radius": (_float_arg, _REQUIRED),
    },
    "knn": {
        "cx": (_float_arg, _REQUIRED),
        "cy": (_float_arg, _REQUIRED),
        "k": (_int_arg, _REQUIRED),
    },
    "count": {
        "xl": (_float_arg, _REQUIRED),
        "yl": (_float_arg, _REQUIRED),
        "xu": (_float_arg, _REQUIRED),
        "yu": (_float_arg, _REQUIRED),
    },
    "insert": {
        "xl": (_float_arg, _REQUIRED),
        "yl": (_float_arg, _REQUIRED),
        "xu": (_float_arg, _REQUIRED),
        "yu": (_float_arg, _REQUIRED),
    },
    "delete": {
        "id": (_int_arg, _REQUIRED),
    },
    "describe": {},
    "explain": {
        "kind": (_str_arg, _REQUIRED),
        "xl": (_float_arg, None),
        "yl": (_float_arg, None),
        "xu": (_float_arg, None),
        "yu": (_float_arg, None),
        "cx": (_float_arg, None),
        "cy": (_float_arg, None),
        "radius": (_float_arg, None),
        "k": (_int_arg, None),
    },
    "stats": {},
    # Live-telemetry admin verbs (read-only; answered from the event
    # loop against the service's telemetry rings, never the index).
    "heatmap": {
        "top": (_int_arg, 20),
    },
    "slowlog": {
        "limit": (_int_arg, 20),
        "explain": (_bool_arg, True),
    },
    "traces": {
        "limit": (_int_arg, 20),
    },
}

_EXPLAIN_KINDS = {
    "window": ("xl", "yl", "xu", "yu"),
    "disk": ("cx", "cy", "radius"),
    "knn": ("cx", "cy", "k"),
}

#: verbs that mutate the collection (routed to the serialised writer).
WRITE_VERBS = frozenset({"insert", "delete"})

#: verbs answered by the index (:meth:`repro.server.snapshot.Snapshot
#: .evaluate`, in process or on shard workers); every other read verb is
#: answered from the serving process's own state.
DATA_VERBS = frozenset({"window", "count", "disk", "knn"})


@dataclass(frozen=True)
class Request:
    """One validated protocol request."""

    id: "int | str"
    verb: str
    args: dict = field(default_factory=dict)
    #: client-supplied trace id, echoed in the response envelope; when
    #: absent the server assigns one (telemetry-on) so every retained
    #: trace is addressable.
    trace: "str | None" = None


def _validate_args(verb: str, raw: dict) -> dict:
    spec = VERBS[verb]
    unknown = set(raw) - set(spec)
    if unknown:
        raise ProtocolError(
            f"{verb}: unknown argument(s) {sorted(unknown)}; "
            f"accepted: {sorted(spec)}"
        )
    args: dict = {}
    for name, (coerce, default) in spec.items():
        if name in raw:
            args[name] = coerce(raw[name], verb, name)
        elif default is _REQUIRED:
            raise ProtocolError(f"{verb}: missing required argument {name!r}")
        elif default is not None:
            args[name] = default
    if verb == "window" and args["predicate"] not in ("intersects", "within"):
        raise ProtocolError(
            f"window: unknown predicate {args['predicate']!r}; "
            "expected 'intersects' or 'within'"
        )
    if verb == "explain":
        kind = args.get("kind")
        required = _EXPLAIN_KINDS.get(kind)
        if required is None:
            raise ProtocolError(
                f"explain: unknown kind {kind!r}; "
                f"expected one of {sorted(_EXPLAIN_KINDS)}"
            )
        missing = [name for name in required if name not in args]
        if missing:
            raise ProtocolError(
                f"explain[{kind}]: missing required argument(s) {missing}"
            )
    return args


def decode_request(line: "bytes | str") -> Request:
    """Parse and validate one request line.

    Raises :class:`~repro.errors.ProtocolError` on any malformation;
    the message is safe to echo back to the client.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    req_id = obj.get("id")
    if not isinstance(req_id, (int, str)) or isinstance(req_id, bool):
        raise ProtocolError("request needs an 'id' (integer or string)")
    verb = obj.get("verb")
    if not isinstance(verb, str):
        raise ProtocolError("request needs a 'verb' (string)")
    if verb not in VERBS:
        exc = ProtocolError(
            f"unknown verb {verb!r}; expected one of {sorted(VERBS)}"
        )
        exc.code = "unknown_verb"  # lets servers answer with the finer code
        raise exc
    raw_args = obj.get("args", {})
    if not isinstance(raw_args, dict):
        raise ProtocolError("'args' must be a JSON object")
    trace = obj.get("trace")
    if trace is not None:
        if not isinstance(trace, str) or not trace:
            raise ProtocolError("'trace' must be a non-empty string")
        if len(trace) > MAX_TRACE_LEN:
            raise ProtocolError(
                f"'trace' longer than {MAX_TRACE_LEN} characters"
            )
    return Request(
        id=req_id,
        verb=verb,
        args=_validate_args(verb, raw_args),
        trace=trace,
    )


def encode_request(
    req_id: "int | str",
    verb: str,
    args: "dict | None" = None,
    trace: "str | None" = None,
) -> bytes:
    """Serialise one request to a newline-terminated frame."""
    frame = {"id": req_id, "verb": verb}
    if args:
        frame["args"] = args
    if trace is not None:
        frame["trace"] = trace
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def encode_response(
    req_id: "int | str | None",
    result: dict,
    server: "dict | None" = None,
    trace: "str | None" = None,
) -> bytes:
    """Serialise one success response to a newline-terminated frame."""
    frame: dict = {"id": req_id, "ok": True, "result": result}
    if server:
        frame["server"] = server
    if trace is not None:
        frame["trace"] = trace
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def encode_error(
    req_id: "int | str | None",
    code: str,
    message: str,
    retry_after_ms: "int | None" = None,
    trace: "str | None" = None,
) -> bytes:
    """Serialise one structured error response."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: dict = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = int(retry_after_ms)
    frame = {"id": req_id, "ok": False, "error": error}
    if trace is not None:
        frame["trace"] = trace
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_response(line: "bytes | str") -> dict:
    """Parse one response line into its frame dict (client side).

    Raises :class:`~repro.errors.ProtocolError` when the frame is not a
    JSON object carrying ``ok``.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "ok" not in obj:
        raise ProtocolError("response must be a JSON object with an 'ok' field")
    return obj
