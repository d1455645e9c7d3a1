"""Wire protocol for the monitoring service: JSON-lines framing, v1.

One frame is one JSON object terminated by ``\\n``.  Three frame shapes
exist on the wire:

* **request** (client -> server)::

      {"id": 7, "op": "sql", "sql": "SELECT ...", "params": {...}}

  ``id`` is a client-chosen non-negative integer echoed in the response;
  ``op`` selects the operation; every other key is the operation payload.
  The first request on a connection must be ``hello`` (version, user,
  credential, application, default criticality) — everything else is
  rejected until the handshake completes.  One connection carries one
  engine session; requests are strictly request/response — a second
  work-producing request before the previous response arrives is rejected
  (``bad_request``), exactly like a real database connection.

* **response** (server -> client)::

      {"id": 7, "ok": true,  "data": {...}}
      {"id": 7, "ok": false, "error": {"code": "overloaded",
                                       "message": "...",
                                       "retry_after": 0.5}}

  ``retry_after`` (virtual seconds) appears only on ``overloaded``
  backpressure replies — the governor's admission control telling the
  client to back off rather than silently queueing it forever.

* **push** (server -> client, no ``id``)::

      {"push": "stream_alert", "time": 12.5, "data": {...}}

  Sent only on connections that issued ``subscribe``; topics are
  ``stream_alert`` (the engine's ``sqlcm.stream_alert`` ring) and
  ``incident`` (incident lifecycle transitions).

The protocol is versioned: ``hello`` carries ``version`` and the server
rejects mismatches with ``protocol_error`` before creating a session.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ProtocolError

#: current wire protocol version; bumped on incompatible frame changes
PROTOCOL_VERSION = 1

#: server banner sent back in the hello response
SERVER_NAME = "sqlcm-service"

# -- error codes ------------------------------------------------------------

E_PARSE = "parse_error"          # frame is not valid JSON / not an object
E_PROTOCOL = "protocol_error"    # bad framing, version mismatch, no hello
E_AUTH = "auth_failed"           # authenticator rejected the credential
E_DENIED = "denied"              # authenticated but not authorized (admin)
E_BAD_REQUEST = "bad_request"    # malformed payload for a known op
E_UNSUPPORTED = "unsupported"    # unknown op
E_OVERLOADED = "overloaded"     # governed admission shed this request
E_RECOVERING = "recovering"      # monitor is rebuilding from its checkpoint
E_SQL = "sql_error"              # the statement failed in the engine
E_INTERNAL = "internal_error"    # unexpected server-side failure

#: push topics a connection may subscribe to
TOPICS = ("stream_alert", "incident")

#: byte cap for a single frame (both directions)
MAX_FRAME_BYTES = 1_000_000


@dataclass
class Request:
    """One parsed client request frame."""

    id: int
    op: str
    payload: dict = field(default_factory=dict)


@dataclass
class Response:
    """One server response frame (success or error)."""

    request_id: int
    ok: bool
    data: dict | None = None
    code: str | None = None
    message: str | None = None
    retry_after: float | None = None

    def to_frame(self) -> dict:
        if self.ok:
            return {"id": self.request_id, "ok": True,
                    "data": self.data or {}}
        error: dict[str, Any] = {"code": self.code or E_INTERNAL,
                                 "message": self.message or ""}
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"id": self.request_id, "ok": False, "error": error}


@dataclass
class Push:
    """One server push frame (subscription delivery)."""

    topic: str
    data: dict
    time: float

    def to_frame(self) -> dict:
        return {"push": self.topic, "time": self.time, "data": self.data}


# -- encoding / decoding ----------------------------------------------------


def jsonable(value: Any) -> Any:
    """Coerce engine values into JSON-serializable shapes.

    Bytes (signatures) become hex strings, tuples/sets become lists,
    dict keys become strings; anything else unserializable becomes its
    ``str()``.  Applied to every payload crossing the wire so endpoint
    snapshots can hand over raw engine structures.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # NaN/inf are not valid JSON; surface them as strings
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return str(value)


def encode_frame(frame: dict) -> bytes:
    """Serialize one frame as a JSON line."""
    return (json.dumps(jsonable(frame), separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_frame(line: bytes) -> dict:
    """Parse one received line into a frame dict.

    Raises :class:`ProtocolError` on oversized, non-JSON, or non-object
    frames — the caller decides whether to reply with ``parse_error`` or
    drop the connection.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        frame = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as err:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError a frame nested deeper than the decoder's stack
        raise ProtocolError(f"frame is not valid JSON: {err}") from None
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    return frame


def parse_request(frame: dict) -> Request:
    """Validate a client frame into a :class:`Request`."""
    request_id = frame.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool) \
            or request_id < 0:
        raise ProtocolError("request needs a non-negative integer 'id'")
    op = frame.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("request needs a string 'op'")
    payload = {k: v for k, v in frame.items() if k not in ("id", "op")}
    return Request(id=request_id, op=op, payload=payload)


def parse_server_frame(frame: dict) -> Response | Push:
    """Classify a server frame (client side)."""
    data = frame.get("data") or {}
    if not isinstance(data, dict):
        raise ProtocolError("frame 'data' must be an object")
    if "push" in frame:
        topic = frame.get("push")
        time = frame.get("time") or 0.0
        if not isinstance(topic, str) or not isinstance(time, (int, float)):
            raise ProtocolError(
                "push frame needs a string topic and a numeric time")
        return Push(topic=topic, data=data, time=float(time))
    request_id = frame.get("id")
    if not isinstance(request_id, int):
        raise ProtocolError("response frame needs an integer 'id'")
    if frame.get("ok"):
        return Response(request_id=request_id, ok=True, data=data)
    error = frame.get("error") or {}
    if not isinstance(error, dict):
        raise ProtocolError("error frame needs an 'error' object")
    return Response(
        request_id=request_id, ok=False,
        code=error.get("code") or E_INTERNAL,
        message=error.get("message") or "",
        retry_after=error.get("retry_after"),
    )
