"""Line-delimited JSON wire protocol for the query-serving daemon.

One request per line, one response per line, UTF-8 JSON.  Responses to
a connection may arrive **out of request order** (the admission
controller batches and different batches finish at different times);
clients match responses to requests by the ``id`` field, which the
server echoes verbatim.

Request shape::

    {"id": 7, "op": "path", "u": 3, "v": 41, "deadline_ms": 50}

``op`` is one of the query ops (``distance`` | ``path`` | ``route``,
admitted through the micro-batcher), an admin op (``ping`` |
``health`` | ``metrics`` | ``chaos`` | ``shutdown``, answered inline)
or a mutation op (``insert`` | ``delete`` | ``compact``, serialized
through the service's mutate lock; in-flight query batches answer on
the pre-mutation snapshot).  ``insert`` carries ``point`` (a coordinate
list), ``delete`` carries ``point_id``.  ``deadline_ms`` is optional
and relative to arrival; omitted means the server's default deadline.

Response envelope::

    {"id": 7, "ok": true, "status": "ok", "result": {...},
     "error": null, "service": {"state": "ready", "generation": 1, ...}}

``status`` is the per-request service level:

=============  ========================================================
``ok``         delivered with the full paper contract
``degraded``   delivered from surviving trees only (no contract); the
               ``service`` block says why
``undelivered`` nothing salvageable could answer (still not an error:
               the envelope labels the outage explicitly)
``overloaded`` shed at admission — the bounded queue was full
``timeout``    the request's deadline expired before an answer
``error``      malformed request or an exhausted-retries failure
=============  ========================================================

``ok`` is true exactly for ``ok``/``degraded`` (an answer was
delivered); every response carries the ``service`` block so clients
can observe degradation and recovery on live traffic.
"""

from __future__ import annotations

import json
import json.encoder
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "QUERY_OPS",
    "ADMIN_OPS",
    "MUTATION_OPS",
    "DELIVERED_STATUSES",
    "ProtocolError",
    "Request",
    "parse_request",
    "make_response",
    "encode_line",
    "encode_json",
]

PROTOCOL_VERSION = "repro.serve/v1"

QUERY_OPS = frozenset({"distance", "path", "route"})
ADMIN_OPS = frozenset({"ping", "health", "metrics", "chaos", "shutdown"})
MUTATION_OPS = frozenset({"insert", "delete", "compact"})
DELIVERED_STATUSES = frozenset({"ok", "degraded"})


class ProtocolError(ValueError):
    """A request line that cannot be admitted; carries the echoed id."""

    def __init__(self, message: str, request_id: Any = None):
        super().__init__(message)
        self.request_id = request_id


@dataclass
class Request:
    """A decoded, validated request."""

    id: Any
    op: str
    u: int = -1
    v: int = -1
    deadline_ms: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def _require_point(payload: Dict[str, Any], name: str, request_id: Any) -> int:
    value = payload.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"field {name!r} must be an integer point id, got {value!r}",
            request_id,
        )
    if value < 0:
        raise ProtocolError(
            f"field {name!r} must be >= 0, got {value}", request_id
        )
    return value


def _deadline_ms(value: Any, request_id: Any) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"deadline_ms must be a number, got {value!r}", request_id
        )
    if value <= 0:
        raise ProtocolError(f"deadline_ms must be > 0, got {value}", request_id)
    return float(value)


def parse_request(line: str) -> Request:
    """Decode one request line; raises :class:`ProtocolError` on bad input.

    A query op reads only ``u``, ``v`` and ``deadline_ms``: its
    :attr:`Request.extra` stays empty.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    request_id = payload.get("id")
    op = payload.get("op")
    if isinstance(op, str) and op in QUERY_OPS:
        # The hot path: every query line of the daemon comes here, and
        # a well-formed one makes no further call.
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = _deadline_ms(deadline_ms, request_id)
        u = payload.get("u")
        if type(u) is not int or u < 0:
            u = _require_point(payload, "u", request_id)
        v = payload.get("v")
        if type(v) is not int or v < 0:
            v = _require_point(payload, "v", request_id)
        return Request(request_id, op, u, v, deadline_ms, {})
    if not isinstance(op, str) or op not in (ADMIN_OPS | MUTATION_OPS):
        raise ProtocolError(
            f"unknown op {op!r} (query ops: {sorted(QUERY_OPS)}, "
            f"admin ops: {sorted(ADMIN_OPS)}, "
            f"mutation ops: {sorted(MUTATION_OPS)})",
            request_id,
        )
    request = Request(
        id=request_id, op=op,
        deadline_ms=_deadline_ms(payload.get("deadline_ms"), request_id),
    )
    if op == "insert":
        point = payload.get("point")
        if not (
            isinstance(point, list)
            and point
            and all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in point
            )
        ):
            raise ProtocolError(
                "insert requires 'point': a non-empty list of "
                f"coordinates, got {point!r}",
                request_id,
            )
    elif op == "delete":
        _require_point(payload, "point_id", request_id)
    request.extra = {
        key: value
        for key, value in payload.items()
        if key not in ("id", "op", "u", "v", "deadline_ms")
    }
    return request


def make_response(
    request_id: Any,
    status: str,
    result: Optional[Dict[str, Any]] = None,
    error: Optional[str] = None,
    service: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a response envelope (see the module docstring)."""
    return {
        "id": request_id,
        "ok": status in DELIVERED_STATUSES,
        "status": status,
        "result": result,
        "error": error,
        "service": service,
    }


#: What ``json.dumps(obj, separators=(",", ":"))`` builds on every
#: call, built once.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
#: The C encoder ``_ENCODER.encode`` builds on every call, built once
#: (an 8-field service block: 5.3 -> 3.6 µs).  It skips the
#: circular-reference check; envelopes are trees of fresh dicts.
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None,
    ":", ",", False, False, True,
)


def encode_json(obj: Any) -> str:
    """``json.dumps(obj, separators=(",", ":"))``: the wire's JSON."""
    if _C_ENCODER is None:
        return _ENCODER.encode(obj)
    return "".join(_C_ENCODER(obj, 0))


_PATH_KEYS = ("path", "hops", "weight", "stretch", "tree")
_DISTANCE_KEYS = ("distance",)
_PATH_LINE = (
    '{"id":%d,"ok":true,"status":"%s","result":{"path":[%s],"hops":%d,'
    '"weight":%s,"stretch":%s,"tree":%d},"error":null,"service":%s}\n'
)
_DISTANCE_LINE = (
    '{"id":%d,"ok":true,"status":"%s","result":{"distance":%s},'
    '"error":null,"service":%s}\n'
)
_INTS = {int}


def _number(value: Any) -> Optional[str]:
    """An int or finite float as the JSON encoder writes it, else None."""
    kind = type(value)
    if kind is float:
        return float.__repr__(value) if math.isfinite(value) else None
    if kind is int:
        return int.__repr__(value)
    return None


def _answer_line(payload: Dict[str, Any], service_json: str) -> Optional[bytes]:
    """A delivered path or distance answer with an int id, laid out
    from a fixed template; ``None`` for any other envelope."""
    request_id = payload["id"]
    status = payload["status"]
    result = payload["result"]
    if (
        type(request_id) is not int
        or status not in DELIVERED_STATUSES
        or payload["error"] is not None
        or type(result) is not dict
    ):
        return None
    keys = tuple(result)
    if keys == _PATH_KEYS:
        path = result["path"]
        hops = result["hops"]
        tree = result["tree"]
        weight = _number(result["weight"])
        stretch = _number(result["stretch"])
        if (
            type(path) is not list
            or set(map(type, path)) != _INTS
            or type(hops) is not int
            or type(tree) is not int
            or weight is None
            or stretch is None
        ):
            return None
        line = _PATH_LINE % (
            request_id, status, ",".join(map(str, path)), hops, weight,
            stretch, tree, service_json,
        )
    elif keys == _DISTANCE_KEYS:
        distance = _number(result["distance"])
        if distance is None:
            return None
        line = _DISTANCE_LINE % (request_id, status, distance, service_json)
    else:
        return None
    return line.encode("utf-8")


def encode_line(
    payload: Dict[str, Any], service_json: Optional[str] = None
) -> bytes:
    """One wire line: compact JSON plus the newline terminator.

    ``service_json`` may accompany a :func:`make_response` envelope:
    its ``service`` block already encoded by :func:`encode_json`
    (the engine encodes each batch's block once).  With it, a delivered
    ``path`` or ``distance`` answer with an int id is laid out from a
    fixed template instead of walked by the JSON encoder; the bytes are
    the same.  Every other payload (errors, timeouts, shed answers,
    admin ops, ids that are not ints) is encoded whole.
    """
    if service_json is not None:
        line = _answer_line(payload, service_json)
        if line is not None:
            return line
    return encode_json(payload).encode("utf-8") + b"\n"
