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

Inside the daemon a socket read's query lines travel as one columnar
:class:`QueryBatch` (:func:`decode_queries`), the engine answers it as
columns (:class:`Answers`), and :func:`answer_lines` renders the
answer lines straight from them, byte for byte what
``encode_line(make_response(...))`` writes.
"""

from __future__ import annotations

import json
import json.encoder
import json.scanner
import math
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

__all__ = [
    "PROTOCOL_VERSION",
    "QUERY_OPS",
    "ADMIN_OPS",
    "MUTATION_OPS",
    "DELIVERED_STATUSES",
    "ProtocolError",
    "Request",
    "QueryBatch",
    "Answers",
    "parse_request",
    "decode_queries",
    "make_response",
    "encode_line",
    "encode_json",
    "answer_lines",
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
    :attr:`Request.extra` stays empty.  The daemon decodes its query
    lines in batches (:func:`decode_queries`); this reads the lines
    those leave over, and is the reference they agree with.
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
        deadline_ms = _deadline_ms(payload.get("deadline_ms"), request_id)
        u = _require_point(payload, "u", request_id)
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


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return encode_json(payload).encode("utf-8") + b"\n"


# ----------------------------------------------------------------------
# Batches: a socket read's queries and their answers, as columns


#: One ``scan(text, 0) -> (value, end)`` call per line: the C scanner
#: under ``json.loads``, without its wrapper (1.1 vs 2.6 µs a line).
_SCAN = json.scanner.make_scanner(json.JSONDecoder())

#: ``sink(batch, positions, answers, rows)``: position ``positions[i]``
#: of ``batch`` is answered by row ``rows[i]`` of ``answers``.
BatchSink = Callable[["QueryBatch", Sequence[int], "Answers", Sequence[int]],
                     None]


class QueryBatch:
    """Queries as parallel columns, answered through one sink.

    :func:`decode_queries` turns a socket read's query lines into one
    batch (``ids``, ``ops``, ``us``, ``vs`` and the relative
    ``deadline_ms``, ``None`` for the default).  Its admitter sets
    ``admitted_at`` and the absolute ``deadlines`` on the event-loop
    clock and the ``sink`` the answers go to; the micro-batcher queues
    it, in chunks of at most ``max_batch`` (:meth:`take`), and answers
    every query exactly once.  ``gone`` holds the positions answered
    (or abandoned) while their chunk was in flight.
    """

    __slots__ = ("ids", "ops", "us", "vs", "deadline_ms", "deadlines",
                 "admitted_at", "sink", "gone")

    def __init__(self, ids: List[Any], ops: List[str], us: List[int],
                 vs: List[int], deadline_ms: Optional[List[Any]] = None):
        self.ids = ids
        self.ops = ops
        self.us = us
        self.vs = vs
        self.deadline_ms = deadline_ms
        self.deadlines: List[float] = []
        self.admitted_at = 0.0
        self.sink: Optional[BatchSink] = None
        self.gone: Optional[Set[int]] = None

    def __len__(self) -> int:
        return len(self.us)

    def take(self, positions: Iterable[int]) -> "QueryBatch":
        """The queries at ``positions``, as a batch with the same
        admission time and sink."""
        positions = list(positions)
        part = QueryBatch(
            [self.ids[j] for j in positions],
            [self.ops[j] for j in positions],
            [self.us[j] for j in positions],
            [self.vs[j] for j in positions],
        )
        if self.deadline_ms is not None:
            part.deadline_ms = [self.deadline_ms[j] for j in positions]
        part.deadlines = [self.deadlines[j] for j in positions] \
            if self.deadlines else []
        part.admitted_at = self.admitted_at
        part.sink = self.sink
        return part

    def split(self, ops: Set[str]) -> Tuple[Optional["QueryBatch"],
                                            Optional["QueryBatch"]]:
        """The queries whose op is in ``ops``, and the others; ``None``
        for an empty part, the batch itself for a whole one."""
        mine = [j for j, op in enumerate(self.ops) if op in ops]
        if not mine:
            return None, self
        if len(mine) == len(self.ops):
            return self, None
        return self.take(mine), self.take(
            j for j, op in enumerate(self.ops) if op not in ops)

    def live(self) -> List[int]:
        """Positions not yet answered."""
        gone = self.gone
        return [j for j in range(len(self.us)) if not gone or j not in gone]


def decode_queries(
    chunk: bytes, max_bytes: int
) -> Tuple[QueryBatch, List[bytes], int]:
    """Decode a socket read's request lines in one pass.

    ``chunk`` holds the read's complete lines, newline-separated.
    Returns the well-formed query lines as one :class:`QueryBatch`, the
    other lines, and the number of non-blank lines.  The other lines —
    admin and mutation ops, lines over ``max_bytes``, and any query
    line this pass is unsure of — are left to :func:`parse_request`,
    so every error envelope keeps its exact bytes.  A line is decoded
    here only when :func:`parse_request` would read the same query
    from it: an object whose ``op`` is a query op, ``u``/``v`` plain
    ints >= 0 and ``deadline_ms`` absent, null or a number > 0.  An
    ASCII read (every read of a well-behaved client) is decoded to
    text once, not line by line.
    """
    if chunk.isascii():
        lines: List[Any] = chunk.decode("ascii").split("\n")
        texts = [line.strip(_ASCII_SPACE) for line in lines]
    else:
        lines = chunk.split(b"\n")
        texts = [line.strip().decode("utf-8", errors="replace")
                 for line in lines]
    ids: List[Any] = []
    ops: List[str] = []
    us: List[int] = []
    vs: List[int] = []
    deadline_ms: List[Any] = []
    rest: List[bytes] = []
    scan = _SCAN
    count = 0
    for line, text in zip(lines, texts):
        if not text:
            continue
        count += 1
        if len(line) <= max_bytes:
            try:
                payload, end = scan(text, 0)
            except (StopIteration, ValueError):
                payload = end = None
            if end == len(text) and type(payload) is dict:
                get = payload.get
                op = get("op")
                u = get("u")
                v = get("v")
                deadline = get("deadline_ms")
                if (
                    type(op) is str and op in QUERY_OPS
                    and type(u) is int and u >= 0
                    and type(v) is int and v >= 0
                    and (deadline is None or (type(deadline) in _NUMBERS
                                              and deadline > 0))
                ):
                    ids.append(get("id"))
                    ops.append(op)
                    us.append(u)
                    vs.append(v)
                    deadline_ms.append(deadline)
                    continue
        rest.append(line if type(line) is bytes else line.encode("ascii"))
    return QueryBatch(ids, ops, us, vs, deadline_ms), rest, count


#: What ``bytes.strip()`` strips: the ASCII whitespace.
_ASCII_SPACE = " \t\n\r\x0b\x0c"
_NUMBERS = frozenset({int, float})


class Answers:
    """One batch's answers, one row per query, as columns.

    Every row has a ``status`` and an ``error``.  A delivered
    ``distance`` row reads ``distance``; a delivered ``path`` row reads
    ``path``, ``weight``, ``stretch`` and ``tree`` (its hops are
    ``len(path) - 1``).  ``results`` holds the result of any other row
    by row index: ``route`` answers, or what an injected executor
    returns.  ``service`` is the status of the snapshot
    that answered the batch and ``service_json`` that block encoded
    once; both are ``None`` for answers no snapshot gave (shed,
    expired, failed), which carry the service level of when they are
    written.
    """

    __slots__ = ("ops", "status", "error", "distance", "path", "weight",
                 "stretch", "tree", "results", "service", "service_json")

    def __init__(self, ops: Optional[Sequence[str]], status: List[str],
                 error: Optional[List[Optional[str]]] = None,
                 service: Optional[Dict[str, Any]] = None,
                 service_json: Optional[str] = None):
        m = len(status)
        self.ops = ops
        self.status = status
        self.error = [None] * m if error is None else error
        self.distance: List[Any] = [None] * m
        self.path: List[Any] = [None] * m
        self.weight: List[Any] = [None] * m
        self.stretch: List[Any] = [None] * m
        self.tree: List[Any] = [None] * m
        self.results: Dict[int, Optional[Dict[str, Any]]] = {}
        self.service = service
        self.service_json = service_json

    def __len__(self) -> int:
        return len(self.status)

    @classmethod
    def failed(cls, status: str, error: str, count: int) -> "Answers":
        """``count`` rows of one undelivered ``status`` and ``error``."""
        return cls(None, [status] * count, [error] * count)

    def result(self, row: int) -> Optional[Dict[str, Any]]:
        """The ``result`` object of ``row``'s envelope."""
        if row in self.results:
            return self.results[row]
        if self.status[row] not in DELIVERED_STATUSES:
            return None
        if self.ops[row] == "distance":
            return {"distance": self.distance[row]}
        path = self.path[row]
        return {"path": path, "hops": len(path) - 1,
                "weight": self.weight[row], "stretch": self.stretch[row],
                "tree": self.tree[row]}

    def payload(self, row: int) -> Dict[str, Any]:
        """``row`` as a dict: ``status``, ``result``, ``error`` and
        ``service``."""
        return {"status": self.status[row], "result": self.result(row),
                "error": self.error[row], "service": self.service}


# A float's %r is its ``float.__repr__``, as the JSON encoder writes a
# finite float; ints are written by %d.
_PATH_LINE = (
    '{"id":%d,"ok":true,"status":"%s","result":{"path":[%s],"hops":%d,'
    '"weight":%r,"stretch":%r,"tree":%d},"error":null,"service":%s}\n'
)
_DISTANCE_LINE = (
    '{"id":%d,"ok":true,"status":"%s","result":{"distance":%r},'
    '"error":null,"service":%s}\n'
)


def answer_lines(answers: Answers, ids: Sequence[Any], rows: Sequence[int],
                 service: Optional[Dict[str, Any]] = None) -> bytes:
    """The wire lines of each ``(ids[i], rows[i])`` (query id, answer
    row), as one ``bytes``.

    A delivered ``path`` or ``distance`` row with an int id and finite
    float figures is laid out from a fixed template with the batch's
    ``service_json``; every other envelope is :func:`make_response`
    through :func:`encode_json`, with ``service`` standing in for the
    block of answers no snapshot gave.  Either way each line's bytes
    are those of ``encode_line(make_response(...))``.
    """
    status = answers.status
    service_json = answers.service_json
    block = answers.service if answers.service is not None else service
    ops = answers.ops
    results = answers.results
    isfinite = math.isfinite
    parts = []
    for request_id, row in zip(ids, rows):
        label = status[row]
        if (service_json is not None and type(request_id) is int
                and (label == "ok" or label == "degraded")
                and row not in results):
            if ops[row] == "path":
                weight = answers.weight[row]
                stretch = answers.stretch[row]
                if (type(weight) is float and type(stretch) is float
                        and isfinite(weight) and isfinite(stretch)):
                    path = answers.path[row]
                    parts.append(_PATH_LINE % (
                        request_id, label, ",".join(map(str, path)),
                        len(path) - 1, weight, stretch, answers.tree[row],
                        service_json,
                    ))
                    continue
            else:
                distance = answers.distance[row]
                if type(distance) is float and isfinite(distance):
                    parts.append(_DISTANCE_LINE % (
                        request_id, label, distance, service_json,
                    ))
                    continue
        parts.append(encode_json(make_response(
            request_id, label, answers.result(row), answers.error[row], block,
        )))
        parts.append("\n")
    return "".join(parts).encode("utf-8")
