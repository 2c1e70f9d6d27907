"""The asyncio daemon front: NDJSON queries plus an HTTP side door.

:class:`SpannerServer` ties the pieces together: connections speak the
line protocol (:mod:`repro.serve.protocol`), query ops flow through the
:class:`~repro.serve.batcher.MicroBatcher` into the
:class:`~repro.serve.engine.QueryEngine`, admin ops answer inline, and
the :class:`~repro.serve.chaos.ChaosController` provides the
live-traffic failure mode.  Every response envelope carries the
service block (ready/degraded/recovering + generation), so clients see
degradation and recovery happen request by request.

The query path runs to completion per socket read: each connection is
an :class:`asyncio.Protocol` whose ``data_received`` decodes the read's
query lines in one pass into one columnar
:class:`~repro.serve.protocol.QueryBatch`, range-checks it and admits
it into the batcher with the connection as its sink, then pumps the
batcher, which runs the batch on the loop when it is fast and writes
each touched connection's answers in one socket write.  The answer
lines are rendered straight from the engine's answer columns.  A query
on an idle daemon is read, answered and written in one loop turn, with
no task, future or timer of its own.  Lines the batch decode does not
take go through :func:`~repro.serve.protocol.parse_request` one by
one: admin lines answer inline, mutation lines run on the default
executor, and bad lines get their error envelope.

For scraping convenience the same port also answers plain HTTP GETs —
``/healthz`` (liveness), ``/readyz`` (200 only at full contract, 503
while degraded/recovering/down) and ``/metrics`` (the observability
registry in Prometheus text format) — detected by peeking at the first
line of a connection, so `curl` and a Prometheus scraper work without
a second listener.

:class:`ThreadedServer` runs the whole daemon on a background thread
with its own event loop — the harness tests, the serving benchmark and
embedding applications use it; the CLI runs :meth:`SpannerServer.run`
in the foreground instead.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..checkpoint.recovery import CheckpointService
from ..observability import OBS
from .batcher import MicroBatcher
from .chaos import ChaosController
from .engine import QueryEngine
from .policy import AdmissionPolicy
from .protocol import (
    MUTATION_OPS,
    PROTOCOL_VERSION,
    QUERY_OPS,
    Answers,
    ProtocolError,
    QueryBatch,
    Request,
    answer_lines,
    decode_queries,
    encode_line,
    make_response,
    parse_request,
)

__all__ = ["SpannerServer", "ThreadedServer"]

_C_CONNECTIONS = OBS.registry.counter("serve.connections")
_C_REQUESTS = OBS.registry.counter("serve.requests")
_C_BAD_REQUESTS = OBS.registry.counter("serve.bad_requests")

#: The longest request line served; a longer one is answered with an
#: ``error`` envelope and skipped.
MAX_LINE_BYTES = 1 << 16
#: A connection stops reading new requests while more than this many
#: answer bytes wait in its socket's write buffer.
_DRAIN_HIGH_WATER = 1 << 16


class _Connection(asyncio.Protocol):
    """One client connection: request lines in, answer lines out.

    The first bytes tell NDJSON from an HTTP GET.  :meth:`deliver` is
    the sink the batcher answers this connection's query batches
    through; answer lines collect in ``out`` and leave in one
    ``writer.write`` when the server writes out after a pump, so a
    batch costs each connection it touches one socket write, not one
    per request.
    """

    def __init__(self, server: "SpannerServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.out: List[bytes] = []
        self.dirty = False
        #: None until the first bytes tell NDJSON (False) from HTTP (True).
        self.http: Optional[bool] = None
        #: Bytes of an unfinished line, or the HTTP request head so far.
        self.partial = b""
        self.skipping = False
        self.eof = False
        #: Queries and mutations admitted and not yet answered.
        self.unanswered = 0

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        if OBS.enabled:
            _C_CONNECTIONS.inc()
        self.transport = transport
        transport.set_write_buffer_limits(high=_DRAIN_HIGH_WATER)
        # Every answer leaves through this writer: one write per flush.
        self.writer = asyncio.StreamWriter(
            transport, self, None, self.server.loop
        )
        self.server.connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server.connections.discard(self)

    def pause_writing(self) -> None:
        # The client is not taking its answers: stop reading its
        # requests until it does.  Reading is over after end of input.
        if not self.eof:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self.eof:
            self.transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        if self.http is None:
            data = self.partial + data
            if len(data) < 5 and b"\n" not in data:
                self.partial = data  # not enough to tell HTTP yet
                return
            self.partial = b""
            self.http = data.startswith((b"GET ", b"HEAD "))
        if self.http:
            self.partial += data
            head = self.partial
            if b"\r\n\r\n" in head or b"\n\n" in head \
                    or len(head) > MAX_LINE_BYTES:
                self._answer_http()
            return
        self._read_lines(data)
        self.server.batcher.pump()

    def eof_received(self) -> bool:
        self.eof = True
        self.data_received(b"\n")  # ends a last line without a newline
        if self.http:
            self._answer_http()
        self._close_if_done()
        return True  # keep writing answers after the client's half-close

    # -- requests --------------------------------------------------------

    def _read_lines(self, data: bytes) -> None:
        """Handle every complete line of ``data``: its query lines are
        decoded in one pass and admitted as one batch.  A line longer
        than :data:`MAX_LINE_BYTES` is answered with an ``error``
        envelope and skipped up to its newline; the connection serves
        on."""
        if self.skipping:
            newline = data.find(b"\n")
            if newline < 0:
                return
            data, self.skipping = data[newline + 1:], False
        data = self.partial + data if self.partial else data
        end = data.rfind(b"\n")
        self.partial = data[end + 1:]
        if end >= 0:
            self.server._handle_lines(self, data[:end])
        if len(self.partial) > MAX_LINE_BYTES:
            self.server._handle_lines(self, self.partial)
            self.partial, self.skipping = b"", True

    def _answer_http(self) -> None:
        """Answer the HTTP request head read so far, then close."""
        if not self.transport.is_closing():
            self.writer.write(self.server._http_response(self.partial))
            self.writer.close()

    # -- answers ---------------------------------------------------------

    def deliver(self, batch: QueryBatch, positions: Sequence[int],
                answers: Answers, rows: Sequence[int]) -> None:
        """The sink of this connection's query batches: the queries at
        ``positions`` are answered by ``answers`` rows ``rows``.

        Answers no snapshot gave (shed, expired, failed) carry the
        current service level."""
        ids = batch.ids
        if len(positions) != len(ids):
            ids = [ids[j] for j in positions]
        self.out.append(answer_lines(
            answers, ids, rows,
            None if answers.service is not None
            else self.server._service_block(),
        ))
        if not self.dirty:
            self.dirty = True
            self.server.dirty.append(self)
        self.unanswered -= len(positions)
        if self.eof:
            self._close_if_done()

    def answer(self, request_id: Any, payload: Dict[str, Any]) -> None:
        """The reply sink of mutations: a payload, answered with the
        current service level."""
        self.send(make_response(
            request_id,
            payload.get("status", "error"),
            result=payload.get("result"),
            error=payload.get("error"),
            service=self.server._service_block(),
        ))
        self.unanswered -= 1
        if self.eof:
            self._close_if_done()

    def send(self, response: Dict[str, Any]) -> None:
        self.out.append(encode_line(response))
        if not self.dirty:
            self.dirty = True
            self.server.dirty.append(self)

    def flush(self) -> None:
        self.dirty = False
        if self.out and not self.writer.is_closing():
            self.writer.write(b"".join(self.out))
        self.out.clear()

    def _close_if_done(self) -> None:
        """After end of input and the last answer: write it and close."""
        if self.eof and not self.unanswered:
            self.flush()
            self.writer.close()


class SpannerServer:
    """Long-lived query daemon over a loaded :class:`CheckpointService`."""

    def __init__(
        self,
        service: CheckpointService,
        policy: Optional[AdmissionPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        router_seed: int = 0,
    ):
        self.service = service
        self.policy = policy or AdmissionPolicy()
        self.requested_host = host
        self.requested_port = port
        self.engine = QueryEngine(service, router_seed=router_seed)
        self.batcher = MicroBatcher(
            self.engine.execute, self.policy,
            needs_setup=self.engine.needs_setup,
            on_answered=self._write_answers,
        )
        self.chaos = ChaosController(service)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: Open connections, and those with answers not yet written.
        self.connections: Set[_Connection] = set()
        self.dirty: List[_Connection] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started_at = time.monotonic()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._stop_event = asyncio.Event()
        self.loop = asyncio.get_running_loop()
        await self.batcher.start()
        self._server = await self.loop.create_server(
            lambda: _Connection(self), self.requested_host,
            self.requested_port,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or the shutdown op) fires."""
        await self._stop_event.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        # Answer (and write) stranded requests before closing.
        await self.batcher.stop()
        for conn in list(self.connections):
            conn.writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        # A chaos recovery still running keeps its thread; it is a
        # daemon thread and the service stays consistent without us.

    def run(self, ready=None) -> int:
        """Foreground entry point (the CLI): serve until stopped.

        ``ready`` is called as ``ready(host, port)`` once the socket is
        bound.  Returns 0 on clean shutdown (shutdown op or Ctrl-C).
        """

        async def _main() -> None:
            host, port = await self.start()
            if ready is not None:
                ready(host, port)
            await self.serve_until_stopped()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass
        return 0

    # -- status ----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        status = self._service_block()
        return {
            "protocol": PROTOCOL_VERSION,
            "ready": status["state"] == "ready",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queue_depth": self.batcher.queue_depth,
            "policy": {
                "max_batch": self.policy.max_batch,
                "max_queue": self.policy.max_queue,
                "default_deadline_ms": self.policy.default_deadline * 1000.0,
                "max_retries": self.policy.max_retries,
            },
            "recovery_running": self.chaos.recovery_running,
            "recovery_error": self.chaos.last_error,
            "service": status,
        }

    def _service_block(self) -> Dict[str, Any]:
        status = self.service.status()
        status["degraded"] = status["state"] != "ready"
        return status

    # -- connection handling ---------------------------------------------

    def _write_answers(self) -> None:
        """Write out every connection's pending answers (after a pump)."""
        for conn in self.dirty:
            conn.flush()
        self.dirty.clear()

    def _handle_lines(self, conn: _Connection, chunk: bytes) -> None:
        """One read's lines (``chunk``, without its last newline): the
        query lines decoded in one pass and admitted as one batch,
        every other line on its own."""
        batch, rest, count = decode_queries(chunk, MAX_LINE_BYTES)
        obs = OBS.enabled
        if obs and count:
            _C_REQUESTS.inc(count)
        for line in rest:
            self._handle_line(conn, line)
        if batch.us:
            self._admit_queries(conn, batch)

    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        """A line the batch decode left: decoded and answered alone."""
        try:
            if len(line) > MAX_LINE_BYTES:
                raise ProtocolError(
                    f"request line longer than {MAX_LINE_BYTES} bytes"
                )
            request = parse_request(
                line.strip().decode("utf-8", errors="replace")
            )
        except ProtocolError as exc:
            self._refuse(conn, exc.request_id, str(exc))
            return
        if request.op in QUERY_OPS:
            self._admit_queries(conn, QueryBatch(
                [request.id], [request.op], [request.u], [request.v],
                [request.deadline_ms],
            ))
        elif request.op in MUTATION_OPS:
            self._start_mutation(conn, request)
        else:
            conn.send(self._handle_admin(request))
            if request.op == "shutdown":
                self.request_stop()

    def _refuse(self, conn: _Connection, request_id: Any, error: str) -> None:
        if OBS.enabled:
            _C_BAD_REQUESTS.inc()
        conn.send(make_response(
            request_id, "error", error=error, service=self._service_block(),
        ))

    def _admit_queries(self, conn: _Connection, batch: QueryBatch) -> None:
        """Refuse the queries naming unknown points; admit the rest as
        one batch, at one loop-clock reading."""
        service = self.service
        n = service.metric.n
        us, vs = batch.us, batch.vs
        if max(us) >= n or max(vs) >= n or service.dynamic is not None:
            keep = []
            for j, (u, v) in enumerate(zip(us, vs)):
                if not (u < n and v < n):
                    error = f"point ids must lie in [0, {n}), got ({u}, {v})"
                elif not (service.is_known_point(u)
                          and service.is_known_point(v)):
                    error = (
                        f"pair ({u}, {v}) references a deleted "
                        "(tombstoned) point; only live points are queryable"
                    )
                else:
                    keep.append(j)
                    continue
                self._refuse(conn, batch.ids[j], error)
            if not keep:
                return
            if len(keep) < len(us):
                batch = batch.take(keep)
        now = self.loop.time()
        batch.admitted_at = now
        batch.deadlines = self.policy.deadlines_at(now, batch.deadline_ms)
        batch.sink = conn.deliver
        conn.unanswered += len(batch)
        self.batcher.admit(batch)

    def _start_mutation(self, conn: _Connection, request: Request) -> None:
        """Run a mutation on the default executor; answer when it ends.

        The patch is heavy CPU work serialized by the service's mutate
        lock, and the event loop must keep pumping in-flight query
        batches (which answer on the pre-mutation snapshot) meanwhile.
        """
        conn.unanswered += 1

        def done(future: "asyncio.Future") -> None:
            error = future.exception()
            conn.answer(request.id, future.result() if error is None else
                        {"status": "error", "result": None,
                         "error": str(error)})
            self._write_answers()

        self.loop.run_in_executor(
            None, self._handle_mutation, request
        ).add_done_callback(done)

    def _handle_admin(self, request: Request) -> Dict[str, Any]:
        op, extra = request.op, request.extra
        if op == "ping":
            result = {"pong": True}
        elif op == "health":
            result = self.health()
        elif op == "metrics":
            result = {
                "content_type": "text/plain; version=0.0.4",
                "text": OBS.registry.export_prom_text(),
            }
        elif op == "chaos":
            kill = extra.get("kill")
            kill_random = extra.get("kill_random", 0)
            error = None
            if kill is not None and not (
                isinstance(kill, list)
                and all(isinstance(i, int) and not isinstance(i, bool)
                        for i in kill)
            ):
                error = (f"chaos field 'kill' must be a list of tree "
                         f"indexes, got {kill!r}")
            elif isinstance(kill_random, bool) or not isinstance(
                kill_random, int
            ):
                error = (f"chaos field 'kill_random' must be an int, "
                         f"got {kill_random!r}")
            if error is not None:
                return make_response(
                    request.id, "error", error=error,
                    service=self._service_block(),
                )
            result = self.chaos.inject(
                kill=kill,
                kill_random=kill_random,
                seed=int(extra.get("seed", 0)),
                recover=bool(extra.get("recover", True)),
            )
        else:  # shutdown — acknowledged here, enacted by the caller.
            result = {"stopping": True}
        return make_response(
            request.id, "ok", result=result, service=self._service_block(),
        )

    def _handle_mutation(self, request: Request) -> Dict[str, Any]:
        """insert / delete / compact, serialized by the service: the
        answer's payload.

        Runs on an executor thread.  The service journals (fsync) before
        patching and swaps the generation atomically; query batches in
        flight keep answering on the pre-mutation snapshot.  Refusals
        are typed: mapped (read-only) service answers ``undelivered``
        with a "memory-mapped" explanation, invalid mutations (duplicate
        insert, deleting a dead id, mutation without dynamic mode)
        answer ``error``.
        """
        try:
            if request.op == "insert":
                result = self.service.insert(request.extra["point"])
            elif request.op == "delete":
                result = self.service.delete(request.extra["point_id"])
            else:
                result = self.service.compact()
        except ValueError as exc:
            if OBS.enabled:
                _C_BAD_REQUESTS.inc()
            refused = "unavailable in mapped mode" in str(exc)
            return {"status": "undelivered" if refused else "error",
                    "result": None, "error": str(exc)}
        return {"status": "ok", "result": result}

    # -- HTTP facade -----------------------------------------------------

    def _http_response(self, head: bytes) -> bytes:
        """The whole HTTP/1.0 response to a request ``head``."""
        words = head.split(b"\n", 1)[0].split()
        target = words[1] if len(words) > 1 else b"/"
        path = target.split(b"?", 1)[0].decode("ascii", errors="replace")
        if path == "/metrics":
            status, content_type = "200 OK", "text/plain; version=0.0.4"
            body = OBS.registry.export_prom_text()
        elif path in ("/healthz", "/readyz"):
            health = self.health()
            status = "200 OK" if path == "/healthz" or health["ready"] \
                else "503 Service Unavailable"
            content_type, body = "application/json", json.dumps(health) + "\n"
        else:
            status, content_type = "404 Not Found", "text/plain"
            body = "unknown path; try /healthz /readyz /metrics\n"
        payload = body.encode("utf-8")
        return (
            f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii") + payload


class ThreadedServer:
    """Run a :class:`SpannerServer` on a dedicated background thread.

    Context-manager style::

        with ThreadedServer(service) as ts:
            client = ServeClient(ts.host, ts.port)
            ...

    The event loop lives entirely on the thread; ``stop()`` (or context
    exit) requests a clean shutdown and joins it.
    """

    def __init__(self, service: CheckpointService, **server_kwargs: Any):
        self.server = SpannerServer(service, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 30.0) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("serve thread did not come up in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        async def _main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                raise
            finally:
                self._ready.set()
            await self.server.serve_until_stopped()

        try:
            asyncio.run(_main())
        except Exception:
            if not self._ready.is_set():  # startup failure already kept
                self._ready.set()

    def stop(self, timeout: float = 30.0) -> None:
        loop = self.server.loop
        if loop is not None and self._thread is not None:
            try:
                loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
