"""The asyncio daemon front: NDJSON queries plus an HTTP side door.

:class:`SpannerServer` ties the pieces together: connections speak the
line protocol (:mod:`repro.serve.protocol`), query ops flow through the
:class:`~repro.serve.batcher.MicroBatcher` into the
:class:`~repro.serve.engine.QueryEngine`, admin ops answer inline, and
the :class:`~repro.serve.chaos.ChaosController` provides the
live-traffic failure mode.  Every response envelope carries the
service block (ready/degraded/recovering + generation), so clients see
degradation and recovery happen request by request.

The query path is batch-native from the socket to the socket: a
connection's reader parses whatever bytes are ready and admits each
query straight into the batcher with the connection as its reply sink
(no task, future or timer per request), and the answers of a batch
leave in one socket write per connection.  Admin and mutation lines
take a per-line task; they are rare.

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
from typing import Any, Dict, List, Optional, Set, Tuple

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
    ProtocolError,
    Request,
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
#: Bytes taken from a connection's socket per read.
_READ_CHUNK = 1 << 16
#: A connection's reader stops reading new requests while more than
#: this many answer bytes wait in its socket's write buffer.
_DRAIN_HIGH_WATER = 1 << 16


class _Connection:
    """The reply side of one client connection.

    :meth:`answer` is the reply sink the batcher delivers to.  Answers
    collect in ``out`` and leave in one ``writer.write`` per loop turn,
    so a batch costs each connection it touches one socket write, not
    one per request.
    """

    __slots__ = ("server", "writer", "loop", "out", "flush_scheduled",
                 "unanswered", "idle", "tasks")

    def __init__(self, server: "SpannerServer",
                 writer: asyncio.StreamWriter):
        self.server = server
        self.writer = writer
        self.loop = asyncio.get_running_loop()
        self.out: List[bytes] = []
        self.flush_scheduled = False
        #: Queries admitted and not yet answered.
        self.unanswered = 0
        #: Set at end of input while answers are outstanding.
        self.idle: Optional[asyncio.Future] = None
        #: Admin and mutation lines in progress.
        self.tasks: Set[asyncio.Task] = set()

    def answer(self, request_id: Any, payload: Dict[str, Any]) -> None:
        """The batcher's reply sink: one query's payload, as a response."""
        # Batches stamp the snapshot that answered them, encoded once
        # per batch; admission failures (shed/timeout) fall back to the
        # current level.
        service = payload.get("service")
        if service:
            service_json = payload.get("service_json")
        else:
            service, service_json = self.server._service_block(), None
        self.send(make_response(
            request_id,
            payload.get("status", "error"),
            result=payload.get("result"),
            error=payload.get("error"),
            service=service,
        ), service_json)
        self.unanswered -= 1
        if not self.unanswered and self.idle is not None \
                and not self.idle.done():
            self.idle.set_result(None)

    def send(
        self, response: Dict[str, Any], service_json: Optional[str] = None
    ) -> None:
        self.out.append(encode_line(response, service_json))
        if not self.flush_scheduled:
            self.flush_scheduled = True
            self.loop.call_soon(self.flush)

    def flush(self) -> None:
        self.flush_scheduled = False
        if self.out:
            data = b"".join(self.out)
            self.out.clear()
            if not self.writer.is_closing():
                self.writer.write(data)

    async def finish(self) -> None:
        """After end of input: wait for every answer, then write them."""
        if self.unanswered:
            self.idle = self.loop.create_future()
            await self.idle
        if self.tasks:
            await asyncio.gather(*self.tasks, return_exceptions=True)
        self.flush()
        await self.writer.drain()


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
        )
        self.chaos = ChaosController(service)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._started_at = time.monotonic()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._stop_event = asyncio.Event()
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.requested_host, self.requested_port
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
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.batcher.stop()
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
        status = self.service.status()
        status["degraded"] = status["state"] != "ready"
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

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if OBS.enabled:
            _C_CONNECTIONS.inc()
        conn = _Connection(self, writer)
        try:
            data = await reader.read(_READ_CHUNK)
            # Enough of the first line to tell HTTP from NDJSON.
            while data and len(data) < 5 and b"\n" not in data:
                more = await reader.read(_READ_CHUNK)
                if not more:
                    break
                data += more
            if data.startswith((b"GET ", b"HEAD ")):
                await self._handle_http(data, reader, writer)
                return
            await self._read_requests(conn, reader, data)
            await conn.finish()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for task in conn.tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_requests(
        self, conn: "_Connection", reader: asyncio.StreamReader, data: bytes
    ) -> None:
        """Admit every line the client sends, a chunk of bytes at a time.

        A line longer than :data:`MAX_LINE_BYTES` is answered with an
        ``error`` envelope and skipped up to its newline; the
        connection keeps serving.  The reader waits for the client to
        take its answers only once the socket's write buffer passes
        :data:`_DRAIN_HIGH_WATER`.
        """
        partial = b""
        skipping = False
        transport = conn.writer.transport
        while data:
            if skipping:
                newline = data.find(b"\n")
                if newline < 0:
                    data = await reader.read(_READ_CHUNK)
                    continue
                data, skipping = data[newline + 1:], False
            lines = (partial + data if partial else data).split(b"\n")
            partial = lines.pop()
            for line in lines:
                self._handle_line(conn, line)
            if len(partial) > MAX_LINE_BYTES:
                self._handle_line(conn, partial)
                partial, skipping = b"", True
            if transport.get_write_buffer_size() > _DRAIN_HIGH_WATER:
                conn.flush()
                await conn.writer.drain()
            data = await reader.read(_READ_CHUNK)
        if partial and not skipping:
            self._handle_line(conn, partial)  # a last line without newline

    def _handle_line(self, conn: "_Connection", line: bytes) -> None:
        stripped = line.strip()
        if not stripped:
            return
        if OBS.enabled:
            _C_REQUESTS.inc()
        try:
            if len(line) > MAX_LINE_BYTES:
                raise ProtocolError(
                    f"request line longer than {MAX_LINE_BYTES} bytes"
                )
            request = parse_request(stripped.decode("utf-8", errors="replace"))
        except ProtocolError as exc:
            if OBS.enabled:
                _C_BAD_REQUESTS.inc()
            conn.send(make_response(
                exc.request_id, "error", error=str(exc),
                service=self._service_block(),
            ))
            return
        if request.op in QUERY_OPS:
            self._admit_query(conn, request)
            return
        task = asyncio.ensure_future(self._handle_request(conn, request))
        conn.tasks.add(task)
        self._conn_tasks.add(task)
        task.add_done_callback(conn.tasks.discard)
        task.add_done_callback(self._conn_tasks.discard)

    def _admit_query(self, conn: "_Connection", request: Request) -> None:
        n = self.service.metric.n
        error = None
        if not (0 <= request.u < n and 0 <= request.v < n):
            error = (
                f"point ids must lie in [0, {n}), "
                f"got ({request.u}, {request.v})"
            )
        elif not (
            self.service.is_known_point(request.u)
            and self.service.is_known_point(request.v)
        ):
            error = (
                f"pair ({request.u}, {request.v}) references a deleted "
                "(tombstoned) point; only live points are queryable"
            )
        if error is not None:
            if OBS.enabled:
                _C_BAD_REQUESTS.inc()
            conn.send(make_response(
                request.id, "error", error=error,
                service=self._service_block(),
            ))
            return
        deadline = self.policy.deadline_at(conn.loop.time(), request.deadline_ms)
        conn.unanswered += 1
        self.batcher.admit(
            request.op, request.u, request.v, deadline,
            conn.answer, request.id,
        )

    async def _handle_request(
        self, conn: "_Connection", request: Request
    ) -> None:
        """The per-line path of admin and mutation ops."""
        if request.op in MUTATION_OPS:
            # Mutations run on the default executor: the patch is heavy
            # CPU work serialized by the service's mutate lock, and the
            # event loop must keep pumping in-flight query batches (which
            # answer on the pre-mutation snapshot) meanwhile.
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                None, self._handle_mutation, request
            )
        else:
            response = self._handle_admin(request)
        conn.send(response)
        if request.op == "shutdown":
            conn.flush()
            try:
                await conn.writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            self.request_stop()

    def _handle_admin(self, request: Request) -> Dict[str, Any]:
        if request.op == "ping":
            return make_response(
                request.id, "ok", result={"pong": True},
                service=self._service_block(),
            )
        if request.op == "health":
            return make_response(
                request.id, "ok", result=self.health(),
                service=self._service_block(),
            )
        if request.op == "metrics":
            return make_response(
                request.id, "ok",
                result={
                    "content_type": "text/plain; version=0.0.4",
                    "text": OBS.registry.export_prom_text(),
                },
                service=self._service_block(),
            )
        if request.op == "chaos":
            extra = request.extra
            kill = extra.get("kill")
            if kill is not None and not (
                isinstance(kill, list)
                and all(isinstance(i, int) and not isinstance(i, bool)
                        for i in kill)
            ):
                return make_response(
                    request.id, "error",
                    error=f"chaos field 'kill' must be a list of tree "
                          f"indexes, got {kill!r}",
                    service=self._service_block(),
                )
            kill_random = extra.get("kill_random", 0)
            if isinstance(kill_random, bool) or not isinstance(kill_random, int):
                return make_response(
                    request.id, "error",
                    error=f"chaos field 'kill_random' must be an int, "
                          f"got {kill_random!r}",
                    service=self._service_block(),
                )
            outcome = self.chaos.inject(
                kill=kill,
                kill_random=kill_random,
                seed=int(extra.get("seed", 0)),
                recover=bool(extra.get("recover", True)),
            )
            return make_response(
                request.id, "ok", result=outcome,
                service=self._service_block(),
            )
        # shutdown — acknowledged here, enacted by the caller.
        return make_response(
            request.id, "ok", result={"stopping": True},
            service=self._service_block(),
        )

    def _handle_mutation(self, request: Request) -> Dict[str, Any]:
        """insert / delete / compact, serialized by the service.

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
            return make_response(
                request.id,
                "undelivered" if refused else "error",
                error=str(exc),
                service=self._service_block(),
            )
        return make_response(
            request.id, "ok", result=result, service=self._service_block(),
        )

    # -- HTTP facade -----------------------------------------------------

    async def _handle_http(
        self,
        head: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # Read the request headers (bounded) so the peer can write.
        while (
            b"\r\n\r\n" not in head and b"\n\n" not in head
            and len(head) <= MAX_LINE_BYTES
        ):
            more = await reader.read(_READ_CHUNK)
            if not more:
                break
            head += more
        first_line = head.split(b"\n", 1)[0]
        try:
            target = first_line.split()[1].decode("ascii", errors="replace")
        except IndexError:
            target = "/"
        path = target.split("?", 1)[0]
        if path == "/metrics":
            status, content_type = "200 OK", "text/plain; version=0.0.4"
            body = OBS.registry.export_prom_text()
        elif path == "/healthz":
            status, content_type = "200 OK", "application/json"
            body = json.dumps(self.health()) + "\n"
        elif path == "/readyz":
            health = self.health()
            status = "200 OK" if health["ready"] else "503 Service Unavailable"
            content_type = "application/json"
            body = json.dumps(health) + "\n"
        else:
            status, content_type = "404 Not Found", "text/plain"
            body = "unknown path; try /healthz /readyz /metrics\n"
        payload = body.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            + payload
        )
        await writer.drain()


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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
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
                self._loop = asyncio.get_running_loop()
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
        loop = self._loop
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
