"""One-thread, one-connection NDJSON load generator for ``repro serve``.

Responses may arrive out of order; they are matched to requests by id.
Every sent request is kept as a :class:`Sample` with its due, send and
receive times (``time.perf_counter`` seconds) and the decoded response,
so answers can be checked after timing ends.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: Seconds to wait for outstanding responses once sending has stopped.
DRAIN_TIMEOUT = 30.0


@dataclass
class Sample:
    id: int
    op: str
    body: Dict[str, Any]
    phase: str
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: Optional[Dict[str, Any]] = None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its response."""
        return self.received - self.due


class Connection:
    """A non-blocking socket with a write buffer and a line reader."""

    def __init__(self, host: str, port: int):
        self.samples: Dict[int, Sample] = {}
        self.sock = socket.create_connection((host, port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._out = bytearray()
        self._in = b""
        self._next_id = 0
        self.outstanding = 0
        #: Thread CPU seconds spent encoding requests: fixed work per
        #: request that nothing in the daemon changes, so per request it
        #: reads the host's speed (``hostspeed.py``).
        self.encode_cpu_s = 0.0
        #: Called with every answered sample, so a closed-loop stream
        #: (the churn ingester) can ride along an open-loop one.
        self.listener: Optional[Callable[[Sample], None]] = None

    def close(self) -> None:
        self.sock.close()

    def send(self, op: str, body: Dict[str, Any], phase: str,
             due: Optional[float] = None) -> Sample:
        self._next_id += 1
        now = time.perf_counter()
        sample = Sample(self._next_id, op, body, phase,
                        now if due is None else due, sent=now)
        self.samples[sample.id] = sample
        cpu = time.thread_time()
        payload = dict(body, id=sample.id, op=op)
        line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        self.encode_cpu_s += time.thread_time() - cpu
        self._out += line
        self.outstanding += 1
        self._flush()
        return sample

    def _flush(self) -> None:
        while self._out:
            try:
                sent = self.sock.send(self._out)
            except BlockingIOError:
                return
            del self._out[:sent]

    def poll(self, timeout: float, spin: bool = False) -> List[Sample]:
        """Wait up to ``timeout`` seconds; return the samples answered.

        With ``spin`` the wait spins instead of sleeping.  The benchmark
        shares one CPU with the daemon; if that vCPU halts while both
        wait, a busy hypervisor wakes it late, and the daemon's flush
        timer and the next open-loop send are late with it.
        ``sched_yield`` hands the CPU to the daemon whenever it has work.
        """
        deadline = time.perf_counter() + timeout
        writers = [self.sock] if self._out else []
        while True:
            readable, writable, _ = select.select(
                [self.sock], writers, [],
                0 if spin else max(deadline - time.perf_counter(), 0.0))
            if readable or writable or time.perf_counter() >= deadline:
                break
            os.sched_yield()
        if writable:
            self._flush()
        if not readable:
            return []
        now = time.perf_counter()
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._in += chunk
        *lines, self._in = self._in.split(b"\n")
        done = []
        for line in lines:
            if not line:
                continue
            response = json.loads(line)
            sample = self.samples[response["id"]]
            sample.received = now
            sample.response = response
            self.outstanding -= 1
            done.append(sample)
            if self.listener is not None:
                self.listener(sample)
        return done

    def call(self, op: str, body: Optional[Dict[str, Any]] = None,
             timeout: float = DRAIN_TIMEOUT) -> Dict[str, Any]:
        """One request, waited for (admin ops between phases)."""
        sample = self.send(op, body or {}, phase="admin")
        deadline = time.perf_counter() + timeout
        while sample.response is None:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no response to {op!r}")
            self.poll(deadline - time.perf_counter())
        return sample.response

    def drain(self, timeout: float = DRAIN_TIMEOUT, spin: bool = False) -> None:
        deadline = time.perf_counter() + timeout
        while self.outstanding and time.perf_counter() < deadline:
            self.poll(deadline - time.perf_counter(), spin)


def query_body(rng: random.Random, n: int, path_share: float):
    """A uniform query pair; ``path`` with probability ``path_share``."""
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    if v >= u:
        v += 1
    op = "path" if rng.random() < path_share else "distance"
    return op, {"u": u, "v": v}


def open_loop(conn: Connection, rate: float, seconds: float,
              next_request: Callable[[], tuple], phase: str) -> List[Sample]:
    """Send at fixed spacing for ``seconds``; latency runs from due time.

    Returns once the last request is sent; the caller drains.
    """
    start = time.perf_counter()
    sent: List[Sample] = []
    for i in range(int(rate * seconds)):
        due = start + i / rate
        now = time.perf_counter()
        while now < due:
            conn.poll(due - now, spin=True)
            now = time.perf_counter()
        op, body = next_request()
        sent.append(conn.send(op, body, phase, due=due))
    return sent


def closed_loop(conn: Connection, window: int, count: int,
                next_request: Callable[[], tuple], phase: str) -> List[Sample]:
    """Send ``count`` requests, ``window`` in flight at a time; drain.

    A fixed count, not a fixed time, keeps the request stream (and so
    the set of answers checked) the same on every run of one seed.
    """
    sent: List[Sample] = []
    for _ in range(min(window, count)):
        sent.append(conn.send(*next_request(), phase))
    progress = time.perf_counter()
    while len(sent) < count:
        answered = conn.poll(DRAIN_TIMEOUT)
        now = time.perf_counter()
        if answered:
            progress = now
        elif now - progress > DRAIN_TIMEOUT:
            raise TimeoutError(f"no answer in {DRAIN_TIMEOUT} s")
        for _ in answered:
            if len(sent) < count:
                sent.append(conn.send(*next_request(), phase))
    conn.drain()
    return sent


class Ingester:
    """Closed-loop insert/delete stream with one request outstanding.

    Alternates an insert of a uniform point in [0, 1000]² with a delete
    of the point that insert created.  The id to delete comes from the
    insert reply only: a delete reply carries the deleted ``point_id``
    too, and reusing it would send deletes of tombstones.
    """

    def __init__(self, conn: Connection, rng: random.Random):
        self.conn = conn
        self.rng = rng
        self.inserted: Optional[int] = None
        self.coords: Dict[int, List[float]] = {}
        self.sent: List[Sample] = []
        self.running = True

    def send_next(self) -> None:
        if self.inserted is not None:
            body = {"point_id": self.inserted}
            self.inserted = None
            self.sent.append(self.conn.send("delete", body, "ingest"))
        else:
            point = [self.rng.uniform(0.0, 1000.0),
                     self.rng.uniform(0.0, 1000.0)]
            self.sent.append(self.conn.send("insert", {"point": point},
                                            "ingest"))

    def on_response(self, sample: Sample) -> None:
        """The connection listener: note the insert's id, then send the
        next request."""
        if sample.phase != "ingest":
            return
        if sample.op == "insert" and sample.response["status"] == "ok":
            point_id = sample.response["result"]["point_id"]
            self.coords[point_id] = sample.body["point"]
            self.inserted = point_id
        if self.running:
            self.send_next()
