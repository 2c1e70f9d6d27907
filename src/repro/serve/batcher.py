"""The admission controller: bounded queue, micro-batches, deadlines.

BENCH_navigation shows the batched query kernels run ~24x faster than
scalar queries; the :class:`MicroBatcher` is what converts concurrent
single-pair requests into those batches without giving up tail-latency
control.  It is a pure asyncio component with an injectable ``execute``
callable, so every admission behavior — work-conserving flushes,
inline vs offloaded batches, shedding, deadline expiry,
retry-with-backoff — unit tests deterministically against a fake
executor, independent of the navigation stack.

Lifecycle: requests enter through :meth:`MicroBatcher.admit`, which
takes a reply sink — a ``sink(token, payload)`` callable — instead of
returning anything.  Every request is answered exactly once through its
sink: at once when it is shed or already expired, else when its batch
resolves or its deadline passes.  The server's sink appends the
response to the connection's output buffer; :meth:`MicroBatcher.submit`
is a thin awaitable wrapper for tests and embedders whose sink settles
a future.  A single flusher task drains the queue into per-op batches.
The flusher never waits for company: as soon as the previous batch
returns it takes everything queued, up to ``max_batch``, so requests
that arrive while a batch runs form the next one.

Deadlines cost one loop timer, not one per request: it is armed at the
earliest deadline over the queued and in-flight requests, and when it
fires it expires every request whose deadline has passed, wherever it
is.  A request expired mid-batch is answered ``timeout`` at once and
its computed answer is dropped when the batch returns.

A batch runs on the event loop itself when the previous batch of the
same op took less than one GIL switch interval
(:func:`sys.getswitchinterval`): a worker thread holding the GIL for
less than that does not let the loop run meanwhile, so the thread hop
would only add latency.  The first batch of an op, batches after a
slower one, and batches that must first build per-generation state
(``needs_setup``) run on the loop's default thread pool, so heavy work
never blocks admission.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..observability import OBS
from .policy import AdmissionPolicy

__all__ = ["MicroBatcher"]

# Executor contract: (op, [(u, v), ...]) -> one payload dict per pair,
# in input order.  Payloads carry at least {"status", "result"}.
BatchExecutor = Callable[[str, List[Tuple[int, int]]], List[Dict[str, Any]]]

#: ``sink(token, payload)``: delivers one request's payload; ``token``
#: is whatever the admitter passed (the server passes the request id).
ReplySink = Callable[[Any, Dict[str, Any]], None]

_G_QUEUE_DEPTH = OBS.registry.gauge("serve.queue_depth")
_H_BATCH_SIZE = OBS.registry.histogram("serve.batch_size")
_H_BATCH_US = OBS.registry.histogram("serve.batch_latency_us")
_H_REQUEST_US = OBS.registry.histogram("serve.request_latency_us")
_C_ADMITTED = OBS.registry.counter("serve.admitted")
_C_SHED = OBS.registry.counter("serve.shed")
_C_TIMEOUTS = OBS.registry.counter("serve.timeouts")
_C_RETRIES = OBS.registry.counter("serve.retries")
_C_FAILURES = OBS.registry.counter("serve.batch_failures")
_C_INLINE = OBS.registry.counter("serve.batches_inline")
_C_OFFLOADED = OBS.registry.counter("serve.batches_offloaded")


class _Pending:
    """One admitted request waiting for (or riding in) a batch.

    ``sink`` is cleared once the request is answered (or abandoned), so
    a request is never answered twice.
    """

    __slots__ = ("op", "u", "v", "deadline", "sink", "token", "admitted_at")

    def __init__(self, op: str, u: int, v: int, deadline: float,
                 sink: Optional[ReplySink], token: Any, admitted_at: float):
        self.op = op
        self.u = u
        self.v = v
        self.deadline = deadline
        self.sink = sink
        self.token = token
        self.admitted_at = admitted_at


def _settle(future: "asyncio.Future", payload: Dict[str, Any]) -> None:
    if not future.done():
        future.set_result(payload)


class MicroBatcher:
    """Coalesce concurrent requests into bounded micro-batches.

    Parameters
    ----------
    execute:
        ``(op, pairs) -> payloads`` — synchronous, called on the event
        loop or on a worker thread (see the module docstring).
        Exceptions are treated as transient and retried per the policy
        before the batch's requests fail with ``error``.
    policy:
        The :class:`~repro.serve.policy.AdmissionPolicy` in force.
    needs_setup:
        Optional ``op -> bool``: True when the next batch of ``op``
        must first build state the executor has not cached, so it runs
        on a worker thread however fast the previous batch was.
    """

    def __init__(
        self,
        execute: BatchExecutor,
        policy: AdmissionPolicy,
        needs_setup: Optional[Callable[[str], bool]] = None,
    ):
        self._execute = execute
        self.policy = policy
        self._needs_setup = needs_setup
        self._queue: Deque[_Pending] = deque()
        #: The batch being computed (its requests can still expire).
        self._inflight: List[_Pending] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._have_work: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._running = False
        #: The deadline timer and the time it is armed for: never later
        #: than the earliest deadline of an unanswered request.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_at = math.inf
        #: op -> wall seconds the last batch of that op took.
        self._last_seconds: Dict[str, float] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._have_work = asyncio.Event()
        self._running = True
        self._task = asyncio.ensure_future(self._flush_loop())

    async def stop(self) -> None:
        """Stop flushing; unresolved requests fail fast with ``error``."""
        self._running = False
        inflight = self._inflight  # cleared as the cancelled batch unwinds
        if self._have_work is not None:
            self._have_work.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer, self._timer_at = None, math.inf
        stranded = [*inflight, *self._queue]
        self._queue.clear()
        self._resolve(stranded, [
            {"status": "error", "result": None,
             "error": "server shutting down"}
            for _ in stranded
        ])
        if OBS.enabled:
            _G_QUEUE_DEPTH.set(0)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- admission -------------------------------------------------------

    def admit(
        self, op: str, u: int, v: int, deadline: float,
        sink: ReplySink, token: Any = None,
    ) -> Optional[_Pending]:
        """Admit one request; its payload goes to ``sink(token, payload)``.

        ``deadline`` is absolute, on the event-loop clock.  A full queue
        answers ``overloaded`` and a passed deadline ``timeout``, both
        before this returns (and then it returns ``None``); otherwise
        the request is queued and its handle returned.
        """
        obs = OBS.enabled
        if len(self._queue) >= self.policy.max_queue:
            if obs:
                _C_SHED.inc()
            sink(token, {
                "status": "overloaded", "result": None,
                "error": (
                    f"admission queue full "
                    f"({self.policy.max_queue} requests waiting)"
                ),
            })
            return None
        now = self._loop.time()
        if deadline <= now:
            if obs:
                _C_TIMEOUTS.inc()
            sink(token, {
                "status": "timeout", "result": None,
                "error": "deadline expired before admission",
            })
            return None
        item = _Pending(op, u, v, deadline, sink, token, now)
        self._queue.append(item)
        if deadline < self._timer_at:
            self._arm(deadline)
        if obs:
            _C_ADMITTED.inc()
            _G_QUEUE_DEPTH.set(len(self._queue))
        self._have_work.set()
        return item

    async def submit(
        self, op: str, u: int, v: int, deadline: float
    ) -> Dict[str, Any]:
        """Admit one request and await its payload (see :meth:`admit`)."""
        future = self._loop.create_future()
        item = self.admit(op, u, v, deadline, _settle, future)
        try:
            return await future
        except asyncio.CancelledError:
            if item is not None:
                item.sink = None  # abandoned: never computed or answered
            raise

    # -- deadlines -------------------------------------------------------

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer_at = when
        self._timer = self._loop.call_at(when, self._on_deadline)

    def _on_deadline(self) -> None:
        """Expire every request past its deadline; re-arm for the rest."""
        # The loop may fire a timer up to its clock resolution early;
        # the deadlines it was armed for count as passed regardless.
        now = max(self._loop.time(), self._timer_at)
        self._timer, self._timer_at = None, math.inf
        earliest = math.inf
        kept: Deque[_Pending] = deque()
        for item in self._queue:
            if item.sink is None:
                continue
            if item.deadline <= now:
                self._expire(item, "in the admission queue")
            else:
                kept.append(item)
                earliest = min(earliest, item.deadline)
        self._queue = kept
        for item in self._inflight:
            if item.sink is None:
                continue
            if item.deadline <= now:
                self._expire(item, "before the batch completed")
            else:
                earliest = min(earliest, item.deadline)
        if earliest < math.inf:
            self._arm(earliest)
        if OBS.enabled:
            _G_QUEUE_DEPTH.set(len(self._queue))

    def _expire(self, item: _Pending, where: str) -> None:
        if OBS.enabled:
            _C_TIMEOUTS.inc()
        sink, item.sink = item.sink, None
        sink(item.token, {
            "status": "timeout", "result": None,
            "error": (
                f"deadline of {(item.deadline - item.admitted_at) * 1000:.1f}"
                f"ms expired {where}"
            ),
        })

    # -- flushing --------------------------------------------------------

    async def _flush_loop(self) -> None:
        while self._running:
            await self._have_work.wait()
            if not self._running:
                break
            batch: List[_Pending] = []
            now = self._loop.time()
            while self._queue and len(batch) < self.policy.max_batch:
                item = self._queue.popleft()
                if item.sink is None:  # abandoned
                    continue
                if item.deadline <= now:  # its timer has not run yet
                    self._expire(item, "in the admission queue")
                    continue
                batch.append(item)
            if not self._queue:
                self._have_work.clear()
            if OBS.enabled:
                _G_QUEUE_DEPTH.set(len(self._queue))
            if batch:
                self._inflight = batch
                try:
                    await self._run_batch(batch)
                finally:
                    self._inflight = []
            # Let the connections write the answers, and the loop read
            # new requests, before the next batch is taken.
            await asyncio.sleep(0)

    async def _run_batch(self, batch: List[_Pending]) -> None:
        by_op: Dict[str, List[_Pending]] = {}
        for item in batch:
            by_op.setdefault(item.op, []).append(item)
        for op, items in by_op.items():
            pairs = [(item.u, item.v) for item in items]
            payloads = await self._execute_with_retry(op, pairs)
            if payloads is None or len(payloads) != len(items):
                message = (
                    "batch execution failed after "
                    f"{self.policy.max_retries + 1} attempts"
                    if payloads is None
                    else f"executor returned {len(payloads)} payloads "
                         f"for {len(items)} requests"
                )
                payloads = [
                    {"status": "error", "result": None, "error": message}
                    for _ in items
                ]
            self._resolve(items, payloads)

    def _runs_inline(self, op: str) -> bool:
        """Run on the loop: the last ``op`` batch beat the switch interval."""
        last = self._last_seconds.get(op)
        if last is None or last >= sys.getswitchinterval():
            return False
        return self._needs_setup is None or not self._needs_setup(op)

    async def _execute_with_retry(
        self, op: str, pairs: List[Tuple[int, int]]
    ) -> Optional[List[Dict[str, Any]]]:
        obs = OBS.enabled
        for attempt in range(self.policy.max_retries + 1):
            inline = self._runs_inline(op)
            if obs:
                (_C_INLINE if inline else _C_OFFLOADED).inc()
            start = time.perf_counter()
            try:
                if inline:
                    payloads = self._execute(op, pairs)
                else:
                    payloads = await self._loop.run_in_executor(
                        None, self._execute, op, pairs
                    )
            except Exception:
                if obs:
                    _C_RETRIES.inc()
                if attempt >= self.policy.max_retries:
                    if obs:
                        _C_FAILURES.inc()
                    return None
                await asyncio.sleep(self.policy.backoff_delay(attempt))
                continue
            seconds = time.perf_counter() - start
            self._last_seconds[op] = seconds
            if obs:
                _H_BATCH_SIZE.observe(len(pairs))
                _H_BATCH_US.observe(seconds * 1e6)
            return payloads
        return None

    def _resolve(
        self, items: List[_Pending], payloads: List[Dict[str, Any]]
    ) -> None:
        """Answer each request with its payload; their latencies go to
        the histogram in one call."""
        if not items:
            return
        latencies: Optional[List[float]] = [] if OBS.enabled else None
        clock = self._loop.time
        for item, payload in zip(items, payloads):
            sink = item.sink
            if sink is None:  # expired, or its submitter went away
                continue
            item.sink = None
            if latencies is not None:
                latencies.append((clock() - item.admitted_at) * 1e6)
            sink(item.token, payload)
        if latencies:
            _H_REQUEST_US.observe_many(latencies)
