"""The admission controller: bounded queue, micro-batches, deadlines.

BENCH_navigation shows the batched query kernels run ~24x faster than
scalar queries; the :class:`MicroBatcher` turns concurrent single-pair
requests into those batches without giving up tail-latency control.
Its ``execute`` callable is injected, so every admission behavior
unit tests deterministically against a fake executor.

Requests enter through :meth:`MicroBatcher.admit` with a reply sink, a
``sink(token, payload)`` callable, and are answered exactly once
through it: at once when shed or already expired, else when their
batch resolves or their deadline passes.  :meth:`MicroBatcher.submit`
is the awaitable wrapper for tests and embedders.

Batches run in :meth:`MicroBatcher.pump`, a plain call that takes
everything queued, up to ``max_batch`` and whatever the ops, as one
batch.  ``admit`` only queues: its caller pumps.  The server pumps at
the end of each socket read, so a query on an idle daemon is answered
in the loop turn that read it; ``submit`` pumps on the next turn,
after the other submits of its turn.  ``on_answered`` runs after every
pump, deadline sweep and stop, so the sinks' owner writes the answers
out once per batch.  Requests that arrive while a batch runs off the
loop queue up, and its completion pumps them as the next.

One loop timer, armed at the earliest deadline of an unanswered
request, expires every request past its deadline, queued or mid-batch
(whose computed answer is then dropped).

A batch runs on the loop when the last batch of each of its ops took
less than one GIL switch interval (:func:`sys.getswitchinterval`): a
worker thread holding the GIL for less than that does not let the loop
run meanwhile, so the thread hop would only add latency.  First
batches, batches after a slower one, and batches that must first build
state (``needs_setup``) run on the loop's default thread pool.  A batch
that raises is retried after its backoff from a loop timer.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from collections import deque
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union,
)

from ..observability import OBS
from .policy import AdmissionPolicy

__all__ = ["MicroBatcher"]

# Executor contract: (op, [(u, v), ...]) -> one payload dict per pair,
# in input order, each with at least {"status", "result"}; ``op`` is
# the batch's op, or a list of one op per pair for a mixed batch.
BatchExecutor = Callable[
    [Union[str, List[str]], List[Tuple[int, int]]], List[Dict[str, Any]]
]

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
        self.op, self.u, self.v, self.deadline = op, u, v, deadline
        self.sink, self.token, self.admitted_at = sink, token, admitted_at


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
    on_answered:
        Optional ``() -> None``, called on the loop after answers may
        have gone to sinks outside :meth:`admit`.
    """

    def __init__(
        self,
        execute: BatchExecutor,
        policy: AdmissionPolicy,
        needs_setup: Optional[Callable[[str], bool]] = None,
        on_answered: Optional[Callable[[], None]] = None,
    ):
        self._execute = execute
        self.policy = policy
        self._needs_setup = needs_setup
        self._on_answered = on_answered or (lambda: None)
        self._queue: Deque[_Pending] = deque()
        #: The batch running off the loop, or waiting out its backoff
        #: (its requests can still expire); empty when none is.
        self._inflight: List[_Pending] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = False
        #: The pump scheduled for the next loop turn, if any.
        self._pump_handle: Optional[asyncio.Handle] = None
        #: The deadline timer and the time it is armed for: never later
        #: than the earliest deadline of an unanswered request.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_at = math.inf
        #: op -> wall seconds the last batch with that op took.
        self._last_seconds: Dict[str, float] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._running = True

    async def stop(self) -> None:
        """Stop batching; unresolved requests fail fast with ``error``."""
        self._running = False
        for handle in filter(None, (self._pump_handle, self._timer)):
            handle.cancel()
        self._pump_handle, self._timer, self._timer_at = None, None, math.inf
        stranded = [*self._inflight, *self._queue]
        self._inflight = []
        self._queue.clear()
        self._fail(stranded, "server shutting down")
        if OBS.enabled:
            _G_QUEUE_DEPTH.set(0)
        self._on_answered()

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
        the request is queued for the caller's next :meth:`pump` and
        its handle is returned.
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
        return item

    async def submit(
        self, op: str, u: int, v: int, deadline: float
    ) -> Dict[str, Any]:
        """Admit one request and await its payload (see :meth:`admit`)."""
        future = self._loop.create_future()
        item = self.admit(op, u, v, deadline, _settle, future)
        self._pump_soon()  # after the other submits of this loop turn
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
        for items, where in ((self._queue, "in the admission queue"),
                             (self._inflight, "before the batch completed")):
            for item in items:
                if item.sink is None:  # answered, or abandoned
                    continue
                if item.deadline <= now:
                    self._expire(item, where)
                else:
                    earliest = min(earliest, item.deadline)
        self._queue = deque(item for item in self._queue if item.sink)
        if earliest < math.inf:
            self._arm(earliest)
        if OBS.enabled:
            _G_QUEUE_DEPTH.set(len(self._queue))
        self._on_answered()

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

    # -- batches ---------------------------------------------------------

    def pump(self) -> None:
        """Run the next batch, unless one is off the loop already.

        Takes everything queued, up to ``max_batch``, as one batch: it
        runs here when it is fast, else on the default executor.  Work
        still queued after it gets a pump on the next loop turn, so
        other connections read and join in between.
        """
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        queue = self._queue
        if self._running and not self._inflight and queue:
            batch: List[_Pending] = []
            now = self._loop.time()
            while queue and len(batch) < self.policy.max_batch:
                item = queue.popleft()
                if item.sink is None:  # abandoned
                    continue
                if item.deadline <= now:  # its timer has not run yet
                    self._expire(item, "in the admission queue")
                    continue
                batch.append(item)
            if OBS.enabled:
                _G_QUEUE_DEPTH.set(len(queue))
            if batch:
                self._run(batch, 0)
            if queue and not self._inflight:
                self._pump_soon()
        self._on_answered()

    def _pump_soon(self) -> None:
        if self._pump_handle is None:
            self._pump_handle = self._loop.call_soon(self.pump)

    def _run(self, batch: List[_Pending], attempt: int) -> None:
        """Execute ``batch`` here when it is fast, else on the executor."""
        kinds = {item.op for item in batch}
        op = batch[0].op if len(kinds) == 1 else [item.op for item in batch]
        pairs = [(item.u, item.v) for item in batch]
        inline = self._runs_inline(kinds)
        if OBS.enabled:
            (_C_INLINE if inline else _C_OFFLOADED).inc()
        start = time.perf_counter()
        if inline:
            try:
                payloads = self._execute(op, pairs)
            except Exception:
                payloads = None
            self._ran(batch, attempt, kinds, start, payloads)
            return
        self._inflight = batch

        def offloaded(future: "asyncio.Future") -> None:
            if not self._running or future.cancelled():
                return  # stop() has answered its requests
            self._inflight = []
            self._ran(batch, attempt, kinds, start,
                      None if future.exception() else future.result())
            self.pump()

        self._loop.run_in_executor(
            None, self._execute, op, pairs
        ).add_done_callback(offloaded)

    def _runs_inline(self, kinds: Set[str]) -> bool:
        """Run on the loop: the last batch of each op beat the switch
        interval, and none needs set-up."""
        interval = sys.getswitchinterval()
        return all(
            self._last_seconds.get(op, interval) < interval
            and not (self._needs_setup and self._needs_setup(op))
            for op in kinds
        )

    def _ran(
        self, batch: List[_Pending], attempt: int, kinds: Set[str],
        start: float, payloads: Optional[List[Dict[str, Any]]],
    ) -> None:
        """Resolve a batch; ``payloads`` is None when the executor raised,
        and the batch is retried after its backoff or fails."""
        obs = OBS.enabled
        if payloads is None:
            if obs:
                _C_RETRIES.inc()
            if attempt < self.policy.max_retries:
                self._inflight = batch  # its requests can still expire
                self._loop.call_later(
                    self.policy.backoff_delay(attempt), self._retry, batch,
                    attempt + 1,
                )
                return
            if obs:
                _C_FAILURES.inc()
            self._fail(batch, f"batch execution failed after {attempt + 1} "
                              "attempts")
            return
        seconds = time.perf_counter() - start
        for op in kinds:
            self._last_seconds[op] = seconds
        if obs:
            _H_BATCH_SIZE.observe(len(batch))
            _H_BATCH_US.observe(seconds * 1e6)
        if len(payloads) != len(batch):
            self._fail(batch, f"executor returned {len(payloads)} payloads "
                              f"for {len(batch)} requests")
            return
        self._resolve(batch, payloads)

    def _retry(self, batch: List[_Pending], attempt: int) -> None:
        if self._running:
            self._inflight = []
            self._run(batch, attempt)
            self.pump()

    def _fail(self, items: List[_Pending], message: str) -> None:
        self._resolve(items, [
            {"status": "error", "result": None, "error": message}
            for _ in items
        ])

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
