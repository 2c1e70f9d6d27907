"""The admission controller: bounded queue, micro-batches, deadlines.

BENCH_navigation shows the batched query kernels run ~24x faster than
scalar queries; the :class:`MicroBatcher` is what converts concurrent
single-pair requests into those batches without giving up tail-latency
control.  It is a pure asyncio component with an injectable ``execute``
callable, so every admission behavior — work-conserving flushes,
inline vs offloaded batches, shedding, deadline expiry,
retry-with-backoff — unit tests deterministically against a fake
executor, independent of the navigation stack.

Lifecycle: requests enter through :meth:`MicroBatcher.submit` (which
returns each request's resolved payload) and a single flusher task
drains the queue into per-op batches.  The flusher never waits for
company: as soon as the previous batch returns it takes everything
queued, up to ``max_batch``, so requests that arrive while a batch runs
form the next one.

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
import sys
import time
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, Tuple

from ..observability import OBS
from .policy import AdmissionPolicy

__all__ = ["MicroBatcher"]

# Executor contract: (op, [(u, v), ...]) -> one payload dict per pair,
# in input order.  Payloads carry at least {"status", "result"}.
BatchExecutor = Callable[[str, List[Tuple[int, int]]], List[Dict[str, Any]]]

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
    """One admitted request waiting for (or riding in) a batch."""

    __slots__ = ("op", "u", "v", "deadline", "future", "admitted_at")

    def __init__(self, op: str, u: int, v: int, deadline: float,
                 future: "asyncio.Future", admitted_at: float):
        self.op = op
        self.u = u
        self.v = v
        self.deadline = deadline
        self.future = future
        self.admitted_at = admitted_at


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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._have_work: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._running = False
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
        if self._have_work is not None:
            self._have_work.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while self._queue:
            item = self._queue.popleft()
            self._resolve(item, {
                "status": "error", "result": None,
                "error": "server shutting down",
            })
        if OBS.enabled:
            _G_QUEUE_DEPTH.set(0)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- admission -------------------------------------------------------

    async def submit(
        self, op: str, u: int, v: int, deadline: float
    ) -> Dict[str, Any]:
        """Admit one request; returns its resolved payload.

        Returns immediately with ``overloaded`` when the queue is full,
        and with ``timeout`` once ``deadline`` (absolute, event-loop
        clock) passes — whichever state the request is in.
        """
        obs = OBS.enabled
        if len(self._queue) >= self.policy.max_queue:
            if obs:
                _C_SHED.inc()
            return {
                "status": "overloaded", "result": None,
                "error": (
                    f"admission queue full "
                    f"({self.policy.max_queue} requests waiting)"
                ),
            }
        now = self._loop.time()
        remaining = deadline - now
        if remaining <= 0:
            if obs:
                _C_TIMEOUTS.inc()
            return {
                "status": "timeout", "result": None,
                "error": "deadline expired before admission",
            }
        item = _Pending(op, u, v, deadline, self._loop.create_future(), now)
        self._queue.append(item)
        if obs:
            _C_ADMITTED.inc()
            _G_QUEUE_DEPTH.set(len(self._queue))
        self._have_work.set()
        try:
            payload = await asyncio.wait_for(item.future, timeout=remaining)
        except asyncio.TimeoutError:
            # wait_for cancelled the future; the flusher skips it.
            if obs:
                _C_TIMEOUTS.inc()
            return {
                "status": "timeout", "result": None,
                "error": (
                    f"deadline of {remaining * 1000:.1f}ms expired "
                    "before the batch completed"
                ),
            }
        if obs:
            _H_REQUEST_US.observe((self._loop.time() - now) * 1e6)
        return payload

    # -- flushing --------------------------------------------------------

    async def _flush_loop(self) -> None:
        while self._running:
            await self._have_work.wait()
            if not self._running:
                break
            batch: List[_Pending] = []
            while self._queue and len(batch) < self.policy.max_batch:
                batch.append(self._queue.popleft())
            if not self._queue:
                self._have_work.clear()
            if OBS.enabled:
                _G_QUEUE_DEPTH.set(len(self._queue))
            live = self._drop_dead(batch)
            if live:
                await self._run_batch(live)
            # Let the resolved requests write their responses, and the
            # loop read new ones, before the next batch is taken.
            await asyncio.sleep(0)

    def _drop_dead(self, batch: List[_Pending]) -> List[_Pending]:
        """Shed abandoned/expired requests instead of computing them."""
        now = self._loop.time()
        live: List[_Pending] = []
        for item in batch:
            if item.future.done():  # submitter already timed out
                continue
            if item.deadline <= now:
                self._resolve(item, {
                    "status": "timeout", "result": None,
                    "error": "deadline expired in the admission queue",
                })
                continue
            live.append(item)
        return live

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
                for item in items:
                    self._resolve(item, {
                        "status": "error", "result": None, "error": message,
                    })
                continue
            for item, payload in zip(items, payloads):
                self._resolve(item, payload)

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

    @staticmethod
    def _resolve(item: _Pending, payload: Dict[str, Any]) -> None:
        if not item.future.done():
            item.future.set_result(payload)
