"""The admission controller: bounded queue, micro-batches, deadlines.

BENCH_navigation shows the batched query kernels run ~24x faster than
scalar queries; the :class:`MicroBatcher` turns concurrent requests
into those batches without giving up tail-latency control.  Its
``execute`` callable is injected, so every admission behavior unit
tests deterministically against a fake executor.

Queries enter as a :class:`~repro.serve.protocol.QueryBatch` — the
server admits each socket read's queries as one — through
:meth:`MicroBatcher.admit`, and every query is answered exactly once
through the batch's sink: at once when shed or already expired, else
when its engine pass resolves or its deadline passes.  Admission,
counters and latencies are bookkept once per batch, not per query.
:meth:`MicroBatcher.submit` is the one-query awaitable wrapper for
tests and embedders.

Batches run in :meth:`MicroBatcher.pump`, a plain call that takes
whole queued chunks (a batch is queued in chunks of at most
``max_batch``), up to ``max_batch`` queries and whatever the ops, as
one engine pass.  ``admit`` only queues: its caller pumps.  The server
pumps at the end of each socket read, so a query on an idle daemon is
answered in the loop turn that read it; ``submit`` pumps on the next
turn, after the other submits of its turn.  ``on_answered`` runs after
every pump, deadline sweep and stop, so the sinks' owner writes the
answers out once per pass.  Queries that arrive while a pass runs off
the loop queue up, and its completion pumps them as the next.

One loop timer, armed at the earliest deadline of an unanswered query,
expires every query past its deadline, queued or mid-pass (whose
computed answer is then dropped).

A pass runs on the loop when the last pass of each of its ops took
less than one GIL switch interval (:func:`sys.getswitchinterval`): a
worker thread holding the GIL for less than that does not let the loop
run meanwhile, so the thread hop would only add latency.  First
passes and passes after a slower one run on the loop's default thread
pool.  Queries whose op must first build state (``needs_setup``: a
``route`` pass that builds its routing scheme) split off into a set-up
pass on the thread pool; while it runs, later queries of that op wait
beside the queue and every other query keeps running.  A pass that
raises is retried after its backoff from a loop timer.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from collections import deque
from itertools import chain
from typing import (
    Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from ..observability import OBS
from .policy import AdmissionPolicy
from .protocol import Answers, QueryBatch

__all__ = ["MicroBatcher"]

# Executor contract: (op, us, vs) -> one Answers row per pair
# (us[i], vs[i]), in input order; ``op`` is the pass's op, or a list of
# one op per pair for a mixed pass.
BatchExecutor = Callable[
    [Union[str, List[str]], Sequence[int], Sequence[int]], Answers
]

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


class _Pass:
    """One engine pass: whole chunks, their columns concatenated.

    ``setup`` marks a pass that builds state for its ops off the loop
    and does not hold back the passes after it.
    """

    __slots__ = ("chunks", "ops", "us", "vs", "kinds", "setup", "attempt")

    def __init__(self, chunks: List[QueryBatch], setup: bool = False):
        self.chunks = chunks
        if len(chunks) == 1:
            only = chunks[0]
            self.ops, self.us, self.vs = only.ops, only.us, only.vs
        else:
            self.ops = list(chain.from_iterable(c.ops for c in chunks))
            self.us = list(chain.from_iterable(c.us for c in chunks))
            self.vs = list(chain.from_iterable(c.vs for c in chunks))
        self.kinds = set(self.ops)
        self.setup = setup
        self.attempt = 0

    @property
    def op(self) -> Union[str, List[str]]:
        """The executor's ``op``: named once for a one-op pass."""
        return self.ops[0] if len(self.kinds) == 1 else self.ops

    def split(self, ops: Set[str]) -> Tuple["_Pass", Optional["_Pass"]]:
        """The queries of ``ops`` as a set-up pass, and the rest as a
        pass (None if there are none)."""
        taken, kept = [], []
        for chunk in self.chunks:
            mine, rest = chunk.split(ops)
            if mine is not None:
                taken.append(mine)
            if rest is not None:
                kept.append(rest)
        return _Pass(taken, setup=True), _Pass(kept) if kept else None


def _settle(future: "asyncio.Future", payload: Dict) -> None:
    if not future.done():
        future.set_result(payload)


class MicroBatcher:
    """Coalesce concurrent queries into bounded micro-batches.

    Parameters
    ----------
    execute:
        ``(op, us, vs) -> Answers`` — synchronous, called on the event
        loop or on a worker thread (see the module docstring).
        Exceptions are treated as transient and retried per the policy
        before the pass's queries fail with ``error``.
    policy:
        The :class:`~repro.serve.policy.AdmissionPolicy` in force.
    needs_setup:
        Optional ``op -> bool``: True when the next pass of ``op`` must
        first build state the executor has not cached, so its queries
        run as a set-up pass on a worker thread.
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
        #: Admitted chunks waiting for a pass, each at most max_batch.
        self._queue: Deque[QueryBatch] = deque()
        #: Queries waiting: queued or held.
        self._depth = 0
        #: Chunks whose op waits for a set-up pass in flight, and those ops.
        self._held: List[QueryBatch] = []
        self._preparing: Set[str] = set()
        #: Passes running off the loop or waiting out their backoff
        #: (their queries can still expire).
        self._off: List[_Pass] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = False
        #: The pump scheduled for the next loop turn, if any.
        self._pump_handle: Optional[asyncio.Handle] = None
        #: The deadline timer and the time it is armed for: never later
        #: than the earliest deadline of an unanswered query.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_at = math.inf
        #: op -> wall seconds the last pass with that op took.
        self._last_seconds: Dict[str, float] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._running = True

    async def stop(self) -> None:
        """Stop batching; unanswered queries fail fast with ``error``."""
        self._running = False
        for handle in filter(None, (self._pump_handle, self._timer)):
            handle.cancel()
        self._pump_handle, self._timer, self._timer_at = None, None, math.inf
        stranded = [chunk for run in self._off for chunk in run.chunks]
        stranded += self._held
        stranded += self._queue
        self._off, self._held, self._depth = [], [], 0
        self._preparing.clear()
        self._queue.clear()
        self._fail(stranded, "server shutting down")
        if OBS.enabled:
            _G_QUEUE_DEPTH.set(0)
        self._on_answered()

    @property
    def queue_depth(self) -> int:
        return self._depth

    # -- admission -------------------------------------------------------

    def admit(self, batch: QueryBatch) -> None:
        """Queue ``batch`` for the caller's next :meth:`pump`.

        ``batch.admitted_at`` is now and ``batch.deadlines`` absolute,
        both on the event-loop clock; its answers go to ``batch.sink``.
        Queries past the bounded queue's room answer ``overloaded``,
        and queries whose deadline has passed ``timeout``, before this
        returns; the rest queue in chunks of at most ``max_batch``.
        """
        m = len(batch)
        if not m:
            return
        policy = self.policy
        room = policy.max_queue - self._depth
        now = batch.admitted_at
        earliest = min(batch.deadlines)
        obs = OBS.enabled
        if room < m or earliest <= now:
            # Query by query, as one admission at a time would go: a
            # query past its deadline takes no room in the queue.
            keep: List[int] = []
            shed: List[int] = []
            late: List[int] = []
            for j, deadline in enumerate(batch.deadlines):
                if len(keep) >= room:
                    shed.append(j)
                elif deadline <= now:
                    late.append(j)
                else:
                    keep.append(j)
            if shed:
                if obs:
                    _C_SHED.inc(len(shed))
                self._answer_now(batch, shed, "overloaded", (
                    f"admission queue full "
                    f"({policy.max_queue} requests waiting)"
                ))
            if late:
                if obs:
                    _C_TIMEOUTS.inc(len(late))
                self._answer_now(batch, late, "timeout",
                                 "deadline expired before admission")
            if not keep:
                return
            batch = batch.take(keep)
            m = len(batch)
            earliest = min(batch.deadlines)
        cap = policy.max_batch
        if m <= cap:
            self._queue.append(batch)
        else:
            self._queue.extend(batch.take(range(i, min(i + cap, m)))
                               for i in range(0, m, cap))
        self._depth += m
        if earliest < self._timer_at:
            self._arm(earliest)
        if obs:
            _C_ADMITTED.inc(m)
            _G_QUEUE_DEPTH.set(self._depth)

    def _answer_now(self, batch: QueryBatch, positions: List[int],
                    status: str, error: str) -> None:
        batch.sink(batch, positions,
                   Answers.failed(status, error, len(positions)),
                   range(len(positions)))

    async def submit(
        self, op: str, u: int, v: int, deadline: float
    ) -> Dict:
        """Admit one query and await its answer as a payload dict
        (:meth:`~repro.serve.protocol.Answers.payload`).  ``deadline``
        is absolute, on the event-loop clock."""
        future = self._loop.create_future()
        batch = QueryBatch([None], [op], [u], [v])
        batch.deadlines = [deadline]
        batch.admitted_at = self._loop.time()
        batch.sink = lambda chunk, positions, answers, rows: _settle(
            future, answers.payload(rows[0]))
        self.admit(batch)
        self._pump_soon()  # after the other submits of this loop turn
        try:
            return await future
        except asyncio.CancelledError:
            batch.gone = {0}  # abandoned: never computed or answered
            raise

    # -- deadlines -------------------------------------------------------

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer_at = when
        self._timer = self._loop.call_at(when, self._on_deadline)

    def _on_deadline(self) -> None:
        """Expire every query past its deadline; re-arm for the rest."""
        # The loop may fire a timer up to its clock resolution early;
        # the deadlines it was armed for count as passed regardless.
        now = max(self._loop.time(), self._timer_at)
        self._timer, self._timer_at = None, math.inf
        def still_waiting(chunks):
            kept = (self._drop_due(chunk, now) for chunk in chunks)
            return [chunk for chunk in kept if chunk is not None]

        self._queue = deque(still_waiting(self._queue))
        self._held = still_waiting(self._held)
        waiting = [*self._queue, *self._held]
        self._depth = sum(map(len, waiting))
        earliest = min((min(chunk.deadlines) for chunk in waiting),
                       default=math.inf)
        for run in self._off:
            for chunk in run.chunks:
                for j in chunk.live():
                    deadline = chunk.deadlines[j]
                    if deadline <= now:
                        self._expire(chunk, j, "before the batch completed")
                    else:
                        earliest = min(earliest, deadline)
        if earliest < math.inf:
            self._arm(earliest)
        if OBS.enabled:
            _G_QUEUE_DEPTH.set(self._depth)
        self._on_answered()

    def _drop_due(self, chunk: QueryBatch, now: float
                  ) -> Optional[QueryBatch]:
        """Expire a waiting chunk's queries past their deadline and drop
        its abandoned ones: what remains, or None."""
        keep = []
        for j in chunk.live():
            if chunk.deadlines[j] <= now:
                self._expire(chunk, j, "in the admission queue")
            else:
                keep.append(j)
        if len(keep) == len(chunk):
            return chunk
        return chunk.take(keep) if keep else None

    def _expire(self, chunk: QueryBatch, j: int, where: str) -> None:
        if OBS.enabled:
            _C_TIMEOUTS.inc()
        if chunk.gone is None:
            chunk.gone = set()
        chunk.gone.add(j)
        waited = (chunk.deadlines[j] - chunk.admitted_at) * 1000
        self._answer_now(chunk, [j], "timeout",
                         f"deadline of {waited:.1f}ms expired {where}")

    # -- passes ----------------------------------------------------------

    def _busy(self) -> bool:
        """Is a pass (not a set-up pass) off the loop or backing off?"""
        return any(not run.setup for run in self._off)

    def pump(self) -> None:
        """Run the next pass, unless one is off the loop already.

        Takes whole queued chunks, up to ``max_batch`` queries, as one
        pass: it runs here when it is fast, else on the default
        executor.  Work still queued after it gets a pump on the next
        loop turn, so other connections read and join in between.
        """
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        if self._running and self._queue and not self._busy():
            chunks = self._take()
            if OBS.enabled:
                _G_QUEUE_DEPTH.set(self._depth)
            if chunks:
                self._run(_Pass(chunks))
            if self._queue and not self._busy():
                self._pump_soon()
        self._on_answered()

    def _take(self) -> List[QueryBatch]:
        """Pop the next pass's chunks off the queue; queries of ops
        being set up move aside to wait for their set-up pass."""
        queue = self._queue
        now = self._loop.time()
        cap = self.policy.max_batch
        preparing = self._preparing
        chunks: List[QueryBatch] = []
        size = 0
        while queue:
            chunk = queue.popleft()
            self._depth -= len(chunk)
            if chunk.gone or min(chunk.deadlines) <= now:
                chunk = self._drop_due(chunk, now)
                if chunk is None:
                    continue
            if preparing and not preparing.isdisjoint(chunk.ops):
                held, chunk = chunk.split(preparing)
                self._held.append(held)
                self._depth += len(held)
                if chunk is None:
                    continue
            if chunks and size + len(chunk) > cap:
                queue.appendleft(chunk)
                self._depth += len(chunk)
                break
            chunks.append(chunk)
            size += len(chunk)
        return chunks

    def _pump_soon(self) -> None:
        if self._pump_handle is None:
            self._pump_handle = self._loop.call_soon(self.pump)

    def _run(self, run: _Pass) -> None:
        """Execute ``run`` here when it is fast, else on the executor;
        its queries of ops that need set-up go first, as a set-up pass."""
        if not run.setup and self._needs_setup is not None:
            needing = {op for op in run.kinds if self._needs_setup(op)}
            if needing:
                setup, run = run.split(needing)
                self._preparing |= needing
                self._offload(setup)
                if run is None:
                    return
        if run.setup or not self._runs_inline(run.kinds):
            self._offload(run)
            return
        if OBS.enabled:
            _C_INLINE.inc()
        start = time.perf_counter()
        try:
            answers = self._execute(run.op, run.us, run.vs)
        except Exception:
            answers = None
        self._ran(run, start, answers)

    def _offload(self, run: _Pass) -> None:
        if OBS.enabled:
            _C_OFFLOADED.inc()
        self._off.append(run)
        start = time.perf_counter()

        def offloaded(future: "asyncio.Future") -> None:
            if not self._running or future.cancelled():
                return  # stop() has answered its queries
            self._ran(run, start,
                      None if future.exception() else future.result())
            self.pump()

        self._loop.run_in_executor(
            None, self._execute, run.op, run.us, run.vs
        ).add_done_callback(offloaded)

    def _runs_inline(self, kinds: Set[str]) -> bool:
        """Run on the loop: the last pass of each op beat the switch
        interval."""
        interval = sys.getswitchinterval()
        last = self._last_seconds
        return all(last.get(op, interval) < interval for op in kinds)

    def _ran(
        self, run: _Pass, start: float, answers: Optional[Answers],
    ) -> None:
        """Resolve a pass; ``answers`` is None when the executor raised,
        and the pass is retried after its backoff or fails."""
        obs = OBS.enabled
        if answers is None:
            if obs:
                _C_RETRIES.inc()
            if run.attempt < self.policy.max_retries:
                if run not in self._off:
                    self._off.append(run)  # its queries can still expire
                self._loop.call_later(
                    self.policy.backoff_delay(run.attempt), self._retry, run,
                )
                run.attempt += 1
                return
            if obs:
                _C_FAILURES.inc()
            self._done(run)
            self._fail(run.chunks, f"batch execution failed after "
                                   f"{run.attempt + 1} attempts")
            return
        seconds = time.perf_counter() - start
        for op in run.kinds:
            self._last_seconds[op] = seconds
        if obs:
            _H_BATCH_SIZE.observe(len(run.us))
            _H_BATCH_US.observe(seconds * 1e6)
        self._done(run)
        if len(answers) != len(run.us):
            self._fail(run.chunks, f"executor returned {len(answers)} "
                                   f"payloads for {len(run.us)} requests")
            return
        self._resolve(run, answers)

    def _done(self, run: _Pass) -> None:
        """``run`` is leaving: after a set-up pass, the queries that
        waited for it queue up first."""
        if run in self._off:
            self._off.remove(run)
        if run.setup:
            self._preparing -= run.kinds
            if not self._preparing and self._held:
                self._queue.extendleft(reversed(self._held))
                self._held = []

    def _retry(self, run: _Pass) -> None:
        """Run a failed pass again, without the queries that expired
        during its backoff."""
        if not self._running:
            return
        self._done(run)
        chunks = [chunk.take(chunk.live()) if chunk.gone else chunk
                  for chunk in run.chunks]
        chunks = [chunk for chunk in chunks if len(chunk)]
        if chunks:
            again = _Pass(chunks, setup=run.setup)
            again.attempt = run.attempt
            if again.setup:
                self._preparing |= again.kinds
            self._run(again)
        self.pump()

    def _fail(self, chunks: List[QueryBatch], message: str) -> None:
        for chunk in chunks:
            positions = chunk.live()
            if positions:
                chunk.gone = set(range(len(chunk)))
                self._answer_now(chunk, positions, "error", message)

    def _resolve(self, run: _Pass, answers: Answers) -> None:
        """Answer each live query with its row; their latencies go to
        the histogram in one call."""
        latencies: Optional[List[float]] = [] if OBS.enabled else None
        now = self._loop.time()
        row = 0
        for chunk in run.chunks:
            m = len(chunk)
            if chunk.gone:  # some expired, or their submitter went away
                positions = chunk.live()
                rows = [row + j for j in positions]
            else:
                positions, rows = range(m), range(row, row + m)
            row += m
            if not positions:
                continue
            if latencies is not None:
                latencies += [(now - chunk.admitted_at) * 1e6] * len(positions)
            chunk.sink(chunk, positions, answers, rows)
        if latencies:
            _H_REQUEST_US.observe_many(latencies)
