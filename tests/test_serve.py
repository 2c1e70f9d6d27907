"""Query-serving daemon suite (``-m serve``; runs in tier-1).

Three layers, mirroring the subsystem:

* protocol units — request decode validation and envelope round-trips;
* batcher units — work-conserving flushes (no coalescing timer),
  inline vs offloaded batches, bounded-queue shedding, deadline expiry
  and retry-with-backoff, all against fake executors so every
  admission behavior is deterministic;
* end-to-end — a real daemon on a background thread over a real
  checkpoint, driven by the bundled client, including the
  chaos-under-traffic scenario from the acceptance criteria: with a
  fault injected mid-traffic every response is either within-contract
  or explicitly degraded-labelled (never an unlabelled wrong answer,
  never a hang past its deadline), and after background recovery the
  service returns to full-contract responses.

The long soak variant additionally carries ``-m stress`` (opt-in).
"""

import asyncio
import json
import random
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.checkpoint import CheckpointService, save_cover_checkpoint
from repro.metrics import random_points
from repro.observability import OBS
from repro.serve import (
    AdmissionPolicy,
    Answers,
    ChaosController,
    MicroBatcher,
    ProtocolError,
    QueryBatch,
    QueryEngine,
    ServeClient,
    ThreadedServer,
    answer_lines,
    encode_line,
    make_response,
    parse_request,
)
from repro.serve import engine as engine_module
from repro.serve.protocol import decode_queries
from repro.serve import server as server_module
from repro.treecover import robust_tree_cover

pytestmark = pytest.mark.serve

N = 48
K = 3
EPS = 0.5
BUILDER = {"family": "robust", "eps": EPS}


# ----------------------------------------------------------------------
# Protocol units


class TestProtocol:
    def test_query_request_round_trip(self):
        line = json.dumps(
            {"id": 9, "op": "path", "u": 1, "v": 2, "deadline_ms": 50}
        )
        request = parse_request(line)
        assert (request.id, request.op, request.u, request.v) == (9, "path", 1, 2)
        assert request.deadline_ms == 50.0

    def test_admin_request_keeps_extra_fields(self):
        request = parse_request(
            '{"id": "x", "op": "chaos", "kill": [1, 2], "recover": false}'
        )
        assert request.op == "chaos"
        assert request.extra == {"kill": [1, 2], "recover": False}

    @pytest.mark.parametrize("line,fragment", [
        ("not json", "not valid JSON"),
        ('["a", "list"]', "JSON object"),
        ('{"op": "explode"}', "unknown op"),
        ('{"op": "path", "u": 1}', "field 'v'"),
        ('{"op": "path", "u": 1.5, "v": 2}', "field 'u'"),
        ('{"op": "path", "u": true, "v": 2}', "field 'u'"),
        ('{"op": "path", "u": -1, "v": 2}', ">= 0"),
        ('{"op": "path", "u": 1, "v": 2, "deadline_ms": 0}', "> 0"),
        ('{"op": "path", "u": 1, "v": 2, "deadline_ms": "soon"}', "number"),
    ])
    def test_bad_requests_raise_protocol_error(self, line, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_request(line)

    def test_bad_request_echoes_id(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"id": 42, "op": "explode"}')
        assert excinfo.value.request_id == 42

    def test_batch_decode_agrees_with_parse_request(self):
        """Each non-blank line is decoded into the batch or left over,
        in order; a decoded query is what ``parse_request`` reads from
        its line, and every line it refuses is left over."""
        lines = [
            b'{"id": 1, "op": "path", "u": 1, "v": 2}',
            b'  {"v": 2, "u": 1, "op": "distance", "id": "x"}\t',
            b'{"id": 2, "op": "route", "u": 0, "v": 0, "deadline_ms": 50}',
            b'{"id": 3, "op": "path", "u": 1, "v": 2, "deadline_ms": NaN}',
            b'{"id": 4, "op": "path", "u": 1, "v": 2}\x1f',
            b'{"id": 5, "op": "path", "u": 1, "v": 2, "deadline_ms": 0.5}',
            b'{"id": [1], "op": "path", "u": 1, "v": 2, "pad": {"a": []}}',
            b'{"id": 6, "op": "path", "u": 1, "v": 2} {"id": 7}',
            b'{"id": 8, "op": "ping"}',
            b"",
            b"   ",
            b'{"id": 9, "op": "path", "u": 1e2, "v": 2}',
            b'{"id": 10, "op": ["path"], "u": 1, "v": 2}',
            b'{"id": 11, "op": "path", "u": 1, "v": 2, "deadline_ms": -1}',
            b'{"id": "\xc3\xbc\xff", "op": "path", "u": 3, "v": 4}',
        ]
        for subset in (lines, [line for line in lines if line.isascii()]):
            batch, rest, count = decode_queries(b"\n".join(subset), 60)
            nonblank = [line for line in subset if line.strip()]
            assert count == len(nonblank)
            decoded = iter(zip(batch.ids, batch.ops, batch.us, batch.vs,
                               batch.deadline_ms))
            left = iter(rest)
            for line in nonblank:
                text = line.strip().decode("utf-8", errors="replace")
                try:
                    request = parse_request(text)
                except ProtocolError:
                    request = None
                if len(line) > 60 or request is None \
                        or request.op not in ("path", "distance", "route") \
                        or request.deadline_ms != request.deadline_ms:
                    assert next(left) == line
                    continue
                assert next(decoded) == (
                    request.id, request.op, request.u, request.v,
                    request.deadline_ms,
                )
            assert next(decoded, None) is None and next(left, None) is None

    def test_response_envelope_ok_semantics(self):
        assert make_response(1, "ok")["ok"] is True
        assert make_response(1, "degraded")["ok"] is True
        for status in ("overloaded", "timeout", "error", "undelivered"):
            assert make_response(1, status)["ok"] is False

    def test_encode_line_round_trips(self):
        envelope = make_response(3, "ok", result={"distance": 1.5})
        raw = encode_line(envelope)
        assert raw.endswith(b"\n")
        assert json.loads(raw) == envelope

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_batch=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(default_deadline=0)
        assert AdmissionPolicy().deadline_at(10.0, 500.0) == 10.5


# ----------------------------------------------------------------------
# Batcher units (fake executors; no navigation stack involved)


def _ok_payloads(op, pairs):
    return [
        {"status": "ok", "result": {"u": u, "v": v}} for u, v in pairs
    ]


def _columns(execute):
    """A fake ``(op, pairs) -> payloads`` executor as the batcher's
    ``(op, us, vs) -> Answers`` one."""
    def run(op, us, vs):
        payloads = execute(op, list(zip(us, vs)))
        answers = Answers(None, [p["status"] for p in payloads],
                          [p.get("error") for p in payloads])
        answers.results = dict(enumerate(p["result"] for p in payloads))
        return answers
    return run


def _settle(future, payload):
    assert not future.done(), "a request was answered twice"
    future.set_result(payload)


def _query(loop, op, u, v, deadline, sink):
    """One query as a batch: its answer goes to ``sink(payload)``."""
    batch = QueryBatch([None], [op], [u], [v])
    batch.admitted_at = loop.time()
    batch.deadlines = [deadline]
    batch.sink = lambda b, positions, answers, rows: sink(
        answers.payload(rows[0]))
    return batch


def _admit(batcher, op, u, v, deadline):
    """Admit through the batcher's entry point, then pump on the next
    loop turn (after the other admissions of this one); a future of the
    answer."""
    loop = asyncio.get_running_loop()
    future = loop.create_future()
    batcher.admit(_query(loop, op, u, v, deadline,
                         lambda payload: _settle(future, payload)))
    loop.call_soon(batcher.pump)
    return future


class TestBatcher:
    def test_flush_on_size_does_not_wait_for_timer(self):
        async def main():
            batches = []

            def execute(op, pairs):
                batches.append(list(pairs))
                return _ok_payloads(op, pairs)

            policy = AdmissionPolicy(max_batch=4, default_deadline=30.0)
            batcher = MicroBatcher(_columns(execute), policy)
            await batcher.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            payloads = await asyncio.gather(*[
                _admit(batcher, "path", i, i + 1, loop.time() + 30.0)
                for i in range(4)
            ])
            elapsed = loop.time() - started
            await batcher.stop()
            return batches, payloads, elapsed

        batches, payloads, elapsed = asyncio.run(main())
        # Requests queued in one loop turn flush as one full batch.
        assert batches == [[(i, i + 1) for i in range(4)]]
        assert [p["result"]["u"] for p in payloads] == [0, 1, 2, 3]
        assert elapsed < 2.0

    def test_lone_request_flushes_without_waiting(self, monkeypatch):
        # A wide switch interval keeps the second batch inline even if
        # the host stalls the first one's thread hop.
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 60.0)

        async def main():
            threads = []

            def execute(op, pairs):
                threads.append(threading.get_ident())
                return _ok_payloads(op, pairs)

            batcher = MicroBatcher(
                _columns(execute), AdmissionPolicy(max_batch=32)
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            first = await _admit(batcher, "path", 1, 2, loop.time() + 30.0)
            # No coalescing window: a lone request is answered within a
            # few turns of the loop, with no wall-clock wait at all.
            lone = _admit(batcher, "path", 7, 8, loop.time() + 30.0)
            turns = 0
            while not lone.done() and turns < 10:
                await asyncio.sleep(0)
                turns += 1
            done = lone.done()
            await lone
            await batcher.stop()
            return first, lone.result(), done, threads

        first, lone, done, threads = asyncio.run(main())
        assert first["status"] == lone["status"] == "ok"
        assert done
        # The first batch of an op runs on a worker thread; the next,
        # after a fast predecessor, on the loop (the submitting thread).
        assert threads[0] != threads[1] == threading.get_ident()

    def test_requests_during_a_batch_form_the_next_batch(self):
        async def main():
            gate = threading.Event()
            batches = []

            def execute(op, pairs):
                batches.append(list(pairs))
                gate.wait(10.0)
                return _ok_payloads(op, pairs)

            batcher = MicroBatcher(
                _columns(execute),
                AdmissionPolicy(max_batch=4, default_deadline=30.0),
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            blocked = _admit(batcher, "path", 0, 1, deadline)
            await asyncio.sleep(0.05)  # r0 is now blocked in execute
            queued = [
                _admit(batcher, "path", i, i + 1, deadline)
                for i in range(1, 7)
            ]
            await asyncio.sleep(0.05)
            depth = batcher.queue_depth
            gate.set()
            payloads = await asyncio.gather(blocked, *queued)
            await batcher.stop()
            return batches, depth, payloads

        batches, depth, payloads = asyncio.run(main())
        assert depth == 6  # admitted while the batch ran, none executed
        assert batches == [
            [(0, 1)],
            [(i, i + 1) for i in range(1, 5)],  # capped at max_batch
            [(5, 6), (6, 7)],
        ]
        assert [p["result"]["u"] for p in payloads] == list(range(7))

    def test_slow_predecessor_runs_next_batch_on_the_executor(
        self, monkeypatch
    ):
        # A wide switch interval makes "fast" robust to a stalled host;
        # the slow batch sleeps past it.
        interval = 0.2
        monkeypatch.setattr(sys, "getswitchinterval", lambda: interval)

        async def main():
            gate = threading.Event()
            calls = []

            def execute(op, pairs):
                calls.append((pairs[0][0], threading.get_ident()))
                if pairs[0][0] == 2:
                    time.sleep(interval * 1.5)
                if pairs[0][0] == 3:
                    gate.wait(10.0)
                return _ok_payloads(op, pairs)

            batcher = MicroBatcher(
                _columns(execute),
                AdmissionPolicy(max_batch=1, default_deadline=30.0),
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            for u in (1, 2):  # fast (offloaded: first), slow (inline)
                await _admit(batcher, "path", u, u + 1, deadline)
            blocked = _admit(batcher, "path", 3, 4, deadline)
            await asyncio.sleep(0.05)  # batch 3 is blocked in execute
            # ... and the loop keeps admitting work meanwhile.
            admitted = _admit(batcher, "path", 4, 5, deadline)
            await asyncio.sleep(interval)  # batch 3 turns slow too
            depth = batcher.queue_depth
            gate.set()
            payloads = await asyncio.gather(blocked, admitted)
            await batcher.stop()
            return calls, depth, payloads

        calls, depth, payloads = asyncio.run(main())
        loop_thread = threading.get_ident()
        on_loop = [ident == loop_thread for _, ident in calls]
        assert [u for u, _ in calls] == [1, 2, 3, 4]
        # first -> executor; after fast -> loop; after slow -> executor;
        # after the gated batch (slow too) -> executor.
        assert on_loop == [False, True, False, False]
        assert depth == 1
        assert [p["status"] for p in payloads] == ["ok", "ok"]

    def test_route_batch_that_builds_a_scheme_is_offloaded(
        self, serve_metric, serve_ckpt, monkeypatch
    ):
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 60.0)
        service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
        engine = QueryEngine(service)
        threads = []

        def execute(op, us, vs):
            threads.append(threading.get_ident())
            return engine.execute(op, us, vs)

        async def main():
            batcher = MicroBatcher(
                execute, AdmissionPolicy(max_batch=8),
                needs_setup=engine.needs_setup,
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 60.0
            payloads = [await _admit(batcher, "route", 1, 2, deadline),
                        await _admit(batcher, "route", 3, 4, deadline)]
            service.kill_trees([0])  # new generation, no scheme cached
            needed = engine.needs_setup("route")
            payloads.append(await _admit(batcher, "route", 5, 6, deadline))
            await batcher.stop()
            return payloads, needed

        payloads, needed = asyncio.run(main())
        loop_thread = threading.get_ident()
        assert needed
        # first -> executor; cached scheme -> loop; new generation's
        # scheme build -> executor, although its predecessor was fast.
        assert [t == loop_thread for t in threads] == [False, True, False]
        assert engine.needs_setup("route") is False
        assert [p["status"] for p in payloads] == ["ok", "ok", "degraded"]

    def test_batch_paths_are_counted(self, monkeypatch):
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 60.0)
        inline = OBS.registry.counter("serve.batches_inline")
        offloaded = OBS.registry.counter("serve.batches_offloaded")

        async def main():
            batcher = MicroBatcher(_columns(_ok_payloads), AdmissionPolicy())
            await batcher.start()
            loop = asyncio.get_running_loop()
            for u in range(3):
                await _admit(batcher, "path", u, u + 1, loop.time() + 30.0)
            await batcher.stop()

        with OBS.scoped(True):
            before = (inline.value, offloaded.value)
            asyncio.run(main())
            after = (inline.value, offloaded.value)
        assert (after[0] - before[0], after[1] - before[1]) == (2, 1)

    def test_queue_full_sheds_with_overloaded(self):
        async def main():
            gate = threading.Event()

            def execute(op, pairs):
                gate.wait(10.0)
                return _ok_payloads(op, pairs)

            policy = AdmissionPolicy(
                max_batch=1, max_queue=2, default_deadline=30.0,
            )
            batcher = MicroBatcher(_columns(execute), policy)
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            blocked = _admit(batcher, "path", 0, 1, deadline)
            await asyncio.sleep(0.05)  # r0 is now executing (blocked)
            queued = [
                _admit(batcher, "path", i, i + 1, deadline)
                for i in (1, 2)
            ]
            await asyncio.sleep(0.05)  # r1, r2 fill the bounded queue
            shed = await _admit(batcher, "path", 3, 4, deadline)
            gate.set()
            served = await asyncio.gather(blocked, *queued)
            await batcher.stop()
            return shed, served

        shed, served = asyncio.run(main())
        assert shed["status"] == "overloaded"
        assert "queue full" in shed["error"]
        assert [p["status"] for p in served] == ["ok", "ok", "ok"]

    def test_deadline_expiry_returns_timeout_not_hang(self):
        async def main():
            gate = threading.Event()

            def execute(op, pairs):
                gate.wait(10.0)
                return _ok_payloads(op, pairs)

            policy = AdmissionPolicy(
                max_batch=1, max_queue=8, default_deadline=30.0,
            )
            batcher = MicroBatcher(_columns(execute), policy)
            await batcher.start()
            loop = asyncio.get_running_loop()
            blocked = _admit(batcher, "path", 0, 1, loop.time() + 30.0)
            await asyncio.sleep(0.05)
            # This one waits in the queue behind the stuck batch and
            # must time out there — never hang, never compute.
            started = loop.time()
            expired = await _admit(batcher, "path", 2, 3, loop.time() + 0.1)
            waited = loop.time() - started
            gate.set()
            first = await blocked
            await batcher.stop()
            return expired, waited, first

        expired, waited, first = asyncio.run(main())
        assert expired["status"] == "timeout"
        assert waited < 5.0  # returned at its deadline, not at batch end
        assert first["status"] == "ok"

    def test_transient_failure_retries_with_backoff(self):
        async def main():
            attempts = []

            def execute(op, pairs):
                attempts.append(len(pairs))
                if len(attempts) == 1:
                    raise RuntimeError("transient worker failure")
                return _ok_payloads(op, pairs)

            policy = AdmissionPolicy(
                max_batch=4, default_deadline=30.0,
                max_retries=2, backoff_base=0.001,
            )
            batcher = MicroBatcher(_columns(execute), policy)
            await batcher.start()
            loop = asyncio.get_running_loop()
            payload = await _admit(batcher, "path", 1, 2, loop.time() + 30.0)
            await batcher.stop()
            return attempts, payload

        attempts, payload = asyncio.run(main())
        assert len(attempts) == 2  # failed once, succeeded on retry
        assert payload["status"] == "ok"

    def test_query_expired_during_backoff_is_answered_once(self):
        """A pass that failed runs again without the queries whose
        deadline passed during its backoff; those answer ``timeout``
        once."""
        async def main():
            attempts = []

            def execute(op, pairs):
                attempts.append(list(pairs))
                if len(attempts) == 1:
                    raise RuntimeError("transient worker failure")
                return _ok_payloads(op, pairs)

            policy = AdmissionPolicy(
                max_batch=4, default_deadline=30.0,
                max_retries=2, backoff_base=0.2,
            )
            batcher = MicroBatcher(_columns(execute), policy)
            await batcher.start()
            loop = asyncio.get_running_loop()
            short = _admit(batcher, "path", 0, 1, loop.time() + 0.05)
            long = _admit(batcher, "path", 1, 2, loop.time() + 30.0)
            payloads = await asyncio.gather(short, long)
            await batcher.stop()
            return attempts, payloads

        attempts, payloads = asyncio.run(main())
        assert [p["status"] for p in payloads] == ["timeout", "ok"]
        assert "before the batch completed" in payloads[0]["error"]
        assert attempts == [[(0, 1), (1, 2)], [(1, 2)]]

    def test_exhausted_retries_fail_with_error(self):
        async def main():
            def execute(op, pairs):
                raise RuntimeError("permanently broken")

            policy = AdmissionPolicy(
                max_batch=4, default_deadline=30.0,
                max_retries=1, backoff_base=0.001,
            )
            batcher = MicroBatcher(_columns(execute), policy)
            await batcher.start()
            loop = asyncio.get_running_loop()
            payload = await _admit(batcher, "path", 1, 2, loop.time() + 30.0)
            await batcher.stop()
            return payload

        payload = asyncio.run(main())
        assert payload["status"] == "error"
        assert "2 attempts" in payload["error"]

    def test_deadline_expires_while_its_batch_computes(self):
        async def main():
            gate = threading.Event()
            answers = []

            def execute(op, pairs):
                gate.wait(10.0)
                return _ok_payloads(op, pairs)

            batcher = MicroBatcher(
                _columns(execute), AdmissionPolicy(max_batch=4)
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            batcher.admit(_query(
                loop, "path", 0, 1, loop.time() + 0.1,
                lambda payload: answers.append(
                    (loop.time() - started, payload)),
            ))
            batcher.pump()
            while not answers:
                await asyncio.sleep(0.01)
            gate.set()
            await asyncio.sleep(0.1)  # the batch returns; nothing more
            await batcher.stop()
            return answers

        answers = asyncio.run(main())
        assert len(answers) == 1  # the late batch answer is dropped
        waited, payload = answers[0]
        assert payload["status"] == "timeout"
        assert "before the batch completed" in payload["error"]
        assert waited < 5.0

    def test_stop_answers_queued_and_inflight_requests(self):
        async def main():
            gate = threading.Event()

            def execute(op, pairs):
                gate.wait(10.0)
                return _ok_payloads(op, pairs)

            batcher = MicroBatcher(
                _columns(execute), AdmissionPolicy(max_batch=1)
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            inflight = _admit(batcher, "path", 0, 1, deadline)
            await asyncio.sleep(0.05)  # r0 is now blocked in execute
            queued = _admit(batcher, "path", 1, 2, deadline)
            await batcher.stop()
            gate.set()
            return [inflight.result(), queued.result()]

        for payload in asyncio.run(main()):
            assert payload["status"] == "error"
            assert payload["error"] == "server shutting down"

    def test_submit_awaits_the_admitted_answer(self):
        async def main():
            gate = threading.Event()
            batches = []

            def execute(op, pairs):
                batches.append(list(pairs))
                gate.wait(10.0)
                return _ok_payloads(op, pairs)

            batcher = MicroBatcher(
                _columns(execute), AdmissionPolicy(max_batch=4)
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            blocked = asyncio.ensure_future(
                batcher.submit("path", 0, 1, deadline)
            )
            await asyncio.sleep(0.05)  # r0 is now blocked in execute
            # A submit cancelled while queued is abandoned: never computed.
            gone = asyncio.ensure_future(batcher.submit("path", 5, 6, deadline))
            await asyncio.sleep(0)
            gone.cancel()
            await asyncio.sleep(0)
            gate.set()
            payload = await batcher.submit("path", 1, 2, deadline)
            first = await blocked
            await batcher.stop()
            return batches, first, payload, gone.cancelled()

        batches, first, payload, cancelled = asyncio.run(main())
        assert first == {"status": "ok", "result": {"u": 0, "v": 1},
                         "error": None, "service": None}
        assert payload == {"status": "ok", "result": {"u": 1, "v": 2},
                           "error": None, "service": None}
        assert cancelled
        assert batches == [[(0, 1)], [(1, 2)]]

    def test_pump_answers_a_fast_batch_before_it_returns(self, monkeypatch):
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 60.0)

        async def main():
            answers, pumps = [], []
            batcher = MicroBatcher(
                _columns(_ok_payloads), AdmissionPolicy(max_batch=2),
                on_answered=lambda: pumps.append(len(answers)),
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            await _admit(batcher, "path", 0, 1, deadline)  # first: offloaded
            for u in (1, 2, 3):
                batcher.admit(_query(
                    loop, "path", u, u + 1, deadline,
                    lambda payload, u=u: answers.append(u)))
            pumps.clear()
            batcher.pump()
            # One batch ran inside the call and was handed on; the
            # third request waits for the pump of the next loop turn.
            after_pump = (list(answers), list(pumps), batcher.queue_depth)
            await asyncio.sleep(0)
            await batcher.stop()
            return after_pump, answers

        (answered, pumps, depth), answers = asyncio.run(main())
        assert answered == [1, 2] and pumps == [2] and depth == 1
        assert answers == [1, 2, 3]

    def test_mixed_ops_form_one_batch(self):
        async def main():
            calls = []

            def execute(op, pairs):
                calls.append((op, list(pairs)))
                return _ok_payloads(op, pairs)

            batcher = MicroBatcher(
                _columns(execute), AdmissionPolicy(max_batch=8)
            )
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            mixed = [_admit(batcher, op, u, u + 1, deadline)
                     for u, op in enumerate(("path", "distance", "path"))]
            await asyncio.gather(*mixed)
            await _admit(batcher, "distance", 7, 8, deadline)
            await batcher.stop()
            return calls

        calls = asyncio.run(main())
        assert calls == [
            (["path", "distance", "path"], [(0, 1), (1, 2), (2, 3)]),
            ("distance", [(7, 8)]),  # a one-op batch names its op once
        ]

    def test_inline_failure_retries_on_a_loop_timer(self, monkeypatch):
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 60.0)

        async def main():
            attempts = []

            def execute(op, pairs):
                attempts.append(threading.get_ident())
                if len(attempts) == 2:
                    raise RuntimeError("transient failure on the loop")
                return _ok_payloads(op, pairs)

            policy = AdmissionPolicy(max_batch=4, backoff_base=0.05)
            batcher = MicroBatcher(_columns(execute), policy)
            await batcher.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            await _admit(batcher, "path", 0, 1, deadline)  # first: offloaded
            retried = _admit(batcher, "path", 1, 2, deadline)
            started = loop.time()
            batcher.pump()  # fails inline; the pump returns at once
            pending = (len(attempts), retried.done())
            payload = await retried
            waited = loop.time() - started
            await batcher.stop()
            return attempts, pending, payload, waited

        attempts, pending, payload, waited = asyncio.run(main())
        assert pending == (2, False)
        assert payload["status"] == "ok"
        assert waited >= 0.04  # after the backoff, not at once
        assert attempts[1] == attempts[2] == threading.get_ident()


# ----------------------------------------------------------------------
# End-to-end over a real checkpoint


@pytest.fixture(scope="module")
def serve_metric():
    return random_points(N, dim=2, seed=5)


@pytest.fixture(scope="module")
def serve_ckpt(serve_metric, tmp_path_factory):
    cover = robust_tree_cover(serve_metric, eps=EPS)
    path = str(tmp_path_factory.mktemp("serve") / "cover.ckpt")
    save_cover_checkpoint(cover, path, builder=BUILDER)
    return path


@pytest.fixture(scope="module")
def server(serve_metric, serve_ckpt):
    service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
    with ThreadedServer(
        service,
        policy=AdmissionPolicy(max_batch=8),
    ) as threaded:
        yield threaded


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as serve_client:
        yield serve_client


def _pairs(count, offset=0):
    pairs = []
    for i in range(count):
        u = (i + offset) % N
        v = (i * 5 + 7 + offset) % N
        if u != v:
            pairs.append((u, v))
    return pairs


def _read_lines(sock, count=None):
    """Decoded response lines off a raw socket: ``count``, else to EOF."""
    lines = []
    with sock.makefile("rb") as reader:
        while count is None or len(lines) < count:
            line = reader.readline()
            if not line:
                break
            lines.append(json.loads(line))
    return lines


def _prom_sample(text, name):
    return float(re.search(rf"^{name} (\S+)$", text, re.MULTILINE).group(1))


# ----------------------------------------------------------------------
# Wire encoding: the per-batch template against the JSON encoder


_SERVICE = {
    "state": "ready", "generation": 3, "trees_total": 45,
    "trees_pending": 0, "trees_serving": 45, "mapped": True,
    "dynamic": False, "degraded": False,
}


def _service_json(service):
    return json.dumps(service, separators=(",", ":"))


def _json_line(envelope):
    return json.dumps(envelope, separators=(",", ":")).encode() + b"\n"


def _assert_same_line(request_id, answers, row=0):
    """The line the daemon writes for ``answers`` row ``row`` equals the
    JSON encoder's envelope of that row (and both equal ``json.dumps``),
    with ``_SERVICE`` standing in for answers no snapshot gave."""
    payload = answers.payload(row)
    envelope = make_response(
        request_id, payload["status"], result=payload["result"],
        error=payload["error"], service=payload["service"] or _SERVICE,
    )
    line = answer_lines(answers, [request_id], [row], _SERVICE)
    assert line == encode_line(envelope) == _json_line(envelope)
    return line


def _one_row(status, result, error=None):
    """``result`` as the one row of a batch's answers: in the columns
    when the engine writes it so, else as a result of its own."""
    keys = tuple(result or ())
    op = "distance" if keys == ("distance",) else "path"
    answers = Answers([op], [status], [error], _SERVICE,
                      _service_json(_SERVICE))
    if keys == ("distance",):
        answers.distance[0] = result["distance"]
    elif keys == ("path", "hops", "weight", "stretch", "tree") and all(
        type(x) is int for x in result["path"]
    ):
        answers.path[0] = result["path"]
        answers.weight[0] = result["weight"]
        answers.stretch[0] = result["stretch"]
        answers.tree[0] = result["tree"]
    else:
        answers.results[0] = result
    return answers


class TestWireEncoding:
    @pytest.mark.parametrize("result", [
        {"path": [4], "hops": 0, "weight": 0.0, "stretch": 1.0, "tree": -1},
        {"path": [4], "hops": 0, "weight": 0, "stretch": 1.0, "tree": -1},
        {"path": [1, 9, 2], "hops": 2, "weight": 1e-05, "stretch": 1e+16,
         "tree": 7},
        {"path": [1, 2], "hops": 1, "weight": 1.5e-300, "stretch": 1.0,
         "tree": 0},
        {"distance": 0.0},
        {"distance": 1e-05},
        {"distance": 12345678901234567.0},
        # Shapes and values the template leaves to the JSON encoder.
        {"path": [1, 2], "hops": 1, "weight": float("inf"), "stretch": 1.0,
         "tree": 0},
        {"path": [True, 2], "hops": 1, "weight": 1.0, "stretch": 1.0,
         "tree": 0},
        {"path": [1, 2], "hops": 1, "weight": 1.0, "stretch": 1.0},
        {"distance": float("nan")},
        {"hops": 1, "path": [1, 2], "weight": 1.0, "stretch": 1.0,
         "tree": 0},
    ])
    @pytest.mark.parametrize("status", ["ok", "degraded"])
    def test_results(self, result, status):
        answers = _one_row(status, result)
        assert answers.result(0) == result
        _assert_same_line(11, answers)

    @pytest.mark.parametrize("request_id", [
        "seven", None, 7.5, True, False, 2 ** 64 + 1, -(2 ** 63) - 5, 0,
        "\u00fc\n",
    ])
    def test_ids(self, request_id):
        for result in ({"distance": 2.5},
                       {"path": [0, 3], "hops": 1, "weight": 2.5,
                        "stretch": 1.0, "tree": 2}):
            _assert_same_line(request_id, _one_row("ok", result))

    @pytest.mark.parametrize("status,error", [
        ("overloaded", "admission queue full (256 requests waiting)"),
        ("timeout", "deadline of 50.0ms expired in the admission queue"),
        ("error", "batch execution failed after 3 attempts"),
        ("undelivered", "no surviving trees; recovery has not completed"),
    ])
    def test_failure_envelopes(self, status, error):
        _assert_same_line(5, Answers.failed(status, error, 1))

    @pytest.mark.parametrize("envelope", [
        {"id": 1, "result": {1: "int key", True: "bool key", None: 0}},
        {"id": "ü\n\"", "op": "ping", "nested": [[], {}, [1, [2.5]]]},
        {"id": 2, "values": [float("nan"), float("inf"), -0.0, 1e-05]},
        {"id": 3, "big": 2 ** 70, "neg": -(2 ** 63), "flag": False},
        {},
    ])
    def test_json_encoder(self, envelope):
        """Envelopes without a service JSON match ``json.dumps``."""
        assert encode_line(envelope) == _json_line(envelope)

    def test_engine_payloads(self, serve_metric, serve_ckpt):
        service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
        engine = QueryEngine(service)
        pairs = [(3, 3)] + _pairs(31)
        us, vs = [u for u, _ in pairs], [v for _, v in pairs]
        for op in ("path", "distance", "route"):
            answers = engine.execute(op, us, vs)
            assert answers.service_json == _service_json(answers.service)
            for i, (u, v) in enumerate(pairs):
                line = _assert_same_line(i, answers, i)
                if op == "path" and u == v:
                    assert answers.result(i) == {
                        "path": [u], "hops": 0, "weight": 0,
                        "stretch": 1.0, "tree": -1,
                    }
                if op == "distance" and u == v:
                    assert answers.result(i) == {"distance": 0.0}
                # One pair answers the same alone and in a batch of 32.
                alone = engine.execute(op, [u], [v])
                assert _assert_same_line(i, alone) == line

    def test_path_answers_compute_each_distance_once(self, serve_metric,
                                                     serve_ckpt):
        """δ per hop plus δ(u, v) once; a one-hop path's weight is its
        base distance, not a second call."""
        service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
        engine = QueryEngine(service)
        calls = OBS.registry.counter("kernel.euclidean.scalar_calls")
        pairs = [(3, 3)] + _pairs(31)
        with OBS.scoped(True):
            before = calls.value
            answers = engine.execute(
                "path", [u for u, _ in pairs], [v for _, v in pairs]
            )
            used = calls.value - before
        hops = [answers.result(i)["hops"] for i in range(len(pairs))]
        assert 1 in hops and max(hops) >= 2
        assert used == sum(1 + (h if h >= 2 else 0) for h in hops)

    def test_degraded_batch_after_tree_kill(self, serve_metric, serve_ckpt):
        service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
        engine = QueryEngine(service)
        killed = ChaosController(service).inject(kill=[0, 1], recover=False)
        assert killed["killed"] == [0, 1]
        pairs = _pairs(12)
        us, vs = [u for u, _ in pairs], [v for _, v in pairs]
        for op in ("path", "distance"):
            answers = engine.execute(op, us, vs)
            assert set(answers.status) == {"degraded"}
            assert answers.service["trees_pending"] == 2
            for i in range(len(pairs)):
                _assert_same_line(i, answers, i)


class TestServerEndToEnd:
    def test_ping_and_health(self, client):
        assert client.ping()["result"]["pong"] is True
        health = client.health()
        assert health["ready"] is True
        assert health["service"]["state"] == "ready"
        assert health["policy"]["max_batch"] == 8

    def test_path_matches_direct_navigator(self, server, client):
        navigator = server.server.service.navigator
        for u, v in _pairs(10):
            response = client.path(u, v)
            assert response["status"] == "ok"
            result = response["result"]
            assert result["path"] == navigator.find_path(u, v)
            assert result["hops"] <= K
            assert result["path"][0] == u and result["path"][-1] == v
            assert result["stretch"] >= 1.0 - 1e-9

    def test_distance_matches_direct_navigator(self, server, client):
        navigator = server.server.service.navigator
        for u, v in _pairs(10, offset=3):
            response = client.distance(u, v)
            assert response["status"] == "ok"
            assert response["result"]["distance"] == pytest.approx(
                navigator.approx_distance(u, v)
            )

    def test_route_delivers_with_stretch(self, client):
        response = client.route(2, 31)
        assert response["status"] == "ok"
        result = response["result"]
        assert result["path"][0] == 2 and result["path"][-1] == 31
        assert result["stretch"] >= 1.0 - 1e-9

    def test_pipelined_batch_keeps_request_order(self, client):
        pairs = _pairs(20)
        responses = client.query_batch("path", pairs)
        assert len(responses) == len(pairs)
        for (u, v), response in zip(pairs, responses):
            assert response["status"] == "ok"
            assert response["result"]["path"][0] == u
            assert response["result"]["path"][-1] == v

    def test_mixed_ops_on_one_connection(self, client):
        ids = client.send([
            {"op": "distance", "u": 1, "v": 2},
            {"op": "path", "u": 3, "v": 4},
            {"op": "ping"},
        ])
        distance, path, ping = client.collect(ids)
        assert "distance" in distance["result"]
        assert "path" in path["result"]
        assert ping["result"]["pong"] is True

    def test_tiny_deadline_returns_timeout(self, client):
        response = client.path(0, 1, deadline_ms=0.001)
        assert response["status"] == "timeout"
        assert response["ok"] is False

    def test_out_of_range_point_is_an_error(self, client):
        response = client.path(0, N + 100)
        assert response["status"] == "error"
        assert f"[0, {N})" in response["error"]

    def test_malformed_line_gets_error_envelope(self, client):
        client._sock.sendall(b"this is not json\n")
        response = client.collect([None])[0]
        assert response["status"] == "error"
        assert "not valid JSON" in response["error"]

    def test_unknown_op_echoes_id(self, client):
        response = client.request("explode")
        assert response["status"] == "error"
        assert response["id"] is not None

    def test_metrics_exposes_serve_instruments(self, client):
        text = client.metrics_text()
        assert "repro_serve_admitted" in text
        assert "# TYPE repro_serve_admitted counter" in text

    def test_http_facade(self, server):
        base = f"http://{server.host}:{server.port}"
        with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
            assert response.status == 200
            assert json.load(response)["ready"] is True
        with urllib.request.urlopen(f"{base}/readyz", timeout=30) as response:
            assert response.status == 200
        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
            assert response.status == 200
            assert b"repro_serve" in response.read()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/bogus", timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_every_envelope_carries_service_block(self, client):
        for response in client.query_batch("path", _pairs(5)):
            service = response["service"]
            assert service["state"] == "ready"
            assert service["degraded"] is False
            assert service["trees_pending"] == 0

    def test_response_line_is_the_encoded_envelope(self, server):
        engine = server.server.engine
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(encode_line({"id": 7, "op": "path", "u": 3, "v": 41}))
            with sock.makefile("rb") as reader:
                line = reader.readline()
        payload = engine.execute("path", [3], [41]).payload(0)
        assert line == encode_line(make_response(
            7, payload["status"], result=payload["result"],
            error=payload["error"], service=payload["service"],
        ))

    def test_oversized_line_gets_error_then_serves_on(self, client):
        client._sock.sendall(
            b'{"id": 1, "op": "ping", "pad": "' + b"x" * 200_000 + b'"}\n'
            + encode_line({"id": 2, "op": "ping"})
        )
        error, pong = client.recv(), client.recv()
        assert error["status"] == "error"
        assert error["id"] is None
        assert "longer than 65536 bytes" in error["error"]
        assert pong["id"] == 2
        assert pong["result"]["pong"] is True

    def test_pipelined_burst_is_written_in_few_writes(self, server,
                                                     monkeypatch):
        writes = []
        write = asyncio.StreamWriter.write

        def counting_write(writer, data):
            writes.append(data.count(b"\n"))
            return write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
        pairs = _pairs(240)[:200]
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(b"".join(
                encode_line({"id": i, "op": "path", "u": u, "v": v})
                for i, (u, v) in enumerate(pairs)
            ))
            responses = _read_lines(sock, count=len(pairs))
        assert len(pairs) == 200
        assert sorted(r["id"] for r in responses) == list(range(200))
        assert all(r["status"] == "ok" for r in responses)
        assert sum(writes) == 200
        assert len(writes) <= 200 // 4

    def test_fast_query_is_answered_inside_the_read(self, server,
                                                  monkeypatch):
        # A wide switch interval keeps every warm batch on the loop.
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 60.0)
        events = []
        write = asyncio.StreamWriter.write
        received = server_module._Connection.data_received

        peer = None

        def ours(transport):  # other tests' connections may still close
            return transport.get_extra_info("peername") == peer

        def counting_write(writer, data):
            if ours(writer.transport):
                events.append("write")
            return write(writer, data)

        def traced_read(conn, data):
            mine = ours(conn.transport)
            if mine:
                events.append("read")
            received(conn, data)
            if mine:
                events.append("read done")

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
        monkeypatch.setattr(server_module._Connection, "data_received",
                            traced_read)
        with ServeClient(server.host, server.port) as client:
            peer = client._sock.getsockname()

            def settle():  # the server thread has left the last read
                give_up = time.monotonic() + 30
                while events[-1:] != ["read done"]:
                    assert time.monotonic() < give_up
                    time.sleep(0.001)

            for op in ("path", "distance"):  # first batches: offloaded
                assert client.request(op, u=1, v=2)["status"] == "ok"
            assert client.ping()["status"] == "ok"
            settle()
            events.clear()
            mixed = client.send([{"op": "path", "u": 3, "v": 4},
                                 {"op": "distance", "u": 5, "v": 6}])
            answers = client.collect(mixed)
            settle()
            seen = list(events)
        assert [answer["status"] for answer in answers] == ["ok", "ok"]
        # Both answers left in one write, inside the read that brought
        # their requests.
        assert seen == ["read", "write", "read done"]

    def test_half_closed_client_gets_every_answer(self, server):
        pairs = _pairs(60)
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(b"".join(
                encode_line({"id": i, "op": "path", "u": u, "v": v})
                for i, (u, v) in enumerate(pairs)
            ))
            sock.shutdown(socket.SHUT_WR)
            responses = _read_lines(sock)  # to EOF
        assert sorted(r["id"] for r in responses) == list(range(len(pairs)))
        assert all(r["status"] == "ok" for r in responses)

    def test_mixed_burst_matches_per_op_execute_byte_for_byte(self, server):
        engine = server.server.engine
        pairs = [(u, u) for u in (0, 7, 13)] + _pairs(90)
        rng = random.Random(3)
        rng.shuffle(pairs)
        burst = [("path" if rng.random() < 0.6 else "distance", u, v)
                 for u, v in pairs]
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(b"".join(
                encode_line({"id": i, "op": op, "u": u, "v": v})
                for i, (op, u, v) in enumerate(burst)
            ))
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as reader:
                lines = list(reader)
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == list(range(len(burst)))  # in request order
        navigator = server.server.service.navigator
        for line, (op, u, v) in zip(lines, burst):
            payload = engine.execute(op, [u], [v]).payload(0)
            assert line == encode_line(make_response(
                json.loads(line)["id"], payload["status"],
                result=payload["result"], error=payload["error"],
                service=payload["service"],
            ))
            # ... and both are the navigator's own answer.
            if op == "distance":
                expected = {"distance": navigator.approx_distance(u, v)}
            else:
                path, tree = navigator.find_path_with_tree(u, v)
                weight = navigator.path_weight(path)
                base = navigator.metric.distance(u, v)
                expected = {"path": path, "hops": len(path) - 1,
                            "weight": weight, "tree": tree,
                            "stretch": weight / base if base > 0 else 1.0}
            assert payload["result"] == expected

    def test_interleaved_connections_each_get_their_answers_in_order(
        self, server
    ):
        socks = [socket.create_connection((server.host, server.port),
                                          timeout=30) for _ in range(2)]
        try:
            sent = [[], []]
            for wave in range(6):
                for which, sock in enumerate(socks):
                    lines = []
                    for u, v in _pairs(15, offset=wave * 15 + which):
                        request_id = f"{which}-{len(sent[which])}"
                        sent[which].append((request_id, u, v))
                        lines.append(encode_line(
                            {"id": request_id, "op": "path", "u": u, "v": v}
                        ))
                    sock.sendall(b"".join(lines))
            for which, sock in enumerate(socks):
                responses = _read_lines(sock, count=len(sent[which]))
                assert [r["id"] for r in responses] == \
                    [request_id for request_id, _, _ in sent[which]]
                for response, (_, u, v) in zip(responses, sent[which]):
                    assert response["status"] == "ok"
                    assert response["result"]["path"][0] == u
                    assert response["result"]["path"][-1] == v
        finally:
            for sock in socks:
                sock.close()

    def test_client_that_stops_reading_stalls_only_itself(self, server):
        """Reading pauses past the write buffer's high-water mark and
        resumes once the client drains; other connections serve on."""
        chunk = encode_line({"id": 0, "op": "ping"}) * 100
        stalled = socket.socket()
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            stalled.setsockopt(socket.SOL_SOCKET, option, 4096)
        stalled.settimeout(60)
        stalled.connect((server.host, server.port))
        peer = stalled.getsockname()

        def transport():
            for conn in list(server.server.connections):
                if conn.transport.get_extra_info("peername") == peer:
                    return conn.transport
            return None

        stop = threading.Event()
        chunks = []

        def send():  # never reads: its answers back up in the daemon
            while not stop.is_set():
                stalled.sendall(chunk)
                chunks.append(1)
            stalled.shutdown(socket.SHUT_WR)

        sender = threading.Thread(target=send, daemon=True)
        with stalled:
            give_up = time.monotonic() + 60
            while transport() is None:
                assert time.monotonic() < give_up, "no connection"
                time.sleep(0.01)
            # Small kernel buffers on both ends: the daemon's own write
            # buffer fills after a few hundred answers.
            daemon_side = transport().get_extra_info("socket")
            for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                daemon_side.setsockopt(socket.SOL_SOCKET, option, 4096)
            sender.start()
            while transport().is_reading():
                assert time.monotonic() < give_up, "reading never paused"
                time.sleep(0.01)
            # Another connection is served while this one is paused.
            with ServeClient(server.host, server.port) as other:
                assert other.ping()["result"]["pong"] is True
                assert other.path(1, 2)["status"] == "ok"
            assert not transport().is_reading()
            stop.set()
            # Draining resumes reading: every request sent is answered.
            with stalled.makefile("rb") as reader:
                answers = [json.loads(line) for line in reader]
            sender.join(30)
        assert len(answers) == len(chunks) * 100
        assert all(answer["result"]["pong"] for answer in answers)

    def test_queries_flow_while_a_route_scheme_builds(
        self, serve_metric, serve_ckpt, monkeypatch
    ):
        """A route pass that builds its routing scheme runs off the
        loop without holding back path and distance queries: with a
        scheme build longer than their deadline, none of them times
        out, and the route query is answered once the build is done."""
        building = threading.Event()
        real_scheme = engine_module.MetricRoutingScheme

        def slow_scheme(*args, **kwargs):
            building.set()
            time.sleep(1.5)
            return real_scheme(*args, **kwargs)

        monkeypatch.setattr(engine_module, "MetricRoutingScheme",
                            slow_scheme)
        service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
        policy = AdmissionPolicy(max_batch=8, default_deadline=0.5)
        with ThreadedServer(service, policy=policy) as threaded, \
                ServeClient(threaded.host, threaded.port) as client:
            route_id = client.send([
                {"op": "route", "u": 2, "v": 31, "deadline_ms": 30000},
            ])
            assert building.wait(30)
            sent = []
            give_up = time.monotonic() + 1.0
            while time.monotonic() < give_up:
                wave = [{"op": op, "u": u, "v": v}
                        for op in ("path", "distance")
                        for u, v in _pairs(2, offset=len(sent))]
                sent += client.send(wave)
                time.sleep(0.05)
            answers = client.collect(sent)
            routed = client.collect(route_id)[0]
        assert len(answers) >= 40
        assert {answer["status"] for answer in answers} == {"ok"}
        assert routed["status"] == "ok"
        assert routed["result"]["path"][0] == 2

    def test_deadline_expires_behind_a_slow_executor_batch(
        self, serve_metric, serve_ckpt, monkeypatch
    ):
        execute = QueryEngine.execute

        def slow_execute(engine, op, us, vs):
            if (0, 1) in zip(us, vs):
                time.sleep(1.5)
            return execute(engine, op, us, vs)

        monkeypatch.setattr(QueryEngine, "execute", slow_execute)
        service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
        policy = AdmissionPolicy(default_deadline=30.0)
        with OBS.scoped(True), ThreadedServer(service, policy=policy) \
                as threaded, ServeClient(threaded.host, threaded.port) as client:
            before = _prom_sample(client.metrics_text(), "repro_serve_timeouts")
            # The first batch of an op runs on the executor.
            slow_ids = client.send([{"op": "path", "u": 0, "v": 1}])
            time.sleep(0.1)
            started = time.perf_counter()
            expired = client.path(2, 3, deadline_ms=100)
            waited = time.perf_counter() - started
            slow = client.collect(slow_ids)[0]
            after = _prom_sample(client.metrics_text(), "repro_serve_timeouts")
        assert expired["status"] == "timeout"
        assert waited < 1.0  # at its deadline, not when the batch returns
        assert slow["status"] == "ok"
        assert after - before == 1


# ----------------------------------------------------------------------
# Chaos under live traffic (the acceptance scenario)


def _assert_contract_or_labelled(response, u, v):
    """Every delivered answer is within-contract or explicitly labelled.

    ``ok`` promises the full contract (ready-generation snapshot, hop
    budget); ``degraded`` promises a delivered best-effort answer with
    the service block saying why.  Anything else here is a bug.
    """
    status = response["status"]
    assert status in ("ok", "degraded"), response
    result = response["result"]
    assert result["path"][0] == u and result["path"][-1] == v
    if status == "ok":
        assert response["service"]["state"] == "ready"
        assert result["hops"] <= K
    else:
        assert response["service"]["state"] in ("degraded", "recovering")
        assert response["service"]["trees_pending"] > 0


class TestChaosUnderTraffic:
    @pytest.fixture()
    def chaos_server(self, serve_metric, serve_ckpt):
        service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
        with ThreadedServer(
            service,
            policy=AdmissionPolicy(max_batch=8),
        ) as threaded:
            yield threaded

    def test_kill_degrade_recover_cycle(self, chaos_server):
        with OBS.scoped(True), ServeClient(
            chaos_server.host, chaos_server.port
        ) as client:
            pairs = _pairs(16)

            # Phase 1 — full contract.
            for (u, v), response in zip(
                pairs, client.query_batch("path", pairs)
            ):
                assert response["status"] == "ok"
                assert response["result"]["hops"] <= K

            # Phase 2 — kill a tree mid-traffic: launch a pipelined wave,
            # inject the fault from a second connection while it is in
            # flight, then audit every wave response.  Whatever the
            # interleaving, each answer must be within-contract or
            # explicitly degraded-labelled.
            wave_ids = client.send(
                [{"op": "path", "u": u, "v": v} for u, v in pairs]
            )
            with ServeClient(
                chaos_server.host, chaos_server.port
            ) as chaos_client:
                outcome = chaos_client.chaos(kill=[0], recover=False)
            assert outcome["result"]["killed"] == [0]
            for (u, v), response in zip(pairs, client.collect(wave_ids)):
                _assert_contract_or_labelled(response, u, v)

            # After the kill returns, everything is labelled degraded —
            # delivered from the survivors, never an unlabelled answer.
            health = client.health()
            assert health["ready"] is False
            assert health["service"]["state"] == "degraded"
            assert health["service"]["trees_pending"] == 1
            for (u, v), response in zip(
                pairs, client.query_batch("path", pairs)
            ):
                assert response["status"] == "degraded"
                assert response["ok"] is True
                assert response["result"]["path"][0] == u
                assert response["result"]["path"][-1] == v
            base = f"http://{chaos_server.host}:{chaos_server.port}"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/readyz", timeout=30)
            excinfo.value.close()
            assert excinfo.value.code == 503

            # Phase 3 — background recovery, traffic still flowing.
            assert client.chaos(recover=True)["result"]["recovering"] is True
            while True:
                state = client.health()["service"]["state"]
                for (u, v), response in zip(
                    pairs, client.query_batch("path", pairs)
                ):
                    _assert_contract_or_labelled(response, u, v)
                if state == "ready":
                    break

            # Phase 4 — full contract restored, readiness reflects it.
            health = client.wait_state("ready")
            assert health["ready"] is True
            for (u, v), response in zip(
                pairs, client.query_batch("path", pairs)
            ):
                assert response["status"] == "ok"
                assert response["result"]["hops"] <= K
            with urllib.request.urlopen(
                f"{base}/readyz", timeout=30
            ) as response:
                assert response.status == 200
            text = client.metrics_text()
            assert "repro_serve_chaos_trees_killed" in text

    def test_kill_random_is_seeded_and_deterministic(self, serve_metric,
                                                     serve_ckpt):
        killed = []
        for _ in range(2):
            service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
            with ThreadedServer(service) as threaded:
                with ServeClient(threaded.host, threaded.port) as client:
                    outcome = client.chaos(
                        kill_random=2, seed=9, recover=False
                    )
                    killed.append(tuple(outcome["result"]["killed"]))
        assert killed[0] == killed[1]
        assert len(killed[0]) == 2

    @pytest.mark.stress
    def test_soak_kill_recover_cycles_under_threads(self, serve_metric,
                                                    serve_ckpt):
        """Opt-in soak: repeated kill/recover cycles under concurrent
        client threads; every response delivered within-contract or
        degraded-labelled, and the service always returns to ready."""
        service = CheckpointService(serve_metric, k=K).load(serve_ckpt)
        with ThreadedServer(
            service,
            policy=AdmissionPolicy(max_batch=8),
        ) as threaded:
            stop = threading.Event()
            failures = []

            def traffic(seed):
                rng = random.Random(seed)
                with ServeClient(threaded.host, threaded.port) as c:
                    while not stop.is_set():
                        u, v = rng.sample(range(N), 2)
                        response = c.path(u, v)
                        try:
                            _assert_contract_or_labelled(response, u, v)
                        except AssertionError as exc:
                            failures.append(str(exc))
                            return

            threads = [
                threading.Thread(target=traffic, args=(i,), daemon=True)
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            with ServeClient(threaded.host, threaded.port) as admin:
                for cycle in range(3):
                    outcome = admin.chaos(
                        kill_random=1, seed=cycle, recover=True
                    )
                    assert outcome["result"]["killed"]
                    admin.wait_state("ready", timeout=300)
            stop.set()
            for thread in threads:
                thread.join(60)
            assert not failures, failures[:3]


def test_cli_parser_accepts_serve(tmp_path):
    from repro.cli import build_parser

    args = build_parser().parse_args([
        "serve", str(tmp_path / "cover.ckpt"),
        "--n", "60", "--port", "0", "--max-batch", "16",
    ])
    assert args.func.__name__ == "cmd_serve"
    assert args.max_batch == 16
    assert args.deadline_ms == 2000.0
