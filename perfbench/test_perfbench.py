"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

One test drives a short run of a real workload (about twenty
seconds).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
from loadgen import Ingester, Sample, closed_loop, query_body  # noqa: E402


class FakeConnection:
    """Records what an :class:`Ingester` sends."""

    def __init__(self):
        self.sent = []

    def send(self, op, body, phase, due=None):
        sample = Sample(len(self.sent) + 1, op, body, phase, due=0.0)
        self.sent.append(sample)
        return sample


def _answer(sample, status="ok", **result):
    sample.response = {"id": sample.id, "status": status,
                       "result": dict(result, op=sample.op)}
    return sample


def test_benchmark_json_matches_the_metrics_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_percentiles_refuse_a_thin_tail():
    values = [float(i) for i in range(100)]
    p50, p90 = run.percentiles(values)
    assert p50 < p90
    with pytest.raises(run.BenchError):
        run.percentiles(values[:99])  # 9.9 samples beyond p90
    with pytest.raises(run.BenchError):
        run.percentiles([float(i) for i in range(999)], (99,))
    # Per-window percentiles are averaged (no window is cut from two);
    # every window must hold enough samples on its own.
    p50s = run.window_percentiles([values, [v + 10 for v in values]])
    assert p50s == [p50 + 5, p90 + 5]
    with pytest.raises(run.BenchError):
        run.window_percentiles([values, values[:99]])
    # A quarter of the windows at each end is left out.
    assert run.iq_mean([0, 1, 2, 2, 3, 3, 4, 100]) == 2.5


@pytest.mark.parametrize("spec", [run.MAPPED, run.CHURN],
                         ids=["mapped", "churn"])
def test_seed_changes_inputs_not_invocation(spec):
    one = run.invocation(spec, 1, "x.ckpt")
    two = run.invocation(spec, 2, "x.ckpt")

    def without_seed(args):
        i = args.index("--seed")
        return args[:i] + args[i + 2:]

    for a, b in zip(one, two):
        assert a != b
        assert without_seed(a) == without_seed(b)
    streams = [
        [query_body(random.Random(f"{seed}:queries"), 100, 0.8)
         for _ in range(20)]
        for seed in (1, 2)
    ]
    assert streams[0] != streams[1]
    assert run.generated_points(20, 1) != run.generated_points(20, 2)


def test_ingester_takes_live_ids_from_insert_replies_only():
    conn = FakeConnection()
    ingester = Ingester(conn, random.Random(0))
    ingester.send_next()
    first = conn.sent[-1]
    assert first.op == "insert"
    ingester.on_response(_answer(first, point_id=100))
    delete = conn.sent[-1]
    assert delete.op == "delete" and delete.body == {"point_id": 100}
    # The delete reply names the deleted id; it must not become live.
    ingester.on_response(_answer(delete, point_id=100))
    insert = conn.sent[-1]
    assert insert.op == "insert"
    assert ingester.inserted is None
    ingester.on_response(_answer(insert, point_id=101))
    assert conn.sent[-1].body == {"point_id": 101}
    assert ingester.coords == {100: first.body["point"],
                               101: insert.body["point"]}


def test_ingester_inserts_again_after_a_refused_insert():
    conn = FakeConnection()
    ingester = Ingester(conn, random.Random(0))
    ingester.send_next()
    ingester.on_response(_answer(conn.sent[-1], status="error"))
    assert conn.sent[-1].op == "insert"
    assert ingester.inserted is None


def test_a_real_run_reports_distinct_checked_metrics():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "netsim-tree", "--seed", "3", "--seconds", "8", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    values = [m["value"] for m in metrics.values()]
    for a, b in itertools.combinations(values, 2):
        assert a != b, metrics
    assert all(v > 0 for v in values)


class FakeSimulator:
    """Delivers ``per_step`` messages per simulated second, ``total`` in all."""

    def __init__(self, per_step, total):
        self.now = 0.0
        self.delivered = []
        self.scheduler = list(range(total))
        self.per_step = per_step

    def run(self, until):
        for _ in range(min(self.per_step, len(self.scheduler))):
            self.delivered.append(self.scheduler.pop())
        self.now = until


def test_netsim_slices_every_thousand_deliveries_with_a_calibration():
    import simjob

    slices = simjob._timed_run(FakeSimulator(300, 3000))
    # Slices close at 1200 and 2400 deliveries; the last 600 close when
    # the run ends (they count in throughput, not as a latency sample).
    assert [done for _, _, done in slices] == [1200, 1200, 600]
    assert all(wall > 0 and calib > 0 for wall, calib, _ in slices)


def test_normalise_rescales_to_the_reference_speed():
    ref_s = hostspeed.REF_MS / 1e3
    assert hostspeed.normalise(2.0, ref_s) == pytest.approx(2.0)
    # On a host running at half speed the chunk takes twice as long, and
    # a window of the same work is read as half its wall time.
    assert hostspeed.normalise(2.0, 2 * ref_s) == pytest.approx(1.0)


class AnsweringConnection:
    """Answers every request ``ok`` on the next poll."""

    def __init__(self):
        self.outstanding = 0
        self.pending = []
        self.sent = []

    def send(self, op, body, phase, due=None):
        sample = Sample(len(self.sent) + 1, op, body, phase, due=0.0)
        self.sent.append(sample)
        self.pending.append(sample)
        self.outstanding += 1
        return sample

    def poll(self, timeout, spin=False):
        done, self.pending = self.pending, []
        self.outstanding -= len(done)
        return [_answer(s) for s in done]

    def drain(self, timeout=0, spin=False):
        self.poll(timeout)


def test_closed_loop_sends_a_fixed_count_so_a_seed_repeats_its_requests():
    streams = []
    for _ in range(2):
        rng = random.Random("7:queries")
        conn = AnsweringConnection()
        sent = closed_loop(conn, 32, 1000,
                           lambda: query_body(rng, 200, 0.8), "closed")
        assert len(sent) == 1000 and conn.outstanding == 0
        streams.append([(s.op, s.body) for s in sent])
    assert streams[0] == streams[1]
