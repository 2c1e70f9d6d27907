"""The observability layer: registry semantics, span tracing, worker
delta merging, cache-hit accounting, and the tracing-changes-nothing
differential guarantee.

Tier-1 (the ``observability`` marker selects but does not deselect):
instruments must be cheap, correct, and — above all — inert: the same
seeded workload must produce bit-identical covers, paths and metric
outputs with tracing off, tracing on, and tracing on across a 2-worker
process pool.  The ``bench``-marked gate at the bottom measures the
disabled-mode guard cost directly and holds it under 2% of a query
workload.
"""

import json
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.metric_navigator import MetricNavigator
from repro.metrics.euclidean import random_points
from repro.metrics.kernels import CachedMetric
from repro.observability import (
    OBS,
    TRACE_SCHEMA,
    MetricsRegistry,
    format_span_tree,
    render_trace_report,
    trace,
    trace_document,
    validate_trace_json,
)
from repro.parallel import map_per_tree
from repro.treecover.dumbbell import robust_tree_cover
from repro.util.counting import CountingComparator, CountingSemigroup

pytestmark = pytest.mark.observability


@pytest.fixture(autouse=True)
def _pristine_obs():
    """Every test starts and ends with tracing off and state empty."""
    was_enabled = OBS.enabled
    OBS.disable()
    OBS.clear()
    yield
    OBS.enabled = was_enabled
    OBS.clear()


# ----------------------------------------------------------------------
# Metrics registry


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    c = reg.counter("a.calls")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.counter("a.calls") is c
    g = reg.gauge("a.level")
    g.set(2.5)
    assert g.value == 2.5
    h = reg.histogram("a.sizes")
    for v in (1, 2, 3, 1000):
        h.observe(v)
    assert h.count == 4
    assert h.min == 1 and h.max == 1000
    assert h.mean == pytest.approx(1006 / 4)


def test_registry_rejects_kind_mismatch():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_histogram_buckets_are_base2_exponential():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    # bucket e covers (2^{e-1}, 2^e]; values <= 1 land in bucket 0.
    for v in (1, 2, 3, 4, 9):
        h.observe(v)
    snap = reg.snapshot()["histograms"]["h"]["buckets"]
    assert snap == {"0": 1, "1": 1, "2": 2, "4": 1}


def test_snapshot_delta_merge_roundtrip():
    reg = MetricsRegistry()
    reg.counter("c").inc(3)
    reg.histogram("h").observe(5)
    before = reg.snapshot()
    reg.counter("c").inc(2)
    reg.histogram("h").observe(7)
    delta = reg.delta_since(before)
    assert delta["counters"] == {"c": 2}
    assert delta["histograms"]["h"]["count"] == 1

    other = MetricsRegistry()
    other.counter("c").inc(10)
    other.merge(delta)
    assert other.counter("c").value == 12
    assert other.histogram("h").count == 1
    assert other.histogram("h").total == 7


def test_reset_zeroes_in_place_keeping_handles_live():
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc(9)
    reg.reset()
    assert c.value == 0
    assert reg.counter("c") is c


def test_prom_text_export():
    reg = MetricsRegistry()
    reg.counter("kernel.calls").inc(2)
    reg.histogram("navigator.hops").observe(3)
    text = reg.export_prom_text()
    assert "repro_kernel_calls 2" in text
    assert 'repro_navigator_hops_bucket{le="' in text
    assert "repro_navigator_hops_count 1" in text


def _fed_both_ways(prior, values):
    """Two histograms given ``prior`` one by one, then ``values`` one by
    one into the first and through ``observe_many`` into the second."""
    one, many = MetricsRegistry(), MetricsRegistry()
    h_one, h_many = one.histogram("h"), many.histogram("h")
    for value in prior:
        h_one.observe(value)
        h_many.observe(value)
    for value in values:
        h_one.observe(value)
    h_many.observe_many(values)
    return one, many


_finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(
    prior=st.lists(st.integers(-10**6, 10**6), max_size=5),
    values=st.lists(st.integers(-10**6, 10**6), max_size=40),
)
def test_observe_many_matches_observe_for_ints(prior, values):
    one, many = _fed_both_ways(prior, values)
    h_one, h_many = one.histogram("h"), many.histogram("h")
    assert (h_many.count, h_many.buckets, h_many.min, h_many.max) == (
        h_one.count, h_one.buckets, h_one.min, h_one.max
    )
    assert h_many.total == h_one.total
    assert many.export_prom_text() == one.export_prom_text()


@settings(max_examples=200, deadline=None)
@given(
    prior=st.lists(_finite, max_size=5),
    values=st.lists(st.one_of(_finite, st.integers(0, 10**4)), max_size=40),
)
def test_observe_many_matches_observe_for_floats(prior, values):
    one, many = _fed_both_ways(prior, values)
    h_one, h_many = one.histogram("h"), many.histogram("h")
    assert (h_many.count, h_many.buckets, h_many.min, h_many.max) == (
        h_one.count, h_one.buckets, h_one.min, h_one.max
    )
    # Summed in the same order, so the float total is bit-identical too.
    assert h_many.total == h_one.total


# ----------------------------------------------------------------------
# Span tracing


def test_disabled_trace_is_a_shared_noop_singleton():
    assert not OBS.enabled
    assert trace("a") is trace("b", n=3)
    with trace("a") as span:
        span.set(ignored=1)  # must be a silent no-op


def test_spans_nest_record_attrs_and_errors():
    with OBS.scoped(True):
        with trace("outer", n=10) as outer:
            outer.set(extra="yes")
            with trace("inner"):
                pass
        with pytest.raises(ValueError):
            with trace("boom"):
                raise ValueError("bad")
    roots = OBS.take_roots()
    assert [r["name"] for r in roots] == ["outer", "boom"]
    outer = roots[0]
    assert outer["attrs"] == {"n": 10, "extra": "yes"}
    assert [c["name"] for c in outer["children"]] == ["inner"]
    assert outer["duration_ns"] >= outer["children"][0]["duration_ns"] >= 0
    assert roots[1]["error"] == "ValueError: bad"
    assert OBS.take_roots() == []  # drained


def test_trace_document_validates_against_checked_in_schema():
    with OBS.scoped(True):
        with trace("work", n=4):
            OBS.registry.counter("c").inc()
            OBS.registry.histogram("h").observe(2)
    doc = trace_document(OBS.take_roots(), OBS.registry.snapshot())
    assert doc["schema"] == TRACE_SCHEMA
    assert validate_trace_json(doc) == []
    # and it survives a JSON round-trip unchanged
    assert validate_trace_json(json.loads(json.dumps(doc))) == []


def test_validator_rejects_malformed_documents():
    assert validate_trace_json({"schema": TRACE_SCHEMA}) != []
    bad_span = trace_document([{"start_ns": 1}])  # missing name
    assert any("name" in e for e in validate_trace_json(bad_span))
    wrong_schema = trace_document([])
    wrong_schema["schema"] = "nonsense/v9"
    assert validate_trace_json(wrong_schema) != []


def test_report_rendering_smoke():
    with OBS.scoped(True):
        with trace("build", n=7):
            with trace("stage"):
                OBS.registry.counter("some.counter").inc(5)
    doc = trace_document(OBS.take_roots(), OBS.registry.snapshot())
    lines = format_span_tree(doc["spans"][0])
    assert lines[0].startswith("build")
    assert lines[1].lstrip().startswith("stage")
    text = render_trace_report(doc)
    assert "build" in text and "some.counter" in text


def test_trace_report_cli(tmp_path, capsys):
    with OBS.scoped(True):
        with trace("cli-span", n=1):
            OBS.registry.counter("cli.counter").inc()
    doc = trace_document(OBS.take_roots(), OBS.registry.snapshot())
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["trace-report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cli-span" in out and "cli.counter" in out
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope"}')
    assert cli_main(["trace-report", str(bad)]) == 1


# ----------------------------------------------------------------------
# Worker delta capture


def _worker_task(ctx, item):
    OBS.registry.counter("test.worker.calls").inc()
    OBS.registry.histogram("test.worker.sizes").observe(item)
    with trace("task", item=item):
        pass
    return item * 2


def test_process_pool_merges_worker_metrics_and_spans():
    with OBS.scoped(True):
        with trace("fanout"):
            results = map_per_tree(_worker_task, [1, 2, 3, 4], workers=2)
    assert results == [2, 4, 6, 8]
    assert OBS.registry.counter("test.worker.calls").value == 4
    assert OBS.registry.histogram("test.worker.sizes").count == 4
    roots = OBS.take_roots()
    assert [r["name"] for r in roots] == ["fanout"]
    children = roots[0]["children"]
    assert [c["name"] for c in children] == ["task"] * 4
    # worker spans come back in input order, not completion order
    assert [c["attrs"]["item"] for c in children] == [1, 2, 3, 4]


def test_disabled_run_ships_no_deltas_through_the_pool():
    assert not OBS.enabled
    results = map_per_tree(_worker_task, [1, 2], workers=2)
    assert results == [2, 4]
    assert OBS.registry.counter("test.worker.calls").value == 0


# ----------------------------------------------------------------------
# Cache-hit accounting (the historical double-count bug)


def test_cached_metric_hits_do_not_recount_distance_work():
    inner = random_points(40, dim=2, seed=0)
    cached = CachedMetric(inner, block_size=8)
    with OBS.scoped(True):
        OBS.registry.reset()
        batch_calls = OBS.registry.counter("kernel.euclidean.batch_calls")
        hits = OBS.registry.counter("metric.cache.hits")
        misses = OBS.registry.counter("metric.cache.misses")

        first = cached.distance(3, 17)
        assert misses.value == 1 and hits.value == 0
        inner_calls_after_miss = batch_calls.value
        assert inner_calls_after_miss >= 1

        # Same block again, many times: hits only, the inner kernel
        # counters must not move (this was the double-count bug).
        for _ in range(5):
            assert cached.distance(3, 17) == first
        assert hits.value == 5
        assert misses.value == 1
        assert batch_calls.value == inner_calls_after_miss
        assert OBS.registry.counter("metric.cache.rows_materialized").value == 8


# ----------------------------------------------------------------------
# counting.py back-compat shim


def test_counting_shim_keeps_local_counts_and_mirrors_registry():
    sg = CountingSemigroup(min)
    cmp_ = CountingComparator()
    # disabled: local counts work, registry untouched
    assert sg.fold([3, 1, 2]) == 1
    assert cmp_.less(1, 2) is True
    assert sg.ops == 2 and cmp_.comparisons == 1
    assert OBS.registry.counter("semigroup.ops").value == 0
    assert OBS.registry.counter("comparator.comparisons").value == 0
    assert sg.reset() == 2 and sg.ops == 0

    with OBS.scoped(True):
        sg(1, 2)
        cmp_.max(3, 4)
    assert sg.ops == 1
    assert OBS.registry.counter("semigroup.ops").value == 1
    assert OBS.registry.counter("comparator.comparisons").value == 1


# ----------------------------------------------------------------------
# The differential guarantee: tracing is inert


def _cover_fingerprint(cover):
    return (
        [
            (
                tuple(ct.tree.parents),
                tuple(ct.tree.weights),
                tuple(ct.rep_point),
                tuple(ct.vertex_of_point),
            )
            for ct in cover.trees
        ],
        None if cover.home is None else tuple(cover.home),
    )


def _workload(workers):
    """One seeded build-and-query workload; returns (fingerprint, paths)."""
    metric = random_points(36, dim=2, seed=7)
    cover = robust_tree_cover(metric, eps=0.5, workers=workers)
    navigator = MetricNavigator(metric, cover, 3, workers=workers)
    pairs = [(i, (7 * i + 3) % 36) for i in range(12) if i != (7 * i + 3) % 36]
    paths = [navigator.find_path(u, v) for u, v in pairs]
    return _cover_fingerprint(cover), paths


def test_tracing_off_on_and_workers_are_bit_identical():
    baseline = _workload(workers=0)

    with OBS.scoped(True):
        OBS.clear()
        traced = _workload(workers=0)
        serial_metrics = OBS.registry.snapshot()
        OBS.clear()
        pooled = _workload(workers=2)
        pooled_metrics = OBS.registry.snapshot()

    assert traced == baseline
    assert pooled == baseline
    # The robust-cover pipeline does no speculative work, so even the
    # *metrics* agree between serial and 2-worker traced runs — with one
    # structural exception: lazy derived state (the tree-metric LCA
    # index) is rebuilt once per address space, so a pooled build
    # legitimately rebuilds it in both the worker and the parent.  (The
    # other documented divergence is the Ramsey cover's surplus draws.)
    lazy = {"kernel.tree.lca_builds"}
    assert {k: v for k, v in pooled_metrics["counters"].items() if k not in lazy} \
        == {k: v for k, v in serial_metrics["counters"].items() if k not in lazy}
    assert pooled_metrics["histograms"] == serial_metrics["histograms"]


# ----------------------------------------------------------------------
# Disabled-mode overhead gate (opt in with -m bench)


@pytest.mark.bench
def test_disabled_guard_overhead_is_under_two_percent():
    """Total disabled-mode instrumentation cost of a query workload,
    measured as (guard cost per check) x (number of instrumentation
    points hit), must stay under 2% of the workload's runtime."""
    metric = random_points(300, dim=2, seed=3)
    cover = robust_tree_cover(metric, eps=0.5)
    navigator = MetricNavigator(metric, cover, 3)
    pairs = [(i, (13 * i + 5) % 300) for i in range(200)
             if i != (13 * i + 5) % 300]

    def run():
        for u, v in pairs:
            navigator.find_path(u, v)

    assert not OBS.enabled
    workload_s = min(timeit.repeat(run, number=1, repeat=5))

    # Count the instrumentation points the workload actually hits.
    with OBS.scoped(True):
        OBS.registry.reset()
        run()
        snap = OBS.registry.snapshot()
    hits = sum(snap["counters"].values()) + sum(
        h["count"] for h in snap["histograms"].values()
    )

    # The disabled cost per point is one attribute truthiness check.
    n_checks = 1_000_000
    guard_s = timeit.timeit(
        "1 if OBS.enabled else 0", globals={"OBS": OBS}, number=n_checks
    )
    baseline_s = timeit.timeit("1 if False else 0", number=n_checks)
    per_check = max(0.0, guard_s - baseline_s) / n_checks

    overhead = hits * per_check
    assert overhead < 0.02 * workload_s, (
        f"{hits} instrumentation points x {per_check * 1e9:.1f}ns "
        f"= {overhead * 1e3:.3f}ms >= 2% of {workload_s * 1e3:.1f}ms"
    )
