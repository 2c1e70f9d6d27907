"""Differential conformance + locality audit for the netsim package.

The simulator must be *the same algorithm* as the in-process routing
stack, just distributed: every delivered envelope's node trace must be
hop-for-hop identical to what ``Network.route`` computes in one call,
for every scheme (tree / metric over robust, Ramsey, pruned, compact
covers / fault-tolerant), at any scheduler tie-break order and seed.
The locality tests prove the other half of the claim: a simulated node
*cannot* cheat, because its state is a closed slots struct of plain
data and the decision functions close over nothing global.
"""

import ast
import math
import pathlib
import random
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvariantViolation, RoutingError
from repro.graphs import random_tree
from repro.metrics import random_graph_metric, random_points, sample_pairs
from repro.netsim import (
    DROP_REASONS,
    EventScheduler,
    Link,
    MetricsExporter,
    NetworkSimulator,
    SimNode,
    SimReport,
    TIE_BREAK_POLICIES,
    all_pairs_sample,
    audit_locality,
    audit_payload,
    audit_protocol,
    compile_ft_scheme,
    compile_metric_scheme,
    compile_tree_scheme,
    kill_schedule,
    percentile,
    uniform_pairs,
)
from repro.netsim import node as node_module
from repro.observability import OBS
from repro.resilience.injectors import RandomInjector
from repro.routing import (
    FaultTolerantRoutingScheme,
    MetricRoutingScheme,
    Network,
    build_tree_network,
    metric_protocol,
    tree_protocol,
)
from repro.treecover import (
    compact_tree_cover,
    prune_cover,
    ramsey_tree_cover,
    robust_tree_cover,
)

pytestmark = pytest.mark.netsim


# -- shared builds (expensive: one per module) ----------------------------


@pytest.fixture(scope="module")
def tree_env():
    tree = random_tree(80, seed=3)
    scheme, net = build_tree_network(tree, seed=5)
    compiled = compile_tree_scheme(scheme, net)
    return scheme, net, compiled


@pytest.fixture(scope="module")
def metric_env():
    metric = random_points(50, dim=2, seed=13)
    cover = robust_tree_cover(metric, eps=0.45)
    scheme = MetricRoutingScheme(metric, cover, seed=14)
    return scheme, compile_metric_scheme(scheme)


@pytest.fixture(scope="module")
def ft_env():
    metric = random_points(44, dim=2, seed=29)
    cover = robust_tree_cover(metric, eps=0.45)
    scheme = FaultTolerantRoutingScheme(metric, f=2, cover=cover, seed=30)
    return scheme, compile_ft_scheme(scheme)


def run_sim(compiled, pairs, tie_break="fifo", seed=0, kills=()):
    sim = NetworkSimulator(compiled, tie_break=tie_break, seed=seed)
    sim.send_many(pairs, spacing=0.01)
    for when, victim in kills:
        sim.kill_at(when, victim)
    sim.run()
    return sim


def traces_by_pair(sim):
    return {(e.src, e.dst): e.trace() for e in sim.delivered}


# -- scheduler ------------------------------------------------------------


class TestEventScheduler:
    def test_time_order_is_respected(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(3.0, lambda: seen.append("late"))
        sched.schedule(1.0, lambda: seen.append("early"))
        sched.schedule(2.0, lambda: seen.append("middle"))
        assert sched.run() == 3
        assert seen == ["early", "middle", "late"]

    def test_fifo_and_lifo_order_ties(self):
        orders = {}
        for policy in ("fifo", "lifo"):
            sched = EventScheduler(tie_break=policy)
            seen = []
            for i in range(5):
                sched.schedule(1.0, lambda i=i: seen.append(i))
            sched.run()
            orders[policy] = seen
        assert orders["fifo"] == [0, 1, 2, 3, 4]
        assert orders["lifo"] == [4, 3, 2, 1, 0]

    def test_seeded_policy_is_deterministic_and_seed_sensitive(self):
        def order(seed):
            sched = EventScheduler(tie_break="seeded", seed=seed)
            seen = []
            for i in range(12):
                sched.schedule(1.0, lambda i=i: seen.append(i))
            sched.run()
            return seen

        assert order(7) == order(7)
        assert any(order(a) != order(b) for a, b in [(0, 1), (1, 2), (0, 2)])

    def test_rejects_scheduling_into_the_past(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: sched.schedule(0.5, lambda: None))
        with pytest.raises(ValueError):
            sched.run()

    def test_max_events_catches_self_rescheduling_loops(self):
        sched = EventScheduler()

        def rearm():
            sched.schedule(sched.now + 1.0, rearm)

        sched.schedule(0.0, rearm)
        with pytest.raises(RuntimeError):
            sched.run(max_events=50)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler(tie_break="random")


class TestLink:
    def test_pure_latency_never_queues(self):
        link = Link(0, 1, 0, weight=2.0, latency_scale=3.0)
        assert link.transmit(10.0) == pytest.approx(16.0)
        assert link.queued_at(10.0) == 0

    def test_serialization_builds_backlog(self):
        link = Link(0, 1, 0, weight=1.0, service_time=1.0)
        first = link.transmit(0.0)
        second = link.transmit(0.0)
        assert second == first + 1.0
        assert link.queued_at(0.0) == 2

    def test_bounded_queue_tail_drops(self):
        link = Link(0, 1, 0, weight=1.0, service_time=1.0, queue_cap=2)
        assert link.transmit(0.0) is not None
        assert link.transmit(0.0) is not None
        assert link.transmit(0.0) is None  # queue full: dropped
        assert link.sent == 2


# -- differential conformance ---------------------------------------------


class TestTreeConformance:
    def test_traces_match_in_process_routing(self, tree_env):
        scheme, net, compiled = tree_env
        pairs = all_pairs_sample(compiled.n, 250, seed=1)
        sim = run_sim(compiled, pairs, tie_break="seeded", seed=7)
        assert len(sim.delivered) == len(pairs)
        traces = traces_by_pair(sim)
        for u, v in pairs:
            result = net.route(u, tree_protocol, scheme.labels[v], scheme.tables)
            assert traces[(u, v)] == tuple(result.path)

    def test_contract_gates_hold(self, tree_env):
        _, _, compiled = tree_env
        pairs = uniform_pairs(compiled.n, 300, seed=2)
        report = SimReport(run_sim(compiled, pairs)).check_contract(
            min_delivery=1.0,
            gamma=1.0 + 1e-9,
            hop_budget=2,
            header_budget=math.ceil(math.log2(compiled.n)) ** 2,
        )
        assert report.max_hops <= 2

    @pytest.mark.parametrize("tie_break", TIE_BREAK_POLICIES)
    def test_delivered_paths_invariant_to_tie_break(self, tree_env, tie_break):
        """Decisions are pure, so interleaving cannot move a packet."""
        scheme, net, compiled = tree_env
        pairs = uniform_pairs(compiled.n, 200, seed=3)
        baseline = traces_by_pair(run_sim(compiled, pairs, "fifo", seed=0))
        other = traces_by_pair(run_sim(compiled, pairs, tie_break, seed=99))
        assert baseline == other

    def test_rerun_is_bit_identical(self, tree_env):
        _, _, compiled = tree_env
        pairs = uniform_pairs(compiled.n, 150, seed=4)
        a = run_sim(compiled, pairs, "seeded", seed=5)
        b = run_sim(compiled, pairs, "seeded", seed=5)
        assert traces_by_pair(a) == traces_by_pair(b)
        assert a.scheduler.events_run == b.scheduler.events_run
        assert a.now == b.now


class TestMetricConformance:
    def test_robust_cover_traces_match(self, metric_env):
        scheme, compiled = metric_env
        pairs = all_pairs_sample(compiled.n, 200, seed=6)
        traces = traces_by_pair(run_sim(compiled, pairs, "lifo"))
        for u, v in pairs:
            assert traces[(u, v)] == tuple(scheme.route(u, v).path)

    def test_ramsey_cover_traces_match(self):
        metric = random_graph_metric(40, seed=16)
        cover = ramsey_tree_cover(metric, ell=2, seed=17)
        scheme = MetricRoutingScheme(metric, cover, seed=18)
        compiled = compile_metric_scheme(scheme)
        audit_locality(compiled)
        pairs = all_pairs_sample(40, 150, seed=7)
        traces = traces_by_pair(run_sim(compiled, pairs))
        for u, v in pairs:
            assert traces[(u, v)] == tuple(scheme.route(u, v).path)

    def test_pruned_cover_traces_match(self, metric_env):
        """Pruning shrinks ζ but must not change delivered correctness."""
        scheme, _ = metric_env
        report = prune_cover(scheme.cover, eps=0.05)
        pruned_scheme = MetricRoutingScheme(
            scheme.metric, report.cover, seed=21
        )
        compiled = compile_metric_scheme(pruned_scheme, gamma=report.gamma)
        audit_locality(compiled)
        pairs = all_pairs_sample(compiled.n, 150, seed=8)
        sim = run_sim(compiled, pairs)
        traces = traces_by_pair(sim)
        for u, v in pairs:
            assert traces[(u, v)] == tuple(pruned_scheme.route(u, v).path)
        SimReport(sim).check_contract(
            min_delivery=1.0, gamma=report.gamma + 1e-9, hop_budget=2
        )

    def test_compact_cover_traces_match(self):
        metric = random_points(40, dim=2, seed=33)
        cover = compact_tree_cover(metric, eps=0.5)
        scheme = MetricRoutingScheme(metric, cover, seed=34)
        compiled = compile_metric_scheme(scheme)
        audit_locality(compiled)
        pairs = all_pairs_sample(40, 120, seed=9)
        traces = traces_by_pair(run_sim(compiled, pairs, "seeded", seed=2))
        for u, v in pairs:
            assert traces[(u, v)] == tuple(scheme.route(u, v).path)

    def test_stretch_gate_holds(self, metric_env):
        _, compiled = metric_env
        pairs = uniform_pairs(compiled.n, 300, seed=10)
        SimReport(run_sim(compiled, pairs)).check_contract(
            min_delivery=1.0,
            header_budget=math.ceil(math.log2(compiled.n)) ** 2,
            hop_budget=2,
        )


class TestFaultTolerantSim:
    def test_static_faults_match_in_process_routing(self, ft_env):
        """Kill before traffic == the in-process faulty-set route."""
        scheme, compiled = ft_env
        faults = {7, 11}
        pairs = [
            (u, v)
            for u, v in all_pairs_sample(compiled.n, 150, seed=11)
            if u not in faults and v not in faults
        ]
        sim = NetworkSimulator(compiled, seed=1)
        for victim in faults:
            sim.kill_at(0.0, victim)
        sim.send_many(pairs, spacing=0.01, start=1.0)
        sim.run()
        assert len(sim.delivered) == len(pairs)
        traces = traces_by_pair(sim)
        for u, v in pairs:
            expected = scheme.route(u, v, faults=faults)
            assert traces[(u, v)] == tuple(expected.path)

    def test_mid_traffic_kills_only_lose_fault_touching_messages(self, ft_env):
        scheme, compiled = ft_env
        pairs = uniform_pairs(compiled.n, 400, seed=12)
        horizon = 0.01 * len(pairs)
        kills = kill_schedule(
            RandomInjector(compiled.n, seed=13),
            count=scheme.f,
            start=horizon / 2.0,
            spacing=0.5,
        )
        sim = run_sim(compiled, pairs, "seeded", seed=3, kills=kills)
        report = SimReport(sim)
        assert report.kills == scheme.f
        # every loss is accounted to a dead node — exact accounting
        losses = {r: c for r, c in report.drop_counts.items() if c}
        assert set(losses) <= {"dead_node"}
        assert report.delivered + report.dropped == report.injected
        report.check_contract(min_delivery=0.9, hop_budget=2,
                              expected_kills=scheme.f)

    def test_kills_rearm_the_decision_function(self, ft_env):
        _, compiled = ft_env
        sim = NetworkSimulator(compiled, seed=4)
        before = sim.protocol
        sim.kill_at(0.0, 5)
        sim.run()
        assert sim.protocol is not before
        assert sim.faults == {5}


# -- hypothesis properties ------------------------------------------------


tree_instances = st.tuples(
    st.integers(min_value=2, max_value=70),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(TIE_BREAK_POLICIES),
    st.integers(min_value=0, max_value=10**6),
)


@given(tree_instances)
@settings(max_examples=25, deadline=None)
def test_property_tree_sim_conforms_on_random_metrics(params):
    """Any tree metric, any port seed, any tie-break, any scheduler
    seed: simulated traces equal in-process routes, stretch is 1."""
    n, seed, tie_break, sched_seed = params
    tree = random_tree(n, seed=seed)
    scheme, net = build_tree_network(tree, seed=seed % 97)
    compiled = compile_tree_scheme(scheme, net)
    rng = random.Random(seed + 1)
    pairs = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(min(25, n * 2))
    ]
    pairs = [(u, v) for u, v in pairs if u != v]
    sim = run_sim(compiled, pairs, tie_break, seed=sched_seed)
    assert len(sim.delivered) == len(pairs)
    traces = traces_by_pair(sim)
    for u, v in set(pairs):
        result = net.route(u, tree_protocol, scheme.labels[v], scheme.tables)
        assert traces[(u, v)] == tuple(result.path)
        assert len(traces[(u, v)]) - 1 <= 2


@given(
    st.sets(st.integers(min_value=0, max_value=43), min_size=0, max_size=2),
    st.sampled_from(TIE_BREAK_POLICIES),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=25, deadline=None)
def test_property_ft_sim_survives_any_fault_set(ft_env, faults, tie_break,
                                                sched_seed):
    """Up to f faults at any tie-break order: fault-free pairs are all
    delivered, within 2 hops, along the in-process faulty route."""
    scheme, compiled = ft_env
    pairs = [
        (u, v)
        for u, v in all_pairs_sample(compiled.n, 40, seed=sched_seed % 1009)
        if u not in faults and v not in faults
    ]
    sim = NetworkSimulator(compiled, tie_break=tie_break, seed=sched_seed)
    for victim in faults:
        sim.kill_at(0.0, victim)
    sim.send_many(pairs, spacing=0.01, start=1.0)
    sim.run()
    assert len(sim.delivered) == len(pairs)
    traces = traces_by_pair(sim)
    for u, v in pairs:
        expected = scheme.route(u, v, faults=set(faults))
        assert traces[(u, v)] == tuple(expected.path)
        assert len(traces[(u, v)]) - 1 <= 2


# -- locality audit -------------------------------------------------------


_FORBIDDEN_NODE_IMPORTS = (
    "repro.metrics", "repro.treecover", "repro.core", "repro.routing",
    "repro.observability", "repro.serve", "repro.resilience",
)


class TestLocalityAudit:
    def test_compiled_schemes_pass_the_audit(self, tree_env, metric_env,
                                             ft_env):
        for compiled in (tree_env[2], metric_env[1], ft_env[1]):
            audit_locality(compiled)

    def test_node_module_imports_no_global_machinery(self):
        """Static gate: the node module cannot even *name* the global
        structures, mirroring the test_no_bare_asserts AST sweep."""
        path = pathlib.Path(node_module.__file__)
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "repro" if node.level else ""
                names = [(node.module or base)]
            else:
                continue
            for name in names:
                qualified = name if name.startswith("repro") else f"repro.{name}"
                if any(
                    qualified.startswith(banned)
                    for banned in _FORBIDDEN_NODE_IMPORTS
                ):
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
        assert not offenders, (
            "netsim.node must stay structurally local; it imports:\n  "
            + "\n  ".join(offenders)
        )

    def test_nodes_reject_extra_attributes(self):
        node = SimNode(0, {"x": 1}, {}, frozenset({0}))
        with pytest.raises(AttributeError):
            node.metric = object()
        assert not hasattr(node, "__dict__")

    def test_smuggled_object_in_table_is_caught(self, tree_env):
        scheme, net, _ = tree_env

        class Sneaky:
            pass

        with pytest.raises(InvariantViolation):
            audit_payload({"entry": Sneaky()}, "table")
        # plain nested data passes
        audit_payload({"a": [1, (2.0, "x")], ("k",): frozenset({3})}, "ok")

    def test_bound_method_protocol_is_rejected(self, metric_env):
        scheme, _ = metric_env
        with pytest.raises(InvariantViolation):
            audit_protocol(scheme.route)

    def test_closure_over_global_object_is_rejected(self, metric_env):
        scheme, _ = metric_env

        def cheating(u, table, header, label):
            # Reads u's table off the scheme instead of the node.
            return metric_protocol(u, scheme.tables[u], header, label)

        with pytest.raises(InvariantViolation):
            audit_protocol(cheating)

    def test_whitelist_drift_is_caught(self, tree_env):
        _, _, compiled = tree_env
        original = SimNode.__slots__
        try:
            SimNode.__slots__ = original + ("backdoor",)
            with pytest.raises(InvariantViolation):
                audit_locality(compiled)
        finally:
            SimNode.__slots__ = original


# -- typed routing errors (satellite: ports.py) ---------------------------


class TestRoutingErrors:
    def test_unwired_neighbor_lookup_raises_typed_error(self):
        from repro.graphs import Graph

        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        net = Network(g, seed=0)
        with pytest.raises(RoutingError) as excinfo:
            net.port(0, 2)
        assert excinfo.value.node == 0
        assert isinstance(excinfo.value, ValueError)  # historical contract

    def test_unknown_port_during_route_raises_typed_error(self):
        from repro.graphs import Graph

        g = Graph(2)
        g.add_edge(0, 1, 1.0)
        net = Network(g, seed=0)

        def bad_protocol(u, table, header, label):
            return 42, None  # port 42 was never wired

        with pytest.raises(RoutingError) as excinfo:
            net.route(0, bad_protocol, {}, [None, None])
        assert excinfo.value.node == 0
        assert excinfo.value.port == 42

    def test_hop_exhaustion_is_a_routing_error_and_runtime_error(self):
        from repro.graphs import Graph

        g = Graph(2)
        g.add_edge(0, 1, 1.0)
        net = Network(g, seed=0)

        def bouncing(u, table, header, label):
            return 0, None

        with pytest.raises(RoutingError):
            net.route(0, bouncing, {}, [None, None], max_hops=5)
        with pytest.raises(RuntimeError):  # historical contract
            net.route(0, bouncing, {}, [None, None], max_hops=5)

    def test_sim_accounts_routing_errors_instead_of_crashing(self, tree_env):
        _, _, compiled = tree_env
        sim = NetworkSimulator(compiled, seed=0)
        sim.protocol = lambda u, table, header, label: (10**9, None)
        sim.send(0, 1)
        sim.run()
        assert sim.drop_counts["routing_error"] == 1
        assert not sim.delivered


# -- observability + report ------------------------------------------------


class TestCountersAndExporter:
    def test_counters_match_report(self, tree_env):
        _, _, compiled = tree_env
        OBS.registry.reset()
        with OBS.scoped(True):
            pairs = uniform_pairs(compiled.n, 120, seed=17)
            sim = run_sim(compiled, pairs)
        report = SimReport(sim)
        snap = OBS.registry.snapshot()["counters"]
        assert snap["netsim.injected"] == report.injected
        assert snap["netsim.delivered"] == report.delivered
        for reason in DROP_REASONS:
            assert snap[f"netsim.dropped_{reason}"] == report.drop_counts[reason]

    def test_metrics_endpoint_scrapes(self, tree_env):
        _, _, compiled = tree_env
        OBS.registry.reset()
        with OBS.scoped(True):
            run_sim(compiled, uniform_pairs(compiled.n, 50, seed=18))
        with MetricsExporter(port=0) as exporter:
            url = f"http://127.0.0.1:{exporter.port}/metrics"
            text = urllib.request.urlopen(url).read().decode("utf-8")
            assert "repro_netsim_delivered 50" in text
            assert "repro_netsim_hops_count 50" in text
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{exporter.port}/nope"
                )


class TestSimReport:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile(values, 100) == 4.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_contract_violations_raise(self, tree_env):
        _, _, compiled = tree_env
        sim = run_sim(compiled, uniform_pairs(compiled.n, 60, seed=19))
        report = SimReport(sim)
        report.check_contract(min_delivery=1.0)  # clean run passes
        with pytest.raises(InvariantViolation):
            report.check_contract(gamma=0.5)
        with pytest.raises(InvariantViolation):
            report.check_contract(header_budget=0)
        with pytest.raises(InvariantViolation):
            report.check_contract(hop_budget=0)
        with pytest.raises(InvariantViolation):
            report.check_contract(expected_kills=3)

    def test_to_dict_is_schema_stable(self, tree_env):
        _, _, compiled = tree_env
        sim = run_sim(compiled, uniform_pairs(compiled.n, 40, seed=20))
        payload = SimReport(sim).to_dict()
        for key in ("scheme", "n", "injected", "delivered", "delivery_rate",
                    "dropped", "hops_max", "header_bits_max", "stretch_p99"):
            assert key in payload
        assert payload["delivered"] == 40


# -- full-size acceptance leg (opt in with -m bench) -----------------------


@pytest.mark.bench
def test_full_scale_acceptance_gates():
    """The ISSUE acceptance row: n=10⁴ nodes, ≥10⁵ delivered messages,
    p99 stretch within γ, headers within log²n bits, FT leg delivering
    within budget with ≤ f kills mid-traffic."""
    from repro.bench import bench_netsim, validate_bench_json

    payload = bench_netsim(seed=1)
    validate_bench_json(payload)
    rows = {row["name"]: row for row in payload["results"]}

    tree = rows["netsim_tree"]["detail"]
    assert rows["netsim_tree"]["n"] == 10_000
    assert tree["delivered"] >= 100_000
    assert tree["stretch_p99"] <= 1.0 + 1e-9
    assert tree["hops_max"] <= 2
    assert tree["header_bits_max"] <= math.ceil(math.log2(10_000)) ** 2

    metric = rows["netsim_metric"]["detail"]
    assert metric["delivery_rate"] == 1.0
    assert metric["stretch_p99"] <= metric["gamma_budget"] + 1e-9

    ft = rows["netsim_ft"]["detail"]
    assert ft["kills"] <= 2
    assert ft["delivery_rate"] >= 0.9
    losses = {r: c for r, c in ft["dropped"].items() if c}
    assert set(losses) <= {"dead_node"}
