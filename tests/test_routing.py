"""Tests for the routing schemes (Theorems 5.1, 1.3, 5.2) and labelings."""

import itertools
import math
import random

import pytest

from repro.graphs import balanced_tree, caterpillar_tree, path_tree, random_tree
from repro.metrics import (
    TreeMetric,
    grid_graph_metric,
    random_graph_metric,
    random_points,
    sample_pairs,
)
from repro.routing import (
    FaultTolerantRoutingScheme,
    HeavyPathLabeling,
    MetricRoutingScheme,
    Network,
    build_tree_network,
    header_bits,
    label_bits,
    label_distance,
    lca_key,
    metric_header_bits,
    tree_protocol,
)
from repro.treecover import planar_tree_cover, ramsey_tree_cover, robust_tree_cover


class TestHeavyPathLabeling:
    @pytest.mark.parametrize("builder,n", [
        (random_tree, 150), (path_tree, 100), (caterpillar_tree, 90),
    ])
    def test_lca_key_matches_direct_lca(self, builder, n):
        tree = builder(n, seed=0)
        labeling = HeavyPathLabeling(tree)
        metric = TreeMetric(tree)
        rng = random.Random(1)
        for _ in range(300):
            u, v = rng.randrange(n), rng.randrange(n)
            key = lca_key(labeling.label(u), labeling.label(v))
            assert key == labeling.key(metric.lca(u, v))

    def test_label_distance_is_exact(self):
        tree = random_tree(120, seed=2)
        labeling = HeavyPathLabeling(tree)
        metric = TreeMetric(tree)
        rng = random.Random(3)
        for _ in range(200):
            u, v = rng.randrange(120), rng.randrange(120)
            d = label_distance(labeling.label(u), labeling.label(v))
            assert abs(d - metric.distance(u, v)) < 1e-9

    def test_keys_are_unique(self):
        tree = random_tree(200, seed=4)
        labeling = HeavyPathLabeling(tree)
        keys = {labeling.key(v) for v in range(200)}
        assert len(keys) == 200

    def test_label_length_logarithmic(self):
        """Heavy-path labels have O(log n) entries on any tree."""
        for builder in (random_tree, path_tree, caterpillar_tree):
            tree = builder(1000, seed=5)
            labeling = HeavyPathLabeling(tree)
            longest = max(len(labeling.label(v)) for v in range(1000))
            assert longest <= math.ceil(math.log2(1000)) + 1

    def test_label_bits_accounting(self):
        tree = random_tree(64, seed=6)
        labeling = HeavyPathLabeling(tree)
        label = labeling.label(10)
        assert label_bits(label, 64, float_bits=0) == len(label) * 12
        assert label_bits(label, 64, float_bits=32) == len(label) * 44


class TestNetwork:
    def test_ports_are_a_permutation(self):
        from repro.graphs import Graph

        g = Graph(6)
        for u, v in [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]:
            g.add_edge(u, v, 1.0)
        net = Network(g, seed=7)
        assert sorted(net.port_to[0].values()) == list(range(5))

    def test_port_assignment_varies_with_seed(self):
        from repro.graphs import Graph

        g = Graph(8)
        for v in range(1, 8):
            g.add_edge(0, v, 1.0)
        a = Network(g, seed=1).port_to[0]
        b = Network(g, seed=2).port_to[0]
        assert a != b

    def test_route_guard_against_loops(self):
        from repro.graphs import Graph

        g = Graph(2)
        g.add_edge(0, 1, 1.0)
        net = Network(g, seed=0)

        def bouncing(u, table, header, label):
            return 0, None  # always forward on port 0

        with pytest.raises(RuntimeError):
            net.route(0, bouncing, {}, [None, None], max_hops=5)


class TestTreeRouting:
    @pytest.mark.parametrize("builder,n", [
        (random_tree, 130),
        (path_tree, 110),
        (caterpillar_tree, 90),
    ])
    @pytest.mark.parametrize("port_seed", [0, 17])
    def test_all_routes_two_hops_stretch_one(self, builder, n, port_seed):
        tree = builder(n, seed=3)
        scheme, net = build_tree_network(tree, seed=port_seed)
        metric = TreeMetric(tree)
        for u, v in itertools.combinations(range(0, n, 4), 2):
            result = net.route(u, tree_protocol, scheme.labels[v], scheme.tables)
            assert result.path[0] == u and result.path[-1] == v
            assert result.hops <= 2
            d = metric.distance(u, v)
            assert abs(result.weight - d) <= 1e-6 * max(1.0, d)

    def test_balanced_tree_routes(self):
        tree = balanced_tree(3, 4)
        scheme, net = build_tree_network(tree, seed=9)
        metric = TreeMetric(tree)
        rng = random.Random(10)
        for _ in range(200):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            result = net.route(u, tree_protocol, scheme.labels[v], scheme.tables)
            assert result.path[-1] == v and result.hops <= 2
            assert abs(result.weight - metric.distance(u, v)) < 1e-6

    def test_self_route_is_trivial(self):
        tree = random_tree(30, seed=11)
        scheme, net = build_tree_network(tree)
        result = net.route(5, tree_protocol, scheme.labels[5], scheme.tables)
        assert result.path == [5] and result.weight == 0.0

    def test_label_and_table_bits_are_polylog(self):
        sizes = {}
        for n in (128, 1024):
            tree = path_tree(n, seed=12)
            scheme, _ = build_tree_network(tree)
            sizes[n] = max(scheme.label_size_bits(p) for p in range(n))
        # Label bits grow ~log^2: going 128 -> 1024 is less than octupling.
        assert sizes[1024] <= 8 * sizes[128]
        assert sizes[1024] <= 12 * math.log2(1024) ** 2

    def test_header_bits_at_most_one_port(self):
        assert header_bits(None, 256) == 0
        assert header_bits(("deliver",), 256) == 1
        assert header_bits(("forward", 3), 256) == 1 + 8


class TestMetricRouting:
    def test_doubling(self):
        metric = random_points(80, dim=2, seed=13)
        cover = robust_tree_cover(metric, eps=0.45)
        scheme = MetricRoutingScheme(metric, cover, seed=14)
        pairs = sample_pairs(80, 150, seed=15)
        gamma = max(cover.stretch(u, v) for u, v in pairs)
        for u, v in pairs:
            scheme.verify_route(u, v, gamma + 1e-9)

    def test_general_ramsey(self):
        metric = random_graph_metric(60, seed=16)
        cover = ramsey_tree_cover(metric, ell=2, seed=17)
        scheme = MetricRoutingScheme(metric, cover, seed=18)
        for u, v in sample_pairs(60, 150, seed=19):
            tree = cover.trees[cover.home[v]]
            bound = tree.tree_distance(u, v) / metric.distance(u, v)
            scheme.verify_route(u, v, bound + 1e-9)

    def test_planar(self):
        metric = grid_graph_metric(8, seed=20)
        cover = planar_tree_cover(metric)
        scheme = MetricRoutingScheme(metric, cover, seed=21)
        pairs = sample_pairs(metric.n, 150, seed=22)
        gamma = max(cover.stretch(u, v) for u, v in pairs)
        for u, v in pairs:
            scheme.verify_route(u, v, gamma + 1e-9)

    def test_ramsey_labels_smaller_than_scan_labels(self):
        """Ramsey labels carry one tree; scan labels carry all ζ trees."""
        metric = random_graph_metric(50, seed=23)
        ramsey = ramsey_tree_cover(metric, ell=2, seed=24)
        scheme = MetricRoutingScheme(metric, ramsey, seed=25)
        scan = MetricRoutingScheme(
            metric,
            type(ramsey)(metric, ramsey.trees, home=None),
            seed=25,
        )
        r_bits = max(scheme.label_size_bits(p) for p in range(50))
        s_bits = max(scan.label_size_bits(p) for p in range(50))
        assert r_bits < s_bits

    def test_few_trees_cover_routes(self):
        """The ell-tree general tradeoff also feeds the routing stack."""
        from repro.treecover import few_trees_cover

        metric = random_graph_metric(50, seed=40)
        cover = few_trees_cover(metric, 3, seed=41)
        scheme = MetricRoutingScheme(metric, cover, seed=42)
        for u, v in sample_pairs(50, 80, seed=43):
            result = scheme.route(u, v)
            assert result.path[-1] == v and result.hops <= 2

    def test_headers_stay_small(self):
        metric = random_points(50, dim=2, seed=26)
        cover = robust_tree_cover(metric, eps=0.5)
        scheme = MetricRoutingScheme(metric, cover, seed=27)
        for u, v in sample_pairs(50, 60, seed=28):
            result = scheme.route(u, v)
            bound = 1 + math.ceil(math.log2(50)) + math.ceil(math.log2(len(cover.trees)))
            assert result.header_bits <= bound

    @pytest.mark.parametrize("zeta", [2, 4])
    def test_header_names_tree_in_ceil_log_zeta_bits(self, zeta):
        index_bits = math.ceil(math.log2(zeta))
        assert metric_header_bits((0, ("forward", 3)), 150, zeta) == 1 + 8 + index_bits
        assert metric_header_bits((0, ("deliver",)), 150, zeta) == 1 + index_bits

    @pytest.mark.parametrize("ell,zeta", [(3, 2), (2, 4)])
    def test_ramsey_label_names_home_in_ceil_log_zeta_bits(self, ell, zeta):
        metric = random_graph_metric(60, seed=1)
        cover = ramsey_tree_cover(metric, ell=ell, seed=0)
        assert cover.size == zeta
        scheme = MetricRoutingScheme(metric, cover, seed=5)
        index_bits = math.ceil(math.log2(zeta))
        for p in range(60):
            home_tree = scheme.schemes[cover.home[p]]
            expected = 6 + home_tree.label_size_bits(p, 60) + index_bits
            assert scheme.label_size_bits(p) == expected

    def test_ramsey_tables_hold_no_distance_labels(self):
        """A Ramsey label names the home tree, so no node reads a
        distance label: tables hold the ζ per-tree tables only (the
        largest was 1,276 bits, 624 of them distance labels, when all
        ζ labels were stored)."""
        metric = random_graph_metric(150, seed=1)
        cover = ramsey_tree_cover(metric, ell=2, seed=0)
        assert cover.size == 4
        scheme = MetricRoutingScheme(metric, cover, seed=0)
        bits = []
        for p in range(150):
            assert set(scheme.tables[p]) == {"trees"}
            bits.append(scheme.table_size_bits(p))
            assert bits[-1] == sum(
                tree.table_size_bits(p, 150) for tree in scheme.schemes)
        assert max(bits) == 652
        for u, v in sample_pairs(150, 100, seed=2):
            assert scheme.route(u, v).path[-1] == v


class TestFaultTolerantRouting:
    def setup_method(self):
        self.metric = random_points(55, dim=2, seed=29)
        self.cover = robust_tree_cover(self.metric, eps=0.45)

    @pytest.mark.parametrize("f", [0, 1, 2, 3])
    def test_routes_avoid_faults(self, f):
        scheme = FaultTolerantRoutingScheme(self.metric, f=f, cover=self.cover, seed=30)
        rng = random.Random(31)
        for _ in range(80):
            u, v = rng.sample(range(55), 2)
            pool = [x for x in range(55) if x not in (u, v)]
            faults = set(rng.sample(pool, f))
            hops, stretch = scheme.verify_route(u, v, faults, gamma=25.0)
            assert hops <= 2

    def test_label_bits_grow_with_f(self):
        bits = []
        for f in (0, 2, 4):
            scheme = FaultTolerantRoutingScheme(
                self.metric, f=f, cover=self.cover, seed=32
            )
            bits.append(max(scheme.label_size_bits(p) for p in range(55)))
        assert bits[0] < bits[1] < bits[2]

    def test_rejects_faulty_endpoint(self):
        scheme = FaultTolerantRoutingScheme(self.metric, f=1, cover=self.cover, seed=33)
        with pytest.raises(ValueError):
            scheme.route(0, 1, faults={0})

    def test_rejects_too_many_faults(self):
        scheme = FaultTolerantRoutingScheme(self.metric, f=1, cover=self.cover, seed=34)
        with pytest.raises(ValueError):
            scheme.route(0, 1, faults={2, 3})

    def test_targeted_fault_on_intermediate(self):
        """Fail exactly the intermediate the fault-free route uses; the
        packet must still arrive in <= 2 hops."""
        scheme = FaultTolerantRoutingScheme(self.metric, f=1, cover=self.cover, seed=35)
        rng = random.Random(36)
        checked = 0
        for _ in range(200):
            u, v = rng.sample(range(55), 2)
            clean = scheme.route(u, v)
            if clean.hops != 2:
                continue
            intermediate = clean.path[1]
            rerouted = scheme.route(u, v, faults={intermediate})
            assert rerouted.path[-1] == v
            assert intermediate not in rerouted.path
            assert rerouted.hops <= 2
            checked += 1
            if checked >= 25:
                break
        assert checked >= 10


class TestPrunedAndCompactCoverRouting:
    """Theorem 1.3 routing over the *shrunk* covers: pruning and the
    compact backend must preserve the stretch contract while cutting
    the per-node label/table bits with ζ."""

    def setup_method(self):
        self.metric = random_points(60, dim=2, seed=50)
        self.cover = robust_tree_cover(self.metric, eps=0.45)

    def test_pruned_cover_keeps_the_stretch_contract(self):
        from repro.treecover import prune_cover

        report = prune_cover(self.cover, eps=0.05)
        assert len(report.cover.trees) < len(self.cover.trees)
        scheme = MetricRoutingScheme(self.metric, report.cover, seed=51)
        for u, v in sample_pairs(60, 150, seed=52):
            scheme.verify_route(u, v, report.gamma + 1e-9)

    def test_pruned_cover_shrinks_label_and_table_bits(self):
        from repro.treecover import prune_cover

        report = prune_cover(self.cover, eps=0.05)
        full = MetricRoutingScheme(self.metric, self.cover, seed=53)
        pruned = MetricRoutingScheme(self.metric, report.cover, seed=53)
        full_label = max(full.label_size_bits(p) for p in range(60))
        pruned_label = max(pruned.label_size_bits(p) for p in range(60))
        full_table = max(full.table_size_bits(p) for p in range(60))
        pruned_table = max(pruned.table_size_bits(p) for p in range(60))
        assert pruned_label < full_label
        assert pruned_table < full_table

    def test_compact_cover_routes_within_measured_gamma(self):
        from repro.treecover import compact_tree_cover

        cover = compact_tree_cover(self.metric, eps=0.5)
        scheme = MetricRoutingScheme(self.metric, cover, seed=54)
        pairs = sample_pairs(60, 120, seed=55)
        gamma = max(cover.stretch(u, v) for u, v in pairs)
        for u, v in pairs:
            result = scheme.route(u, v)
            assert result.path[0] == u and result.path[-1] == v
            assert result.hops <= 2
            d = self.metric.distance(u, v)
            assert result.weight <= (gamma + 1e-9) * d + 1e-9

    def test_compact_zeta_cuts_bits_versus_robust(self):
        from repro.treecover import compact_tree_cover

        compact = compact_tree_cover(self.metric, eps=0.5)
        assert len(compact.trees) < len(self.cover.trees)
        robust_scheme = MetricRoutingScheme(self.metric, self.cover, seed=56)
        compact_scheme = MetricRoutingScheme(self.metric, compact, seed=56)
        assert (
            max(compact_scheme.label_size_bits(p) for p in range(60))
            < max(robust_scheme.label_size_bits(p) for p in range(60))
        )


class TestEngineRouterCacheWithPrunedCovers:
    """Regression: the daemon's generation-keyed router cache must build
    its MetricRoutingScheme from the *loaded* (possibly pruned) cover
    and reuse it across batches of the same generation."""

    def test_engine_routes_pruned_checkpoint_with_parity(self, tmp_path):
        from repro.checkpoint import CheckpointService, save_cover_checkpoint
        from repro.serve import QueryEngine
        from repro.treecover import prune_cover

        metric = random_points(48, dim=2, seed=60)
        cover = robust_tree_cover(metric, eps=0.5)
        report = prune_cover(cover, eps=0.05)
        path = str(tmp_path / "pruned.ckpt")
        save_cover_checkpoint(
            report.cover, path, builder={"family": "robust", "eps": 0.5}
        )
        service = CheckpointService(metric, k=3).load(path)
        engine = QueryEngine(service, router_seed=7)
        navigator, status = service.snapshot()
        assert len(navigator.cover.trees) == len(report.cover.trees)

        pairs = sample_pairs(48, 40, seed=61)
        answers = engine.execute(
            "route", [u for u, _ in pairs], [v for _, v in pairs]
        )
        direct = MetricRoutingScheme(metric, navigator.cover, seed=7)
        for row, (u, v) in enumerate(pairs):
            assert answers.status[row] == "ok"
            expected = direct.route(u, v)
            assert answers.result(row)["path"] == list(expected.path)
            assert answers.result(row)["hops"] == expected.hops

    def test_router_cache_is_generation_keyed_and_reused(self, tmp_path):
        from repro.checkpoint import CheckpointService, save_cover_checkpoint
        from repro.serve import QueryEngine
        from repro.treecover import prune_cover

        metric = random_points(40, dim=2, seed=62)
        report = prune_cover(robust_tree_cover(metric, eps=0.5), eps=0.05)
        path = str(tmp_path / "pruned.ckpt")
        save_cover_checkpoint(
            report.cover, path, builder={"family": "robust", "eps": 0.5}
        )
        service = CheckpointService(metric, k=3).load(path)
        engine = QueryEngine(service, router_seed=3)
        _, status = service.snapshot()
        generation = status["generation"]

        engine.execute("route", *zip(*sample_pairs(40, 10, seed=63)))
        assert set(engine._routers) == {generation}
        cached = engine._routers[generation]
        assert len(cached.cover.trees) == len(report.cover.trees)
        engine.execute("route", *zip(*sample_pairs(40, 10, seed=64)))
        assert engine._routers[generation] is cached
