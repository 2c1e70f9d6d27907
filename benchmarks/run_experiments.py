"""Regenerate every paper table/figure as a measured table.

Usage::

    python benchmarks/run_experiments.py            # all experiments
    python benchmarks/run_experiments.py --exp E1 E4

Each experiment prints a markdown table "paper claim vs measured" —
these are the tables recorded in EXPERIMENTS.md.  Paper claims are
asymptotic; the reproduction matches *shapes* (growth rates, who wins,
crossovers), not the authors' constants.  The schema-stable
``BENCH_*.json`` artifacts come from ``python -m repro bench``.
"""

from __future__ import annotations

import argparse
import math
import random
import time

from repro.apps import (
    MstVerifier,
    NaiveTreeProduct,
    OnlineTreeProduct,
    approximate_mst,
    approximate_spt,
    base_mst,
    mst_weight,
    sparsify_report,
    verify_spt,
)
from repro.core import MetricNavigator, TreeNavigator, alpha_k
from repro.graphs import dijkstra, path_tree, random_tree
from repro.metrics import (
    delaunay_metric,
    grid_graph_metric,
    random_graph_metric,
    random_points,
    sample_pairs,
)
from repro.routing import (
    FaultTolerantRoutingScheme,
    MetricRoutingScheme,
    build_tree_network,
    tree_protocol,
)
from repro.spanners import (
    FaultTolerantSpanner,
    complete_graph,
    greedy_spanner,
    theta_graph,
)
from repro.spanners.baselines import theta_walk
from repro.spanners.spanner import lightness, measured_stretch
from repro.treecover import (
    few_trees_cover,
    planar_tree_cover,
    ramsey_tree_cover,
    robust_tree_cover,
    robustness_certificate,
)
from repro.util import CountingSemigroup


def table(title, headers, rows):
    print(f"\n### {title}\n")
    print("| " + " | ".join(headers) + " |")
    print("|" + "---|" * len(headers))
    for row in rows:
        print("| " + " | ".join(str(c) for c in row) + " |")
    print()


def fmt(x, digits=3):
    if isinstance(x, float):
        return f"{x:.{digits}f}"
    return str(x)


# ----------------------------------------------------------------------
# E1: Theorem 1.1 — size/hop/stretch/time of tree navigators.

def experiment_e1():
    print("\n## E1 — Theorem 1.1: navigable tree 1-spanners (size ~ n·αk(n))")
    rows = []
    for n in (1024, 4096, 16384):
        tree = path_tree(n, seed=1)
        for k in (2, 3, 4, 5, 6):
            start = time.perf_counter()
            nav = TreeNavigator(tree, k)
            build = time.perf_counter() - start
            rng = random.Random(0)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(800)]
            start = time.perf_counter()
            max_hops = max(len(nav.find_path(u, v)) - 1 for u, v in pairs)
            per_query = (time.perf_counter() - start) / len(pairs)
            ak = max(1, alpha_k(k, n))
            rows.append([
                n, k, nav.num_edges, ak, fmt(nav.num_edges / (n * ak), 2),
                max_hops, nav.phi_depth(), fmt(build, 2), fmt(per_query * 1e6, 1),
            ])
    table(
        "E1 (path metric — the [AS87]/[LMS22] lower-bound family; stretch is "
        "exactly 1 by construction, verified in tests)",
        ["n", "k", "edges", "αk(n)", "edges/(n·αk)", "max hops", "Φ depth",
         "build s", "query µs"],
        rows,
    )
    print("Paper: |E| = O(n·αk(n)), hops <= k, query O(k), depth(Φ) = O(αk(n)).")

    # E11 companion: size constants across tree shapes at fixed n.
    from repro.graphs import balanced_tree, caterpillar_tree

    shape_rows = []
    n = 8192
    shapes = [
        ("path", path_tree(n, seed=2)),
        ("random", random_tree(n, seed=2)),
        ("caterpillar", caterpillar_tree(n, seed=2)),
        ("balanced binary", balanced_tree(2, 12)),
    ]
    for name, tree in shapes:
        for k in (2, 4):
            nav = TreeNavigator(tree, k)
            ak = max(1, alpha_k(k, tree.n))
            shape_rows.append([
                name, tree.n, k, nav.num_edges,
                fmt(nav.num_edges / (tree.n * ak), 2), nav.phi_depth(),
            ])
    table(
        "E11 — shape robustness (Figure 1 structure: recursion depth and size "
        "constants across tree families)",
        ["shape", "n", "k", "edges", "edges/(n·αk)", "Φ depth"],
        shape_rows,
    )


# ----------------------------------------------------------------------
# E2: Table 1 — tree cover constructions.

def experiment_e2():
    print("\n## E2 — Table 1: tree covers (stretch γ, number of trees ζ)")
    rows = []

    for eps in (0.5, 0.4, 0.3, 0.2):
        metric = random_points(200, dim=2, seed=2)
        start = time.perf_counter()
        cover = robust_tree_cover(metric, eps=eps)
        build = time.perf_counter() - start
        worst, mean = cover.measured_stretch(sample_pairs(200, 600))
        rows.append([
            "doubling (robust, Thm 4.1)", f"eps={eps}", "1+O(ε)", fmt(worst),
            fmt(mean), "ε^-O(d)", cover.size, fmt(build, 1),
        ])

    for ell in (1, 2, 3):
        metric = random_graph_metric(150, seed=3)
        start = time.perf_counter()
        cover = ramsey_tree_cover(metric, ell=ell, seed=4)
        build = time.perf_counter() - start
        worst = max(
            cover.trees[cover.home[p]].tree_distance(p, q) / metric.distance(p, q)
            for p in range(150)
            for q in range(0, 150, 7)
            if p != q
        )
        rows.append([
            "general (Ramsey, MN06)", f"l={ell}", f"O(l) (<=64l={64*ell})",
            fmt(worst, 1), "-", "O(l·n^(1/l)·log n)", cover.size, fmt(build, 1),
        ])

    for ell in (2, 3, 4):
        metric = random_graph_metric(150, seed=5)
        start = time.perf_counter()
        cover = few_trees_cover(metric, ell, seed=6)
        build = time.perf_counter() - start
        worst, mean = cover.measured_stretch(sample_pairs(150, 500))
        bound = 150 ** (1 / ell) * math.log2(150) ** (1 - 1 / ell)
        rows.append([
            "general (few trees, BFN19)", f"l={ell}",
            f"O(n^(1/l)·log^(1-1/l) n)~{bound:.0f}", fmt(worst, 1), fmt(mean, 2),
            "l", cover.size, fmt(build, 1),
        ])

    for name, metric in (
        ("planar grid", grid_graph_metric(16, seed=7)),
        ("planar Delaunay", delaunay_metric(256, seed=7)),
    ):
        start = time.perf_counter()
        cover = planar_tree_cover(metric)
        build = time.perf_counter() - start
        worst, mean = cover.measured_stretch(sample_pairs(metric.n, 600))
        rows.append([
            name, f"n={metric.n}", "<=3 (ours; paper 1+ε)", fmt(worst),
            fmt(mean), "O(log n) (ours; paper (log n/ε)²)", cover.size,
            fmt(build, 1),
        ])

    table(
        "E2 (measured stretch is max over 500-600 sampled pairs)",
        ["family", "param", "paper γ", "measured γ max", "γ mean", "paper ζ",
         "measured ζ", "build s"],
        rows,
    )


# ----------------------------------------------------------------------
# E3: Theorem 1.2 — metric navigation.

def experiment_e3():
    print("\n## E3 — Theorem 1.2: k-hop navigation on metric spaces")
    rows = []
    metric = random_points(200, dim=2, seed=8)
    cover = robust_tree_cover(metric, eps=0.45)
    pairs = sample_pairs(200, 400, seed=9)
    gamma = max(cover.stretch(u, v) for u, v in pairs)
    for k in (2, 3, 4):
        nav = MetricNavigator(metric, cover, k)
        start = time.perf_counter()
        stats = [nav.query_stretch(u, v) for u, v in pairs]
        per_query = (time.perf_counter() - start) / len(pairs)
        rows.append([
            "doubling", k, cover.size, nav.num_edges,
            max(h for h, _ in stats), fmt(max(s for _, s in stats)),
            fmt(gamma), fmt(per_query * 1e6, 1),
        ])
    general = random_graph_metric(150, seed=10)
    rcover = ramsey_tree_cover(general, ell=2, seed=11)
    gpairs = sample_pairs(150, 400, seed=12)
    for k in (2, 3):
        nav = MetricNavigator(general, rcover, k)
        start = time.perf_counter()
        stats = [nav.query_stretch(u, v) for u, v in gpairs]
        per_query = (time.perf_counter() - start) / len(gpairs)
        rows.append([
            "general (Ramsey)", k, rcover.size, nav.num_edges,
            max(h for h, _ in stats), fmt(max(s for _, s in stats), 1),
            "O(l)=O(2)", fmt(per_query * 1e6, 1),
        ])
    fcover = few_trees_cover(general, 3, seed=11)
    fstats_nav = MetricNavigator(general, fcover, 2)
    fstats = [fstats_nav.query_stretch(u, v) for u, v in gpairs]
    rows.append([
        "general (few trees)", 2, fcover.size, fstats_nav.num_edges,
        max(h for h, _ in fstats), fmt(max(s for _, s in fstats), 1),
        "O(n^(1/l)·log^(1-1/l) n)", "-",
    ])
    planar = delaunay_metric(200, seed=13)
    pcover = planar_tree_cover(planar)
    ppairs = sample_pairs(200, 400, seed=14)
    pgamma = max(pcover.stretch(u, v) for u, v in ppairs)
    for k in (2, 3):
        nav = MetricNavigator(planar, pcover, k)
        stats = [nav.query_stretch(u, v) for u, v in ppairs]
        rows.append([
            "planar", k, pcover.size, nav.num_edges,
            max(h for h, _ in stats), fmt(max(s for _, s in stats)),
            fmt(pgamma), "-",
        ])
    table(
        "E3 (paper: hops <= k, path stretch <= γ, |H_X| = O(n·αk(n)·ζ), query O(k))",
        ["family", "k", "ζ", "|H_X| edges", "max hops", "max path stretch",
         "cover γ", "query µs"],
        rows,
    )
    # The baseline the introduction motivates: Θ-graph walks use Ω(n) hops.
    tg = theta_graph(metric, cones=8)
    rng = random.Random(15)
    walk_hops = max(
        len(theta_walk(metric, tg, *rng.sample(range(200), 2))) - 1 for _ in range(50)
    )
    print(f"Baseline: Θ-graph greedy walk max hops on the same input: {walk_hops} "
          f"(vs 2-4 above).")


# ----------------------------------------------------------------------
# E4: Theorem 1.3 / Table 3 — routing schemes.

def experiment_e4():
    print("\n## E4 — Theorems 5.1/1.3, Table 3: 2-hop compact routing")
    rows = []
    for n in (512, 2048, 8192):
        tree = random_tree(n, seed=16)
        scheme, net = build_tree_network(tree, seed=17)
        rng = random.Random(18)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
        from repro.metrics import TreeMetric

        tm = TreeMetric(tree)
        worst_hops = 0
        worst_stretch = 1.0
        start = time.perf_counter()
        for u, v in pairs:
            res = net.route(u, tree_protocol, scheme.labels[v], scheme.tables)
            worst_hops = max(worst_hops, res.hops)
            base = tm.distance(u, v)
            if base > 0:
                worst_stretch = max(worst_stretch, res.weight / base)
        per_route = (time.perf_counter() - start) / len(pairs)
        label_bits = max(scheme.label_size_bits(p) for p in range(n))
        tab_bits = max(scheme.table_size_bits(p) for p in range(n))
        log2n2 = math.ceil(math.log2(n)) ** 2
        rows.append([
            "tree", n, worst_hops, fmt(worst_stretch), label_bits, tab_bits,
            log2n2, fmt(label_bits / log2n2, 1), fmt(per_route * 1e6, 1),
        ])
    table(
        "E4a — tree metrics (paper: 2 hops, stretch 1, labels/tables O(log² n) bits)",
        ["family", "n", "max hops", "max stretch", "label bits", "table bits",
         "log²n", "label/log²n", "route µs"],
        rows,
    )

    rows = []
    metric = random_points(150, dim=2, seed=19)
    cover = robust_tree_cover(metric, eps=0.45)
    scheme = MetricRoutingScheme(metric, cover, seed=20)
    pairs = sample_pairs(150, 300, seed=21)
    worst = [0, 1.0]
    for u, v in pairs:
        res = scheme.route(u, v)
        worst[0] = max(worst[0], res.hops)
        base = metric.distance(u, v)
        if base > 0:
            worst[1] = max(worst[1], res.weight / base)
    rows.append([
        "doubling", 150, cover.size, worst[0], fmt(worst[1]),
        max(scheme.label_size_bits(p) for p in range(150)),
        max(scheme.table_size_bits(p) for p in range(150)),
    ])
    general = random_graph_metric(150, seed=22)
    rcover = ramsey_tree_cover(general, ell=2, seed=23)
    rscheme = MetricRoutingScheme(general, rcover, seed=24)
    worst = [0, 1.0]
    for u, v in sample_pairs(150, 300, seed=25):
        res = rscheme.route(u, v)
        worst[0] = max(worst[0], res.hops)
        base = general.distance(u, v)
        if base > 0:
            worst[1] = max(worst[1], res.weight / base)
    rows.append([
        "general (Ramsey)", 150, rcover.size, worst[0], fmt(worst[1], 1),
        max(rscheme.label_size_bits(p) for p in range(150)),
        max(rscheme.table_size_bits(p) for p in range(150)),
    ])
    planar = grid_graph_metric(12, seed=26)
    pcover = planar_tree_cover(planar)
    pscheme = MetricRoutingScheme(planar, pcover, seed=27)
    worst = [0, 1.0]
    for u, v in sample_pairs(planar.n, 300, seed=28):
        res = pscheme.route(u, v)
        worst[0] = max(worst[0], res.hops)
        base = planar.distance(u, v)
        if base > 0:
            worst[1] = max(worst[1], res.weight / base)
    rows.append([
        "planar", planar.n, pcover.size, worst[0], fmt(worst[1]),
        max(pscheme.label_size_bits(p) for p in range(planar.n)),
        max(pscheme.table_size_bits(p) for p in range(planar.n)),
    ])
    table(
        "E4b — metric spaces (paper Table 3; headers ⌈log n⌉ + tree index bits)",
        ["family", "n", "ζ", "max hops", "max stretch", "label bits", "table bits"],
        rows,
    )


# ----------------------------------------------------------------------
# E5/E12: robustness + fault tolerance.

def experiment_e5():
    print("\n## E5 — Theorems 4.1/4.2: robust covers and FT spanners")
    metric = random_points(100, dim=2, seed=29)
    cover = robust_tree_cover(metric, eps=0.4)
    pairs = sample_pairs(100, 60, seed=30)
    certs = [robustness_certificate(cover, u, v) for u, v in pairs]
    print(f"\nRobustness certificate (Definition 4.1(2), adversarial leaf "
          f"replacement): max {max(certs):.2f}, mean "
          f"{sum(certs) / len(certs):.2f} over {len(pairs)} pairs "
          f"(bounded as the theory predicts; 1+O(ε) with the construction's constants).")

    rows = []
    for f in (0, 1, 2, 4):
        for k in (2, 3):
            ft = FaultTolerantSpanner(metric, f=f, k=k, cover=cover)
            rng = random.Random(31)  # identical query/fault mix per row
            worst_hops = 0
            worst_stretch = 1.0
            for _ in range(150):
                u, v = rng.sample(range(100), 2)
                pool = [x for x in range(100) if x not in (u, v)]
                faults = set(rng.sample(pool, f))
                path = ft.find_path(u, v, faults)
                worst_hops = max(worst_hops, len(path) - 1)
                worst_stretch = max(worst_stretch, ft.verify_path(u, v, faults, path))
            rows.append([f, k, ft.edge_count(), worst_hops, fmt(worst_stretch, 2)])
    table(
        "E5 — FT spanner under random faulty sets (paper: size ε^-O(d)·n·f²·αk, "
        "hops <= k, stretch 1+O(ε) after faults)",
        ["f", "k", "edges", "max hops", "max stretch under faults"],
        rows,
    )

    rows = []
    for f in (0, 1, 2):
        scheme = FaultTolerantRoutingScheme(metric, f=f, cover=cover, seed=32)
        rng = random.Random(33)
        worst_hops = 0
        worst_stretch = 1.0
        for _ in range(100):
            u, v = rng.sample(range(100), 2)
            pool = [x for x in range(100) if x not in (u, v)]
            faults = set(rng.sample(pool, f))
            res = scheme.route(u, v, faults)
            worst_hops = max(worst_hops, res.hops)
            base = metric.distance(u, v)
            worst_stretch = max(worst_stretch, res.weight / base)
        rows.append([
            f, worst_hops, fmt(worst_stretch, 2),
            max(scheme.label_size_bits(p) for p in range(100)),
            max(scheme.table_size_bits(p) for p in range(100)),
        ])
    table(
        "E12 — FT routing (Theorem 5.2: 2 hops, label/table bits grow ~x f)",
        ["f", "max hops", "max stretch", "label bits", "table bits"],
        rows,
    )


# ----------------------------------------------------------------------
# E6: sparsification.

def experiment_e6():
    print("\n## E6 — Theorem 5.3 / Table 4: spanner sparsification")
    metric = random_points(150, dim=2, seed=34)
    cover = robust_tree_cover(metric, eps=0.45)
    pairs = sample_pairs(150, 200, seed=35)
    gamma = max(cover.stretch(u, v) for u, v in pairs)
    rows = []
    for k in (2, 3):
        navigator = MetricNavigator(metric, cover, k)
        for name, graph, t in (
            ("complete graph", complete_graph(metric), 1.0),
            ("greedy 1.1-spanner", greedy_spanner(metric, 1.1), 1.1),
            ("Θ-graph", theta_graph(metric, cones=8), 1.42),
        ):
            before, after, _ = sparsify_report(graph, navigator, t, pairs=pairs)
            rows.append([
                name, k, before.edges, after.edges,
                fmt(before.stretch, 2), fmt(after.stretch, 2),
                fmt(before.lightness, 2), fmt(after.lightness, 2),
                fmt(gamma, 2),
            ])
    table(
        "E6 (paper: size drops to O(n·αk·ζ); stretch and lightness grow <= γ)",
        ["input spanner", "k", "edges before", "edges after", "stretch before",
         "stretch after", "light before", "light after", "γ"],
        rows,
    )


# ----------------------------------------------------------------------
# E7: approximate SPT.

def experiment_e7():
    print("\n## E7 — Theorem 5.4: approximate SPT via navigation")
    rows = []
    for n in (100, 200, 400):
        metric = random_points(n, dim=2, seed=36)
        cover = robust_tree_cover(metric, eps=0.5)
        for k in (2, 3):
            navigator = MetricNavigator(metric, cover, k)
            start = time.perf_counter()
            parent, dist = approximate_spt(navigator, 0)
            ours = time.perf_counter() - start
            gamma = max(cover.stretch(0, v) for v in range(1, n))
            verify_spt(navigator, 0, parent, dist, gamma + 1e-9)
            worst = max(
                dist[v] / metric.distance(0, v) for v in range(1, n)
            )
            spanner = navigator.spanner()
            start = time.perf_counter()
            dijkstra(spanner, 0)
            baseline = time.perf_counter() - start
            rows.append([
                n, k, fmt(worst), fmt(gamma), fmt(ours, 3), fmt(baseline, 3),
                spanner.num_edges,
            ])
    table(
        "E7 (paper: O(n·τ) with no explicit spanner access, stretch <= γ; "
        "baseline = Dijkstra with explicit access)",
        ["n", "k", "SPT stretch", "γ", "ours s", "Dijkstra s", "|H_X|"],
        rows,
    )


# ----------------------------------------------------------------------
# E8: approximate MST.

def experiment_e8():
    print("\n## E8 — Theorem 5.5: approximate Euclidean MST inside the spanner")
    rows = []
    for n in (100, 250, 500):
        metric = random_points(n, dim=2, seed=37)
        cover = robust_tree_cover(metric, eps=0.45)
        for k in (2, 3):
            navigator = MetricNavigator(metric, cover, k)
            exact = mst_weight(base_mst(metric))
            start = time.perf_counter()
            edges = approximate_mst(navigator)
            took = time.perf_counter() - start
            rows.append([n, k, fmt(mst_weight(edges) / exact, 4), fmt(took, 2)])
    table(
        "E8 (paper: (1+ε)-approximate MST that is a subgraph of the spanner, O(nk))",
        ["n", "k", "weight / exact MST", "time s"],
        rows,
    )


# ----------------------------------------------------------------------
# E9: online tree product.

def experiment_e9():
    print("\n## E9 — Theorem 5.6: online tree products (ops per query)")
    rows = []
    n = 8192
    tree = random_tree(n, seed=38)
    values = [(v % 97,) for v in range(n)]
    rng_pairs = random.Random(39)
    pairs = [tuple(rng_pairs.sample(range(n), 2)) for _ in range(500)]
    for k in (2, 3, 4, 6):
        counter = CountingSemigroup(lambda a, b: a + b)
        product = OnlineTreeProduct(tree, k, counter, values)
        prep_ops = counter.reset()
        worst = 0
        total = 0
        for u, v in pairs:
            product.query(u, v)
            ops = counter.reset()
            worst = max(worst, ops)
            total += ops
        rows.append([
            f"ours k={k}", product.navigator.num_edges, prep_ops, worst,
            fmt(total / len(pairs), 2), k - 1, 2 * k - 1,
        ])
    for k in (3, 4):
        counter = CountingSemigroup(lambda a, b: a + b)
        product = OnlineTreeProduct(
            tree, k, counter, values,
            navigator=__import__("repro.core", fromlist=["TreeNavigator"]).TreeNavigator(
                tree, k, decrement=1
            ),
        )
        prep_ops = counter.reset()
        worst = 0
        total = 0
        for u, v in pairs:
            product.query(u, v)
            ops = counter.reset()
            worst = max(worst, ops)
            total += ops
        rows.append([
            f"level-by-level k={k} (AS87-style)", product.navigator.num_edges,
            prep_ops, worst, fmt(total / len(pairs), 2),
            2 * (k - 1) - 1, "(is the AS87 regime)",
        ])
    counter = CountingSemigroup(lambda a, b: a + b)
    naive = NaiveTreeProduct(tree, counter, values)
    worst = 0
    total = 0
    for u, v in pairs:
        naive.query(u, v)
        ops = counter.reset()
        worst = max(worst, ops)
        total += ops
    rows.append(["naive walk", n - 1, 0, worst, fmt(total / len(pairs), 1),
                 "path len - 1", "-"])
    table(
        "E9 (paper: k-1 ops/query vs AS87's 2k-1 at the same O(n·αk(n)) size "
        "— Remark 5.4; preprocessing ops here are O(n log n) jump products)",
        ["scheme", "spanner edges", "prep ops", "worst ops/query",
         "mean ops/query", "paper bound (ours)", "AS87 bound"],
        rows,
    )


# ----------------------------------------------------------------------
# E10: online MST verification.

def experiment_e10():
    print("\n## E10 — Section 5.6.2: online MST verification (weight comparisons)")
    rows = []
    n = 8192
    tree = random_tree(n, seed=40)
    rng = random.Random(41)
    queries = [(*rng.sample(range(n), 2), rng.uniform(0, 15)) for _ in range(500)]
    for k in (2, 3, 4):
        verifier = MstVerifier(tree, k)
        worst_order = worst_generic = 0
        for u, v, w in queries:
            _, c1 = verifier.verify_by_order(u, v, w)
            _, c2 = verifier.verify(u, v, w)
            worst_order = max(worst_order, c1)
            worst_generic = max(worst_generic, c2)
        rows.append([
            k, verifier.preprocessing_comparisons,
            worst_order, worst_generic, k, 2 * k - 1,
        ])
    table(
        "E10 (paper: 2k-1 comparisons/query beating Pettie's 4k-1; with edge "
        "orders a single weight comparison per query)",
        ["k", "prep comparisons", "cmp/query (orders)", "cmp/query (generic)",
         "generic bound k", "Pettie 4k-1 → ours 2k-1 regime"],
        rows,
    )


EXPERIMENTS = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exp", nargs="*", default=sorted(EXPERIMENTS),
                        help="experiment ids (default: all)")
    args = parser.parse_args()
    for exp in args.exp:
        start = time.perf_counter()
        EXPERIMENTS[exp.upper()]()
        print(f"[{exp} done in {time.perf_counter() - start:.1f}s]")


if __name__ == "__main__":
    main()
