"""Command-line interface: build, navigate and route on generated instances.

Examples::

    python -m repro navigate   --family euclidean --n 300 --k 3 --queries 5
    python -m repro route      --family general   --n 150 --queries 10
    python -m repro tree       --n 2000 --k 2 --queries 5
    python -m repro chaos      --scenario adversarial --f 2 --k 4
    python -m repro checkpoint --family euclidean --n 120 --what ft --out ft.ckpt
    python -m repro audit      --checkpoint ft.ckpt --family euclidean --n 120
    python -m repro serve cover.ckpt --family euclidean --n 120 --port 7421
    python -m repro bench --quick --trace
    python -m repro chaos --trace --trace-out TRACE_chaos.json
    python -m repro trace-report TRACE_chaos.json
    python -m repro info
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import List

from . import __version__
from .core import MetricNavigator, TreeNavigator
from .graphs import random_tree
from .metrics import (
    Metric,
    delaunay_metric,
    random_graph_metric,
    random_points,
    sample_pairs,
)
from .routing import MetricRoutingScheme
from .treecover import planar_tree_cover, ramsey_tree_cover, robust_tree_cover

__all__ = ["main", "build_parser"]


def _make_metric(family: str, n: int, seed: int) -> Metric:
    if family == "euclidean":
        return random_points(n, dim=2, seed=seed)
    if family == "general":
        return random_graph_metric(n, seed=seed)
    if family == "planar":
        return delaunay_metric(n, seed=seed)
    raise ValueError(f"unknown metric family {family!r}")


def _make_cover(family: str, metric: Metric, eps: float, ell: int, seed: int,
                workers: int = None, backend: str = "robust", shifts: int = 4):
    if family == "euclidean":
        if backend == "compact":
            from .treecover import compact_tree_cover

            return compact_tree_cover(
                metric, eps=eps, shifts=shifts, workers=workers
            )
        return robust_tree_cover(metric, eps=eps, workers=workers)
    if family == "general":
        return ramsey_tree_cover(metric, ell=ell, seed=seed, workers=workers)
    return planar_tree_cover(metric)


def _cover_builder(args: argparse.Namespace):
    """Cover builder honoring --backend and --prune, for rebuild paths.

    The same construction the checkpoint records in its builder spec, so
    an explicit-builder recovery lands on the identical cover a
    meta-driven one would.
    """
    return lambda metric: _build_cover(args, metric)[0]


def _build_cover(args: argparse.Namespace, metric: Metric):
    """(cover, prune report or ``None``) honoring --backend and --prune."""
    cover = _make_cover(
        args.family, metric, args.eps, args.ell, args.seed,
        workers=args.workers, backend=getattr(args, "backend", "robust"),
        shifts=getattr(args, "shifts", 4),
    )
    if not getattr(args, "prune", False):
        return cover, None
    from .treecover import prune_cover

    report = prune_cover(
        cover, eps=getattr(args, "prune_eps", 0.05), workers=args.workers
    )
    print(report.format_summary())
    return report.cover, report


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


#: Flags several subcommands share, declared once.  Each subcommand adds
#: them through :func:`_add_flags` with its own default.
_FLAGS = {
    "family": dict(choices=["euclidean", "general", "planar"]),
    "n": dict(type=int),
    "k": dict(type=int),
    "f": dict(type=int),
    "eps": dict(type=float),
    "ell": dict(type=int),
    "queries": dict(type=int),
    "seed": dict(type=int),
    "backend": dict(
        choices=["robust", "compact"],
        help="euclidean tree-cover backend: 'robust' (Thm 4.1, "
             "fault-tolerant, ζ grows with n) or 'compact' "
             "(net-tree + shifted hierarchies, ζ = O(1) in n)",
    ),
    "shifts": dict(
        type=_positive_int,
        help="radius shifts per phase for --backend compact "
             "(ζ = phases × shifts; more shifts, less stretch)",
    ),
    "prune": dict(
        action="store_true",
        help="drop trees whose within-stretch pair coverage is dominated "
             "by the retained set (greedy set cover), re-verifying the "
             "stretch contract on the result",
    ),
    "prune_eps": dict(
        type=_non_negative_float,
        help="stretch headroom for --prune: retained trees must cover "
             "every pair within measured-stretch × (1 + prune-eps)",
    ),
    "workers": dict(
        type=int,
        help="worker processes for per-tree fan-out (default: the "
             "REPRO_WORKERS env var, else serial; 0/1 serial, -1 per-CPU)",
    ),
    "trace": dict(
        action="store_true",
        help="enable observability for this run (same as REPRO_TRACE=1) "
             "and write the span trees + metrics as a trace JSON document",
    ),
    "trace_out": dict(
        type=str, help="trace document path for --trace (default: %(default)s)",
    ),
}


def _add_flags(cmd: argparse.ArgumentParser, **flags) -> None:
    """Add shared flags from :data:`_FLAGS` to ``cmd``, in keyword order.

    Each value is the flag's default for this subcommand, or a dict of
    ``add_argument`` keywords (``default``, ``help``, ...) that override
    the shared declaration.
    """
    for name, value in flags.items():
        spec = dict(_FLAGS[name])
        spec.update(value if isinstance(value, dict) else {"default": value})
        cmd.add_argument("--" + name.replace("_", "-"), **spec)


def _add_cover_flags(cmd: argparse.ArgumentParser) -> None:
    """--backend / --prune flags shared by checkpoint, audit and serve."""
    _add_flags(cmd, backend="robust", shifts=4, prune=False, prune_eps=0.05)


def _traced_command(args: argparse.Namespace) -> int:
    """Run ``args.func`` with tracing scoped on, then write the trace
    document (spans + metrics snapshot) to ``args.trace_out``."""
    import json

    from .observability import OBS, trace_document, validate_trace_json

    OBS.clear()
    with OBS.scoped(True):
        code = args.func(args)
        doc = trace_document(OBS.take_roots(), OBS.registry.snapshot())
    errors = validate_trace_json(doc)
    if errors:
        for problem in errors:
            print(f"trace validation: {problem}", file=sys.stderr)
        return code or 1
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote trace document {args.trace_out} "
          f"(render with: python -m repro trace-report {args.trace_out})")
    return code


def cmd_tree(args: argparse.Namespace) -> int:
    tree = random_tree(args.n, seed=args.seed)
    start = time.perf_counter()
    navigator = TreeNavigator(tree, args.k)
    print(f"built k={args.k} navigator for n={args.n}: "
          f"{navigator.num_edges} edges in {time.perf_counter() - start:.2f}s")
    rng = random.Random(args.seed)
    for _ in range(args.queries):
        u, v = rng.sample(range(args.n), 2)
        path = navigator.find_path(u, v)
        print(f"  {u} -> {v}: {len(path) - 1} hops via {path}")
    return 0


def cmd_navigate(args: argparse.Namespace) -> int:
    metric = _make_metric(args.family, args.n, args.seed)
    start = time.perf_counter()
    cover = _make_cover(args.family, metric, args.eps, args.ell, args.seed)
    navigator = MetricNavigator(metric, cover, args.k)
    print(f"{args.family} n={args.n}: cover of {cover.size} trees, "
          f"spanner H_X with {navigator.num_edges} edges "
          f"({time.perf_counter() - start:.1f}s)")
    rng = random.Random(args.seed)
    for _ in range(args.queries):
        u, v = rng.sample(range(args.n), 2)
        hops, stretch = navigator.query_stretch(u, v)
        print(f"  {u} -> {v}: {hops} hops, stretch {stretch:.3f}, "
              f"path {navigator.find_path(u, v)}")
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    metric = _make_metric(args.family, args.n, args.seed)
    cover = _make_cover(args.family, metric, args.eps, args.ell, args.seed)
    scheme = MetricRoutingScheme(metric, cover, seed=args.seed)
    label_bits = max(scheme.label_size_bits(p) for p in range(args.n))
    table_bits = max(scheme.table_size_bits(p) for p in range(args.n))
    print(f"{args.family} n={args.n}: ζ={cover.size}, labels <= {label_bits} bits, "
          f"tables <= {table_bits} bits")
    rng = random.Random(args.seed)
    for _ in range(args.queries):
        u, v = rng.sample(range(args.n), 2)
        result = scheme.route(u, v)
        base = metric.distance(u, v)
        stretch = result.weight / base if base else 1.0
        print(f"  {u} -> {v}: {result.hops} hops via {result.path}, "
              f"stretch {stretch:.3f}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience import (
        ChaosHarness,
        CrashRecoverySchedule,
        make_injector,
    )
    from .routing import FaultTolerantRoutingScheme
    from .spanners import FaultTolerantSpanner

    metric = _make_metric(args.family, args.n, args.seed)
    start = time.perf_counter()
    cover = robust_tree_cover(metric, eps=args.eps, workers=args.workers)
    spanner = FaultTolerantSpanner(
        metric, f=args.f, k=args.k, cover=cover, workers=args.workers
    )
    router = None
    if not args.no_routing:
        router = FaultTolerantRoutingScheme(
            metric, f=args.f, cover=cover, seed=args.seed
        )
    print(
        f"{args.family} n={args.n}: f={args.f} k={args.k} cover of "
        f"{cover.size} trees, FT spanner with {spanner.edge_count()} "
        f"biclique edges ({time.perf_counter() - start:.1f}s)"
    )
    if not args.no_checkpoint:
        # Chaos runs also verify reloaded state: round-trip the FT
        # spanner through a v2 checkpoint and audit the reload, so a
        # serialization regression fails the same run that exercises
        # the fault model.
        import os
        import tempfile

        from .checkpoint import load_ft_checkpoint, save_ft_checkpoint

        fd, ckpt_path = tempfile.mkstemp(suffix=".ckpt")
        os.close(fd)
        try:
            envelope = save_ft_checkpoint(spanner, ckpt_path)
            reloaded = load_ft_checkpoint(ckpt_path, metric)
            spanner = reloaded
            print(
                f"checkpoint round-trip: FT spanner saved, reloaded and "
                f"audited ok (digest {envelope['digest'][:16]}…); chaos "
                f"sweeps run on the reloaded structure"
            )
        finally:
            os.unlink(ckpt_path)
    harness = ChaosHarness(spanner, router, queries=args.queries, seed=args.seed)
    sizes = None
    if args.sizes:
        try:
            sizes = sorted({int(s) for s in args.sizes.split(",")})
        except ValueError:
            print(f"error: --sizes must be comma-separated integers, "
                  f"got {args.sizes!r}", file=sys.stderr)
            return 2
        if any(s < 0 for s in sizes):
            print("error: --sizes values must be non-negative", file=sys.stderr)
            return 2

    if args.scenario == "crash":
        base = make_injector("random", metric, spanner, seed=args.seed)
        size = max(sizes) if sizes else 2 * (args.f + 1)
        schedule = CrashRecoverySchedule(
            base, size=size, steps=args.steps, seed=args.seed
        )
        report = harness.run_schedule(schedule)
        print(f"\n## crash/recovery timeline — |F|={size}, {args.steps} steps")
        print(report.format_table())
        print(
            f"\nall {report.invariants_checked} within-budget queries satisfied "
            f"hop <= k, fault avoidance and the robust stretch bound"
        )
        return 0

    reports = {}
    scenarios = [args.scenario] if args.scenario == "random" else ["random", args.scenario]
    for name in scenarios:
        injector = make_injector(name, metric, spanner, seed=args.seed)
        reports[name] = harness.sweep(injector, sizes)
        print(f"\n## survival — scenario={name}")
        print(reports[name].format_table())
    if args.scenario in reports and "random" in reports and args.scenario != "random":
        adv, rnd = reports[args.scenario], reports["random"]
        worse = 0
        for i, (a, r) in enumerate(zip(adv.navigation, rnd.navigation)):
            nav_worse = a.delivery_rate < r.delivery_rate
            route_worse = (
                i < len(adv.routing) and i < len(rnd.routing)
                and adv.routing[i].delivery_rate < rnd.routing[i].delivery_rate
            )
            worse += nav_worse or route_worse
        print(
            f"\n{args.scenario} injector degraded delivery below the random "
            f"baseline at {worse}/{len(adv.navigation)} fault-set sizes"
        )
    checked = sum(r.invariants_checked for r in reports.values())
    print(
        f"all {checked} within-budget queries satisfied hop <= k, "
        "fault avoidance and the robust stretch bound"
    )
    return 0


def _builder_spec(args: argparse.Namespace) -> dict:
    """The cover builder metadata recorded in checkpoints, so recovery
    can rebuild without the caller re-supplying construction params."""
    if args.family == "euclidean":
        if getattr(args, "backend", "robust") == "compact":
            spec = {"family": "compact", "eps": args.eps,
                    "shifts": getattr(args, "shifts", 4)}
        else:
            spec = {"family": "robust", "eps": args.eps}
    elif args.family == "general":
        spec = {"family": "ramsey", "ell": args.ell, "seed": args.seed}
    else:
        spec = {"family": "planar"}
    if getattr(args, "prune", False):
        from .treecover.prune import DEFAULT_MAX_PAIRS

        # Everything a recovery needs to replay the (deterministic)
        # prune and land on the same retained tree indexes.
        spec["pruned"] = {
            "eps": getattr(args, "prune_eps", 0.05),
            "seed": 0,
            "max_pairs": DEFAULT_MAX_PAIRS,
        }
    return spec


def _declared_contract(args: argparse.Namespace, cover, report):
    """The (α, ζ) contract stored in checkpoint meta.

    ``--gamma`` declares α explicitly.  A cover pruned over all pairs
    declares the prune's γ: every pair has a retained tree within γ,
    and a navigated path weighs at most its tree distance, so the bound
    holds for every answer.  Otherwise the stretch measured on 300
    sampled pairs plus 10% headroom is declared, so a later audit
    catches regressions against what this build actually achieved
    (Table 1's constants are asymptotic; DESIGN.md records the measured
    ones).  The contract records how many pairs α was measured over.
    """
    from .checkpoint import CoverContract

    if args.gamma > 0:
        return CoverContract(gamma=args.gamma, max_trees=cover.size)
    if report is not None and report.exact:
        return CoverContract(gamma=report.gamma, max_trees=cover.size,
                             pairs=report.pairs_evaluated)
    pairs = sample_pairs(cover.metric.n, 300)
    worst, _ = cover.measured_stretch(pairs)
    return CoverContract(gamma=round(1.1 * worst, 3), max_trees=cover.size,
                         pairs=len(pairs))


def cmd_checkpoint(args: argparse.Namespace) -> int:
    from .checkpoint import (
        save_cover_checkpoint,
        save_ft_checkpoint,
        save_labels_checkpoint,
        save_navigator_checkpoint,
    )
    from .core import MetricNavigator as Navigator
    from .spanners import FaultTolerantSpanner

    metric = _make_metric(args.family, args.n, args.seed)
    start = time.perf_counter()
    cover, report = _build_cover(args, metric)
    contract = _declared_contract(args, cover, report)
    builder = _builder_spec(args)
    if args.what == "cover":
        envelope = save_cover_checkpoint(
            cover, args.out, contract=contract, builder=builder
        )
    elif args.what == "navigator":
        navigator = Navigator(metric, cover, args.k, workers=args.workers)
        envelope = save_navigator_checkpoint(
            navigator, args.out, contract=contract, builder=builder,
            packed=args.packed,
        )
    elif args.what == "ft":
        spanner = FaultTolerantSpanner(
            metric, f=args.f, k=args.k, cover=cover, workers=args.workers
        )
        envelope = save_ft_checkpoint(
            spanner, args.out, contract=contract, builder=builder
        )
    else:
        envelope = save_labels_checkpoint(
            cover, args.out, contract=contract, builder=builder
        )
    print(
        f"wrote {args.what} checkpoint {args.out}: {cover.size} trees, "
        f"contract α={contract.gamma} ζ<={contract.max_trees}, "
        f"digest {envelope['digest'][:16]}… "
        f"({time.perf_counter() - start:.1f}s)"
    )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from .checkpoint import audit_checkpoint, recover_cover
    from .errors import CheckpointCorruption, InvariantViolation

    metric = _make_metric(args.family, args.n, args.seed)
    try:
        report = audit_checkpoint(args.checkpoint, metric, workers=args.workers)
    except (CheckpointCorruption, InvariantViolation) as exc:
        print(f"AUDIT FAILED [{type(exc).__name__}]: {exc}")
        if not args.recover:
            return 1
        report = recover_cover(
            args.checkpoint,
            metric,
            builder=_cover_builder(args),
            resave=args.resave,
            workers=args.workers,
        )
        print(report.format_summary())
        if args.resave:
            print(f"repaired checkpoint written back to {args.checkpoint}")
        return 0
    print(report.format_lines())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .checkpoint import CheckpointService
    from .observability import OBS
    from .serve import AdmissionPolicy, SpannerServer

    metric = _make_metric(args.family, args.n, args.seed)
    service = CheckpointService(
        metric,
        k=args.k,
        builder=_cover_builder(args),
        workers=args.workers,
    )
    start = time.perf_counter()
    service.load(args.checkpoint, mmap=args.mmap)
    print(
        f"loaded {args.checkpoint} in {time.perf_counter() - start:.2f}s: "
        f"{service.status()['trees_serving']} trees serving, "
        f"state={service.state}"
        + (" (memory-mapped)" if args.mmap else "")
    )
    if args.dynamic:
        if args.mmap:
            print("error: --dynamic is incompatible with --mmap (mapped "
                  "service is read-only)", file=sys.stderr)
            return 2
        start = time.perf_counter()
        try:
            service.enable_dynamic(journal_path=args.journal or None)
        except ValueError as exc:
            # Typed refusals from the dynamic layer (pruned covers,
            # non-robust families) — same exit contract as --mmap above.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        status = service.status()
        print(
            f"dynamic mode on in {time.perf_counter() - start:.2f}s: "
            f"{status['active_points']} active points, "
            f"journal at seq {status['applied_seq']} with "
            f"{status['journal_records']} pending records replayed"
        )
    if not args.no_obs:
        # The daemon's /metrics endpoint serves the observability
        # registry, so instrumentation is on by default while serving.
        OBS.enable()
    policy = AdmissionPolicy(
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        default_deadline=args.deadline_ms / 1000.0,
        max_retries=args.max_retries,
    )
    server = SpannerServer(
        service, policy, host=args.host, port=args.port, router_seed=args.seed
    )
    if service.recovery_pending:
        print("checkpoint damaged: serving degraded responses from the "
              "survivors while recovery runs in the background")
        server.chaos.start_recovery()

    def ready(host: str, port: int) -> None:
        status = service.status()
        print(
            f"READY {host} {port} state={status['state']} "
            f"trees={status['trees_serving']}/{status['trees_total']} "
            f"k={args.k} max_batch={policy.max_batch}",
            flush=True,
        )

    return server.run(ready=ready)


def cmd_netsim(args: argparse.Namespace) -> int:
    """Compile a scheme and drive routed messages through the simulator."""
    import json as json_mod

    from .netsim import (
        MetricsExporter,
        NetworkSimulator,
        SimReport,
        audit_locality,
        compile_ft_scheme,
        compile_metric_scheme,
        compile_tree_scheme,
        kill_schedule,
        uniform_pairs,
    )
    from .observability import OBS
    from .resilience.injectors import RandomInjector, make_injector
    from .routing import (
        FaultTolerantRoutingScheme,
        build_tree_network,
    )

    OBS.enable()
    build_start = time.perf_counter()
    if args.scheme == "tree":
        tree = random_tree(args.n, seed=args.seed)
        scheme, net = build_tree_network(tree, seed=args.seed + 1)
        compiled = compile_tree_scheme(
            scheme, net, service_time=args.service_time,
            queue_cap=args.queue_cap,
        )
        metric = None
    else:
        metric = _make_metric(args.family, args.n, args.seed)
        cover = _make_cover(
            args.family, metric, args.eps, args.ell, args.seed,
            workers=args.workers,
        )
        if args.scheme == "metric":
            scheme = MetricRoutingScheme(metric, cover, seed=args.seed + 1)
            compiled = compile_metric_scheme(
                scheme, service_time=args.service_time,
                queue_cap=args.queue_cap,
            )
        else:
            scheme = FaultTolerantRoutingScheme(
                metric, f=args.f, cover=cover, seed=args.seed + 1
            )
            compiled = compile_ft_scheme(
                scheme, service_time=args.service_time,
                queue_cap=args.queue_cap, gamma_seed=args.seed,
            )
    audit_locality(compiled)
    build_seconds = time.perf_counter() - build_start
    print(
        f"compiled {compiled.name} scheme: n={compiled.n}, "
        f"{compiled.num_links()} links, zeta={compiled.zeta}, "
        f"gamma budget={compiled.gamma:.3f} ({build_seconds:.2f}s); "
        "locality audit passed"
    )

    sim = NetworkSimulator(compiled, tie_break=args.tie_break, seed=args.seed)
    pairs = uniform_pairs(compiled.n, args.messages, seed=args.seed + 2)
    sim.send_many(pairs, spacing=args.spacing)
    if args.kill > 0:
        horizon = max(args.spacing * args.messages, 1.0)
        if metric is None:
            # Tree overlays have no ambient metric; regional kills
            # need one, so the tree scheme always draws uniformly.
            injector = RandomInjector(compiled.n, seed=args.seed + 3)
        else:
            injector = make_injector(
                args.kill_scenario, metric, seed=args.seed + 3
            )
        for when, victim in kill_schedule(
            injector, count=args.kill, start=horizon / 3.0,
            spacing=horizon / (3.0 * args.kill),
        ):
            sim.kill_at(when, victim)

    run_start = time.perf_counter()
    sim.run()
    run_seconds = time.perf_counter() - run_start
    report = SimReport(sim)
    print(report.summary())
    print(f"simulated {report.events} events in {run_seconds:.2f}s "
          f"({report.injected / max(run_seconds, 1e-9):.0f} msgs/s)")
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    code = 0
    if args.verify:
        min_delivery = 1.0 if args.kill == 0 and args.queue_cap is None else 0.9
        try:
            report.check_contract(min_delivery=min_delivery, hop_budget=2)
            print("contract check passed")
        except Exception as exc:  # InvariantViolation carries the details
            print(f"contract check FAILED: {exc}", file=sys.stderr)
            code = 1
    if args.metrics_port is not None:
        with MetricsExporter(port=args.metrics_port) as exporter:
            print(f"serving /metrics on http://127.0.0.1:{exporter.port}/metrics "
                  f"for {args.linger:.0f}s (ctrl-c to stop)")
            try:
                time.sleep(args.linger)
            except KeyboardInterrupt:
                pass
    return code


#: Detail keys ``python -m repro bench`` echoes for a row with no seed baseline.
_BENCH_ECHO = ("p50_us", "p99_us", "per_query_us", "edges", "zeta",
               "updates_per_s", "touched_fraction", "crossover_batch",
               "delivered", "stretch_p99", "hops_max", "header_bits_max",
               "messages_per_s", "zeta_after", "reduction")


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        bench_dynamic,
        bench_navigation,
        bench_netsim,
        bench_serving,
        bench_tree_covers,
        write_bench_files,
    )

    quick = args.quick
    baseline = not args.no_baseline
    runs = [(bench_tree_covers, dict(
        n=args.n or (400 if quick else 2000), repeats=args.repeats,
        robust_repeats=1 if quick else args.robust_repeats,
        include_baseline=baseline, trace=args.trace, prune=args.prune,
        prune_eps=args.prune_eps,
    )), (bench_navigation, dict(
        n=args.nav_n or (200 if quick else 600), include_baseline=baseline,
        trace=args.trace,
    ))]
    if not args.no_serving:
        runs.append((bench_serving, dict(
            n=args.serve_n or (150 if quick else 300),
            queries=120 if quick else 240,
        )))
    if not args.no_dynamic:
        runs.append((bench_dynamic, dict(
            n=120 if quick else 200, rounds=2 if quick else 3,
        )))
    if not args.no_netsim:
        runs.append((bench_netsim, dict(
            tree_n=300, tree_messages=1500, metric_n=120, metric_messages=600,
            ft_n=80, ft_messages=400,
        ) if quick else {}))
    payloads = []
    for bench, sizes in runs:
        shown = ", ".join(f"{key}={value}" for key, value in sizes.items())
        print(f"{bench.__name__}({shown}) ...")
        payload = bench(seed=args.seed, workers=args.workers, **sizes)
        for entry in payload["results"]:
            if entry["speedup"] is not None:
                extra = (f"{entry['speedup']:.2f}x vs seed "
                         f"{entry['seed_seconds']:.3f}s")
            else:
                extra = ", ".join(f"{key}={entry['detail'][key]}"
                                  for key in _BENCH_ECHO if key in entry["detail"])
            extra = f"  ({extra})" if extra else ""
            print(f"  {entry['name']:>22}: {entry['seconds']:.3f}s{extra}")
        payloads.append(payload)
    for path in write_bench_files(args.out_dir, *payloads):
        print(f"wrote {path}")
    if args.trace:
        print("per-stage span trees embedded in the BENCH rows "
              "(render with: python -m repro trace-report <file>)")
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    import json

    from .observability import render_trace_report, trace_document, validate_trace_json

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    schema = doc.get("schema", "") if isinstance(doc, dict) else ""
    if schema.startswith("repro.bench."):
        # A BENCH_*.json artifact from a traced bench run: render the
        # span trees embedded per result row, then the run's metrics.
        rendered = False
        for entry in doc.get("results", []):
            spans = entry.get("trace")
            if not spans:
                continue
            rendered = True
            print(f"## {entry.get('name')}  ({entry.get('seconds')}s)")
            print(render_trace_report(trace_document(spans)))
        metrics = doc.get("trace_metrics")
        if metrics:
            rendered = True
            print("## metrics")
            print(render_trace_report(trace_document([], metrics)))
        if not rendered:
            print("no embedded trace data; re-run the bench with --trace",
                  file=sys.stderr)
            return 1
        return 0
    errors = validate_trace_json(doc)
    if errors:
        for problem in errors:
            print(f"trace validation: {problem}", file=sys.stderr)
        return 1
    print(render_trace_report(doc), end="")
    return 0


def cmd_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__} — bounded hop-diameter spanner navigation "
          "(PODC 2022 reproduction)")
    print("subsystems: core (Thm 1.1/1.2), treecover (Table 1, Thm 4.1), "
          "spanners (Thm 4.2 + baselines),")
    print("            routing (Thm 5.1/1.3/5.2), apps (Section 5), "
          "graphs/metrics substrates")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="navigate a random tree metric")
    _add_flags(tree, n=1000, k=2, queries=5, seed=0)
    tree.set_defaults(func=cmd_tree)

    for name, func, help_text in (
        ("navigate", cmd_navigate, "k-hop navigation on a metric space"),
        ("route", cmd_route, "2-hop compact routing on a metric space"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_flags(cmd, family="euclidean", n=200, k=2, eps=0.45, ell=2,
                   queries=5, seed=0)
        cmd.set_defaults(func=func)

    chaos = sub.add_parser(
        "chaos", help="fault-injection survival sweeps on the FT stack"
    )
    _add_flags(chaos, family="euclidean", n=120, f=2, k=4, eps=0.45, seed=0)
    chaos.add_argument("--scenario",
                       choices=["random", "adversarial", "regional", "crash"],
                       default="random")
    chaos.add_argument("--sizes", type=str, default="",
                       help="comma-separated |F| values (default: auto sweep)")
    _add_flags(chaos, queries=dict(default=40,
                                   help="query pairs per fault-set size"))
    chaos.add_argument("--steps", type=int, default=8,
                       help="time steps for --scenario crash")
    chaos.add_argument("--no-routing", action="store_true",
                       help="skip the FT routing survival curve")
    chaos.add_argument("--no-checkpoint", action="store_true",
                       help="skip the save/reload/audit checkpoint round-trip")
    _add_flags(chaos, workers=None, trace=False, trace_out="TRACE_chaos.json")
    chaos.set_defaults(func=cmd_chaos)

    ckpt = sub.add_parser(
        "checkpoint",
        help="build an artifact and save a checksummed v2 checkpoint",
    )
    _add_flags(ckpt, family="euclidean", n=120, k=3, f=1, eps=0.45, ell=2,
               seed=0)
    ckpt.add_argument("--gamma", type=float, default=0.0,
                      help="declared stretch contract α (default: measured "
                           "stretch + 10%% headroom)")
    ckpt.add_argument("--what",
                      choices=["cover", "navigator", "ft", "labels"],
                      default="cover")
    ckpt.add_argument("--out", type=str, required=True,
                      help="checkpoint file to write (atomically)")
    ckpt.add_argument("--packed", action="store_true",
                      help="(navigator only) append the raw query-array "
                           "region so 'repro serve --mmap' can attach "
                           "zero-copy")
    _add_cover_flags(ckpt)
    _add_flags(ckpt, workers=None, trace=False,
               trace_out="TRACE_checkpoint.json")
    ckpt.set_defaults(func=cmd_checkpoint)

    audit = sub.add_parser(
        "audit",
        help="verify a checkpoint's integrity and structural invariants",
    )
    audit.add_argument("--checkpoint", type=str, required=True)
    _add_flags(audit, family="euclidean", n=120, eps=0.45, ell=2, seed=0)
    audit.add_argument("--recover", action="store_true",
                       help="on failure, run per-tree repair / full rebuild")
    audit.add_argument("--resave", action="store_true",
                       help="with --recover: write the repaired cover back")
    _add_cover_flags(audit)
    _add_flags(audit, workers=None, trace=False, trace_out="TRACE_audit.json")
    audit.set_defaults(func=cmd_audit)

    serve = sub.add_parser(
        "serve",
        help="long-lived query daemon over a cover checkpoint "
             "(NDJSON protocol + /healthz /readyz /metrics)",
    )
    serve.add_argument("checkpoint", type=str,
                       help="cover checkpoint to load (written by "
                            "'repro checkpoint --what cover')")
    _add_flags(
        serve, family="euclidean",
        n=dict(default=120, help="points in the checkpoint's metric"),
        k=dict(default=3, help="hop-diameter parameter for the navigators"),
        eps=0.45, ell=2, seed=0,
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch size cap")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="admission queue bound (beyond: overloaded)")
    serve.add_argument("--deadline-ms", type=float, default=2000.0,
                       help="default per-request deadline")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="transient batch-failure retries")
    serve.add_argument("--mmap", action="store_true",
                       help="attach to a packed navigator checkpoint by "
                            "memory-mapping instead of rebuilding "
                            "(written by 'repro checkpoint --what "
                            "navigator --packed'); read-only service, "
                            "route/chaos/mutation ops unavailable")
    serve.add_argument("--dynamic", action="store_true",
                       help="enable live insert/delete/compact with the "
                            "crash-safe update journal (robust family "
                            "only; incompatible with --mmap)")
    serve.add_argument("--journal", type=str, default="",
                       help="update-journal path for --dynamic (default: "
                            "<checkpoint>.journal)")
    serve.add_argument("--no-obs", action="store_true",
                       help="disable the observability registry "
                            "(/metrics will be empty)")
    _add_cover_flags(serve)
    _add_flags(serve, workers=None)
    serve.set_defaults(func=cmd_serve)

    netsim = sub.add_parser(
        "netsim",
        help="event-driven message-passing simulation of a routing scheme",
    )
    netsim.add_argument("--scheme", choices=["tree", "metric", "ft"],
                        default="tree",
                        help="which theorem to simulate: 'tree' (Thm 5.1), "
                             "'metric' (Thm 1.3), 'ft' (Thm 5.2)")
    _add_flags(netsim, family=dict(default="euclidean",
                                   help="metric family for --scheme metric/ft"),
               n=dict(type=_positive_int, default=1000, help="number of nodes"))
    netsim.add_argument("--messages", type=_positive_int, default=10_000,
                        help="routed messages to inject")
    _add_flags(netsim, eps=0.45, ell=2,
               f=dict(type=_positive_int, default=2,
                      help="fault budget for --scheme ft"))
    netsim.add_argument("--kill", type=int, default=0,
                        help="nodes to kill mid-traffic (fault plane)")
    netsim.add_argument("--kill-scenario", choices=["random", "regional"],
                        default="random",
                        help="which resilience injector picks the victims")
    netsim.add_argument("--spacing", type=_non_negative_float, default=0.01,
                        help="simulated seconds between injections")
    netsim.add_argument("--service-time", type=_non_negative_float,
                        default=0.0,
                        help="per-message link serialization time "
                             "(0 = pure latency network)")
    netsim.add_argument("--queue-cap", type=_positive_int, default=None,
                        help="bounded egress queue depth (tail drop)")
    netsim.add_argument("--tie-break", choices=["fifo", "lifo", "seeded"],
                        default="seeded",
                        help="scheduler policy for same-time events")
    _add_flags(netsim, seed=0)
    netsim.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    netsim.add_argument("--verify", action="store_true",
                        help="gate the run on the paper's contracts "
                             "(delivery, stretch, 2 hops)")
    netsim.add_argument("--metrics-port", type=int, default=None,
                        help="serve /metrics on this port after the run "
                             "(0 = OS-assigned)")
    netsim.add_argument("--linger", type=_non_negative_float, default=30.0,
                        help="seconds to keep /metrics up for scraping")
    _add_flags(netsim, workers=None)
    netsim.set_defaults(func=cmd_netsim)

    bench = sub.add_parser(
        "bench",
        help="benchmark-regression harness; emits BENCH_*.json artifacts",
    )
    _add_flags(bench, n=dict(default=0, help="points for construction "
                                             "benches (default 2000)"))
    bench.add_argument("--nav-n", type=int, default=0,
                       help="points for navigation benches (default 600)")
    bench.add_argument("--serve-n", type=int, default=0,
                       help="points for serving benches (default 300)")
    bench.add_argument("--no-serving", action="store_true",
                       help="skip the serving-daemon benchmarks")
    bench.add_argument("--no-dynamic", action="store_true",
                       help="skip the dynamic-update (churn) benchmarks")
    bench.add_argument("--no-netsim", action="store_true",
                       help="skip the message-passing simulator benchmarks")
    _add_flags(bench, seed=1)
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing repeats (best-of) for cheap constructions")
    bench.add_argument("--robust-repeats", type=int, default=1,
                       help="timing repeats for the robust cover")
    bench.add_argument("--quick", action="store_true",
                       help="small instances (n=400) for smoke testing")
    bench.add_argument("--no-baseline", action="store_true",
                       help="skip the frozen seed-implementation baselines")
    _add_flags(
        bench,
        prune=dict(action=argparse.BooleanOptionalAction, default=True,
                   help="include the cover_pruning and compact_cover rows "
                        "(zeta before/after, prune seconds, "
                        "navigator-build/query deltas)"),
        prune_eps=dict(default=0.05,
                       help="stretch headroom for the cover_pruning row"),
    )
    bench.add_argument("--out-dir", type=str, default=".",
                       help="directory for BENCH_*.json (default: cwd)")
    _add_flags(
        bench,
        trace=dict(default=False,
                   help="embed per-stage span trees in the BENCH rows "
                        "(timings then include tracing overhead)"),
        workers=None,
    )
    bench.set_defaults(func=cmd_bench)

    trace_report = sub.add_parser(
        "trace-report",
        help="render a trace document (or a traced BENCH_*.json) as text",
    )
    trace_report.add_argument("file", type=str,
                              help="trace JSON document or BENCH_*.json "
                                   "written by a --trace run")
    trace_report.set_defaults(func=cmd_trace_report)

    info = sub.add_parser("info", help="version and subsystem inventory")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --trace on chaos/checkpoint/audit scopes tracing around the whole
    # command and writes a standalone trace document; bench handles its
    # own tracing (spans land inside the BENCH rows instead).
    if getattr(args, "trace", False) and args.func is not cmd_bench:
        return _traced_command(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
