"""Benchmark-regression harness (``python -m repro bench``).

Times the vectorized construction and query paths against the frozen
pre-vectorization implementations in :mod:`repro._seed_baseline` on
identical inputs, and emits schema-stable JSON artifacts:

* ``BENCH_tree_covers.json`` — construction time of the net hierarchy,
  the CKR/HST hierarchy, and the Theorem 4.1 robust tree cover, each
  with its seed-baseline time and speedup, plus output invariants
  (ζ, measured stretch) so a regression in either speed or quality is
  visible in version control diffs.
* ``BENCH_navigation.json`` — navigator build time, scalar query
  p50/p99 latency, and batched :meth:`MetricNavigator.find_paths`
  per-query latency, plus spanner edge counts.
* ``BENCH_dynamic.json`` — sustained insert/delete throughput with
  interleaved queries through :class:`repro.dynamic.DynamicRobustCover`,
  journal fsync latency, and the patch-vs-rebuild crossover.

Schema stability contract: the ``schema`` field names the payload
version (``repro.bench.tree_covers/v1``, ``repro.bench.navigation/v1``).
Consumers may rely on the keys checked by :func:`validate_bench_json`;
anything else (the ``detail`` dicts, ``meta``) is informational and may
grow without a version bump.  Removing or retyping a checked key
requires bumping the version suffix.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy

from . import __version__
from ._seed_baseline import (
    SeedEuclideanMetric,
    SeedMetricNavigator,
    SeedNetHierarchy,
    seed_build_hst,
    seed_robust_tree_cover,
)
from .core.metric_navigator import MetricNavigator
from .metrics.base import sample_pairs
from .metrics.doubling import NetHierarchy
from .metrics.euclidean import random_points
from .observability import OBS
from .parallel import resolve_workers
from .treecover.dumbbell import robust_tree_cover
from .treecover.hst import build_hst

__all__ = [
    "TREE_COVERS_SCHEMA",
    "NAVIGATION_SCHEMA",
    "SERVING_SCHEMA",
    "DYNAMIC_SCHEMA",
    "NETSIM_SCHEMA",
    "bench_tree_covers",
    "bench_navigation",
    "bench_serving",
    "bench_dynamic",
    "bench_netsim",
    "validate_bench_json",
    "write_bench_files",
]

TREE_COVERS_SCHEMA = "repro.bench.tree_covers/v1"
NAVIGATION_SCHEMA = "repro.bench.navigation/v1"
SERVING_SCHEMA = "repro.bench.serving/v1"
DYNAMIC_SCHEMA = "repro.bench.dynamic/v1"
NETSIM_SCHEMA = "repro.bench.netsim/v1"


def _best_of(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = math.inf
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _meta() -> Dict[str, str]:
    return {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _result(
    name: str,
    n: int,
    seconds: float,
    seed_seconds: Optional[float],
    detail: Dict,
    spans: Optional[List[Dict]] = None,
) -> Dict:
    out = {
        "name": name,
        "n": n,
        "seconds": round(seconds, 6),
        "seed_seconds": None if seed_seconds is None else round(seed_seconds, 6),
        "speedup": (
            None
            if seed_seconds is None or seconds <= 0
            else round(seed_seconds / seconds, 3)
        ),
        "detail": detail,
    }
    if spans is not None:
        out["trace"] = spans
    return out


def _trace_context(trace: bool):
    """Scope tracing on for a traced bench run (and start it clean)."""
    if not trace:
        return nullcontext()
    OBS.clear()
    return OBS.scoped(True)


def _drain_spans(trace: bool) -> Optional[List[Dict]]:
    """Root spans accumulated since the previous drain, or ``None``.

    Called after each timed stage so the stage's span trees land on its
    own BENCH row.  Traced runs measure the instrumented code path —
    timings carry the (small) tracing overhead by design.
    """
    return OBS.take_roots() if trace else None


def _timing_workers(workers: Optional[int]) -> Tuple[int, Optional[str]]:
    """Resolve ``workers`` for the *timed* build stages.

    A process pool wider than the machine can only add serialization
    overhead to a wall-clock measurement, so the timed stages cap the
    fan-out at ``os.cpu_count()`` and fall back to the serial path on a
    single-core box.  This is a measurement policy only: the engine's
    own :func:`repro.parallel.resolve_workers` semantics are unchanged,
    and the determinism tests still force real pools at any requested
    width regardless of core count.

    Returns ``(workers_used, fallback_reason)``: the second element is
    ``None`` when the stages run exactly as requested, else a sentence
    naming what the clamp did — callers record it in row detail so a
    serial run can never masquerade as a parallel measurement.
    """
    resolved = resolve_workers(workers)
    cores = os.cpu_count() or 1
    if resolved <= 1:
        return 0, None
    if cores <= 1:
        return 0, (
            f"requested {resolved} workers but cpu_count={cores}; "
            "timed stages ran serial"
        )
    if resolved > cores:
        return cores, f"requested {resolved} workers, capped to cpu_count={cores}"
    return resolved, None


def _parallel_detail(
    detail: Dict,
    workers: int,
    seconds: float,
    serial_seconds: float,
    requested: Optional[int] = None,
    fallback: Optional[str] = None,
) -> Dict:
    """Record the worker count and parallel-vs-serial speedup of a stage.

    ``workers`` is what the timed stage actually used after the
    core-count clamp of :func:`_timing_workers`; ``requested`` is what
    the caller asked for (``--workers`` / ``REPRO_WORKERS``) and
    ``fallback`` is the clamp's reason when they differ.  A stage that
    ran serial has no pool to compare against, so its
    ``parallel_speedup`` is ``None`` — never a fabricated 1.0.
    """
    detail["workers"] = workers
    if requested is not None:
        detail["workers_requested"] = requested
    if fallback is not None:
        detail["workers_fallback"] = fallback
    detail["serial_seconds"] = round(serial_seconds, 6)
    if workers > 1 and seconds > 0:
        detail["parallel_speedup"] = round(serial_seconds / seconds, 3)
    else:
        detail["parallel_speedup"] = None
    return detail


def _cover_pruning_row(
    metric,
    cover,
    n: int,
    seed: int,
    prune_eps: float,
    stretch_sample: int,
    nav_delta_n: int,
    eps: float,
    workers: int,
    trace: bool,
) -> Dict:
    """The ``cover_pruning`` row: zeta before/after the greedy set-cover
    prune, the contract it was re-verified against, and the downstream
    navigator-build/query deltas at ``min(n, nav_delta_n)`` (capped so
    the full-size bench does not pay a second full navigator build)."""
    from .treecover.prune import prune_cover

    report = prune_cover(cover, eps=prune_eps, workers=workers)
    pruned = report.cover
    worst, mean = pruned.measured_stretch(
        sample_pairs(n, stretch_sample, seed=seed)
    )

    dn = min(n, nav_delta_n)
    if dn == n:
        d_metric, d_cover, d_report = metric, cover, report
    else:
        d_metric = random_points(dn, dim=2, seed=seed)
        d_cover = robust_tree_cover(d_metric, eps=eps, workers=workers)
        d_report = prune_cover(d_cover, eps=prune_eps, workers=workers)
    d_pruned = d_report.cover

    k = 3
    start = time.perf_counter()
    nav_full = MetricNavigator(d_metric, d_cover, k, workers=workers)
    build_full = time.perf_counter() - start
    start = time.perf_counter()
    nav_pruned = MetricNavigator(d_metric, d_pruned, k, workers=workers)
    build_pruned = time.perf_counter() - start

    rng = random.Random(seed)
    pairs = [(rng.randrange(dn), rng.randrange(dn)) for _ in range(200)]
    pairs = [(u, v) for u, v in pairs if u != v]

    def _p50_us(nav) -> float:
        lat = []
        for u, v in pairs:
            t0 = time.perf_counter()
            nav.find_path(u, v)
            lat.append((time.perf_counter() - t0) * 1e6)
        return round(float(np.percentile(np.asarray(lat), 50)), 2)

    p50_full = _p50_us(nav_full)
    p50_pruned = _p50_us(nav_pruned)

    # Retained trees are the same objects, so the per-tree navigator
    # paths must match the full navigator's on the original tree index
    # bit for bit; a False here means the prune changed answers it
    # promised not to touch.
    identical = True
    for u, v in pairs[:50]:
        j, _ = d_pruned.best_tree(u, v)
        ct = d_pruned.trees[j]
        a, b = ct.vertex_of_point[u], ct.vertex_of_point[v]
        if nav_pruned.navigators[j].find_path(a, b) != nav_full.navigators[
            d_report.retained[j]
        ].find_path(a, b):
            identical = False
            break

    detail = {
        "zeta_before": report.zeta_before,
        "zeta_after": report.zeta_after,
        "reduction": round(report.reduction, 2),
        "gamma": round(report.gamma, 4),
        "prune_eps": prune_eps,
        "pairs_evaluated": report.pairs_evaluated,
        "exact_pairs": report.exact,
        "stretch_max": round(worst, 4),
        "stretch_mean": round(mean, 4),
        "cover_bytes_before": cover.memory_bytes(),
        "cover_bytes_after": pruned.memory_bytes(),
        "nav_delta": {
            "n": dn,
            "k": k,
            "build_full_s": round(build_full, 6),
            "build_pruned_s": round(build_pruned, 6),
            "build_speedup": (
                round(build_full / build_pruned, 3) if build_pruned > 0 else None
            ),
            "query_full_p50_us": p50_full,
            "query_pruned_p50_us": p50_pruned,
            "retained_paths_identical": identical,
        },
    }
    return _result(
        "cover_pruning", n, report.seconds, None, detail,
        spans=_drain_spans(trace),
    )


def _compact_cover_row(
    metric,
    cover,
    n: int,
    seed: int,
    eps: float,
    shifts: int,
    robust_repeats: int,
    stretch_sample: int,
    robust_secs: float,
    workers: int,
    trace: bool,
) -> Dict:
    """The ``compact_cover`` row: the shifted-hierarchy backend at the
    same eps as the robust cover, with its (n-independent) zeta and the
    stretch it trades for it."""
    from .treecover.compact import compact_tree_cover

    secs, compact = _best_of(
        lambda: compact_tree_cover(metric, eps=eps, shifts=shifts, workers=workers),
        robust_repeats,
    )
    worst, mean = compact.measured_stretch(
        sample_pairs(n, stretch_sample, seed=seed)
    )
    detail = {
        "eps": eps,
        "shifts": shifts,
        "zeta": compact.size,
        "zeta_robust": cover.size,
        "reduction_vs_robust": round(cover.size / max(1, compact.size), 2),
        "stretch_max": round(worst, 4),
        "stretch_mean": round(mean, 4),
        "cover_bytes": compact.memory_bytes(),
        "robust_seconds": round(robust_secs, 6),
    }
    return _result(
        "compact_cover", n, secs, None, detail, spans=_drain_spans(trace)
    )


def bench_tree_covers(
    n: int = 2000,
    dim: int = 2,
    seed: int = 1,
    eps: float = 0.5,
    alpha: float = 8.0,
    repeats: int = 3,
    robust_repeats: int = 1,
    include_baseline: bool = True,
    stretch_sample: int = 300,
    workers: Optional[int] = None,
    trace: bool = False,
    prune: bool = True,
    prune_eps: float = 0.05,
    compact_shifts: int = 4,
    nav_delta_n: int = 600,
) -> Dict:
    """Construction benchmarks on ``random_points(n, dim)``.

    The baseline runs re-execute the frozen seed implementations on the
    same points, so the reported speedups are measured in this process,
    on this machine — not copied from a past run.  ``robust_repeats``
    is separate because the seed Theorem 4.1 construction is by far the
    slowest entry (minutes at n=2000).  ``workers`` fans the robust
    cover's per-tree merges out across processes; when it resolves to a
    pool, the serial path is timed too and the row's detail records the
    parallel-vs-serial speedup alongside the seed-baseline speedup.
    With ``trace=True`` observability is scoped on for the run and each
    row carries the span trees of its timed stage under ``"trace"``
    (timings then include the tracing overhead by design).

    ``prune=True`` adds the ``cover_pruning`` and ``compact_cover``
    rows: zeta before/after the greedy set-cover prune (with the
    navigator-build and query deltas measured at
    ``min(n, nav_delta_n)``), and the compact shifted-hierarchy backend
    at the same eps.  Both carry ``seed_seconds=None`` — the frozen
    seed implementation has no counterpart stage.
    """
    with _trace_context(trace):
        return _bench_tree_covers(
            n, dim, seed, eps, alpha, repeats, robust_repeats,
            include_baseline, stretch_sample, workers, trace,
            prune, prune_eps, compact_shifts, nav_delta_n,
        )


def _bench_tree_covers(
    n: int,
    dim: int,
    seed: int,
    eps: float,
    alpha: float,
    repeats: int,
    robust_repeats: int,
    include_baseline: bool,
    stretch_sample: int,
    workers: Optional[int],
    trace: bool,
    prune: bool,
    prune_eps: float,
    compact_shifts: int,
    nav_delta_n: int,
) -> Dict:
    metric = random_points(n, dim=dim, seed=seed)
    requested_workers = resolve_workers(workers)
    resolved_workers, workers_fallback = _timing_workers(workers)
    seed_metric = SeedEuclideanMetric(metric.points) if include_baseline else None
    results: List[Dict] = []

    secs, hierarchy = _best_of(lambda: NetHierarchy(metric), repeats)
    base = (
        _best_of(lambda: SeedNetHierarchy(seed_metric), repeats)[0]
        if include_baseline
        else None
    )
    results.append(
        _result(
            "net_hierarchy",
            n,
            secs,
            base,
            {"levels": hierarchy.i_max - hierarchy.i_min + 1},
            spans=_drain_spans(trace),
        )
    )

    secs, (hst, padded) = _best_of(lambda: build_hst(metric, alpha, seed=0), repeats)
    base = (
        _best_of(lambda: seed_build_hst(seed_metric, alpha, seed=0), repeats)[0]
        if include_baseline
        else None
    )
    results.append(
        _result(
            "hst",
            n,
            secs,
            base,
            {"alpha": alpha, "vertices": hst.tree.n, "padded": len(padded)},
            spans=_drain_spans(trace),
        )
    )

    secs, cover = _best_of(
        lambda: robust_tree_cover(metric, eps=eps, workers=resolved_workers),
        robust_repeats,
    )
    serial_secs = secs
    if resolved_workers > 1:
        serial_secs, _ = _best_of(
            lambda: robust_tree_cover(metric, eps=eps, workers=0), robust_repeats
        )
    detail: Dict = _parallel_detail(
        {"eps": eps, "zeta": cover.size, "cover_bytes": cover.memory_bytes()},
        resolved_workers, secs, serial_secs,
        requested=requested_workers, fallback=workers_fallback,
    )
    if include_baseline:
        base, seed_cover = _best_of(
            lambda: seed_robust_tree_cover(seed_metric, eps=eps), robust_repeats
        )
        detail["zeta_seed"] = seed_cover.size
    else:
        base = None
    worst, mean = cover.measured_stretch(
        sample_pairs(n, stretch_sample, seed=seed)
    )
    detail["stretch_max"] = round(worst, 4)
    detail["stretch_mean"] = round(mean, 4)
    results.append(
        _result("robust_cover", n, secs, base, detail, spans=_drain_spans(trace))
    )

    if prune:
        results.append(
            _cover_pruning_row(
                metric, cover, n, seed, prune_eps, stretch_sample,
                nav_delta_n, eps, resolved_workers, trace,
            )
        )
        results.append(
            _compact_cover_row(
                metric, cover, n, seed, eps, compact_shifts, robust_repeats,
                stretch_sample, secs, resolved_workers, trace,
            )
        )

    payload = {
        "schema": TREE_COVERS_SCHEMA,
        "config": {
            "n": n,
            "dim": dim,
            "seed": seed,
            "eps": eps,
            "alpha": alpha,
            "repeats": repeats,
            "robust_repeats": robust_repeats,
            "include_baseline": include_baseline,
            "workers": resolved_workers,
            "workers_requested": requested_workers,
            "workers_fallback": workers_fallback,
            "prune": prune,
            "prune_eps": prune_eps,
            "compact_shifts": compact_shifts,
            "trace": trace,
        },
        "results": results,
        "meta": _meta(),
    }
    if trace:
        payload["trace_metrics"] = OBS.registry.snapshot()
    return payload


def bench_navigation(
    n: int = 600,
    dim: int = 2,
    seed: int = 1,
    eps: float = 0.5,
    k: int = 3,
    queries: int = 400,
    include_baseline: bool = True,
    workers: Optional[int] = None,
    trace: bool = False,
) -> Dict:
    """Navigator construction and query-latency benchmarks.

    Every row carries a seed baseline measured in-process: the robust
    cover and the navigator build re-run the frozen pre-vectorization
    implementations (:mod:`repro._seed_baseline` — eager LCA indexes,
    scalar per-edge distances), and the scalar query loop re-runs on the
    seed navigator.  ``workers`` fans the cover and navigator builds out
    across processes; the detail dicts then also record the
    parallel-vs-serial speedup of each build stage.  With ``trace=True``
    observability is scoped on and each row carries its stage's span
    trees under ``"trace"`` (query stages emit counters, not spans, so
    their lists may be empty).
    """
    with _trace_context(trace):
        return _bench_navigation(
            n, dim, seed, eps, k, queries, include_baseline, workers, trace
        )


def _bench_navigation(
    n: int,
    dim: int,
    seed: int,
    eps: float,
    k: int,
    queries: int,
    include_baseline: bool,
    workers: Optional[int],
    trace: bool,
) -> Dict:
    metric = random_points(n, dim=dim, seed=seed)
    requested_workers = resolve_workers(workers)
    resolved_workers, workers_fallback = _timing_workers(workers)
    results: List[Dict] = []

    start = time.perf_counter()
    cover = robust_tree_cover(metric, eps=eps, workers=resolved_workers)
    cover_secs = time.perf_counter() - start
    cover_serial = cover_secs
    if resolved_workers > 1:
        start = time.perf_counter()
        robust_tree_cover(metric, eps=eps, workers=0)
        cover_serial = time.perf_counter() - start
    seed_cover_secs = None
    if include_baseline:
        seed_metric = SeedEuclideanMetric(metric.points)
        start = time.perf_counter()
        seed_robust_tree_cover(seed_metric, eps=eps)
        seed_cover_secs = time.perf_counter() - start
    results.append(
        _result(
            "robust_cover",
            n,
            cover_secs,
            seed_cover_secs,
            _parallel_detail(
                {"eps": eps, "zeta": cover.size,
                 "cover_bytes": cover.memory_bytes()},
                resolved_workers, cover_secs, cover_serial,
                requested=requested_workers, fallback=workers_fallback,
            ),
            spans=_drain_spans(trace),
        )
    )

    start = time.perf_counter()
    navigator = MetricNavigator(metric, cover, k, workers=resolved_workers)
    build = time.perf_counter() - start
    build_serial = build
    if resolved_workers > 1:
        start = time.perf_counter()
        MetricNavigator(metric, cover, k, workers=0)
        build_serial = time.perf_counter() - start
    seed_navigator = None
    seed_build = None
    if include_baseline:
        start = time.perf_counter()
        seed_navigator = SeedMetricNavigator(metric, cover, k)
        seed_build = time.perf_counter() - start
    results.append(
        _result(
            "navigator_build",
            n,
            build,
            seed_build,
            _parallel_detail(
                {"k": k, "zeta": cover.size, "edges": navigator.num_edges},
                resolved_workers, build, build_serial,
                requested=requested_workers, fallback=workers_fallback,
            ),
            spans=_drain_spans(trace),
        )
    )

    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(queries)]
    pairs = [(u, v) for u, v in pairs if u != v]

    lat_us: List[float] = []
    start_all = time.perf_counter()
    for u, v in pairs:
        start = time.perf_counter()
        navigator.find_path(u, v)
        lat_us.append((time.perf_counter() - start) * 1e6)
    scalar_total = time.perf_counter() - start_all
    seed_scalar = None
    if seed_navigator is not None:
        start_all = time.perf_counter()
        for u, v in pairs:
            seed_navigator.find_path(u, v)
        seed_scalar = time.perf_counter() - start_all
    lat = np.asarray(lat_us)
    results.append(
        _result(
            "query_scalar",
            n,
            scalar_total,
            seed_scalar,
            {
                "queries": len(pairs),
                "p50_us": round(float(np.percentile(lat, 50)), 2),
                "p99_us": round(float(np.percentile(lat, 99)), 2),
            },
            spans=_drain_spans(trace),
        )
    )

    start = time.perf_counter()
    navigator.find_paths(pairs)
    batch_total = time.perf_counter() - start
    results.append(
        _result(
            "query_batch",
            n,
            batch_total,
            # The frozen seed baseline, like every other row; the batch
            # kernel's edge over this run's scalar loop is still
            # visible via detail.scalar_seconds.
            seed_scalar,
            {
                "queries": len(pairs),
                "per_query_us": round(batch_total / max(1, len(pairs)) * 1e6, 2),
                "scalar_seconds": round(scalar_total, 6),
            },
            spans=_drain_spans(trace),
        )
    )

    payload = {
        "schema": NAVIGATION_SCHEMA,
        "config": {
            "n": n,
            "dim": dim,
            "seed": seed,
            "eps": eps,
            "k": k,
            "queries": queries,
            "include_baseline": include_baseline,
            "workers": resolved_workers,
            "workers_requested": requested_workers,
            "workers_fallback": workers_fallback,
            "trace": trace,
        },
        "results": results,
        "meta": _meta(),
    }
    if trace:
        payload["trace_metrics"] = OBS.registry.snapshot()
    return payload


def _serve_closed_loop(
    client, pairs: List[Tuple[int, int]], queries: int, window: int
) -> Tuple[float, List[float], Dict[str, int]]:
    """Drive ``queries`` requests keeping ``window`` in flight.

    Offered load is fixed by the window: every completion immediately
    triggers the next send, so the daemon always sees ``window``
    outstanding requests (the regime where admission batching matters).
    Returns (total seconds, per-request latency in µs, status counts).
    """
    inflight: Dict[object, float] = {}
    lat_us: List[float] = []
    statuses: Dict[str, int] = {}
    sent = 0

    def send_one() -> None:
        nonlocal sent
        u, v = pairs[sent % len(pairs)]
        request_id = client.send([{"op": "path", "u": u, "v": v}])[0]
        inflight[request_id] = time.perf_counter()
        sent += 1

    start = time.perf_counter()
    for _ in range(min(window, queries)):
        send_one()
    for _ in range(queries):
        response = client.recv()
        lat_us.append((time.perf_counter() - inflight.pop(response["id"])) * 1e6)
        statuses[response["status"]] = statuses.get(response["status"], 0) + 1
        if sent < queries:
            send_one()
    return time.perf_counter() - start, lat_us, statuses


def _proc_pss_kb() -> Optional[int]:
    """This process's proportional set size in kB, or ``None``.

    PSS (``/proc/self/smaps_rollup``) charges each resident page
    divided by the number of processes mapping it — exactly the
    accounting that distinguishes N workers *sharing* one mapped
    checkpoint from N workers each holding a private pickled clone.
    """
    try:
        with open("/proc/self/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _rss_fanout_worker(mode, payload, metric, pairs, barrier, queue) -> None:
    """One serving worker of the RSS fleet (spawn entry point).

    Touches the full query surface (so the pages are resident), then
    rendezvous at the barrier so every worker reads its PSS while *all*
    of them hold their query state — shared pages are charged
    fractionally only while they are actually shared.
    """
    if mode == "mapped":
        from .parallel.sharedmem import attach_mapped_navigator

        navigator = attach_mapped_navigator(payload, metric)
    else:
        navigator = payload
    for u, v in pairs:
        navigator.find_path(u, v)
    barrier.wait()
    pss = _proc_pss_kb()
    barrier.wait()
    queue.put(pss)


def _measure_worker_fleet(
    mode: str, payload, metric, pairs, num_workers: int
) -> Tuple[float, List[Optional[int]]]:
    """Wall seconds + per-worker PSS for ``num_workers`` spawned workers.

    Uses the ``spawn`` start method deliberately: ``fork`` would share
    the parent's pages copy-on-write, making pickled clones look as
    cheap as the mapped checkpoint and voiding the comparison.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(num_workers)
    queue = ctx.SimpleQueue()
    procs = [
        ctx.Process(
            target=_rss_fanout_worker,
            args=(mode, payload, metric, pairs, barrier, queue),
        )
        for _ in range(num_workers)
    ]
    start = time.perf_counter()
    for proc in procs:
        proc.start()
    pss = [queue.get() for _ in procs]
    for proc in procs:
        proc.join()
    return time.perf_counter() - start, pss


def bench_serving(
    n: int = 300,
    dim: int = 2,
    seed: int = 1,
    eps: float = 0.5,
    k: int = 3,
    queries: int = 240,
    window: int = 32,
    batch_sizes: Tuple[int, ...] = (1, 8, 32),
    workers: Optional[int] = None,
    rss_workers: int = 4,
) -> Dict:
    """Serving-daemon benchmarks: cold start and closed-loop latency.

    Rows:

    * ``cold_start`` — checkpoint load (audit included) through daemon
      bind to the first answered query, the time-to-first-byte of a
      deploy or a recovery restart.
    * ``cold_load_first_query`` — the same deploy path through a
      ``packed=True`` navigator checkpoint attached with ``mmap=True``:
      no rebuild, CRC-verify + map + first answered query.
      ``seed_seconds`` is the rebuild-based ``cold_start`` time, so the
      zero-copy win is a tracked speedup.
    * ``multi_worker_rss`` — ``rss_workers`` spawned serving processes
      attach to the mapped checkpoint, versus the same fleet each
      unpickling a private clone of the in-memory navigator; the detail
      records per-worker and aggregate PSS for both fleets (mapped
      aggregate should stay sub-linear in N; clones grow ~linearly).
    * ``serve_batch_{b}`` for each ``b`` in ``batch_sizes`` — a fresh
      daemon per admission batch size, driven closed-loop with
      ``window`` requests always in flight; the detail carries
      p50/p99 per-request latency (client-observed, queueing included)
      and per-query throughput.  ``seed_seconds``/``speedup`` on the
      ``b > 1`` rows compare against the ``batch=1`` row, so the win
      from micro-batching into ``find_paths`` is a tracked number.
    """
    import tempfile

    from .checkpoint import (
        CheckpointService,
        save_cover_checkpoint,
        save_navigator_checkpoint,
    )
    from .parallel.sharedmem import mapped_navigator_descriptor
    from .serve import AdmissionPolicy, ServeClient, ThreadedServer

    metric = random_points(n, dim=dim, seed=seed)
    resolved_workers, workers_fallback = _timing_workers(workers)
    requested_workers = resolve_workers(workers)
    cover = robust_tree_cover(metric, eps=eps, workers=resolved_workers)
    handle, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(handle)
    handle, packed_path = tempfile.mkstemp(suffix=".packed.ckpt")
    os.close(handle)
    results: List[Dict] = []
    try:
        save_cover_checkpoint(
            cover, path, builder={"family": "euclidean-robust", "eps": eps}
        )

        start = time.perf_counter()
        service = CheckpointService(
            metric, k=k, workers=resolved_workers
        ).load(path)
        load_secs = time.perf_counter() - start
        with ThreadedServer(service) as threaded:
            with ServeClient(threaded.host, threaded.port) as client:
                first = client.path(0, n - 1)
        cold_secs = time.perf_counter() - start
        results.append(
            _result(
                "cold_start",
                n,
                cold_secs,
                None,
                {
                    "load_seconds": round(load_secs, 6),
                    "zeta": cover.size,
                    "k": k,
                    "first_query_status": first["status"],
                },
            )
        )

        # Zero-copy deploy path: write the packed navigator checkpoint
        # (off the clock — that is build/save-time work), then time
        # attach-by-mmap through the first answered query.
        navigator = service.navigator
        save_navigator_checkpoint(navigator, packed_path, packed=True)
        start = time.perf_counter()
        mapped_service = CheckpointService(metric, k=k).load(
            packed_path, mmap=True
        )
        mapped_load_secs = time.perf_counter() - start
        with ThreadedServer(mapped_service) as threaded:
            with ServeClient(threaded.host, threaded.port) as client:
                first = client.path(0, n - 1)
        mapped_cold_secs = time.perf_counter() - start
        results.append(
            _result(
                "cold_load_first_query",
                n,
                mapped_cold_secs,
                cold_secs,
                {
                    "load_seconds": round(mapped_load_secs, 6),
                    "zeta": cover.size,
                    "k": k,
                    "first_query_status": first["status"],
                    "mapped": True,
                    "checkpoint_bytes": os.path.getsize(packed_path),
                },
            )
        )

        rng = random.Random(seed)
        rss_pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(48)]
        rss_pairs = [(u, v) for u, v in rss_pairs if u != v] or [(0, n - 1)]
        mapped_secs, mapped_pss = _measure_worker_fleet(
            "mapped",
            mapped_navigator_descriptor(packed_path),
            metric,
            rss_pairs,
            rss_workers,
        )
        cloned_secs, cloned_pss = _measure_worker_fleet(
            "cloned", navigator, metric, rss_pairs, rss_workers
        )
        have_pss = all(p is not None for p in mapped_pss + cloned_pss)
        results.append(
            _result(
                "multi_worker_rss",
                n,
                mapped_secs,
                cloned_secs,
                {
                    "workers": rss_workers,
                    "pss_mapped_kb": mapped_pss,
                    "pss_cloned_kb": cloned_pss,
                    "aggregate_pss_mapped_kb": (
                        sum(mapped_pss) if have_pss else None
                    ),
                    "aggregate_pss_cloned_kb": (
                        sum(cloned_pss) if have_pss else None
                    ),
                    "pss_ratio": (
                        round(sum(cloned_pss) / sum(mapped_pss), 3)
                        if have_pss and sum(mapped_pss) > 0 else None
                    ),
                },
            )
        )

        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(queries)]
        pairs = [(u, v) for u, v in pairs if u != v] or [(0, n - 1)]
        batch1_secs: Optional[float] = None
        for batch_size in batch_sizes:
            policy = AdmissionPolicy(
                max_batch=batch_size, max_queue=max(256, window * 4)
            )
            with ThreadedServer(service, policy=policy) as threaded:
                with ServeClient(threaded.host, threaded.port) as client:
                    total, lat_us, statuses = _serve_closed_loop(
                        client, pairs, queries, window
                    )
            lat = np.asarray(lat_us)
            results.append(
                _result(
                    f"serve_batch_{batch_size}",
                    n,
                    total,
                    batch1_secs,
                    {
                        "queries": queries,
                        "window": window,
                        "max_batch": batch_size,
                        "p50_us": round(float(np.percentile(lat, 50)), 2),
                        "p99_us": round(float(np.percentile(lat, 99)), 2),
                        "per_query_us": round(total / queries * 1e6, 2),
                        "statuses": statuses,
                    },
                )
            )
            if batch1_secs is None:
                batch1_secs = total
    finally:
        os.unlink(path)
        os.unlink(packed_path)

    return {
        "schema": SERVING_SCHEMA,
        "config": {
            "n": n,
            "dim": dim,
            "seed": seed,
            "eps": eps,
            "k": k,
            "queries": queries,
            "window": window,
            "batch_sizes": list(batch_sizes),
            "workers": resolved_workers,
            "workers_requested": requested_workers,
            "workers_fallback": workers_fallback,
            "rss_workers": rss_workers,
        },
        "results": results,
        "meta": _meta(),
    }


def bench_dynamic(
    n: int = 150,
    dim: int = 2,
    seed: int = 1,
    eps: float = 0.5,
    batch_sizes: Tuple[int, ...] = (1, 8, 32),
    rounds: int = 3,
    queries: int = 16,
    workers: Optional[int] = None,
) -> Dict:
    """Dynamic-update benchmarks: sustained churn with interleaved queries.

    Rows:

    * ``full_rebuild`` — a from-scratch build of the current
      generation over its live points: what one ``apply`` pays for a
      whole batch, re-pinned or not.  The median of ``rounds`` builds
      (the detail's ``samples``).
    * ``journal_append`` — p50/p99 of one write-ahead journal record
      (CRC frame + fsync-before-ack), the floor of any mutation's
      acknowledged latency.
    * ``update_batch_{b}`` for each ``b`` in ``batch_sizes`` —
      ``rounds`` seeded mutation batches of ``b`` ops (50/50
      insert/delete) applied through ``DynamicRobustCover.apply``, with
      ``queries`` cover queries interleaved after every batch.  The
      detail carries sustained ``updates_per_s``, the mean
      ``touched_fraction`` (1.0: every mutation rebuilds every tree of
      the Theorem 4.1 construction — see ``docs/DYNAMIC.md``) and
      interleaved query p50.
      ``seed_seconds``/``speedup`` compare against paying one full
      rebuild *per op* — the batch-amortization win.
    * ``patch_vs_rebuild`` — the crossover summary: the measured
      apply-time/rebuild-time ratio per batch size and the batch size
      past which batching beats rebuild-per-op.
    """
    import random as random_mod
    import tempfile

    from .dynamic import DynamicRobustCover, UpdateJournal

    metric = random_points(n, dim=dim, seed=seed)
    resolved_workers, workers_fallback = _timing_workers(workers)
    requested_workers = resolve_workers(workers)
    dyn = DynamicRobustCover.from_metric(metric, eps=eps, workers=resolved_workers)
    results: List[Dict] = []

    # Every patch_vs_rebuild ratio and the crossover divide by this
    # baseline, so it is the median of ``rounds`` rebuilds, not one.
    rebuild_samples = []
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        dyn.rebuild()
        rebuild_samples.append(time.perf_counter() - start)
    rebuild_secs = float(np.median(rebuild_samples))
    results.append(
        _result(
            "full_rebuild",
            n,
            rebuild_secs,
            None,
            {
                "zeta": len(dyn.trees),
                "active": len(dyn.active),
                "eps": eps,
                "samples": len(rebuild_samples),
            },
        )
    )

    handle, journal_path = tempfile.mkstemp(suffix=".journal")
    os.close(handle)
    os.unlink(journal_path)
    try:
        append_lat: List[float] = []
        with UpdateJournal(journal_path) as journal:
            for i in range(64):
                start = time.perf_counter()
                journal.append("insert", point=[float(i), float(i)])
                append_lat.append((time.perf_counter() - start) * 1e6)
        lat = np.asarray(append_lat)
        results.append(
            _result(
                "journal_append",
                n,
                float(lat.sum()) / 1e6,
                None,
                {
                    "appends": len(append_lat),
                    "p50_us": round(float(np.percentile(lat, 50)), 2),
                    "p99_us": round(float(np.percentile(lat, 99)), 2),
                },
            )
        )
    finally:
        if os.path.exists(journal_path):
            os.unlink(journal_path)

    def make_ops(state: DynamicRobustCover, rng, batch: int):
        lo = state.coords[state.active].min(axis=0)
        hi = state.coords[state.active].max(axis=0)
        live = set(state.active)
        ops = []
        for _ in range(batch):
            if rng.random() < 0.5 or len(live) <= 3:
                ops.append((
                    "insert",
                    [float(l + rng.random() * max(h - l, 1.0))
                     for l, h in zip(lo, hi)],
                ))
            else:
                victim = rng.choice(sorted(live))
                live.discard(victim)
                ops.append(("delete", victim))
        return ops

    ratios: Dict[str, float] = {}
    for batch in batch_sizes:
        state = DynamicRobustCover.from_metric(
            metric, eps=eps, workers=resolved_workers
        )
        rng = random_mod.Random(seed * 7919 + batch)
        mutate_secs = 0.0
        query_lat: List[float] = []
        touched: List[float] = []
        for round_index in range(rounds):
            ops = make_ops(state, rng, batch)
            start = time.perf_counter()
            report = state.apply(ops)
            mutate_secs += time.perf_counter() - start
            touched.append(report.touched_fraction)
            pairs = state.active_pairs(queries, seed=rng.randrange(1 << 30))
            for u, v in pairs:
                q0 = time.perf_counter()
                state.cover.best_tree(u, v)
                query_lat.append((time.perf_counter() - q0) * 1e6)
        ops_total = rounds * batch
        per_op_rebuild = ops_total * rebuild_secs
        lat = np.asarray(query_lat)
        ratios[str(batch)] = round(
            mutate_secs / rounds / rebuild_secs if rebuild_secs > 0 else 0.0, 3
        )
        results.append(
            _result(
                f"update_batch_{batch}",
                n,
                mutate_secs,
                per_op_rebuild,
                {
                    "batch": batch,
                    "rounds": rounds,
                    "updates_per_s": round(ops_total / mutate_secs, 2)
                    if mutate_secs > 0 else None,
                    "touched_fraction": round(
                        float(np.mean(touched)), 4
                    ),
                    "interleaved_query_p50_us": round(
                        float(np.percentile(lat, 50)), 2
                    ),
                    "active_final": len(state.active),
                },
            )
        )

    # One apply is one rebuild whatever the batch size, so batching
    # beats rebuild-per-op once the batch is larger than the worst
    # measured ratio.
    worst_ratio = max(ratios.values()) if ratios else 1.0
    results.append(
        _result(
            "patch_vs_rebuild",
            n,
            rebuild_secs,
            None,
            {
                "rebuild_seconds": round(rebuild_secs, 6),
                "apply_over_rebuild_ratio": ratios,
                "crossover_batch": int(math.ceil(worst_ratio)) or 1,
            },
        )
    )

    return {
        "schema": DYNAMIC_SCHEMA,
        "config": {
            "n": n,
            "dim": dim,
            "seed": seed,
            "eps": eps,
            "batch_sizes": list(batch_sizes),
            "rounds": rounds,
            "queries": queries,
            "workers": resolved_workers,
            "workers_requested": requested_workers,
            "workers_fallback": workers_fallback,
        },
        "results": results,
        "meta": _meta(),
    }


def bench_netsim(
    tree_n: int = 10_000,
    tree_messages: int = 120_000,
    metric_n: int = 400,
    metric_messages: int = 4_000,
    ft_n: int = 160,
    ft_messages: int = 2_000,
    ft_f: int = 2,
    seed: int = 1,
    workers: Optional[int] = None,
    tie_break: str = "seeded",
) -> Dict:
    """Simulator benchmarks: routed messages across compiled networks.

    Three legs, each locality-audited before traffic and contract-gated
    after (a failed gate raises — a silently degraded row never lands
    in the artifact):

    * ``netsim_tree`` — Theorem 5.1 at scale: 10⁴ nodes, ≥10⁵ routed
      messages, gates on 100% delivery, exact stretch, ≤2 hops and
      headers within log²n bits;
    * ``netsim_metric`` — Theorem 1.3 over a robust cover: delivery,
      p99 stretch within the measured γ budget;
    * ``netsim_ft`` — Theorem 5.2 with ``ft_f`` nodes killed
      mid-traffic: the fault plane re-arms the decision function per
      kill, and the gate checks every undelivered message died at a
      killed node (drop accounting), with delivery within budget.
    """
    from .graphs import random_tree
    from .netsim import (
        NetworkSimulator,
        SimReport,
        audit_locality,
        compile_ft_scheme,
        compile_metric_scheme,
        compile_tree_scheme,
        kill_schedule,
        uniform_pairs,
    )
    from .resilience.injectors import RandomInjector
    from .routing import (
        FaultTolerantRoutingScheme,
        MetricRoutingScheme,
        build_tree_network,
    )

    results: List[Dict] = []

    def _row(name, n, build_seconds, sim_seconds, report, extra=None):
        detail = report.to_dict()
        detail["build_seconds"] = round(build_seconds, 6)
        detail["messages_per_s"] = (
            round(report.injected / sim_seconds, 1) if sim_seconds > 0 else None
        )
        detail["tie_break"] = tie_break
        if extra:
            detail.update(extra)
        results.append(_result(name, n, sim_seconds, None, detail))

    def _header_budget(n: int) -> int:
        return max(1, math.ceil(math.log2(max(2, n)))) ** 2

    # -- tree leg (Theorem 5.1) ------------------------------------------
    start = time.perf_counter()
    tree = random_tree(tree_n, seed=seed)
    scheme, net = build_tree_network(tree, seed=seed + 1)
    compiled = compile_tree_scheme(scheme, net)
    audit_locality(compiled)
    build_seconds = time.perf_counter() - start
    sim = NetworkSimulator(compiled, tie_break=tie_break, seed=seed)
    sim.send_many(uniform_pairs(tree_n, tree_messages, seed=seed + 2))
    start = time.perf_counter()
    sim.run()
    sim_seconds = time.perf_counter() - start
    report = SimReport(sim).check_contract(
        min_delivery=1.0,
        gamma=1.0 + 1e-9,
        header_budget=_header_budget(tree_n),
        hop_budget=2,
    )
    _row("netsim_tree", tree_n, build_seconds, sim_seconds, report)

    # -- metric leg (Theorem 1.3) ----------------------------------------
    start = time.perf_counter()
    metric = random_points(metric_n, dim=2, seed=seed + 3)
    cover = robust_tree_cover(metric, eps=0.45, workers=workers)
    mscheme = MetricRoutingScheme(metric, cover, seed=seed + 4)
    mcompiled = compile_metric_scheme(mscheme)
    audit_locality(mcompiled)
    build_seconds = time.perf_counter() - start
    msim = NetworkSimulator(mcompiled, tie_break=tie_break, seed=seed)
    msim.send_many(uniform_pairs(metric_n, metric_messages, seed=seed + 5))
    start = time.perf_counter()
    msim.run()
    sim_seconds = time.perf_counter() - start
    mreport = SimReport(msim).check_contract(
        min_delivery=1.0,
        header_budget=_header_budget(metric_n),
        hop_budget=2,
    )
    _row("netsim_metric", metric_n, build_seconds, sim_seconds, mreport)

    # -- FT leg (Theorem 5.2, kills mid-traffic) -------------------------
    start = time.perf_counter()
    fmetric = random_points(ft_n, dim=2, seed=seed + 6)
    fcover = robust_tree_cover(fmetric, eps=0.45, workers=workers)
    fscheme = FaultTolerantRoutingScheme(fmetric, f=ft_f, cover=fcover, seed=seed + 7)
    fcompiled = compile_ft_scheme(fscheme, gamma_seed=seed)
    audit_locality(fcompiled)
    build_seconds = time.perf_counter() - start
    fsim = NetworkSimulator(fcompiled, tie_break=tie_break, seed=seed)
    pairs = uniform_pairs(ft_n, ft_messages, seed=seed + 8)
    # Spread traffic over sim time so the kills land mid-stream.
    fsim.send_many(pairs, spacing=0.01)
    horizon = 0.01 * ft_messages
    kills = kill_schedule(
        RandomInjector(ft_n, seed=seed + 9),
        count=ft_f,
        start=horizon / 3.0,
        spacing=horizon / (3.0 * max(1, ft_f)),
    )
    for when, victim in kills:
        fsim.kill_at(when, victim)
    start = time.perf_counter()
    fsim.run()
    sim_seconds = time.perf_counter() - start
    freport = SimReport(fsim).check_contract(
        min_delivery=0.9,
        header_budget=_header_budget(ft_n),
        hop_budget=2,
        expected_kills=ft_f,
    )
    # Exact drop accounting: with kills <= f the only legitimate loss
    # is traffic that touched a dead node; anything else is a bug.
    unexplained = {
        reason: count
        for reason, count in freport.drop_counts.items()
        if count and reason != "dead_node"
    }
    if unexplained:
        raise ValueError(
            f"netsim_ft dropped messages for non-fault reasons: {unexplained}"
        )
    _row(
        "netsim_ft", ft_n, build_seconds, sim_seconds, freport,
        extra={"killed": [v for _, v in kills]},
    )

    return {
        "schema": NETSIM_SCHEMA,
        "config": {
            "tree_n": tree_n,
            "tree_messages": tree_messages,
            "metric_n": metric_n,
            "metric_messages": metric_messages,
            "ft_n": ft_n,
            "ft_messages": ft_messages,
            "ft_f": ft_f,
            "seed": seed,
            "tie_break": tie_break,
            "workers": workers,
        },
        "results": results,
        "meta": _meta(),
    }


def validate_bench_json(payload: Dict) -> None:
    """Raise ``ValueError`` unless ``payload`` honors the bench schema.

    Checks the stability contract consumers rely on: schema id, config
    and meta dicts, and per-result ``name``/``n``/``seconds`` (plus
    optional numeric ``seed_seconds``/``speedup`` and a ``detail``
    dict).  Used by tests and ``scripts/bench_smoke.sh``.
    """
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be a JSON object")
    schema = payload.get("schema")
    if schema not in (
        TREE_COVERS_SCHEMA,
        NAVIGATION_SCHEMA,
        SERVING_SCHEMA,
        DYNAMIC_SCHEMA,
        NETSIM_SCHEMA,
    ):
        raise ValueError(f"unknown bench schema: {schema!r}")
    for key in ("config", "meta"):
        if not isinstance(payload.get(key), dict):
            raise ValueError(f"bench payload field {key!r} must be an object")
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("bench payload must carry a non-empty results list")
    for entry in results:
        if not isinstance(entry, dict):
            raise ValueError("each result must be an object")
        if not isinstance(entry.get("name"), str) or not entry["name"]:
            raise ValueError("each result needs a non-empty string name")
        if not isinstance(entry.get("n"), int) or entry["n"] <= 0:
            raise ValueError(f"result {entry.get('name')}: n must be a positive int")
        seconds = entry.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise ValueError(
                f"result {entry.get('name')}: seconds must be non-negative"
            )
        for optional in ("seed_seconds", "speedup"):
            value = entry.get(optional)
            if value is not None and not isinstance(value, (int, float)):
                raise ValueError(
                    f"result {entry.get('name')}: {optional} must be numeric or null"
                )
        if "detail" in entry and not isinstance(entry["detail"], dict):
            raise ValueError(f"result {entry.get('name')}: detail must be an object")
        if "trace" in entry and not isinstance(entry["trace"], list):
            raise ValueError(
                f"result {entry.get('name')}: trace must be a span list"
            )


def write_bench_files(
    out_dir: str,
    tree_payload: Optional[Dict] = None,
    nav_payload: Optional[Dict] = None,
    serving_payload: Optional[Dict] = None,
    dynamic_payload: Optional[Dict] = None,
    netsim_payload: Optional[Dict] = None,
) -> List[str]:
    """Validate and write the BENCH_*.json artifacts; returns the paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths: List[str] = []
    for payload, filename in (
        (tree_payload, "BENCH_tree_covers.json"),
        (nav_payload, "BENCH_navigation.json"),
        (serving_payload, "BENCH_serving.json"),
        (dynamic_payload, "BENCH_dynamic.json"),
        (netsim_payload, "BENCH_netsim.json"),
    ):
        if payload is None:
            continue
        validate_bench_json(payload)
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        paths.append(path)
    return paths
