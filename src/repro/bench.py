"""Benchmark-regression harness (``python -m repro bench``) and its stage table.

Every timed stage of the repository is one :class:`Stage` of
:func:`stages`.  A stage names the BENCH file its row lands in (or
none), sets up off the clock, and times its ``run``; its ``seed``
callable re-runs the frozen pre-vectorization implementation of
:mod:`repro._seed_baseline` (or the baseline the row is compared
against) on the same input, so every speedup is measured in this
process, on this machine.  A stage's ``check`` raises when the stage
broke its contract (Table 1 stretch and tree counts, hop budgets,
delivery, drop accounting), so a degraded row never lands in an
artifact.  The table has four consumers:

* :func:`run_bench`, behind ``python -m repro bench`` and the five
  ``bench_*`` entry points, turns the stages of one BENCH file into its
  schema-stable payload;
* ``tests/test_bench_harness.py`` and the ``-m bench`` gates call those
  entry points;
* ``scripts/bench_smoke.sh`` runs the CLI at toy sizes;
* ``benchmarks/bench_stages.py`` times the library stages (no BENCH
  file) under pytest-benchmark.

The BENCH files: ``BENCH_tree_covers.json`` (net hierarchy, HST, the
Theorem 4.1 robust cover, its prune and the compact backend),
``BENCH_navigation.json`` (navigator build, scalar and batched query
latency), ``BENCH_serving.json`` (daemon cold start, mapped-fleet
memory, closed-loop admission batching), ``BENCH_dynamic.json`` (churn
throughput, journal latency, patch-vs-rebuild) and ``BENCH_netsim.json``
(Theorems 5.1, 1.3 and 5.2 in the message-passing simulator).

Schema stability contract: the ``schema`` field names the payload
version (``repro.bench.tree_covers/v1``, ``repro.bench.navigation/v1``,
...).  Consumers may rely on the keys checked by
:func:`validate_bench_json`; anything else (the ``detail`` dicts,
``meta``) is informational and may grow without a version bump.
Removing or retyping a checked key requires bumping the version suffix.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import random
import tempfile
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from types import SimpleNamespace
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
from .errors import check as require
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
    "FILES",
    "Ctx",
    "Stage",
    "stages",
    "run_bench",
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

_WORKER_KEYS = ("workers", "workers_requested", "workers_fallback")

#: BENCH file -> (schema id, payload ``config`` keys in order).  The file
#: lands at ``BENCH_<file>.json``.
FILES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "tree_covers": (TREE_COVERS_SCHEMA, (
        "n", "dim", "seed", "eps", "alpha", "repeats", "robust_repeats",
        "include_baseline", *_WORKER_KEYS, "prune", "prune_eps",
        "compact_shifts", "trace")),
    "navigation": (NAVIGATION_SCHEMA, (
        "n", "dim", "seed", "eps", "k", "queries", "include_baseline",
        *_WORKER_KEYS, "trace")),
    "serving": (SERVING_SCHEMA, (
        "n", "dim", "seed", "eps", "k", "queries", "window", "batch_sizes",
        *_WORKER_KEYS, "rss_workers")),
    "dynamic": (DYNAMIC_SCHEMA, (
        "n", "dim", "seed", "eps", "batch_sizes", "rounds", "queries",
        *_WORKER_KEYS)),
    "netsim": (NETSIM_SCHEMA, (
        "tree_n", "tree_messages", "metric_n", "metric_messages", "ft_n",
        "ft_messages", "ft_f", "seed", "tie_break", "workers")),
}


@dataclass(frozen=True)
class Stage:
    """One timed stage of the table.

    ``setup(ctx)`` runs off the clock; ``run(ctx)`` is timed (best of
    ``ctx.cfg.<repeats>`` when ``repeats`` names a config key) and its
    value lands in ``ctx.out[name]``.  ``seed(ctx)`` is timed the same
    way when the run includes baselines; a row compared against another
    row's time gives ``reference(ctx)`` instead.  ``serial(ctx)`` is
    the one-process run of a stage that fans out over workers, timed
    only when a pool ran.  ``seconds(ctx, out)`` replaces the wall time
    of ``run`` when the row times only part of it.  ``detail(ctx, out)``
    builds the BENCH row's detail and ``check(ctx, out)`` raises when the
    stage broke its contract.  ``n`` names the config key of the row's
    size, ``each`` a config list the stage repeats over (``name`` is
    formatted with the value, which ``ctx.each`` holds), and ``when`` a
    config flag the stage needs.
    """

    name: str
    file: Optional[str]
    run: Callable
    setup: Optional[Callable] = None
    seed: Optional[Callable] = None
    reference: Optional[Callable] = None
    serial: Optional[Callable] = None
    seconds: Optional[Callable] = None
    detail: Optional[Callable] = None
    check: Optional[Callable] = None
    repeats: Optional[str] = None
    n: str = "n"
    each: Optional[str] = None
    when: Optional[str] = None


class Ctx:
    """What the stages of one run share.

    ``cfg`` is the run's configuration.  :meth:`memo` caches fixtures by
    name in ``cache`` (a pytest session passes one cache to every
    stage).  ``out``, ``seconds``, ``seed_out``, ``seed_seconds`` and
    ``rows`` hold each finished stage's results by row name, and
    context managers given to :meth:`enter` close with the context.
    """

    def __init__(self, cfg: Optional[Dict] = None,
                 cache: Optional[Dict] = None) -> None:
        self.cfg = SimpleNamespace(**(cfg or {}))
        self.cache = {} if cache is None else cache
        self.out: Dict = {}
        self.seconds: Dict[str, float] = {}
        self.seed_out: Dict = {}
        self.seed_seconds: Dict[str, float] = {}
        self.rows: Dict[str, Dict] = {}
        self.each = None
        self._exit = ExitStack()

    def memo(self, key: str, factory: Callable[[], object]):
        if key not in self.cache:
            self.cache[key] = factory()
        return self.cache[key]

    def enter(self, manager):
        return self._exit.enter_context(manager)

    def __enter__(self) -> "Ctx":
        return self

    def __exit__(self, *exc) -> None:
        self._exit.close()


def _best_of(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = math.inf
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _latencies_us(fn: Callable, calls) -> List[float]:
    """Per-call wall time of ``fn(*args)`` for each ``args`` in ``calls``, µs."""
    lat = []
    for args in calls:
        start = time.perf_counter()
        fn(*args)
        lat.append((time.perf_counter() - start) * 1e6)
    return lat


def _pct(values, q: float) -> float:
    return round(float(np.percentile(np.asarray(values), q)), 2)


def _pairs(n: int, count: int, seed: int) -> List[Tuple[int, int]]:
    """``count`` seeded random pairs over ``range(n)`` with ``u != v``."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    return [(u, v) for u, v in pairs if u != v]


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

    Called after each stage so the stage's span trees land on its own
    BENCH row.  Traced runs measure the instrumented code path —
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


# -- the runner -------------------------------------------------------------


def run_bench(file: str, config: Dict) -> Dict:
    """Run the stages of BENCH file ``file`` under ``config``; its payload.

    ``config`` holds every keyword of the file's ``bench_*`` entry point.
    ``workers`` is resolved once through :func:`_timing_workers`; the
    stages read the resolved count from ``ctx.cfg.workers``.  With
    ``trace`` on, observability is scoped on for the run and each row
    carries its stage's span trees under ``"trace"``.
    """
    schema, keys = FILES[file]
    cfg = {k: list(v) if isinstance(v, tuple) else v for k, v in config.items()}
    trace = cfg.get("trace", False)
    baseline = cfg.get("include_baseline", True)
    with Ctx(cfg) as ctx, _trace_context(trace):
        ctx.cfg.workers_requested = resolve_workers(cfg["workers"])
        ctx.cfg.workers, ctx.cfg.workers_fallback = _timing_workers(cfg["workers"])
        ctx.tmp = ctx.enter(tempfile.TemporaryDirectory())
        rows = [
            _run_stage(ctx, stage, value, trace, baseline)
            for stage in stages()
            if stage.file == file and (stage.when is None or getattr(ctx.cfg, stage.when))
            for value in (getattr(ctx.cfg, stage.each) if stage.each else [None])
        ]
        payload = {
            "schema": schema,
            "config": {key: getattr(ctx.cfg, key) for key in keys},
            "results": rows,
            "meta": _meta(),
        }
        if trace:
            payload["trace_metrics"] = OBS.registry.snapshot()
    return payload


def _run_stage(ctx: Ctx, stage: Stage, value, trace: bool, baseline: bool) -> Dict:
    name = stage.name.format(value)
    ctx.each = value
    if stage.setup is not None:
        stage.setup(ctx)
    repeats = getattr(ctx.cfg, stage.repeats) if stage.repeats else 1
    secs, out = _best_of(lambda: stage.run(ctx), repeats)
    if stage.seconds is not None:
        secs = stage.seconds(ctx, out)
    ctx.out[name], ctx.seconds[name] = out, secs
    seed_secs = None
    if stage.seed is not None and baseline:
        seed_secs, ctx.seed_out[name] = _best_of(lambda: stage.seed(ctx), repeats)
        ctx.seed_seconds[name] = seed_secs
    elif stage.reference is not None:
        seed_secs = stage.reference(ctx)
    detail = stage.detail(ctx, out) if stage.detail is not None else {}
    if stage.serial is not None:
        cfg = ctx.cfg
        serial = secs
        if cfg.workers > 1:
            serial, _ = _best_of(lambda: stage.serial(ctx), repeats)
        _parallel_detail(detail, cfg.workers, secs, serial,
                         requested=cfg.workers_requested,
                         fallback=cfg.workers_fallback)
    ctx.rows[name] = row = _result(
        name, getattr(ctx.cfg, stage.n), secs, seed_secs, detail,
        spans=_drain_spans(trace),
    )
    if stage.check is not None:
        stage.check(ctx, out)
    return row


# -- BENCH file stages -------------------------------------------------------


def _metric(c: Ctx):
    return c.memo("metric", lambda: random_points(
        c.cfg.n, dim=c.cfg.dim, seed=c.cfg.seed))


def _seed_metric(c: Ctx):
    return c.memo("seed_metric", lambda: SeedEuclideanMetric(_metric(c).points))


def _inputs(c: Ctx) -> None:
    """Build the run's points (and the seed's copy) off the clock."""
    _metric(c)
    if c.cfg.include_baseline:
        _seed_metric(c)


def _cover(c: Ctx):
    """The robust cover a serving or dynamic run starts from (untimed)."""
    return c.memo("cover", lambda: robust_tree_cover(
        _metric(c), eps=c.cfg.eps, workers=c.cfg.workers))


def _detail_of(c: Ctx, name: str) -> Dict:
    return c.rows[name]["detail"]


def _stretch_detail(c: Ctx, cover) -> Dict:
    worst, mean = cover.measured_stretch(
        sample_pairs(c.cfg.n, c.cfg.stretch_sample, seed=c.cfg.seed)
    )
    return {"stretch_max": round(worst, 4), "stretch_mean": round(mean, 4)}


def _cover_detail(c: Ctx, cover) -> Dict:
    return {"eps": c.cfg.eps, "zeta": cover.size, "cover_bytes": cover.memory_bytes()}


def _robust_stage(file: str, **fields) -> Stage:
    return Stage(
        "robust_cover", file, setup=_inputs,
        run=lambda c: robust_tree_cover(_metric(c), eps=c.cfg.eps,
                                        workers=c.cfg.workers),
        serial=lambda c: robust_tree_cover(_metric(c), eps=c.cfg.eps, workers=0),
        seed=lambda c: seed_robust_tree_cover(_seed_metric(c), eps=c.cfg.eps),
        **fields,
    )


def _robust_cover_detail(c: Ctx, cover) -> Dict:
    detail = _cover_detail(c, cover)
    if "robust_cover" in c.seed_out:
        detail["zeta_seed"] = c.seed_out["robust_cover"].size
    detail.update(_stretch_detail(c, cover))
    return detail


def _check_robust_cover(c: Ctx, cover) -> None:
    # The zeta attack: the robust rebuild must never emit *more* trees
    # than the frozen seed construction.
    detail = _detail_of(c, "robust_cover")
    require(detail.get("zeta_seed", cover.size) >= cover.size,
            f"robust cover grew past the seed: zeta {cover.size} > "
            f"zeta_seed {detail.get('zeta_seed')}")
    require(1.0 <= detail["stretch_mean"] <= detail["stretch_max"],
            f"robust cover stretch out of range: {detail}")


def _pruning_detail(c: Ctx, report) -> Dict:
    """zeta before/after the greedy set-cover prune, the contract it was
    re-verified against, and the navigator-build/query deltas at
    ``min(n, nav_delta_n)`` (capped so the full-size bench does not pay a
    second full navigator build)."""
    from .treecover.prune import prune_cover

    cfg = c.cfg
    cover, pruned = c.out["robust_cover"], report.cover
    dn = min(cfg.n, cfg.nav_delta_n)
    if dn == cfg.n:
        d_metric, d_cover, d_report = _metric(c), cover, report
    else:
        d_metric = random_points(dn, dim=2, seed=cfg.seed)
        d_cover = robust_tree_cover(d_metric, eps=cfg.eps, workers=cfg.workers)
        d_report = prune_cover(d_cover, eps=cfg.prune_eps, workers=cfg.workers)
    d_pruned = d_report.cover

    k = 3
    build_full, nav_full = _best_of(
        lambda: MetricNavigator(d_metric, d_cover, k, workers=cfg.workers), 1)
    build_pruned, nav_pruned = _best_of(
        lambda: MetricNavigator(d_metric, d_pruned, k, workers=cfg.workers), 1)
    pairs = _pairs(dn, 200, cfg.seed)

    # Retained trees are the same objects, so the per-tree navigator
    # paths must match the full navigator's on the original tree index
    # bit for bit; a False here means the prune changed answers it
    # promised not to touch.
    def same_path(u: int, v: int) -> bool:
        j, _ = d_pruned.best_tree(u, v)
        tree = d_pruned.trees[j]
        a, b = tree.vertex_of_point[u], tree.vertex_of_point[v]
        full = nav_full.navigators[d_report.retained[j]]
        return nav_pruned.navigators[j].find_path(a, b) == full.find_path(a, b)

    return {
        "zeta_before": report.zeta_before,
        "zeta_after": report.zeta_after,
        "reduction": round(report.reduction, 2),
        "gamma": round(report.gamma, 4),
        "prune_eps": cfg.prune_eps,
        "pairs_evaluated": report.pairs_evaluated,
        "exact_pairs": report.exact,
        **_stretch_detail(c, pruned),
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
            "query_full_p50_us": _pct(_latencies_us(nav_full.find_path, pairs), 50),
            "query_pruned_p50_us": _pct(
                _latencies_us(nav_pruned.find_path, pairs), 50),
            "retained_paths_identical": all(
                same_path(u, v) for u, v in pairs[:50]),
        },
    }


def _check_pruning(c: Ctx, _report) -> None:
    detail = _detail_of(c, "cover_pruning")
    require(detail["zeta_after"] < detail["zeta_before"]
            and detail["reduction"] > 1.0, f"prune kept every tree: {detail}")
    require(detail["stretch_max"] <= detail["gamma"] + 1e-6,
            f"pruned cover exceeds its re-verified stretch: {detail}")
    require(detail["nav_delta"]["retained_paths_identical"] is True,
            "prune changed the paths of retained trees")


def _compact_detail(c: Ctx, compact) -> Dict:
    robust = c.out["robust_cover"]
    return {
        "eps": c.cfg.eps,
        "shifts": c.cfg.compact_shifts,
        "zeta": compact.size,
        "zeta_robust": robust.size,
        "reduction_vs_robust": round(robust.size / max(1, compact.size), 2),
        **_stretch_detail(c, compact),
        "cover_bytes": compact.memory_bytes(),
        "robust_seconds": round(c.seconds["robust_cover"], 6),
    }


def _tree_cover_stages() -> List[Stage]:
    from .treecover.compact import compact_tree_cover
    from .treecover.prune import prune_cover

    return [
        Stage(
            "net_hierarchy", "tree_covers", repeats="repeats",
            run=lambda c: NetHierarchy(_metric(c)),
            seed=lambda c: SeedNetHierarchy(_seed_metric(c)), setup=_inputs,
            detail=lambda c, h: {"levels": h.i_max - h.i_min + 1},
        ),
        Stage(
            "hst", "tree_covers", repeats="repeats",
            run=lambda c: build_hst(_metric(c), c.cfg.alpha, seed=0),
            seed=lambda c: seed_build_hst(_seed_metric(c), c.cfg.alpha, seed=0),
            detail=lambda c, out: {"alpha": c.cfg.alpha, "vertices": out[0].tree.n,
                                   "padded": len(out[1])},
        ),
        _robust_stage("tree_covers", repeats="robust_repeats",
                      detail=_robust_cover_detail, check=_check_robust_cover),
        Stage(
            "cover_pruning", "tree_covers", when="prune",
            run=lambda c: prune_cover(c.out["robust_cover"], eps=c.cfg.prune_eps,
                                      workers=c.cfg.workers),
            seconds=lambda c, report: report.seconds,
            detail=_pruning_detail, check=_check_pruning,
        ),
        Stage(
            "compact_cover", "tree_covers", when="prune", repeats="robust_repeats",
            run=lambda c: compact_tree_cover(
                _metric(c), eps=c.cfg.eps, shifts=c.cfg.compact_shifts,
                workers=c.cfg.workers),
            detail=_compact_detail,
            check=lambda c, compact: require(
                compact.size < c.out["robust_cover"].size,
                f"compact cover no smaller than the robust one: {compact.size}"),
        ),
    ]


def _navigation_stages() -> List[Stage]:
    def navigator(c: Ctx):
        return c.out["navigator_build"]

    def set_pairs(c: Ctx) -> None:
        c.pairs = _pairs(c.cfg.n, c.cfg.queries, c.cfg.seed)

    return [
        _robust_stage("navigation", detail=_cover_detail),
        Stage(
            "navigator_build", "navigation",
            run=lambda c: MetricNavigator(_metric(c), c.out["robust_cover"],
                                          c.cfg.k, workers=c.cfg.workers),
            serial=lambda c: MetricNavigator(_metric(c), c.out["robust_cover"],
                                             c.cfg.k, workers=0),
            seed=lambda c: SeedMetricNavigator(_metric(c), c.out["robust_cover"],
                                               c.cfg.k),
            detail=lambda c, nav: {"k": c.cfg.k, "zeta": c.out["robust_cover"].size,
                                   "edges": nav.num_edges},
        ),
        Stage(
            "query_scalar", "navigation", setup=set_pairs,
            run=lambda c: _latencies_us(navigator(c).find_path, c.pairs),
            seed=lambda c: _latencies_us(
                c.seed_out["navigator_build"].find_path, c.pairs),
            detail=lambda c, lat: {"queries": len(c.pairs), "p50_us": _pct(lat, 50),
                                   "p99_us": _pct(lat, 99)},
        ),
        Stage(
            # The frozen seed's scalar loop, like every other row; the
            # batch kernel's edge over this run's scalar loop is
            # detail.scalar_seconds.
            "query_batch", "navigation",
            run=lambda c: navigator(c).find_paths(c.pairs),
            reference=lambda c: c.seed_seconds.get("query_scalar"),
            detail=lambda c, _: {
                "queries": len(c.pairs),
                "per_query_us": round(
                    c.seconds["query_batch"] / max(1, len(c.pairs)) * 1e6, 2),
                "scalar_seconds": round(c.seconds["query_scalar"], 6),
            },
        ),
    ]


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


def _worker_fleet(c: Ctx, mode: str, payload) -> List[Optional[int]]:
    """Per-worker PSS of ``rss_workers`` spawned serving workers.

    Uses the ``spawn`` start method deliberately: ``fork`` would share
    the parent's pages copy-on-write, making pickled clones look as
    cheap as the mapped checkpoint and voiding the comparison.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(c.cfg.rss_workers)
    queue = ctx.SimpleQueue()
    procs = [
        ctx.Process(
            target=_rss_fanout_worker,
            args=(mode, payload, _metric(c), c.rss_pairs, barrier, queue),
        )
        for _ in range(c.cfg.rss_workers)
    ]
    for proc in procs:
        proc.start()
    pss = [queue.get() for _ in procs]
    for proc in procs:
        proc.join()
    return pss


def _serving_stages() -> List[Stage]:
    from .checkpoint import (
        CheckpointService,
        save_cover_checkpoint,
        save_navigator_checkpoint,
    )
    from .parallel.sharedmem import mapped_navigator_descriptor
    from .serve import AdmissionPolicy, ServeClient, ThreadedServer

    def service(c: Ctx):
        return c.out["cold_start"][0]

    def first_answer(c: Ctx, load: Callable):
        """Load a service, bind a daemon, answer one query."""
        start = time.perf_counter()
        loaded = load()
        load_secs = time.perf_counter() - start
        with ThreadedServer(loaded) as threaded:
            with ServeClient(threaded.host, threaded.port) as client:
                first = client.path(0, c.cfg.n - 1)
        return loaded, load_secs, first["status"]

    def cold_detail(c: Ctx, out) -> Dict:
        return {"load_seconds": round(out[1], 6), "zeta": _cover(c).size,
                "k": c.cfg.k, "first_query_status": out[2]}

    def save_cover(c: Ctx) -> None:
        c.ckpt = os.path.join(c.tmp, "cover.ckpt")
        save_cover_checkpoint(_cover(c), c.ckpt,
                              builder={"family": "euclidean-robust", "eps": c.cfg.eps})

    # Zero-copy deploy path: the packed navigator checkpoint is written
    # off the clock (build/save-time work); attach-by-mmap through the
    # first answered query is timed.
    def save_packed(c: Ctx) -> None:
        c.packed = os.path.join(c.tmp, "navigator.packed.ckpt")
        save_navigator_checkpoint(service(c).navigator, c.packed, packed=True)

    def rss_setup(c: Ctx) -> None:
        c.rss_pairs = _pairs(c.cfg.n, 48, c.cfg.seed) or [(0, c.cfg.n - 1)]
        c.descriptor = mapped_navigator_descriptor(c.packed)

    def rss_detail(c: Ctx, mapped) -> Dict:
        cloned = c.seed_out["multi_worker_rss"]
        have = all(p is not None for p in mapped + cloned)
        return {
            "workers": c.cfg.rss_workers,
            "pss_mapped_kb": mapped,
            "pss_cloned_kb": cloned,
            "aggregate_pss_mapped_kb": sum(mapped) if have else None,
            "aggregate_pss_cloned_kb": sum(cloned) if have else None,
            "pss_ratio": (round(sum(cloned) / sum(mapped), 3)
                          if have and sum(mapped) > 0 else None),
        }

    def serve_batch(c: Ctx):
        policy = AdmissionPolicy(max_batch=c.each,
                                 max_queue=max(256, c.cfg.window * 4))
        with ThreadedServer(service(c), policy=policy) as threaded:
            with ServeClient(threaded.host, threaded.port) as client:
                return _serve_closed_loop(client, c.serve_pairs, c.cfg.queries,
                                          c.cfg.window)

    def batch_detail(c: Ctx, out) -> Dict:
        total, lat, statuses = out
        return {"queries": c.cfg.queries, "window": c.cfg.window,
                "max_batch": c.each, "p50_us": _pct(lat, 50),
                "p99_us": _pct(lat, 99),
                "per_query_us": round(total / c.cfg.queries * 1e6, 2),
                "statuses": statuses}

    def first_batch(c: Ctx) -> Optional[float]:
        # Rows past the first compare against it: the micro-batching win.
        first = c.cfg.batch_sizes[0]
        return None if c.each == first else c.seconds[f"serve_batch_{first}"]

    return [
        Stage(
            "cold_start", "serving", setup=save_cover,
            run=lambda c: first_answer(c, lambda: CheckpointService(
                _metric(c), k=c.cfg.k, workers=c.cfg.workers).load(c.ckpt)),
            detail=cold_detail,
        ),
        Stage(
            "cold_load_first_query", "serving", setup=save_packed,
            run=lambda c: first_answer(c, lambda: CheckpointService(
                _metric(c), k=c.cfg.k).load(c.packed, mmap=True)),
            reference=lambda c: c.seconds["cold_start"],
            detail=lambda c, out: {**cold_detail(c, out), "mapped": True,
                                   "checkpoint_bytes": os.path.getsize(c.packed)},
            check=lambda c, out: require(
                out[2] == "ok", f"mapped first query answered {out[2]!r}"),
        ),
        Stage(
            # rss_workers processes attach to the mapped checkpoint, against
            # the same fleet each unpickling a private clone of the
            # in-memory navigator.
            "multi_worker_rss", "serving", setup=rss_setup,
            run=lambda c: _worker_fleet(c, "mapped", c.descriptor),
            seed=lambda c: _worker_fleet(c, "cloned", service(c).navigator),
            detail=rss_detail,
            check=lambda c, pss: require(len(pss) >= 2,
                                         "the RSS fleet needs two workers"),
        ),
        Stage(
            "serve_batch_{}", "serving", each="batch_sizes",
            setup=lambda c: setattr(c, "serve_pairs", _pairs(
                c.cfg.n, c.cfg.queries, c.cfg.seed) or [(0, c.cfg.n - 1)]),
            run=serve_batch, seconds=lambda c, out: out[0],
            reference=first_batch, detail=batch_detail,
        ),
    ]


def _churn_ops(state, rng: random.Random, batch: int) -> List[Tuple]:
    """``batch`` seeded mutations, 50/50 insert (inside the live bounding
    box) and delete (of a live point)."""
    lo = state.coords[state.active].min(axis=0)
    hi = state.coords[state.active].max(axis=0)
    live = set(state.active)
    ops = []
    for _ in range(batch):
        if rng.random() < 0.5 or len(live) <= 3:
            ops.append((
                "insert",
                [float(l + rng.random() * max(h - l, 1.0)) for l, h in zip(lo, hi)],
            ))
        else:
            victim = rng.choice(sorted(live))
            live.discard(victim)
            ops.append(("delete", victim))
    return ops


def _dynamic_stages() -> List[Stage]:
    from .dynamic import DynamicRobustCover, UpdateJournal

    def dyn(c: Ctx):
        return c.memo("dyn", lambda: DynamicRobustCover.from_metric(
            _metric(c), eps=c.cfg.eps, workers=c.cfg.workers))

    def journal_latencies(c: Ctx) -> List[float]:
        with UpdateJournal(os.path.join(c.tmp, "bench.journal")) as journal:
            return _latencies_us(
                lambda i: journal.append("insert", point=[float(i), float(i)]),
                [(i,) for i in range(64)])

    def churn(c: Ctx) -> SimpleNamespace:
        """``rounds`` seeded batches through ``apply``, with cover
        queries interleaved after every batch."""
        state = DynamicRobustCover.from_metric(
            _metric(c), eps=c.cfg.eps, workers=c.cfg.workers)
        rng = random.Random(c.cfg.seed * 7919 + c.each)
        run = SimpleNamespace(mutate=0.0, lat=[], touched=[], state=state)
        for _ in range(c.cfg.rounds):
            ops = _churn_ops(state, rng, c.each)
            secs, report = _best_of(lambda: state.apply(ops), 1)
            run.mutate += secs
            run.touched.append(report.touched_fraction)
            pairs = state.active_pairs(c.cfg.queries, seed=rng.randrange(1 << 30))
            run.lat += _latencies_us(state.cover.best_tree, pairs)
        return run

    def churn_detail(c: Ctx, run) -> Dict:
        ops = c.cfg.rounds * c.each
        return {
            "batch": c.each,
            "rounds": c.cfg.rounds,
            "updates_per_s": round(ops / run.mutate, 2) if run.mutate > 0 else None,
            "touched_fraction": round(float(np.mean(run.touched)), 4),
            "interleaved_query_p50_us": _pct(run.lat, 50),
            "active_final": len(run.state.active),
        }

    def ratios(c: Ctx) -> Dict[str, float]:
        rebuild = c.seconds["full_rebuild"]
        return {
            str(b): round(c.seconds[f"update_batch_{b}"] / c.cfg.rounds / rebuild
                          if rebuild > 0 else 0.0, 3)
            for b in c.cfg.batch_sizes
        }

    return [
        Stage(
            # Every ratio and the crossover divide by this baseline, so it
            # is the median of ``rounds`` rebuilds, not one.
            "full_rebuild", "dynamic", setup=dyn,
            run=lambda c: [_best_of(dyn(c).rebuild, 1)[0]
                           for _ in range(max(1, c.cfg.rounds))],
            seconds=lambda c, samples: float(np.median(samples)),
            detail=lambda c, samples: {"zeta": len(dyn(c).trees),
                                       "active": len(dyn(c).active),
                                       "eps": c.cfg.eps, "samples": len(samples)},
            check=lambda c, _: require(c.seconds["full_rebuild"] > 0,
                                       "full rebuild took no time"),
        ),
        Stage(
            # One write-ahead record (CRC frame + fsync-before-ack): the
            # floor of any mutation's acknowledged latency.
            "journal_append", "dynamic", run=journal_latencies,
            seconds=lambda c, lat: float(np.sum(lat)) / 1e6,
            detail=lambda c, lat: {"appends": len(lat), "p50_us": _pct(lat, 50),
                                   "p99_us": _pct(lat, 99)},
        ),
        Stage(
            # Compared against paying one full rebuild per op: the
            # batch-amortization win.
            "update_batch_{}", "dynamic", each="batch_sizes", run=churn,
            seconds=lambda c, run: run.mutate,
            reference=lambda c: c.cfg.rounds * c.each * c.seconds["full_rebuild"],
            detail=churn_detail,
            check=lambda c, run: require(run.mutate > 0, "churn applied nothing"),
        ),
        Stage(
            # One apply is one rebuild whatever the batch size, so batching
            # beats rebuild-per-op once the batch is larger than the worst
            # measured ratio.
            "patch_vs_rebuild", "dynamic", run=ratios,
            seconds=lambda c, _: c.seconds["full_rebuild"],
            detail=lambda c, r: {
                "rebuild_seconds": round(c.seconds["full_rebuild"], 6),
                "apply_over_rebuild_ratio": r,
                "crossover_batch": int(math.ceil(max(r.values(), default=1.0))) or 1,
            },
        ),
    ]


def _netsim_stages() -> List[Stage]:
    """Each leg is locality-audited before traffic and contract-gated
    after; ``messages_per_s`` counts delivered messages per wall second
    of ``sim.run()`` and ``build_seconds`` holds the network build."""
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

    def audited(compiled):
        audit_locality(compiled)
        return compiled

    def tree_network(c: Ctx):
        tree = random_tree(c.cfg.tree_n, seed=c.cfg.seed)
        return audited(compile_tree_scheme(*build_tree_network(tree, seed=c.cfg.seed + 1)))

    def metric_network(c: Ctx):
        metric = random_points(c.cfg.metric_n, dim=2, seed=c.cfg.seed + 3)
        cover = robust_tree_cover(metric, eps=0.45, workers=c.cfg.workers)
        return audited(compile_metric_scheme(
            MetricRoutingScheme(metric, cover, seed=c.cfg.seed + 4)))

    def ft_network(c: Ctx):
        metric = random_points(c.cfg.ft_n, dim=2, seed=c.cfg.seed + 6)
        cover = robust_tree_cover(metric, eps=0.45, workers=c.cfg.workers)
        scheme = FaultTolerantRoutingScheme(metric, f=c.cfg.ft_f, cover=cover,
                                            seed=c.cfg.seed + 7)
        return audited(compile_ft_scheme(scheme, gamma_seed=c.cfg.seed))

    def setup(build: Callable, n: str, messages: str, pair_seed: int,
              spacing: float = 0.0) -> Callable:
        def inject(c: Ctx) -> None:
            c.build_seconds, compiled = _best_of(lambda: build(c), 1)
            c.sim = NetworkSimulator(compiled, tie_break=c.cfg.tie_break,
                                     seed=c.cfg.seed)
            c.sim.send_many(uniform_pairs(getattr(c.cfg, n), getattr(c.cfg, messages),
                                          seed=c.cfg.seed + pair_seed),
                            spacing=spacing)
        return inject

    def ft_setup(c: Ctx) -> None:
        # Traffic is spread over sim time so the kills land mid-stream.
        setup(ft_network, "ft_n", "ft_messages", 8, spacing=0.01)(c)
        horizon = 0.01 * c.cfg.ft_messages
        c.kills = kill_schedule(
            RandomInjector(c.cfg.ft_n, seed=c.cfg.seed + 9),
            count=c.cfg.ft_f,
            start=horizon / 3.0,
            spacing=horizon / (3.0 * max(1, c.cfg.ft_f)),
        )
        for when, victim in c.kills:
            c.sim.kill_at(when, victim)

    def check_drops(c: Ctx, _) -> None:
        # Exact drop accounting: with kills <= f the only legitimate loss
        # is traffic that touched a dead node; anything else is a bug.
        dropped = _detail_of(c, "netsim_ft")["dropped"]
        unexplained = {r: k for r, k in dropped.items() if k and r != "dead_node"}
        if unexplained:
            raise ValueError(
                f"netsim_ft dropped messages for non-fault reasons: {unexplained}"
            )

    def leg(name: str, n: str, inject: Callable, contract: Callable,
            extra: Optional[Callable] = None,
            check: Optional[Callable] = None) -> Stage:
        def detail(c: Ctx, _) -> Dict:
            budget = max(1, math.ceil(math.log2(max(2, getattr(c.cfg, n))))) ** 2
            report = SimReport(c.sim).check_contract(
                header_budget=budget, hop_budget=2, **contract(c))
            secs = c.seconds[name]
            return {
                **report.to_dict(),
                "build_seconds": round(c.build_seconds, 6),
                "messages_per_s": (round(report.delivered / secs, 1)
                                   if secs > 0 else None),
                "tie_break": c.cfg.tie_break,
                **(extra(c) if extra else {}),
            }
        return Stage(name, "netsim", n=n, setup=inject,
                     run=lambda c: c.sim.run(), detail=detail, check=check)

    return [
        # Theorem 5.1 at scale: full delivery, exact stretch, <= 2 hops,
        # headers within log^2 n bits.
        leg("netsim_tree", "tree_n",
            setup(tree_network, "tree_n", "tree_messages", 2),
            lambda c: {"min_delivery": 1.0, "gamma": 1.0 + 1e-9}),
        # Theorem 1.3 over a robust cover: delivery, p99 stretch within
        # the measured gamma budget.
        leg("netsim_metric", "metric_n",
            setup(metric_network, "metric_n", "metric_messages", 5),
            lambda c: {"min_delivery": 1.0}),
        # Theorem 5.2 with ft_f nodes killed mid-traffic: the fault plane
        # re-arms the decision function per kill.
        leg("netsim_ft", "ft_n", ft_setup,
            lambda c: {"min_delivery": 0.9, "expected_kills": c.cfg.ft_f},
            extra=lambda c: {"killed": [v for _, v in c.kills]},
            check=check_drops),
    ]


# -- library stages (no BENCH file) -------------------------------------------


def _library_stages() -> List[Stage]:
    """What ``benchmarks/bench_stages.py`` times under pytest-benchmark:
    the operations the paper's theorems bound (construction, queries,
    routing decisions, verification ops), each with the guarantee it
    asserts.  Fixtures are shared through ``Ctx.memo``."""
    from .apps import (
        MstVerifier,
        NaiveTreeProduct,
        OnlineTreeProduct,
        approximate_mst,
        approximate_spt,
        base_mst,
        mst_weight,
        sparsify,
    )
    from .checkpoint import CheckpointService, save_cover_checkpoint
    from .core import TreeNavigator, alpha_k
    from .core.decompose import PackedTree, decompose_centroid, decompose_packed
    from .graphs import (
        LadderLevelAncestor,
        LiftingLevelAncestor,
        dijkstra,
        path_tree,
        random_tree,
        star_tree,
    )
    from .metrics import (
        delaunay_metric,
        hierarchical_points,
        power_law_graph_metric,
        random_graph_metric,
        road_network_points,
    )
    from .resilience import (
        AdversarialInjector,
        ChaosHarness,
        RandomInjector,
        RegionalInjector,
        find_path_degraded,
    )
    from .routing import (
        FaultTolerantRoutingScheme,
        MetricRoutingScheme,
        build_tree_network,
        tree_protocol,
    )
    from .serve import AdmissionPolicy, QueryEngine, ServeClient, ThreadedServer
    from .spanners import (
        FaultTolerantSpanner,
        greedy_spanner,
        theta_graph,
        wspd_spanner,
    )
    from .treecover import (
        few_trees_cover,
        planar_tree_cover,
        ramsey_tree_cover,
    )

    def fixture(name: str, factory: Callable) -> Callable[[Ctx], object]:
        return lambda c: c.memo(name, lambda: factory(c))

    big_tree = fixture("big_tree", lambda c: random_tree(8192, seed=1))
    big_path = fixture("big_path", lambda c: path_tree(8192, seed=2))
    euclidean_200 = fixture("euclidean_200", lambda c: random_points(200, dim=2, seed=3))
    doubling_cover = fixture("doubling_cover", lambda c: robust_tree_cover(
        euclidean_200(c), eps=0.45))
    doubling_navigator = fixture("doubling_navigator", lambda c: MetricNavigator(
        euclidean_200(c), doubling_cover(c), 2))
    general_120 = fixture("general_120", lambda c: random_graph_metric(120, seed=4))
    ramsey_cover = fixture("ramsey_cover", lambda c: ramsey_tree_cover(
        general_120(c), ell=2, seed=5))
    ancestor_tree = fixture("ancestor_tree", lambda c: random_tree(20000, seed=40))
    ft_metric = fixture("ft_metric", lambda c: random_points(80, dim=2, seed=20))
    ft_cover = fixture("ft_cover", lambda c: robust_tree_cover(ft_metric(c), eps=0.45))
    res_metric = fixture("res_metric", lambda c: random_points(80, dim=2, seed=7))
    res_cover = fixture("res_cover", lambda c: robust_tree_cover(res_metric(c), eps=0.45))
    res_spanner = fixture("res_spanner", lambda c: FaultTolerantSpanner(
        res_metric(c), f=2, k=4, cover=res_cover(c)))
    srv_metric = fixture("srv_metric", lambda c: random_points(120, dim=2, seed=7))

    def srv_checkpoint(c: Ctx) -> str:
        workdir = c.memo("srv_workdir", tempfile.TemporaryDirectory)
        path = os.path.join(workdir.name, "cover.ckpt")
        save_cover_checkpoint(robust_tree_cover(srv_metric(c), eps=0.5), path,
                              builder={"family": "robust", "eps": 0.5})
        return path

    srv_ckpt = fixture("srv_ckpt", srv_checkpoint)
    srv_service = fixture("srv_service", lambda c: CheckpointService(
        srv_metric(c), k=3).load(srv_ckpt(c)))

    def hops(walk: Callable) -> Callable[[Ctx], int]:
        """Total hops of ``walk(c, u, v)`` over ``c.pairs``."""
        def run(c: Ctx) -> int:
            total = 0
            for u, v in c.pairs:
                total += walk(c, u, v)
            return total
        return run

    def nav_hops(c: Ctx, u: int, v: int) -> int:
        return len(c.navigator.find_path(u, v)) - 1

    def within(k: int) -> Callable:
        return lambda c, total: require(total <= k * len(c.pairs),
                                        f"more than {k} hops per query")

    def query_stage(name: str, navigator: Callable, n: int, count: int,
                    rng_seed: int, k: Optional[int] = None,
                    distinct: bool = False) -> Stage:
        """``count`` seeded queries through ``navigator(c)``; at most ``k``
        hops each when ``k`` is given."""
        def setup(c: Ctx) -> None:
            c.navigator = navigator(c)
            rng = random.Random(rng_seed)
            c.pairs = [tuple(rng.sample(range(n), 2)) if distinct
                       else (rng.randrange(n), rng.randrange(n))
                       for _ in range(count)]
        return Stage(name, None, setup=setup, run=hops(nav_hops),
                     check=None if k is None else within(k))

    def route_stage(name: str, scheme: Callable, walk: Callable, n: int,
                    count: int, rng_seed: int) -> Stage:
        def setup(c: Ctx) -> None:
            c.scheme = scheme(c)
            rng = random.Random(rng_seed)
            c.pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
        return Stage(name, None, setup=setup, run=hops(walk), check=within(2))

    def max_stretch_at_most(bound: float, n: int, sample: int) -> Callable:
        return lambda c, cover: require(
            cover.measured_stretch(sample_pairs(n, sample))[0] <= bound,
            f"cover stretch above {bound}")

    def ancestor_stage(name: str, index: Callable) -> Stage:
        def setup(c: Ctx) -> None:
            tree = ancestor_tree(c)
            depth = tree.depths()
            rng = random.Random(0)
            c.queries = []
            for _ in range(5000):
                v = rng.randrange(tree.n)
                c.queries.append((v, rng.randrange(depth[v] + 1)))
            c.index = index(tree)

        def run(c: Ctx) -> int:
            total = 0
            for v, d in c.queries:
                total += c.index.ancestor_at_depth(v, d)
            return total
        return Stage(name, None, setup=setup, run=run)

    def decompose_setup(c: Ctx) -> None:
        c.packed = PackedTree.from_tree(random_tree(20000, seed=41))
        c.required = set(range(20000))

    def construct_stage(k: int, floor: int = 0) -> Stage:
        # Size ~ n * alpha_k(n): at most 2k * n * alpha_k(n) edges.
        return Stage(
            f"construct_k{k}", None, run=lambda c: TreeNavigator(big_tree(c), k),
            check=lambda c, nav: require(
                nav.num_edges <= 2 * k * big_tree(c).n
                * max(floor, alpha_k(k, big_tree(c).n)),
                f"k={k} navigator above its size bound"))

    def tree_navigator(k: int) -> Callable:
        return fixture(f"tree_navigator_{k}", lambda c: TreeNavigator(big_tree(c), k))

    def shape_robust_build(c: Ctx) -> Tuple[int, int]:
        """Construction cost is shape-robust: star vs path at equal n."""
        return (TreeNavigator(path_tree(4096, seed=42), 2).num_edges,
                TreeNavigator(star_tree(4096), 2).num_edges)

    def naive_walk(c: Ctx) -> int:
        """The Ω(n)-hop baseline the paper's scheme replaces."""
        total = 0
        for u, v in c.pairs:
            total += len(big_path(c).path(u, v)) - 1
        return total

    def naive_setup(c: Ctx) -> None:
        rng = random.Random(3)
        c.pairs = [(rng.randrange(8192), rng.randrange(8192)) for _ in range(50)]

    def product_stage(name: str, tree: Callable, build: Callable, count: int,
                      rng_seed: int) -> Stage:
        def setup(c: Ctx) -> None:
            t = tree()
            c.product = build(t)
            rng = random.Random(rng_seed)
            c.pairs = [tuple(rng.sample(range(4096), 2)) for _ in range(count)]

        def run(c: Ctx) -> float:
            total = 0.0
            for u, v in c.pairs:
                total += c.product.query(u, v)
            return total
        return Stage(name, None, setup=setup, run=run)

    def mst_setup(c: Ctx) -> None:
        c.verifier = MstVerifier(random_tree(4096, seed=33), 2)
        rng = random.Random(2)
        c.queries = [(*rng.sample(range(4096), 2), rng.uniform(0, 15))
                     for _ in range(1000)]

    def mst_verify(c: Ctx) -> int:
        count = 0
        for u, v, w in c.queries:
            ok, comparisons = c.verifier.verify_by_order(u, v, w)
            require(comparisons == 1, "verification took more than one comparison")
            count += ok
        return count

    def fault_queries(count: int, rng_seed: int) -> List[Tuple]:
        rng = random.Random(rng_seed)
        queries = []
        for _ in range(count):
            u, v = rng.sample(range(80), 2)
            pool = [x for x in range(80) if x not in (u, v)]
            queries.append((u, v, set(rng.sample(pool, 2))))
        return queries

    def ft_nav_setup(c: Ctx) -> None:
        c.spanner = FaultTolerantSpanner(ft_metric(c), f=2, k=2, cover=ft_cover(c))
        c.queries = fault_queries(200, 0)

    def ft_route_setup(c: Ctx) -> None:
        c.router = FaultTolerantRoutingScheme(ft_metric(c), f=2, cover=ft_cover(c),
                                              seed=21)
        c.queries = fault_queries(100, 1)

    def ft_nav(c: Ctx) -> int:
        total = 0
        for u, v, faults in c.queries:
            total += len(c.spanner.find_path(u, v, faults)) - 1
        return total

    def ft_route(c: Ctx) -> int:
        total = 0
        for u, v, faults in c.queries:
            total += c.router.route(u, v, faults).hops
        return total

    def at_most_two_hops(c: Ctx, total: int) -> None:
        require(total <= 2 * len(c.queries), "more than 2 hops per query")

    def random_sampling(c: Ctx) -> int:
        total = 0
        for size in range(0, 20):
            total += len(c.injector.sample(size))
        return total

    def degraded_setup(c: Ctx) -> None:
        """Best-effort navigation with |F| = 4(f+1), far past the budget."""
        c.faults = RandomInjector(res_metric(c).n, seed=9).sample(12)
        live = [p for p in range(80) if p not in c.faults]
        c.pairs = list(zip(live[:20], live[20:40]))

    def degraded(c: Ctx) -> int:
        delivered = 0
        for u, v in c.pairs:
            delivered += find_path_degraded(res_spanner(c), u, v, c.faults).delivered
        return delivered

    def chaos_stage(name: str, routing: bool, sizes: List[int],
                    check: Callable) -> Stage:
        def setup(c: Ctx) -> None:
            router = (FaultTolerantRoutingScheme(res_metric(c), f=2,
                                                 cover=res_cover(c), seed=7)
                      if routing else None)
            c.harness = ChaosHarness(res_spanner(c), router, queries=10, seed=5)
            c.injector = RandomInjector(res_metric(c).n, seed=5)
        return Stage(name, None, setup=setup,
                     run=lambda c: c.harness.sweep(c.injector, sizes=sizes),
                     check=check)

    def ramsey_stretch_check(c: Ctx, cover) -> None:
        metric = general_120(c)
        require(cover.home is not None, "Ramsey cover without home trees")
        worst = max(
            cover.trees[cover.home[p]].tree_distance(p, q) / metric.distance(p, q)
            for p in range(0, 120, 7)
            for q in range(0, 120, 5)
            if p != q
        )
        require(worst <= 64 * 2 * 1.5, f"Ramsey home-tree stretch {worst}")

    def engine_stage(batch_size: int) -> Stage:
        """The executor half of admission batching, without the network."""
        def setup(c: Ctx) -> None:
            c.engine = QueryEngine(srv_service(c))
            pairs = [(i % 120, (i * 5 + 7) % 120) for i in range(batch_size)]
            pairs = [(u, v) for u, v in pairs if u != v] or [(0, 1)]
            c.us, c.vs = [u for u, _ in pairs], [v for _, v in pairs]
        return Stage(
            f"engine_batch_execution_{batch_size}", None, setup=setup,
            run=lambda c: c.engine.execute("path", c.us, c.vs),
            check=lambda c, answers: require(set(answers.status) == {"ok"},
                                             f"engine answered {answers.status}"))

    def daemon_setup(c: Ctx) -> None:
        """One pipelined closed-loop wave through a live daemon."""
        threaded = c.enter(ThreadedServer(srv_service(c),
                                          policy=AdmissionPolicy(max_batch=8)))
        c.client = c.enter(ServeClient(threaded.host, threaded.port))
        c.pairs = [(i, (i * 3 + 1) % 120) for i in range(1, 17)]

    road = fixture("road", lambda c: road_network_points(150, seed=0))
    fractal = fixture("fractal", lambda c: hierarchical_points(150, seed=1))

    def workload_navigator(metric: Callable, k: int) -> Callable:
        return lambda c: MetricNavigator(metric(c), robust_tree_cover(
            metric(c), eps=0.45), k)

    def positive_edges(c: Ctx, graph) -> None:
        require(graph.num_edges > 0, "empty spanner")

    return [
        # Ablations: level ancestors, Decompose's cutter, baseline spanners.
        ancestor_stage("level_ancestor_ladders", LadderLevelAncestor),
        ancestor_stage("level_ancestor_lifting", LiftingLevelAncestor),
        Stage("decompose_greedy", None, setup=decompose_setup,
              run=lambda c: decompose_packed(c.packed, c.required, 100),
              check=lambda c, cuts: require(len(cuts) <= 20000 // 100 + 1,
                                            "greedy cutter above n/L + 1 cuts")),
        Stage("decompose_centroid", None, setup=decompose_setup,
              run=lambda c: decompose_centroid(c.packed, c.required, 100),
              check=lambda c, cuts: require(bool(cuts), "centroid cutter made no cut")),
        Stage("baseline_wspd_spanner", None,
              run=lambda c: wspd_spanner(euclidean_200(c), 8.0), check=positive_edges),
        Stage("baseline_greedy_spanner", None,
              run=lambda c: greedy_spanner(euclidean_200(c), 2.0), check=positive_edges),
        Stage("baseline_theta_graph", None,
              run=lambda c: theta_graph(euclidean_200(c), 8), check=positive_edges),
        Stage("navigator_on_deep_vs_shallow_trees", None, run=shape_robust_build,
              check=lambda c, edges: require(
                  edges[1] < edges[0], "stars must be cheaper than paths")),
        # Section 5 applications (E6-E10).
        Stage("sparsify", None,
              setup=lambda c: setattr(c, "dense", greedy_spanner(
                  doubling_navigator(c).metric, 1.2)),
              run=lambda c: sparsify(c.dense, doubling_navigator(c)),
              check=lambda c, sparse: require(
                  sparse.num_edges <= doubling_navigator(c).num_edges,
                  "sparsified graph larger than the navigator")),
        Stage("approximate_spt", None,
              run=lambda c: approximate_spt(doubling_navigator(c), 0),
              check=lambda c, out: require(all(d < float("inf") for d in out[1]),
                                           "SPT left a point unreached")),
        Stage("spt_baseline_dijkstra_on_spanner", None,
              setup=lambda c: setattr(c, "spanner", doubling_navigator(c).spanner()),
              run=lambda c: dijkstra(c.spanner, 0),
              check=lambda c, dist: require(max(dist) < float("inf"),
                                            "Dijkstra left a point unreached")),
        Stage("approximate_mst", None,
              run=lambda c: approximate_mst(doubling_navigator(c)),
              check=lambda c, edges: require(
                  mst_weight(edges) <= 2.0 * mst_weight(base_mst(
                      doubling_navigator(c).metric)),
                  "approximate MST above twice the exact weight")),
        product_stage("tree_product_queries", lambda: random_tree(4096, seed=30),
                      lambda t: OnlineTreeProduct(t, 3, min, list(t.weights)), 1000, 0),
        product_stage("tree_product_naive_baseline", lambda: path_tree(4096, seed=31),
                      lambda t: NaiveTreeProduct(t, min, list(t.weights)), 50, 1),
        Stage("tree_product_preprocessing", None,
              setup=lambda c: setattr(c, "tree", random_tree(4096, seed=32)),
              run=lambda c: OnlineTreeProduct(c.tree, 2, min, list(c.tree.weights)),
              check=lambda c, product: require(
                  product.query(0, 4095) <= max(c.tree.weights),
                  "tree product above the heaviest edge")),
        Stage("mst_verification_queries", None, setup=mst_setup, run=mst_verify),
        # Theorems 4.1, 4.2 and 5.2: robustness and fault tolerance (E5/E12).
        Stage("ft_spanner_construction", None,
              run=lambda c: FaultTolerantSpanner(ft_metric(c), 2, 2, 0.45, ft_cover(c)),
              check=lambda c, spanner: require(spanner.edge_count() > 0,
                                               "empty FT spanner")),
        Stage("ft_navigation_under_faults", None, setup=ft_nav_setup, run=ft_nav,
              check=at_most_two_hops),
        Stage("ft_routing_under_faults", None, setup=ft_route_setup, run=ft_route,
              check=at_most_two_hops),
        # Theorem 1.2: two-step navigation on metric spaces (E3).
        query_stage("doubling_query_k2", doubling_navigator, 200, 400, 0, k=2),
        query_stage("doubling_query_k3", lambda c: MetricNavigator(
            euclidean_200(c), doubling_cover(c), 3), 200, 400, 1, k=3),
        query_stage("ramsey_query_k2", lambda c: MetricNavigator(
            general_120(c), ramsey_cover(c), 2), 120, 1000, 2, k=2),
        Stage("doubling_spanner_construction", None,
              run=lambda c: MetricNavigator(euclidean_200(c), doubling_cover(c), 2),
              check=positive_edges),
        # The resilience subsystem: injectors, chaos sweeps, degradation.
        Stage("random_injector_sampling", None, run=random_sampling,
              setup=lambda c: setattr(c, "injector",
                                      RandomInjector(res_metric(c).n, seed=3)),
              check=lambda c, total: require(total == sum(range(20)),
                                             "injector sampled the wrong sizes")),
        Stage("regional_injector_sampling", None,
              setup=lambda c: setattr(c, "injector",
                                      RegionalInjector(res_metric(c), seed=3)),
              run=lambda c: c.injector.sample(12),
              check=lambda c, faults: require(len(faults) == 12,
                                              "regional injector sampled the wrong size")),
        Stage("adversarial_injector_construction", None,
              run=lambda c: AdversarialInjector(res_spanner(c), 60),
              check=lambda c, injector: require(
                  len(injector.ranked()) == res_spanner(c).metric.n,
                  "adversarial injector did not rank every point")),
        chaos_stage("chaos_sweep_navigation_only", False, [0, 2, 6],
                    lambda c, report: require(
                        report.navigation_rate(0) == 1.0
                        and report.navigation_rate(2) == 1.0,
                        "navigation failed within the fault budget")),
        chaos_stage("chaos_sweep_with_routing", True, [0, 2],
                    lambda c, report: require(report.routing_rate(2) == 1.0,
                                              "routing failed within the fault budget")),
        Stage("degraded_queries_over_budget", None, setup=degraded_setup,
              run=degraded, check=lambda c, delivered: require(
                  delivered >= 0, "negative delivery count")),
        # Theorems 5.1 and 1.3: 2-hop compact routing (E4).
        route_stage("tree_routing_throughput",
                    fixture("tree_scheme", lambda c: build_tree_network(
                        random_tree(4096, seed=10), seed=11)),
                    lambda c, u, v: c.scheme[1].route(
                        u, tree_protocol, c.scheme[0].labels[v], c.scheme[0].tables).hops,
                    4096, 500, 0),
        route_stage("metric_routing_doubling", lambda c: MetricRoutingScheme(
            euclidean_200(c), doubling_cover(c), seed=12),
            lambda c, u, v: c.scheme.route(u, v).hops, 200, 200, 1),
        # Ramsey covers skip the O(zeta) distance scan entirely.
        route_stage("metric_routing_ramsey_constant_decision",
                    lambda c: MetricRoutingScheme(general_120(c), ramsey_cover(c),
                                                  seed=13),
                    lambda c, u, v: c.scheme.route(u, v).hops, 120, 500, 2),
        Stage("tree_scheme_preprocessing", None,
              setup=lambda c: setattr(c, "tree", random_tree(2048, seed=14)),
              run=lambda c: build_tree_network(c.tree, 15),
              check=lambda c, out: require(
                  max(out[0].label_size_bits(p) for p in range(2048)) < 3000,
                  "tree routing label above 3000 bits")),
        # The serving subsystem without and with the network.
        Stage("cold_load_to_ready", None,
              run=lambda c: CheckpointService(srv_metric(c), k=3).load(srv_ckpt(c)),
              check=lambda c, service: require(service.state == "ready",
                                               f"service {service.state}")),
        *[engine_stage(b) for b in (1, 8, 32)],
        Stage("daemon_round_trip", None, setup=daemon_setup,
              run=lambda c: _serve_closed_loop(c.client, c.pairs, queries=32,
                                               window=8)[2],
              check=lambda c, statuses: require(statuses.get("ok", 0) == 32,
                                                f"daemon answered {statuses}")),
        # Table 1 cover constructions (E2): tree counts and stretch.
        Stage("robust_cover_doubling", None,
              run=lambda c: robust_tree_cover(euclidean_200(c), 0.45),
              check=max_stretch_at_most(2.5, 200, 300)),
        Stage("robust_cover_small_eps", None,
              setup=lambda c: setattr(c, "metric", random_points(120, dim=2, seed=6)),
              run=lambda c: robust_tree_cover(c.metric, 0.25),
              check=max_stretch_at_most(1.8, 120, 300)),
        Stage("ramsey_cover_general", None,
              run=lambda c: ramsey_tree_cover(general_120(c), 2, 7),
              check=ramsey_stretch_check),
        Stage("few_trees_cover", None,
              run=lambda c: few_trees_cover(general_120(c), 3, 8),
              check=lambda c, cover: require(cover.size == 3, "expected 3 trees")),
        Stage("planar_cover", None,
              setup=lambda c: setattr(c, "metric", delaunay_metric(300, seed=9)),
              run=lambda c: planar_tree_cover(c.metric),
              check=max_stretch_at_most(3.0 + 1e-6, 300, 400)),
        # Theorem 1.1: navigable tree 1-spanners (E1/E11).
        construct_stage(2),
        construct_stage(3),
        construct_stage(4, floor=1),
        query_stage("query_k2", tree_navigator(2), 8192, 2000, 0, k=2),
        query_stage("query_k4", tree_navigator(4), 8192, 2000, 1, k=4),
        query_stage("query_path_worst_case", lambda c: TreeNavigator(big_path(c), 2),
                    8192, 2000, 2),
        Stage("naive_tree_walk_baseline", None, setup=naive_setup, run=naive_walk,
              check=lambda c, total: require(total > 2 * len(c.pairs),
                                             "the naive walk should need many hops")),
        # The full stack on road, fractal and hub-dominated inputs.
        Stage("road_cover_construction", None,
              run=lambda c: robust_tree_cover(road(c), 0.45),
              check=lambda c, cover: require(cover.size > 0, "empty cover")),
        query_stage("road_navigation_queries", workload_navigator(road, 3),
                    150, 200, 2, k=3, distinct=True),
        query_stage("fractal_navigation_queries", workload_navigator(fractal, 2),
                    150, 200, 3, k=2, distinct=True),
        Stage("power_law_ramsey_cover", None,
              setup=lambda c: setattr(c, "metric", power_law_graph_metric(150, seed=4)),
              run=lambda c: ramsey_tree_cover(c.metric, 2, 5),
              check=lambda c, cover: require(cover.home is not None,
                                             "Ramsey cover without home trees")),
    ]


@functools.lru_cache(maxsize=None)
def stages() -> Tuple[Stage, ...]:
    """The stage table: every BENCH row's stage, then the library stages.

    Built on first use so that ``import repro.bench`` (which every
    spawned RSS-fleet worker pays) loads none of the subsystems.
    """
    return tuple(
        _tree_cover_stages() + _navigation_stages() + _serving_stages()
        + _dynamic_stages() + _netsim_stages() + _library_stages()
    )


# -- the five BENCH entry points ----------------------------------------------


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

    ``robust_repeats`` is separate from ``repeats`` because the seed
    Theorem 4.1 construction is by far the slowest entry (minutes at
    n=2000).  ``prune=True`` adds the ``cover_pruning`` and
    ``compact_cover`` rows (their navigator deltas are measured at
    ``min(n, nav_delta_n)``); neither has a seed counterpart.
    """
    return run_bench("tree_covers", locals())


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
    """Navigator construction and query-latency benchmarks; every row
    carries a seed baseline measured in-process."""
    return run_bench("navigation", locals())


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
    """Serving-daemon benchmarks: cold start (rebuild and mapped), the
    memory of a mapped fleet against a cloned one, and closed-loop
    latency with ``window`` requests in flight per admission batch size."""
    return run_bench("serving", locals())


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
    """Dynamic-update benchmarks: full rebuild, journal append latency,
    sustained churn per batch size and the patch-vs-rebuild crossover
    (every mutation rebuilds every tree; see ``docs/DYNAMIC.md``)."""
    return run_bench("dynamic", locals())


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
    """Simulator benchmarks: the Theorem 5.1 tree leg at 10⁴ nodes, the
    Theorem 1.3 metric leg and the Theorem 5.2 leg with ``ft_f`` nodes
    killed mid-traffic."""
    return run_bench("netsim", locals())


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
    if schema not in {s for s, _ in FILES.values()}:
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


def write_bench_files(out_dir: str, *payloads: Optional[Dict]) -> List[str]:
    """Validate and write each payload to its ``BENCH_<file>.json`` (a
    ``None`` is skipped); returns the paths."""
    filenames = {schema: f"BENCH_{file}.json" for file, (schema, _) in FILES.items()}
    os.makedirs(out_dir, exist_ok=True)
    paths: List[str] = []
    for payload in payloads:
        if payload is None:
            continue
        validate_bench_json(payload)
        path = os.path.join(out_dir, filenames[payload["schema"]])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        paths.append(path)
    return paths
