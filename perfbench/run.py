"""End-to-end and per-layer benchmark of the ``repro`` program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-mapped --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``serve-mapped``: ``repro checkpoint --packed --prune`` at n=200, built
  three times, then ``repro serve --mmap``; open-loop queries at 1000/s
  alternating with a closed loop of 32 in flight, whose throughput is
  rescaled to a reference host speed (``perfbench/hostspeed.py``).
* ``netsim-tree``: Theorem 5.1 on a 10^4-node tree through the
  ``repro.netsim`` API (``perfbench/simjob.py``, its own process); its
  times are rescaled to a reference host speed (``perfbench/hostspeed.py``).

Every workload reports every end-to-end metric (:data:`END_TO_END`),
each measured by that workload itself; ``--trace 1`` reports the
per-layer metrics (:data:`PER_LAYER`) instead, from a run whose builds
and daemons start through ``perfbench/launch.py``.  The traced
serve-mapped run adds a churn probe: an unpruned checkpoint served with
``repro serve --dynamic``, queried at 20/s beside a closed-loop
insert/delete ingester, which is where the ``dynamic`` layer and the
in-memory query path run.  Answers are checked after timing ends
(``perfbench/check.py``).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import simjob  # noqa: E402
from loadgen import (  # noqa: E402
    Connection,
    Ingester,
    closed_loop,
    open_loop,
    query_body,
)

ROOT = os.getcwd()
PY = sys.executable

#: name -> unit.  Every workload measures each of these itself.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

DROP_REASONS = ("dead_node", "queue_full", "routing_error", "misdelivered",
                "hop_exhausted")

#: name -> unit.  The contract of the JSON line asks a traced run for
#: every one of these, so a layer the workload does not run reads 0 and
#: is listed as not exercised in the human-readable output.
#: ``*_inmem_*`` and ``dynamic.*`` come from the churn probe of the
#: traced serve-mapped run (unpruned cover, in-memory query path).
PER_LAYER = {
    "serve.parse_us": "us",
    "serve.encode_us": "us",
    "serve.queue_wait_us": "us",
    "serve.engine_self_us": "us",
    "serve.batch_size_mean": "count",
    "serve.executor_busy_ratio": "ratio",
    "serve.unattributed_us": "us",
    "serve.request_latency_us_mean": "us",
    "serve.shed": "count",
    "serve.timeouts": "count",
    "serve.retries": "count",
    "serve.counter_mismatch": "count",
    "serve.cold_start_s": "s",
    "serve.query_overlap_ratio": "ratio",
    "checkpoint.load_s": "s",
    "checkpoint.load_inmem_s": "s",
    "checkpoint.snapshot_us": "us",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "B",
    "checkpoint.mutate_us": "us",
    "core.find_paths_us": "us",
    "core.find_paths_inmem_us": "us",
    "core.tree_path_us": "us",
    "core.tree_path_inmem_us": "us",
    "core.navigator_build_s": "s",
    "core.navigator_rebuild_us": "us",
    "metrics.path_weight_us": "us",
    "treecover.best_trees_us": "us",
    "treecover.best_trees_inmem_us": "us",
    "treecover.robust_cover_s": "s",
    "treecover.prune_s": "s",
    "treecover.zeta": "count",
    "treecover.zeta_inmem": "count",
    "treecover.prune_kept_ratio": "ratio",
    "dynamic.journal_append_us": "us",
    "dynamic.apply_us": "us",
    "dynamic.touched_fraction": "ratio",
    "dynamic.enable_s": "s",
    "dynamic.update_p50_ms": "ms",
    "dynamic.updates_per_s": "1/s",
    "dynamic.query_p50_ms": "ms",
    "routing.build_s": "s",
    "netsim.compile_s": "s",
    "netsim.audit_s": "s",
    "netsim.inject_s": "s",
    "netsim.run_s": "s",
    "netsim.events": "count",
    "netsim.events_per_message": "ratio",
    "netsim.event_us": "us",
    **{f"netsim.drops.{reason}": "count" for reason in DROP_REASONS},
    "bench.core_share_ratio": "ratio",
    "bench.generator_late_p90_ms": "ms",
    "bench.generator_late_max_ms": "ms",
    "bench.tracing_overhead_ratio": "ratio",
    "bench.failed_ratio": "ratio",
    "bench.calibration_ms": "ms",
    "bench.client_encode_us": "us",
    "build.peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The program under test could not be built, started or driven."""


# -- processes -----------------------------------------------------------

_LIVE: List[subprocess.Popen] = []


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _start(cmd: List[str], log_path: str) -> subprocess.Popen:
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    _LIVE.append(proc)
    return proc


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it past ``timeout``); returns its rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _LIVE.remove(proc)
    return usage


def _kill_live() -> None:
    for proc in list(_LIVE):
        proc.kill()
        _reap(proc, 30)


def _tail(path: str, lines: int = 15) -> str:
    with open(path, "rb") as handle:
        return b"\n".join(handle.read().splitlines()[-lines:]).decode(
            errors="replace")


def _repro_cmd(args: List[str], spans: Optional[str]) -> List[str]:
    if spans:
        return [PY, os.path.join(HERE, "launch.py"), spans, "--", *args]
    return [PY, "-m", "repro", *args]


class Build:
    """One ``repro checkpoint`` run: wall time, peak RSS, log."""

    def __init__(self, args: List[str], log_path: str,
                 spans: Optional[str] = None):
        start = time.perf_counter()
        proc = _start(_repro_cmd(["checkpoint", *args], spans), log_path)
        usage = _reap(proc, 600)
        self.wall_s = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"checkpoint build failed:\n{_tail(log_path)}")
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(log_path, encoding="utf-8", errors="replace") as handle:
            self.log = handle.read()


class Daemon:
    """``repro serve`` in its own process, from launch to ``READY``."""

    def __init__(self, args: List[str], log_path: str,
                 spans: Optional[str] = None, timeout: float = 120.0):
        self.args = args
        start = time.perf_counter()
        self.proc = _start(_repro_cmd(["serve", *args], spans), log_path)
        deadline = time.monotonic() + timeout
        while True:
            with open(log_path, "rb") as handle:
                match = re.search(rb"^READY (\S+) (\d+)", handle.read(), re.M)
            if match:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"daemon did not start:\n{_tail(log_path)}")
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - start
        self.started = start
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def stop(self, conn: Connection):
        """Shut down over the wire; returns (rusage, wall seconds alive)."""
        conn.call("shutdown")
        conn.close()
        usage = _reap(self.proc, 60)
        return usage, time.perf_counter() - self.started


# -- checkpoint facts ------------------------------------------------------

def declared_contract(path: str) -> dict:
    """The contract block of a checkpoint's first-line envelope."""
    with open(path, "rb") as handle:
        return json.loads(handle.readline())["meta"]["contract"]


def generated_points(n: int, seed: int) -> Dict[int, List[float]]:
    """The coordinates ``repro`` generates for ``--n n --seed seed``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.metrics import random_points

    return {i: list(p) for i, p in enumerate(random_points(n, 2, seed).points)}


# -- statistics -------------------------------------------------------------

def _ms(seconds: List[float]) -> List[float]:
    return [s * 1e3 for s in seconds]


#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def percentiles(values: List[float], qs=(50, 90)) -> List[float]:
    """Interpolated percentiles ``qs``; refuses a thinly sampled tail."""
    for q in qs:
        if len(values) * (100 - q) / 100 < MIN_TAIL:
            raise BenchError(f"p{q} of {len(values)} samples would have "
                             f"fewer than {MIN_TAIL} samples beyond it")
    cuts = statistics.quantiles(values, n=100)
    return [cuts[q - 1] for q in qs]


def iq_mean(values: List[float]) -> float:
    """Interquartile mean: the mean of ``values`` without the lowest and
    the highest quarter."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def window_percentiles(windows: List[List[float]], qs=(50, 90)
                       ) -> List[float]:
    """Percentiles ``qs`` taken in each window of a run, then the
    interquartile mean over the windows.

    The measurement host runs at a fast or a slow speed for seconds at a
    time and stalls now and then.  A percentile of the pooled samples
    jumps from one speed to the other as the slow share of a run crosses
    a threshold, and a stall in one window moves the tail of the whole
    run.  The interquartile mean over windows leaves out a quarter of
    the windows at each end and moves in proportion to the slow share in
    between.
    """
    per_window = [percentiles(w, qs) for w in windows]
    return [iq_mean([p[i] for p in per_window]) for i in range(len(qs))]


def _provenance(extra: dict) -> dict:
    import numpy

    with open("/proc/loadavg") as handle:
        load = handle.read().split()[:3]
    return {"nproc": os.cpu_count(), "loadavg": load,
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            **extra}


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process so far, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- serve workloads ----------------------------------------------------------

#: serve-mapped's instance.  n=200, not more, so that three set-ups fit
#: in a run: its prune is most of a set-up and grows as n² · ζ.
MAPPED = dict(n=200, k=3, eps=0.5, build=["--packed", "--prune"],
              serve=["--mmap"])
#: The churn probe of a traced run: ``serve --dynamic`` refuses pruned
#: covers, so it serves an unpruned checkpoint of its own.
CHURN = dict(n=50, k=3, eps=0.5, build=[], serve=["--dynamic"])

MAPPED_SETUPS = 3        # identical set-ups per run; setup_s is the median
MAPPED_RATE = 1000.0     # open-loop queries/s, ~15% of capacity
MAPPED_WINDOW = 32       # closed-loop requests in flight
MAPPED_PATH_SHARE = 0.8  # the rest are distance queries
MAPPED_CYCLES = 12       # open-loop + closed-loop phase pairs per run
MAPPED_OPEN_SHARE = 0.6
#: Closed-loop queries/s the closed phases and the warm-up are sized for
#: (about the capacity at the host's slow speed).  Closed phases send a
#: fixed count, so one seed gives the same requests, and the same
#: answers to check, on every run.
MAPPED_SIZING_QPS = 7000.0
CHURN_RATE = 20.0        # open-loop path queries/s beside the ingester
CHURN_SECONDS = 15.0     # length of the churn probe
CHURN_WARMUP = 50        # warm-up queries of the churn probe, 4 in flight
WARMUP_S = 0.5
#: Thread CPU microseconds the load generator spends encoding one
#: request at the reference host speed.  Closed-loop rates are rescaled
#: by the encoding time measured in the same phase (``hostspeed.py``).
ENCODE_REF_US = 7.0


def invocation(spec: dict, seed: int, ckpt: str):
    """The ``repro checkpoint`` and ``repro serve`` arguments of an
    instance.  Only ``--seed`` depends on the seed; the request stream
    is the rest of what the seed generates."""
    inst = ["--family", "euclidean", "--n", str(spec["n"]), "--k",
            str(spec["k"]), "--eps", str(spec["eps"]), "--seed", str(seed)]
    build = [*inst, "--what", "navigator", *spec["build"], "--out", ckpt]
    serve = [ckpt, *inst, *spec["serve"], "--port", "0"]
    return build, serve


class ServeRun:
    """One daemon's measured phase: samples, rusage and timestamps."""

    def __init__(self, spec: dict, daemon: Daemon, seed: int, ckpt: str):
        self.spec = spec
        self.daemon = daemon
        self.seed = seed
        self.ckpt = ckpt
        self.conn = Connection(daemon.host, daemon.port)
        self.queries = []
        self.open = []
        self.open_windows = []
        self.closed = []
        self.closed_rates = []
        self.closed_raw_rates = []
        self.mutations = []
        self.coords_added: Dict[int, List[float]] = {}
        self.window = (0.0, 0.0)
        self.cpu_window_s = 0.0
        self.closed_encode_us: List[float] = []
        self.prom = ""

    def measure(self, drive) -> None:
        """Run ``drive()`` as the measured phase: wall window and daemon
        CPU seconds spent inside it."""
        cpu = _proc_cpu_s(self.daemon.proc.pid)
        start = time.perf_counter()
        drive()
        self.window = (start, time.perf_counter())
        self.cpu_window_s = _proc_cpu_s(self.daemon.proc.pid) - cpu

    def finish(self, scrape: bool) -> None:
        if scrape:
            self.prom = self.conn.call("metrics")["result"]["text"]
        self.usage, self.alive_s = self.daemon.stop(self.conn)

    def measured(self) -> list:
        """Answered requests of the measured phase."""
        return [s for s in self.open + self.closed + self.mutations
                if s.response]

    def ok_mutations(self) -> list:
        return [s for s in self.mutations if s.response
                and s.response["status"] == "ok"]


def start_instance(spec: dict, seed: int, tag: str, work: str,
                   ckpt: Optional[str] = None,
                   build_spans: Optional[str] = None,
                   daemon_spans: Optional[str] = None):
    """Build (unless ``ckpt`` is given) and launch one instance."""
    build = None
    if ckpt is None:
        ckpt = os.path.join(work, f"{tag}.ckpt")
        build = Build(invocation(spec, seed, ckpt)[0],
                      os.path.join(work, f"{tag}.build.log"), build_spans)
    daemon = Daemon(invocation(spec, seed, ckpt)[1],
                    os.path.join(work, f"{tag}.serve.log"), daemon_spans)
    return ServeRun(spec, daemon, seed, ckpt), build


def drive_mapped(run: ServeRun, seconds: float) -> None:
    """Open-loop and closed-loop phases alternate in :data:`MAPPED_CYCLES`
    cycles, so both samples span the whole run (a shared host's speed
    can drift over seconds); each open-loop phase is one window of
    :func:`window_percentiles`."""
    conn = run.conn
    rng = random.Random(f"{run.seed}:queries")

    def next_query():
        return query_body(rng, run.spec["n"], MAPPED_PATH_SHARE)

    cycle = (seconds - WARMUP_S) / MAPPED_CYCLES
    closed_count = int(MAPPED_SIZING_QPS * (1 - MAPPED_OPEN_SHARE) * cycle)

    def phases():
        for _ in range(MAPPED_CYCLES):
            window = open_loop(conn, MAPPED_RATE, MAPPED_OPEN_SHARE * cycle,
                               next_query, "open")
            run.open += window
            run.open_windows.append(window)
            conn.drain(spin=True)
            closed_start = time.perf_counter()
            encode_start = conn.encode_cpu_s
            window = closed_loop(conn, MAPPED_WINDOW, closed_count,
                                 next_query, "closed")
            wall_s = time.perf_counter() - closed_start
            encode_s = (conn.encode_cpu_s - encode_start) / len(window)
            # Only delivered answers count, so a daemon that sheds fast
            # does not score a higher throughput.
            done = [s for s in window if s.response
                    and s.response["status"] in check.DELIVERED]
            run.closed += window
            run.closed_raw_rates.append(len(done) / wall_s)
            run.closed_rates.append(len(done) / hostspeed.normalise(
                wall_s, encode_s, ENCODE_REF_US / 1e6))
            run.closed_encode_us.append(encode_s * 1e6)

    warm = closed_loop(conn, MAPPED_WINDOW,
                       int(MAPPED_SIZING_QPS * WARMUP_S), next_query, "warmup")
    run.measure(phases)
    run.queries = warm + run.open + run.closed


def drive_churn(run: ServeRun, seconds: float) -> None:
    conn = run.conn
    rng = random.Random(f"{run.seed}:queries")
    ingester = Ingester(conn, random.Random(f"{run.seed}:ingest"))

    def next_query():
        return query_body(rng, run.spec["n"], 1.0)

    def phase():
        conn.listener = ingester.on_response
        ingester.send_next()
        run.open = open_loop(conn, CHURN_RATE, seconds - WARMUP_S,
                             next_query, "open")
        ingester.running = False
        conn.drain()
        conn.listener = None

    warm = closed_loop(conn, 4, CHURN_WARMUP, next_query, "warmup")
    run.measure(phase)
    run.queries = warm + run.open
    run.mutations = ingester.sent
    run.coords_added = ingester.coords


def check_runs(runs: List[ServeRun]) -> check.Verdict:
    verdict = check.Verdict()
    for run in runs:
        contract = declared_contract(run.ckpt)
        coords = generated_points(run.spec["n"], run.seed)
        coords.update(run.coords_added)
        check.check_queries(run.queries, coords, run.spec["k"],
                            contract["gamma"], verdict)
        check.check_mutations(run.mutations, verdict)
    return verdict


def serve_workload(seed: int, seconds: float, trace: bool, work: str) -> dict:
    setups = []
    if not trace:
        # Identical set-ups (same seed, same flags); the last one serves.
        run = None
        for i in range(MAPPED_SETUPS):
            if run is not None:
                run.finish(scrape=False)
            run, build = start_instance(MAPPED, seed, f"setup{i}", work)
            setups.append(build.wall_s + run.daemon.ready_s)
        drive_mapped(run, seconds)
        run.finish(scrape=False)
        checked = [run]
    else:
        # Untraced then traced daemon on copies of one traced build, so
        # the two differ only in the launcher; then the churn probe.
        run, build = start_instance(
            MAPPED, seed, "plain", work,
            build_spans=os.path.join(work, "build.spans.json"))
        setups.append(build.wall_s + run.daemon.ready_s)
        drive_mapped(run, seconds)
        run.finish(scrape=False)
        traced_ckpt = os.path.join(work, "traced.ckpt")
        shutil.copyfile(run.ckpt, traced_ckpt)
        traced, _ = start_instance(
            MAPPED, seed, "traced", work, ckpt=traced_ckpt,
            daemon_spans=os.path.join(work, "daemon.spans.json"))
        drive_mapped(traced, seconds)
        traced.finish(scrape=True)
        churn, _ = start_instance(
            CHURN, seed, "churn", work,
            build_spans=os.path.join(work, "churn.build.spans.json"),
            daemon_spans=os.path.join(work, "churn.spans.json"))
        drive_churn(churn, CHURN_SECONDS)
        churn.finish(scrape=False)
        checked = [traced, churn]

    verdict = check_runs(checked)
    open_ms = _ms([s.latency for s in run.open if s.response])
    p50, p90 = window_percentiles(
        [_ms([s.latency for s in w if s.response]) for w in run.open_windows])
    result = {
        "verdict": verdict,
        "provenance": _provenance({
            "daemon_flags": [r.daemon.args[1:] for r in checked],
            "daemon_cpu_s": [round(_cpu_s(r.usage), 3) for r in checked],
            "daemon_wall_s": [round(r.alive_s, 3) for r in checked],
            "client_encode_us": round(
                statistics.median(run.closed_encode_us), 3),
            "raw_throughput_per_s": round(iq_mean(run.closed_raw_rates), 1),
        }),
        "extra": {"query_p99_ms": (percentiles(open_ms, (99,))[0],
                                   len(open_ms))},
        "e2e": {
            "setup_s": (statistics.median(setups), len(setups)),
            "latency_p50_ms": (p50, len(open_ms)),
            "latency_p90_ms": (p90, len(open_ms)),
            "throughput_per_s": (iq_mean(run.closed_rates), len(run.closed)),
            "peak_rss_mb": (run.usage.ru_maxrss / 1024.0, 1),
        },
    }
    if trace:
        result["layers"] = serve_per_layer(run, traced, build, churn, work)
    return result


def serve_per_layer(plain: ServeRun, traced: ServeRun, build: Build,
                    churn: ServeRun, work: str) -> dict:
    rows = layers.load_spans(os.path.join(work, "daemon.spans.json"))
    build_rows = layers.load_spans(os.path.join(work, "build.spans.json"))
    churn_rows = layers.load_spans(os.path.join(work, "churn.spans.json"))
    measured = [s for s in traced.queries if s.phase != "warmup" and s.response]
    client_us = statistics.fmean((s.received - s.sent) * 1e6 for s in measured)
    statuses = collections.Counter(s.response["status"] for s in traced.queries
                                   if s.response)
    late = _ms([s.sent - s.due for s in traced.open])
    out = dict(layers.serve_layers(rows, traced.window, client_us))
    out.update(layers.build_layers(build_rows))
    out.update(layers.scrape_layers(layers.parse_prom(traced.prom), statuses))
    out.update(layers.churn_layers(churn_rows))
    kept = re.search(r"ζ (\d+) -> (\d+)", build.log)
    updates = churn.ok_mutations()
    update_span = (max(s.received for s in updates)
                   - min(s.sent for s in updates))
    patches = [s.response["result"]["patch"]["touched_fraction"]
               for s in updates]
    churn_queries = [s for s in churn.open if s.response]
    out.update({
        "serve.cold_start_s": plain.daemon.ready_s,
        "serve.query_overlap_ratio": layers.overlap_ratio(
            churn_queries, churn.mutations),
        "checkpoint.load_s": layers.total_s(
            [r for r in rows if r[layers.NAME] == "checkpoint.load"]),
        "checkpoint.bytes": float(os.path.getsize(traced.ckpt)),
        "treecover.zeta": float(declared_contract(traced.ckpt)["max_trees"]),
        "treecover.zeta_inmem": float(
            declared_contract(churn.ckpt)["max_trees"]),
        "treecover.prune_kept_ratio": int(kept.group(2)) / int(kept.group(1)),
        "dynamic.touched_fraction": statistics.fmean(patches),
        "dynamic.update_p50_ms": statistics.median(
            _ms([s.received - s.sent for s in updates])),
        "dynamic.updates_per_s": len(updates) / update_span,
        "dynamic.query_p50_ms": statistics.median(
            _ms([s.latency for s in churn_queries])),
        "bench.generator_late_p90_ms": percentiles(late, (90,))[0],
        "bench.generator_late_max_ms": max(late),
        # Daemon CPU per answered request inside the measured window,
        # traced over untraced: both take the same request schedule on
        # the same instance, and start-up is left out.
        "bench.tracing_overhead_ratio": (
            (traced.cpu_window_s / len(traced.measured()))
            / (plain.cpu_window_s / len(plain.measured())) - 1.0),
        "bench.client_encode_us": statistics.median(plain.closed_encode_us),
        "build.peak_rss_mb": build.peak_rss_mb,
    })
    return out


# -- netsim workload --------------------------------------------------------

def netsim_workload(seed: int, seconds: float, trace: bool, work: str) -> dict:
    log = os.path.join(work, "simjob.log")
    out_path = os.path.join(work, "simjob.json")
    cmd = [PY, os.path.join(HERE, "simjob.py"), "--seed", str(seed),
           "--seconds", str(seconds), "--out", out_path]
    proc = _start(cmd, log)
    usage = _reap(proc, 170)
    if proc.returncode != 0:
        raise BenchError(f"simjob failed:\n{_tail(log)}")
    with open(out_path) as handle:
        job = json.load(handle)
    bulk = job["bulk"]
    injected = sum(b["injected"] for b in bulk)
    delivered = sum(b["delivered"] for b in bulk)
    verdict = check.Verdict(attempted=injected)
    if injected > delivered:
        verdict.not_delivered["undelivered"] = injected - delivered
    verdict.structural.extend(job["errors"])
    run_s = sum(b["run_s"] for b in bulk)
    # Every slice's wall time rescaled to the reference host speed by
    # the calibration chunk timed right after it (hostspeed.py).
    slices = [row for rows in job["slices"] for row in rows]
    norm_s = [hostspeed.normalise(wall, calib) for wall, calib, _ in slices]
    slice_ms = [s * 1e6 / done for s, (_, _, done) in zip(norm_s, slices)
                if done >= simjob.SLICE]
    p50, p90 = percentiles(slice_ms)
    calib_ms = statistics.median(calib for _, calib, _ in slices) * 1e3
    result = {
        "verdict": verdict,
        "provenance": _provenance({
            "simjob_cpu_s": round(_cpu_s(usage), 3),
            "simjob_wall_s": round(job["measured_s"], 3),
            "calibration_ms": round(calib_ms, 3),
            "raw_msgs_per_s": round(delivered / run_s, 1)}),
        "extra": {},
        "e2e": {
            "setup_s": (job["setup_s"], len(job["setups"])),
            "latency_p50_ms": (p50, len(slice_ms)),
            "latency_p90_ms": (p90, len(slice_ms)),
            "throughput_per_s": (delivered / sum(norm_s), delivered),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, 1),
        },
    }
    if trace:
        def stage(key):
            return statistics.median(s[key] for s in job["setups"])

        events = sum(b["events"] for b in bulk)
        messages = sum(b["injected"] for b in bulk)
        result["layers"] = {
            "routing.build_s": stage("build"),
            "netsim.compile_s": stage("compile"),
            "netsim.audit_s": stage("audit"),
            "netsim.inject_s": stage("inject"),
            "netsim.run_s": statistics.median(b["run_s"] for b in bulk),
            "netsim.events": float(bulk[0]["events"]),
            "netsim.events_per_message": events / messages,
            "netsim.event_us": run_s / events * 1e6,
            **{f"netsim.drops.{r}": float(sum(b["drops"][r] for b in bulk))
               for r in DROP_REASONS},
            "bench.calibration_ms": calib_ms,
            "build.peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
    return result


# -- entry point ------------------------------------------------------------

WORKLOADS = ("serve-mapped", "netsim-tree")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: str) -> dict:
    if name == "netsim-tree":
        return netsim_workload(seed, seconds, trace, work)
    return serve_workload(seed, seconds, trace, work)


def report(name: str, result: dict, trace: bool) -> dict:
    verdict = result["verdict"]
    print(f"workload {name}: provenance {json.dumps(result['provenance'])}")
    if trace:
        print("  (traced run: set-up figures below include tracing overhead)")
    for metric, (value, samples) in result["e2e"].items():
        print(f"  {metric:<18} {value:14.4f} {END_TO_END[metric]:<4} "
              f"(n={samples})")
    for metric, (value, samples) in result["extra"].items():
        print(f"  {metric:<18} {value:14.4f} ms   (n={samples}, not gated)")
    failed_ratio = verdict.failed / max(verdict.attempted, 1)
    print(f"  failed_ratio {failed_ratio:.6f} ({verdict.failed} of "
          f"{verdict.attempted}: not delivered {verdict.not_delivered}, "
          f"contract violations {verdict.contract}, structural "
          f"{len(verdict.structural)})")
    for problem in verdict.structural[:5]:
        print(f"  structural error: {problem}")
    if trace:
        metrics = {key: 0.0 for key in PER_LAYER}
        metrics.update(result["layers"])
        metrics["bench.failed_ratio"] = failed_ratio
        units = PER_LAYER
        idle = [key for key in PER_LAYER
                if key not in result["layers"] and key != "bench.failed_ratio"]
        print(f"  not exercised by {name} (written as 0): {', '.join(idle)}")
    else:
        metrics = {key: value for key, (value, _) in result["e2e"].items()}
        units = END_TO_END
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]}
                    for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: run from the root of a repro checkout (no src/repro)",
              file=sys.stderr)
        return 2
    # Every process the benchmark starts inherits this one-CPU affinity.
    # On a VM whose vCPUs the hypervisor time-slices, request/response
    # traffic between processes on two vCPUs can slow several-fold for
    # minutes while single-thread work slows by a quarter; on one CPU
    # the client and the daemon hand off without waiting for the other
    # vCPU to be scheduled.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The load generator keeps every sample (about 10^5 per run, with
    # their decoded responses) for the checks after timing.  With the
    # garbage collector on, its full collections grow with that heap and
    # take the shared CPU from the daemon at random points of the
    # closed-loop phases; the samples hold no reference cycles, so
    # reference counting frees everything the collector would.
    gc.disable()
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    # A SIGTERM unwinds through the cleanup below like an error would.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), work)
        line = report(args.workload, result, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _kill_live()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
