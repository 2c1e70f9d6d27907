"""Per-layer numbers from launcher spans, daemon counters and client samples.

Span rows come from ``launch.py``: ``[name, start_ns, end_ns, parent, size]``
on the host's monotonic clock, which ``time.perf_counter`` in the
load generator shares, so client and daemon timestamps compare directly.
"""

from __future__ import annotations

import bisect
import json
import re
import statistics
from typing import Dict, Iterable, List

NAME, START, END, PARENT, SIZE = range(5)


def load_spans(path: str) -> List[list]:
    with open(path) as handle:
        return json.load(handle)["spans"]


def _dur_us(row) -> float:
    return (row[END] - row[START]) / 1e3


def _ancestors(rows, row) -> Iterable[list]:
    parent = row[PARENT]
    while parent >= 0:
        row = rows[parent]
        yield row
        parent = row[PARENT]


def outermost(rows: List[list], name: str) -> List[list]:
    """Spans named ``name`` not nested in another span of that name."""
    return [
        row for row in rows
        if row[NAME] == name
        and all(a[NAME] != name for a in _ancestors(rows, row))
    ]


def under(rows: List[list], name: str, ancestor: str) -> List[list]:
    """Spans named ``name`` with an ancestor named ``ancestor``."""
    return [
        row for row in rows
        if row[NAME] == name
        and any(a[NAME] == ancestor for a in _ancestors(rows, row))
    ]


def mean_us(rows: List[list]) -> float:
    return statistics.fmean(_dur_us(r) for r in rows) if rows else 0.0


def total_s(rows: List[list]) -> float:
    return sum(_dur_us(r) for r in rows) / 1e6


def per_item_us(rows: List[list]) -> float:
    """Time per batch item: Σ duration ÷ Σ batch size."""
    items = sum(max(r[SIZE], 0) for r in rows)
    return sum(_dur_us(r) for r in rows) / items if items else 0.0


def self_us(rows: List[list], name: str) -> float:
    """Σ over spans named ``name`` of duration minus direct children."""
    children = [0.0] * len(rows)
    for row in rows:
        if row[PARENT] >= 0:
            children[row[PARENT]] += _dur_us(row)
    return sum(
        _dur_us(row) - children[i] for i, row in enumerate(rows)
        if row[NAME] == name
    )


def queue_waits_us(rows: List[list]) -> List[float]:
    """Per query: its ``submit`` span minus the ``execute`` that answered it.

    A submit resolves just after its batch's execute returns, so its
    batch is the execute that ends last inside the submit's interval.
    """
    executes = sorted(
        (r for r in rows if r[NAME] == "serve.execute"), key=lambda r: r[END]
    )
    ends = [r[END] for r in executes]
    waits = []
    for sub in (r for r in rows if r[NAME] == "serve.submit"):
        i = bisect.bisect_right(ends, sub[END]) - 1
        if i >= 0 and executes[i][START] >= sub[START]:
            waits.append(_dur_us(sub) - _dur_us(executes[i]))
    return waits


def serve_layers(rows: List[list], window: tuple, client_us: float
                 ) -> Dict[str, float]:
    """The serve, core, metrics and treecover numbers of a daemon run.

    ``window`` is the measured phase (perf_counter seconds) for the
    executor's busy ratio; ``client_us`` the mean send→receive latency
    the client saw over the measured queries.
    """
    lo, hi = int(window[0] * 1e9), int(window[1] * 1e9)
    executes = [r for r in rows if r[NAME] == "serve.execute"]
    batch_items = sum(max(r[SIZE], 0) for r in executes)
    engine_self = self_us(rows, "serve.execute")
    busy = sum(
        min(r[END], hi) - max(r[START], lo)
        for r in executes if r[END] > lo and r[START] < hi
    )
    parse = mean_us([r for r in rows if r[NAME] == "serve.parse"])
    encode = mean_us([r for r in rows if r[NAME] == "serve.encode"])
    submit = mean_us([r for r in rows if r[NAME] == "serve.submit"])
    waits = queue_waits_us(rows)
    tree_path = outermost(rows, "core.tree_path")
    best = outermost(rows, "treecover.best_trees")
    core_us = (sum(map(_dur_us, tree_path)) + sum(map(_dur_us, best))) / max(
        batch_items, 1
    )
    return {
        "serve.parse_us": parse,
        "serve.encode_us": encode,
        "serve.queue_wait_us": statistics.fmean(waits) if waits else 0.0,
        "serve.engine_self_us": engine_self / batch_items if batch_items else 0.0,
        "serve.executor_busy_ratio": busy / max(hi - lo, 1),
        "serve.unattributed_us": client_us - (parse + submit + encode),
        "checkpoint.snapshot_us": mean_us(
            [r for r in rows if r[NAME] == "checkpoint.snapshot"]),
        "core.find_paths_us": per_item_us(outermost(rows, "core.find_paths")),
        "core.tree_path_us": mean_us(tree_path),
        "metrics.path_weight_us": mean_us(
            [r for r in rows if r[NAME] == "metrics.path_weight"]),
        "treecover.best_trees_us": per_item_us(best),
        "bench.core_share_ratio": core_us / client_us if client_us else 0.0,
    }


def churn_layers(rows: List[list]) -> Dict[str, float]:
    """The churn probe's daemon: in-memory query path, load and mutations."""
    return {
        "checkpoint.load_inmem_s": total_s(
            [r for r in rows if r[NAME] == "checkpoint.load"]),
        "dynamic.enable_s": total_s(
            [r for r in rows if r[NAME] == "dynamic.enable"]),
        "checkpoint.mutate_us": mean_us(
            [r for r in rows if r[NAME] == "checkpoint.mutate"]),
        "core.navigator_rebuild_us": mean_us(
            under(rows, "core.navigator_build", "checkpoint.mutate")),
        "dynamic.journal_append_us": mean_us(
            [r for r in rows if r[NAME] == "dynamic.journal_append"]),
        "dynamic.apply_us": mean_us(outermost(rows, "dynamic.apply")),
        "core.find_paths_inmem_us": per_item_us(
            outermost(rows, "core.find_paths")),
        "core.tree_path_inmem_us": mean_us(outermost(rows, "core.tree_path")),
        "treecover.best_trees_inmem_us": per_item_us(
            outermost(rows, "treecover.best_trees")),
    }


def build_layers(rows: List[list]) -> Dict[str, float]:
    """Checkpoint-build numbers (the ``repro checkpoint`` process)."""
    return {
        "checkpoint.save_s": total_s(outermost(rows, "checkpoint.save")),
        "core.navigator_build_s": total_s(
            outermost(rows, "core.navigator_build")),
        "treecover.robust_cover_s": total_s(
            outermost(rows, "treecover.robust_cover")),
        "treecover.prune_s": total_s(outermost(rows, "treecover.prune")),
    }


_PROM_LINE = re.compile(r"^(repro_[A-Za-z0-9_]+)(\{[^}]*\})? (\S+)$")


def parse_prom(text: str) -> Dict[str, float]:
    """Unlabelled Prometheus samples (``_sum`` / ``_count`` included)."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        match = _PROM_LINE.match(line)
        if match and match.group(2) is None:
            out[match.group(1)] = float(match.group(3))
    return out


def scrape_layers(prom: Dict[str, float], client_statuses: Dict[str, int]
                  ) -> Dict[str, float]:
    """The daemon's own counters, cross-checked against client statuses."""

    def mean(name: str) -> float:
        count = prom.get(f"repro_{name}_count", 0.0)
        return prom.get(f"repro_{name}_sum", 0.0) / count if count else 0.0

    shed = prom.get("repro_serve_shed", 0.0)
    timeouts = prom.get("repro_serve_timeouts", 0.0)
    mismatch = abs(shed - client_statuses.get("overloaded", 0)) + abs(
        timeouts - client_statuses.get("timeout", 0))
    return {
        "serve.shed": shed,
        "serve.timeouts": timeouts,
        "serve.retries": prom.get("repro_serve_retries", 0.0),
        "serve.batch_size_mean": mean("serve_batch_size"),
        "serve.request_latency_us_mean": mean("serve_request_latency_us"),
        "serve.counter_mismatch": mismatch,
    }


def overlap_ratio(queries, mutations) -> float:
    """Share of queries whose flight overlaps any mutation's flight."""
    spans = sorted((m.sent, m.received) for m in mutations if m.response)
    if not queries:
        return 0.0
    starts = [s for s, _ in spans]
    hit = 0
    for q in queries:
        i = bisect.bisect_right(starts, q.received) - 1
        # Mutations are serial (one outstanding), so only the latest
        # one starting before the query ends can overlap it.
        if i >= 0 and spans[i][1] > q.sent:
            hit += 1
    return hit / len(queries)
