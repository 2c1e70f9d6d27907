"""Counter-backed metrics: counters, gauges, histograms, one registry.

The paper's contracts are budget statements — ``FindPath(u, v, k)``
answers in O(k) time with at most ``k`` hops (Theorem 1.1), covers obey
the Table 1 ``(stretch, #trees)`` tradeoffs — so the telemetry that
verifies them empirically is *counts*: distance-kernel invocations,
cut-vertex recursions, hops per query, trees consulted per selection.
This module is the zero-dependency registry those counts live in.

Design rules:

* **Stable handles.**  Instrumented modules obtain their instruments
  once at import time (``_C_QUERIES = counter("navigator.queries")``)
  and keep the object; :meth:`MetricsRegistry.reset` zeroes values *in
  place* so handles never dangle.
* **Cheap when off.**  Instruments do no enabled-checking themselves;
  every instrumentation point guards with a single truthiness check
  (``if OBS.enabled:``) before touching an instrument — see
  :mod:`repro.observability.tracing`.
* **Deterministic merges.**  Worker processes ship
  :meth:`MetricsRegistry.delta_since` dicts back through
  :func:`repro.parallel.map_per_tree`, which merges them in input
  order, so serial and parallel runs of the same work produce the same
  totals (speculative work — e.g. surplus Ramsey draws — is the one
  documented exception: parallel runs count the work they actually
  did).

Counters are plain ``+=`` (single-opcode best effort under threads;
process-boundary merges are exact); histograms update several fields
and therefore take a per-instance lock.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import threading
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_SCHEMA",
]

METRICS_SCHEMA = "repro.observability.metrics/v1"


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A last-write-wins observed value (pool sizes, tree counts, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = None


def _bucket_exp(value: float) -> int:
    """The exponent ``e`` of the smallest power-of-two bucket ``2^e``
    holding ``value`` (values <= 1 share bucket 0)."""
    if value <= 1.0:
        return 0
    return max(0, math.ceil(math.log2(value)))


class Histogram:
    """A base-2 exponential histogram plus count/sum/min/max.

    Bucket ``e`` counts observations in ``(2^(e-1), 2^e]`` (bucket 0
    holds everything <= 1).  Exponential buckets keep the memory bounded
    for any value range — hop counts, microsecond latencies and
    kernel batch sizes all share the same shape.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        e = _bucket_exp(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.buckets[e] = self.buckets.get(e, 0) + 1

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` every value, in order, under one lock hold.

        Leaves ``count``, ``buckets``, ``min``, ``max`` and ``total``
        as the one-by-one calls would (``total`` is summed in the same
        order); each distinct value's bucket is computed once, so a
        batch of small counts such as hop numbers costs a few
        ``log2`` calls, not one per value.  A single value takes
        :meth:`observe` itself: one value costs 1.8 µs that way and
        5.4 µs through the batch path (medians over 60,000 interleaved
        calls, CPython 3 on a 2-CPU VM), and a daemon answering one
        query per batch makes three such calls per answer.
        """
        if len(values) <= 1:
            if values:
                self.observe(values[0])
            return
        floats = list(map(float, values))
        buckets: Dict[int, int] = {}
        for value, times in collections.Counter(floats).items():
            e = _bucket_exp(value)
            buckets[e] = buckets.get(e, 0) + times
        low = min(floats)
        high = max(floats)
        with self._lock:
            self.count += len(floats)
            self.total = functools.reduce(operator.add, floats, self.total)
            if self.min is None or low < self.min:
                self.min = low
            if self.max is None or high > self.max:
                self.max = high
            for e, times in buckets.items():
                self.buckets[e] = self.buckets.get(e, 0) + times

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self.buckets = {}

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__ if slot != "_lock"}
        return state

    def __setstate__(self, state):
        for key, value in state.items():
            setattr(self, key, value)
        self._lock = threading.Lock()


class MetricsRegistry:
    """Create-or-get registry of named instruments.

    Names are dotted lowercase paths (``navigator.hops``); the JSON and
    prom-text exporters derive their keys from them.  Requesting an
    existing name with a different instrument kind raises — a name
    means one thing forever.
    """

    def __init__(self):
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    # -- instrument access -------------------------------------------------

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(name, cls(name))
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        for instrument in list(self._instruments.values()):
            instrument.reset()

    # -- snapshots and deltas ----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The current state of every instrument, as plain JSON types."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                if instrument.value is not None:
                    gauges[name] = instrument.value
            else:
                histograms[name] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "min": instrument.min,
                    "max": instrument.max,
                    "buckets": {str(e): c for e, c in sorted(instrument.buckets.items())},
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def delta_since(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """What changed since a :meth:`snapshot` (ships across workers).

        Counter and histogram deltas subtract exactly; a histogram
        delta's min/max are the instrument's current bounds (the exact
        per-window extrema are not reconstructible from two snapshots,
        and telemetry tolerates the slightly wider range).
        """
        after = self.snapshot()
        b_counters = before.get("counters", {})
        counters = {
            name: value - b_counters.get(name, 0)
            for name, value in after["counters"].items()
            if value != b_counters.get(name, 0)
        }
        gauges = dict(after["gauges"])
        b_hists = before.get("histograms", {})
        histograms = {}
        for name, h in after["histograms"].items():
            prev = b_hists.get(name, {})
            d_count = h["count"] - prev.get("count", 0)
            if d_count == 0:
                continue
            prev_buckets = prev.get("buckets", {})
            histograms[name] = {
                "count": d_count,
                "sum": h["sum"] - prev.get("sum", 0.0),
                "min": h["min"],
                "max": h["max"],
                "buckets": {
                    e: c - prev_buckets.get(e, 0)
                    for e, c in h["buckets"].items()
                    if c != prev_buckets.get(e, 0)
                },
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, delta: Dict[str, Any]) -> None:
        """Fold a :meth:`delta_since` dict into this registry."""
        for name, value in delta.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, h in delta.get("histograms", {}).items():
            histogram = self.histogram(name)
            with histogram._lock:
                histogram.count += h["count"]
                histogram.total += h["sum"]
                for bound in ("min", "max"):
                    theirs = h.get(bound)
                    if theirs is None:
                        continue
                    ours = getattr(histogram, bound)
                    if ours is None:
                        setattr(histogram, bound, theirs)
                    elif bound == "min":
                        histogram.min = min(ours, theirs)
                    else:
                        histogram.max = max(ours, theirs)
                for e, c in h.get("buckets", {}).items():
                    e = int(e)
                    histogram.buckets[e] = histogram.buckets.get(e, 0) + c

    # -- export ------------------------------------------------------------

    def export_json(self) -> Dict[str, Any]:
        """The snapshot wrapped with a schema id (for BENCH rows, files)."""
        payload = self.snapshot()
        payload["schema"] = METRICS_SCHEMA
        return payload

    def export_prom_text(self) -> str:
        """The registry in Prometheus text exposition format.

        Names are prefixed ``repro_`` with dots mapped to underscores;
        histograms emit cumulative ``_bucket{le=...}`` series plus
        ``_sum``/``_count``, as the format requires.
        """
        lines: List[str] = []
        snapshot = self.snapshot()
        for name, value in snapshot["counters"].items():
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {value}")
        for name, value in snapshot["gauges"].items():
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_float(value)}")
        for name, h in snapshot["histograms"].items():
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for e in sorted(int(k) for k in h["buckets"]):
                cumulative += h["buckets"][str(e)]
                lines.append(
                    f'{prom}_bucket{{le="{_prom_float(2.0 ** e)}"}} {cumulative}'
                )
            lines.append(f'{prom}_bucket{{le="+Inf"}} {h["count"]}')
            lines.append(f"{prom}_sum {_prom_float(h['sum'])}")
            lines.append(f"{prom}_count {h['count']}")
        return "\n".join(lines) + "\n"


def _prom_name(name: str) -> str:
    safe = "".join(c if c.isalnum() else "_" for c in name)
    return f"repro_{safe}"


def _prom_float(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
