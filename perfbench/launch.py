"""Traced launcher: run the ``repro`` CLI with layer spans recorded.

Usage::

    python perfbench/launch.py SPANS.json -- serve ckpt --port 0 ...

The launcher wraps the public functions named in :data:`TARGETS` (each
patched where callers look it up), then calls ``repro.cli.main`` with
the remaining arguments, so the traced process has the same shape as an
untraced ``python -m repro ...``.  Spans live in memory and are written
to ``SPANS.json`` when the process exits, as rows of
``[name, start_ns, end_ns, parent_index, size]`` where ``size`` is the
batch length for batch calls (``-1`` otherwise).

The netsim decision functions are never wrapped: ``audit_locality``
rejects closures, and that audit stays on.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

#: (module, attribute path, span name, size argument index or None).
#: A function imported by name into another module is patched in both.
#: ``core.approx_distances`` is wrapped so that distance batches do not
#: count as engine self time.
TARGETS = [
    ("repro.serve.server", "parse_request", "serve.parse", None),
    ("repro.serve.server", "encode_line", "serve.encode", None),
    ("repro.serve.batcher", "MicroBatcher.submit", "serve.submit", None),
    ("repro.serve.engine", "QueryEngine.execute", "serve.execute", 2),
    ("repro.checkpoint.recovery", "CheckpointService.load", "checkpoint.load", None),
    ("repro.checkpoint.recovery", "CheckpointService.snapshot", "checkpoint.snapshot", None),
    ("repro.checkpoint.recovery", "CheckpointService.insert", "checkpoint.mutate", None),
    ("repro.checkpoint.recovery", "CheckpointService.delete", "checkpoint.mutate", None),
    ("repro.checkpoint.recovery", "CheckpointService.enable_dynamic", "dynamic.enable", None),
    ("repro.checkpoint.store", "save_navigator_checkpoint", "checkpoint.save", None),
    ("repro.checkpoint", "save_navigator_checkpoint", "checkpoint.save", None),
    ("repro.core.metric_navigator", "MetricNavigator.find_paths", "core.find_paths", 1),
    ("repro.core.mapped_navigator", "PackedMetricNavigator.find_paths", "core.find_paths", 1),
    ("repro.core.metric_navigator", "MetricNavigator.approx_distances", "core.approx_distances", 1),
    ("repro.core.mapped_navigator", "PackedMetricNavigator.approx_distances", "core.approx_distances", 1),
    ("repro.core.navigation", "TreeNavigator.find_path", "core.tree_path", None),
    ("repro.core.packed_query", "QueryPack.find_path", "core.tree_path", None),
    ("repro.core.metric_navigator", "MetricNavigator.__init__", "core.navigator_build", None),
    ("repro.core.metric_navigator", "MetricNavigator.path_weight", "metrics.path_weight", None),
    ("repro.core.mapped_navigator", "PackedMetricNavigator.path_weight", "metrics.path_weight", None),
    ("repro.treecover.base", "TreeCover.best_trees", "treecover.best_trees", 1),
    ("repro.treecover.packed_index", "PackedCoverIndex.best_pairs", "treecover.best_trees", 1),
    ("repro.treecover.dumbbell", "robust_tree_cover", "treecover.robust_cover", None),
    ("repro.treecover", "robust_tree_cover", "treecover.robust_cover", None),
    ("repro.cli", "robust_tree_cover", "treecover.robust_cover", None),
    ("repro.treecover.prune", "prune_cover", "treecover.prune", None),
    ("repro.treecover", "prune_cover", "treecover.prune", None),
    ("repro.dynamic.journal", "UpdateJournal.append", "dynamic.journal_append", None),
    ("repro.dynamic.cover", "DynamicRobustCover.apply", "dynamic.apply", None),
]


class SpanRecorder:
    """Spans in memory, parented through a thread-local stack."""

    def __init__(self) -> None:
        self.rows: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, size_arg):
        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one thread, so they get no parent.
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                start = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    row = [name, start, time.perf_counter_ns(), -1, -1]
                    with self._lock:
                        self.rows.append(row)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            size = -1
            if size_arg is not None and len(args) > size_arg:
                try:
                    size = len(args[size_arg])
                except TypeError:
                    size = -1
            row = [name, time.perf_counter_ns(), 0,
                   stack[-1] if stack else -1, size]
            with self._lock:
                index = len(self.rows)
                self.rows.append(row)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = time.perf_counter_ns()
        return traced

    def install(self) -> None:
        for module_name, path, name, size_arg in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, size_arg))

    def dump(self, path: str) -> None:
        # A span still open at exit (a daemon thread mid-call) is written
        # with zero length; dropping it would shift the parent indexes.
        with self._lock:
            rows = [row if row[2] else [*row[:2], row[1], *row[3:]]
                    for row in self.rows]
        with open(path, "w") as handle:
            json.dump({"clock": "perf_counter_ns", "spans": rows}, handle)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launch.py SPANS.json -- <repro cli args>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    recorder = SpanRecorder()
    recorder.install()
    atexit.register(recorder.dump, out)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.exit(main(sys.argv[1:]))
