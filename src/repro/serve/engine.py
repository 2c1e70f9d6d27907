"""Batch query execution against a live :class:`CheckpointService`.

The engine is the synchronous half of the daemon: the batcher hands it
``(op, pairs)`` micro-batches, mixed ops included (on the event loop,
or on a worker thread for slow batches and
:meth:`QueryEngine.needs_setup`), and it answers them through the
vectorized kernels — one ``best_trees`` selection for the batch's
``distance`` and ``path`` pairs, ``find_paths`` on the chosen trees,
and the Theorem 5.1 compact-routing scheme for ``route`` (per the
local-routing model of arXiv:2012.00959, route answers come from
per-tree labels/tables, not global state).

Every batch runs against **one**
:meth:`~repro.checkpoint.recovery.CheckpointService.snapshot`, so all
its payloads are labelled with exactly the service level that answered
them: while the chaos controller has trees dead and recovery is still
running, payloads come back ``status="degraded"`` with the surviving
tree count in the ``service`` block — never an unlabelled wrong answer.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..checkpoint.recovery import CheckpointService
from ..observability import OBS
from ..routing.metric_routing import MetricRoutingScheme
from .protocol import QUERY_OPS, encode_json

__all__ = ["QueryEngine"]

_C_DEGRADED = OBS.registry.counter("serve.degraded_responses")
_C_UNDELIVERED = OBS.registry.counter("serve.undelivered_responses")


class QueryEngine:
    """Execute query micro-batches at the current service level."""

    #: Routing schemes cached beyond this many generations are evicted
    #: (oldest first); in-flight batches on a just-superseded snapshot
    #: still find their generation's scheme here.
    ROUTER_CACHE = 4

    def __init__(self, service: CheckpointService, router_seed: int = 0):
        self.service = service
        self.router_seed = router_seed
        # Routing schemes derive from one generation's cover *and*
        # metric, so they are cached per generation and invalidated
        # atomically with generation swaps (chaos kill / recovery /
        # dynamic mutation).  A single mutable slot would be a
        # staleness bug: a batch answering on the pre-mutation snapshot
        # must never route through the post-mutation scheme (or vice
        # versa).  The lock covers concurrent batches on the executor's
        # thread pool.
        self._router_lock = threading.Lock()
        self._routers: Dict[int, MetricRoutingScheme] = {}

    # -- public entry (the batcher's executor) ---------------------------

    def execute(
        self, op: Union[str, Sequence[str]], pairs: List[Tuple[int, int]]
    ) -> List[Dict[str, Any]]:
        """One payload per pair, in order: ``status``, ``result``,
        ``error``, the snapshot's ``service`` block and ``service_json``
        (that block encoded once for the batch, see
        :func:`~repro.serve.protocol.encode_line`).

        ``op`` is the op of every pair, or one op per pair (a mixed
        batch); its ``path`` and ``distance`` pairs share one selection.
        """
        ops = [op] * len(pairs) if isinstance(op, str) else list(op)
        if not QUERY_OPS.issuperset(ops):
            raise ValueError(f"unknown batch op in {sorted(set(ops))}")
        navigator, status = self.service.snapshot()
        degraded = status["state"] != "ready"
        status["degraded"] = degraded
        if navigator is None:
            if OBS.enabled:
                _C_UNDELIVERED.inc(len(pairs))
            reason = "no surviving trees; recovery has not completed"
            return [
                {"status": "undelivered", "result": None, "error": reason,
                 "service": status}
                for _ in pairs
            ]
        # Use the snapshot navigator's own metric: in dynamic mode
        # `service.metric` tracks the newest generation, which may be
        # one mutation ahead of the snapshot this batch answers on.
        n = navigator.metric.n
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                # The server validates ids before admission; this guards
                # direct engine users with a full-batch typed failure.
                raise ValueError(f"point pair ({u}, {v}) outside [0, {n})")
        payloads: List[Dict[str, Any]] = [None] * len(pairs)
        self._answer(navigator, ops, pairs, payloads)
        if "route" in ops:
            self._route(navigator, status["generation"], ops, pairs, payloads)
        label = "degraded" if degraded else "ok"
        # Every answer of the batch carries the same service block, so
        # it is encoded here once for the wire (see encode_line).
        service_json = encode_json(status)
        labelled = 0
        for payload in payloads:
            if payload["status"] is None:
                payload["status"] = label
                labelled += 1
            payload.setdefault("error", None)
            payload["service"] = status
            payload["service_json"] = service_json
        if degraded and labelled and OBS.enabled:
            _C_DEGRADED.inc(labelled)
        return payloads

    def needs_setup(self, op: str) -> bool:
        """Must a batch of ``op`` build a routing scheme first?

        True for ``route`` while the current generation has no cached
        scheme: the build is heavy, so the batcher keeps that batch off
        the event loop.
        """
        return op == "route" and self.service.generation not in self._routers

    # -- answers ---------------------------------------------------------

    def _answer(self, navigator, ops, pairs, payloads) -> None:
        """Fill in the ``path`` and ``distance`` answers, from one tree
        selection for all of them."""
        at = [i for i, op in enumerate(ops) if op != "route"]
        selected = navigator.best_trees([pairs[i] for i in at])
        wanted = [(i, tree) for i, (tree, _) in zip(at, selected)
                  if ops[i] == "path"]
        paths = iter(navigator.find_paths(
            [pairs[i] for i, _ in wanted], [tree for _, tree in wanted]
        ) if wanted else ())
        distance = navigator.metric.distance
        for i, (_, tree_distance) in zip(at, selected):
            if ops[i] == "distance":
                payloads[i] = {
                    "status": None,
                    "result": {"distance": float(tree_distance)},
                }
                continue
            path, tree = next(paths)
            u, v = pairs[i]
            base = distance(u, v)
            # A one-hop path weighs δ(u, v) itself: sum() of one term.
            weight = base if len(path) == 2 else navigator.path_weight(path)
            payloads[i] = {
                "status": None,
                "result": {
                    "path": path,
                    "hops": len(path) - 1,
                    "weight": weight,
                    "stretch": weight / base if base > 0 else 1.0,
                    "tree": tree,
                },
            }

    def _route(self, navigator, generation, ops, pairs, payloads) -> None:
        """Fill in the ``route`` answers (Theorem 5.1 routing)."""
        at = [i for i, op in enumerate(ops) if op == "route"]
        if navigator.cover is None:
            # Memory-mapped navigators carry no python cover, and the
            # routing scheme is built from one: route queries degrade
            # to a typed refusal instead of crashing the batch.
            if OBS.enabled:
                _C_UNDELIVERED.inc(len(at))
            for i in at:
                payloads[i] = {
                    "status": "undelivered", "result": None,
                    "error": "routing unavailable: the service is "
                             "memory-mapped (no cover object to build "
                             "routing tables from)",
                }
            return
        scheme = self._router_for(navigator, generation)
        metric = navigator.metric
        for i in at:
            u, v = pairs[i]
            if u == v:
                payloads[i] = {
                    "status": None,
                    "result": {"path": [u], "hops": 0, "weight": 0.0,
                               "stretch": 1.0},
                }
                continue
            outcome = scheme.route(u, v)
            base = metric.distance(u, v)
            delivered = (
                bool(outcome.path)
                and outcome.path[0] == u
                and outcome.path[-1] == v
            )
            payloads[i] = {
                "status": None if delivered else "undelivered",
                "result": {
                    "path": list(outcome.path),
                    "hops": outcome.hops,
                    "weight": outcome.weight,
                    "stretch": (
                        outcome.weight / base if base > 0 else 1.0
                    ),
                } if delivered else None,
                "error": None if delivered else "routing did not deliver",
            }

    def _router_for(self, navigator, generation) -> MetricRoutingScheme:
        with self._router_lock:
            scheme = self._routers.get(generation)
            if scheme is None:
                scheme = MetricRoutingScheme(
                    navigator.metric, navigator.cover, seed=self.router_seed
                )
                self._routers[generation] = scheme
                while len(self._routers) > self.ROUTER_CACHE:
                    self._routers.pop(next(iter(self._routers)))
            return scheme
