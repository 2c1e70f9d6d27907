"""Batch query execution against a live :class:`CheckpointService`.

The engine is the synchronous half of the daemon: the batcher hands it
micro-batches as columns (``ops``, ``us``, ``vs``), mixed ops included
(on the event loop, or on a worker thread for slow batches and
:meth:`QueryEngine.needs_setup`), and it answers them as columns
(:class:`~repro.serve.protocol.Answers`) through the vectorized
kernels — one range check and one tree selection for the batch's
``distance`` and ``path`` pairs, ``find_paths`` on the chosen trees,
and the Theorem 5.1 compact-routing scheme for ``route`` (per the
local-routing model of arXiv:2012.00959, route answers come from
per-tree labels/tables, not global state).

Every batch runs against **one**
:meth:`~repro.checkpoint.recovery.CheckpointService.snapshot`, so all
its answers are labelled with exactly the service level that answered
them: while the chaos controller has trees dead and recovery is still
running, answers come back ``status="degraded"`` with the surviving
tree count in the ``service`` block — never an unlabelled wrong answer.
"""

from __future__ import annotations

import threading
from typing import Dict, Sequence, Tuple, Union

from ..checkpoint.recovery import CheckpointService
from ..observability import OBS
from ..routing.metric_routing import MetricRoutingScheme
from .protocol import QUERY_OPS, Answers, encode_json

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
        #: The last service block seen and its wire encoding.
        self._status_json: Tuple[tuple, str] = ((), "")

    # -- public entry (the batcher's executor) ---------------------------

    def execute(
        self, op: Union[str, Sequence[str]], us: Sequence[int],
        vs: Sequence[int],
    ) -> Answers:
        """Answer the pairs ``(us[i], vs[i])``, one :class:`Answers` row
        each, in order, labelled with the snapshot's service block
        (encoded once for the wire, see
        :func:`~repro.serve.protocol.answer_lines`).

        ``op`` is the op of every pair, or one op per pair (a mixed
        batch); its ``path`` and ``distance`` pairs share one selection.
        """
        m = len(us)
        ops = [op] * m if isinstance(op, str) else list(op)
        if not QUERY_OPS.issuperset(ops):
            raise ValueError(f"unknown batch op in {sorted(set(ops))}")
        navigator, status = self.service.snapshot()
        degraded = status["state"] != "ready"
        status["degraded"] = degraded
        service_json = self._encode_status(status)
        if navigator is None:
            if OBS.enabled:
                _C_UNDELIVERED.inc(m)
            reason = "no surviving trees; recovery has not completed"
            return Answers(ops, ["undelivered"] * m, [reason] * m, status,
                           service_json)
        # Use the snapshot navigator's own metric: in dynamic mode
        # `service.metric` tracks the newest generation, which may be
        # one mutation ahead of the snapshot this batch answers on.
        # The server validates ids before admission; this one check
        # guards direct engine users with a full-batch typed failure.
        navigator.check_pairs(us, vs)
        label = "degraded" if degraded else "ok"
        answers = Answers(ops, [label] * m, None, status, service_json)
        if "route" in ops:
            rows = [i for i, op in enumerate(ops) if op != "route"]
            self._answer(navigator, answers, rows, [us[i] for i in rows],
                         [vs[i] for i in rows])
            self._route(navigator, status["generation"], answers, us, vs)
        else:
            self._answer(navigator, answers, range(m), us, vs)
        if degraded and OBS.enabled:
            labelled = answers.status.count(label)
            if labelled:
                _C_DEGRADED.inc(labelled)
        return answers

    def _encode_status(self, status: Dict) -> str:
        """``encode_json(status)``, encoded again only when the service
        level changed since the last batch."""
        key = tuple(status.items())
        cached_key, cached = self._status_json
        if key != cached_key:
            cached = encode_json(status)
            self._status_json = (key, cached)  # one atomic swap
        return cached

    def needs_setup(self, op: str) -> bool:
        """Must a batch of ``op`` build a routing scheme first?

        True for ``route`` while the current generation has no cached
        scheme: the build is heavy, so the batcher answers those
        queries in a set-up pass off the event loop.
        """
        return op == "route" and self.service.generation not in self._routers

    # -- answers ---------------------------------------------------------

    def _answer(self, navigator, answers, rows, us, vs) -> None:
        """Fill in the ``path`` and ``distance`` rows (``rows``, pairs
        ``us``/``vs``) from one tree selection for all of them."""
        trees, distances = navigator.select_trees(us, vs)
        ops = answers.ops
        at = [i for i, row in enumerate(rows) if ops[row] == "path"]
        if len(at) < len(rows):
            column = answers.distance
            for row, distance in zip(rows, distances):
                if ops[row] == "distance":
                    column[row] = float(distance)
        if not at:
            return
        found = navigator.find_paths(
            [(us[i], vs[i]) for i in at], [trees[i] for i in at]
        )
        distance = navigator.metric.distance
        path_weight = navigator.path_weight
        path_col, weight_col = answers.path, answers.weight
        stretch_col, tree_col = answers.stretch, answers.tree
        for i, (path, tree) in zip(at, found):
            row = rows[i]
            base = distance(us[i], vs[i])
            # A one-hop path weighs δ(u, v) itself: sum() of one term.
            weight = base if len(path) == 2 else path_weight(path)
            path_col[row] = path
            weight_col[row] = weight
            stretch_col[row] = weight / base if base > 0 else 1.0
            tree_col[row] = tree

    def _route(self, navigator, generation, answers, us, vs) -> None:
        """Fill in the ``route`` rows (Theorem 5.1 routing)."""
        at = [i for i, op in enumerate(answers.ops) if op == "route"]
        results = answers.results
        if navigator.cover is None:
            # Memory-mapped navigators carry no python cover, and the
            # routing scheme is built from one: route queries degrade
            # to a typed refusal instead of crashing the batch.
            if OBS.enabled:
                _C_UNDELIVERED.inc(len(at))
            for i in at:
                answers.status[i] = "undelivered"
                answers.error[i] = (
                    "routing unavailable: the service is memory-mapped "
                    "(no cover object to build routing tables from)"
                )
                results[i] = None
            return
        scheme = self._router_for(navigator, generation)
        metric = navigator.metric
        for i in at:
            u, v = us[i], vs[i]
            if u == v:
                results[i] = {"path": [u], "hops": 0, "weight": 0.0,
                              "stretch": 1.0}
                continue
            outcome = scheme.route(u, v)
            base = metric.distance(u, v)
            if (outcome.path and outcome.path[0] == u
                    and outcome.path[-1] == v):
                results[i] = {
                    "path": list(outcome.path),
                    "hops": outcome.hops,
                    "weight": outcome.weight,
                    "stretch": outcome.weight / base if base > 0 else 1.0,
                }
            else:
                answers.status[i] = "undelivered"
                answers.error[i] = "routing did not deliver"
                results[i] = None

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
