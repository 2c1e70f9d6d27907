"""The event-driven message-passing simulator.

:class:`NetworkSimulator` owns the three planes the paper's distributed
model separates:

* **data plane** — envelopes move hop by hop; at every node the
  compiled scheme's *pure* decision function is called with exactly the
  arguments a real node would have (its id, its table, the envelope's
  header, the destination label) and answers ``(port, new header)``;
  the simulator then pushes the envelope onto the link behind that
  port.  Nodes never see the topology; the simulator never second-
  guesses a decision.
* **fault plane** — :meth:`kill_at` schedules a node death.  A dead
  node stops forwarding: envelopes arriving at it (or originating from
  it) are dropped and accounted.  For fault-tolerant schemes
  (Theorem 5.2) each kill re-arms the decision function via the
  compiled ``protocol_factory`` with the current faulty set — the
  paper's model where the faulty set ``F`` is known to the router.
* **observer plane** — delivery, drops, hop counts, per-hop header
  bits and delivered stretch (against the metric, the observer-side
  oracle) are recorded on the simulator.  Drops and kills reach the
  global ``netsim.*`` instruments as they happen; deliveries reach
  them in one pass when :meth:`NetworkSimulator.run` returns (or
  raises): one counter increment and one batched histogram update per
  instrument, in delivery order, with every stretch from one batched
  metric call.  The event loop itself only stamps and appends.

Determinism: with a fixed scheduler policy and seed, runs are exactly
reproducible; and because decisions are pure, *delivered paths* are
identical across tie-break policies whenever links do not drop
(the conformance suite asserts this).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InvariantViolation, ReproError, RoutingError
from ..observability import OBS
from ..routing.ports import DELIVER
from .compile import CompiledNetwork
from .envelope import Envelope
from .scheduler import EventScheduler

__all__ = ["NetworkSimulator", "DROP_REASONS"]

#: Every way an envelope can fail to be delivered, in accounting order.
DROP_REASONS = (
    "dead_node",      # arrived at (or originated from) a killed node
    "queue_full",     # tail-dropped by a bounded link queue
    "routing_error",  # the decision function raised / named a dead port
    "misdelivered",   # DELIVER at a node that is not the destination
    "hop_exhausted",  # exceeded the compiled hop budget safety factor
)

#: Safety factor over the scheme's contractual hop budget before the
#: simulator declares a loop.  2 hops is the paper's budget; the
#: simulator allows slack for FT detours, then cuts the packet loose.
_HOP_SLACK = 8


class NetworkSimulator:
    """Drive routed messages across a :class:`CompiledNetwork`."""

    def __init__(
        self,
        compiled: CompiledNetwork,
        tie_break: str = "fifo",
        seed: int = 0,
    ):
        self.compiled = compiled
        self.nodes = compiled.nodes
        self.links = compiled.links
        # A simulator owns the mutable run state of its compiled
        # network: revive every node and drain every link so reusing
        # one CompiledNetwork across runs starts each run clean.
        # (Two *concurrent* simulators over one compiled network would
        # fight over this state — compile once per live simulator.)
        for node in self.nodes:
            node.alive = True
        for link in self.links.values():
            link.free_at = 0.0
            link.sent = 0
        #: The live decision function; the fault plane swaps it for
        #: FT schemes (pure in its arguments either way).
        self.protocol = compiled.protocol
        self.scheduler = EventScheduler(tie_break=tie_break, seed=seed)
        self.faults: set = set()
        self.hop_limit = max(2, compiled.hop_budget) * _HOP_SLACK

        self._next_msg_id = 0
        self.injected = 0
        self.delivered: List[Envelope] = []
        #: How many of ``delivered`` the observer pass has counted.
        self._observed = 0
        self.dropped: List[Tuple[Envelope, str]] = []
        self.drop_counts: Dict[str, int] = {r: 0 for r in DROP_REASONS}

        reg = OBS.registry
        self._c_injected = reg.counter("netsim.injected")
        self._c_delivered = reg.counter("netsim.delivered")
        self._c_kills = reg.counter("netsim.kills")
        self._c_drops = {
            reason: reg.counter(f"netsim.dropped_{reason}")
            for reason in DROP_REASONS
        }
        self._h_hops = reg.histogram("netsim.hops")
        self._h_header_bits = reg.histogram("netsim.header_bits")
        self._h_stretch = reg.histogram("netsim.stretch_pct")

    # -- traffic plane ---------------------------------------------------

    def send(self, src: int, dst: int, at: Optional[float] = None) -> Envelope:
        """Inject one message; the name service hands ``src`` the
        destination's label at injection time (the labeled model)."""
        when = self.scheduler.now if at is None else at
        env = Envelope(
            self._next_msg_id, src, dst, self.compiled.labels[dst], when
        )
        self._next_msg_id += 1
        self.scheduler.schedule(when, lambda: self._inject(env))
        return env

    def send_many(self, pairs, spacing: float = 0.0,
                  start: Optional[float] = None) -> List[Envelope]:
        """Inject a batch of ``(src, dst)`` pairs, ``spacing`` apart."""
        at = self.scheduler.now if start is None else start
        out = []
        for src, dst in pairs:
            out.append(self.send(src, dst, at=at))
            at += spacing
        return out

    # -- fault plane -----------------------------------------------------

    def kill_at(self, time: float, node_id: int) -> None:
        """Schedule ``node_id`` to crash at simulated ``time``."""
        self.scheduler.schedule(time, lambda: self._kill(node_id))

    def _kill(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.alive = False
        self.faults.add(node_id)
        if OBS.enabled:
            self._c_kills.inc()
        if self.compiled.protocol_factory is not None:
            # Theorem 5.2 model: the faulty set is announced to the
            # routers; the factory closes over *only* that set.
            self.protocol = self.compiled.protocol_factory(
                frozenset(self.faults)
            )

    # -- data plane ------------------------------------------------------

    def _inject(self, env: Envelope) -> None:
        self.injected += 1
        if OBS.enabled:
            self._c_injected.inc()
        source = self.nodes[env.src]
        if not source.alive:
            self._drop(env, "dead_node")
            return
        self._decide(env.src, env)

    def _decide(self, u: int, env: Envelope) -> None:
        node = self.nodes[u]
        try:
            port, header = self.protocol(
                u, node.table, env.header, env.dest_label
            )
        except (RoutingError, InvariantViolation, ReproError, KeyError):
            self._drop(env, "routing_error")
            return
        env.header = header
        if port == DELIVER:
            if u != env.dst:
                self._drop(env, "misdelivered")
                return
            self._deliver(env)
            return
        if env.hops >= self.hop_limit:
            self._drop(env, "hop_exhausted")
            return
        if port not in node.ports:
            # The table names a port that was never wired here (or the
            # adapter compiled garbage): a routing fault, not a crash.
            self._drop(env, "routing_error")
            return
        link = self.links[(u, port)]
        now = self.scheduler.now
        arrival = link.transmit(now)
        if arrival is None:
            self._drop(env, "queue_full")
            return
        bits = self.compiled.header_bits(header)
        self.scheduler.schedule(
            arrival, lambda: self._arrive(link.dst, link.weight, bits, env)
        )

    def _arrive(self, v: int, weight: float, bits: int, env: Envelope) -> None:
        env.record_hop(v, weight, bits)
        if not self.nodes[v].alive:
            self._drop(env, "dead_node")
            return
        self._decide(v, env)

    # -- observer plane --------------------------------------------------

    def _deliver(self, env: Envelope) -> None:
        env.delivered_at = self.scheduler.now
        self.delivered.append(env)

    def _drop(self, env: Envelope, reason: str) -> None:
        self.dropped.append((env, reason))
        self.drop_counts[reason] += 1
        if OBS.enabled:
            self._c_drops[reason].inc()

    def _observe(self) -> None:
        """Feed the deliveries made since the last pass to the
        ``netsim.*`` instruments; a pass that finds observability off
        skips its deliveries for good."""
        fresh = self.delivered[self._observed:]
        self._observed = len(self.delivered)
        if not fresh or not OBS.enabled:
            return
        self._c_delivered.inc(len(fresh))
        self._h_hops.observe_many([env.hops for env in fresh])
        self._h_header_bits.observe_many([env.max_header_bits for env in fresh])
        self._h_stretch.observe_many(
            [100.0 * s for s in self.stretches(fresh)]
        )

    def stretches(self, envelopes: Sequence[Envelope]) -> List[float]:
        """Delivered stretch of each envelope against the metric, in
        order, from one batched distance call (observer-side).

        A self-addressed envelope has stretch 1 if it travelled no
        weight; any other envelope between points at distance zero has
        no stretch and is left out.  Only ``src != dst`` pairs reach
        the metric.
        """
        remote = [env for env in envelopes if env.src != env.dst]
        distances = iter(
            self.compiled.metric.pair_distances(
                [env.src for env in remote], [env.dst for env in remote]
            ).tolist()
            if remote else ()
        )
        out = []
        for env in envelopes:
            if env.src == env.dst:
                if env.weight == 0.0:
                    out.append(1.0)
                continue
            d = next(distances)
            if d > 0.0:
                out.append(env.weight / d)
        return out

    # -- driving ---------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the event queue; returns the number of events run."""
        if max_events is None:
            # Generous default backstop: every message may take its
            # full hop allowance, plus injections and kills.
            pending = self.injected + len(self.scheduler)
            max_events = 16 + (self.hop_limit + 2) * max(1, pending)
        try:
            return self.scheduler.run(until=until, max_events=max_events)
        finally:
            self._observe()

    @property
    def now(self) -> float:
        return self.scheduler.now
