"""Structured exception hierarchy for the whole library.

Historically the code base signalled broken guarantees through bare
``assert`` statements (silently stripped under ``python -O``) and
ad-hoc ``ValueError`` / ``AssertionError`` raises.  Every correctness
check now raises one of the typed exceptions below, so guarantees
survive optimized interpreters and callers can react to *which*
contract failed (the resilience subsystem relies on this to degrade
gracefully instead of crashing).

Design notes
------------
* :class:`FaultBudgetExceeded` and :class:`MetricValidationError` also
  subclass :class:`ValueError`, and :class:`InvariantViolation` also
  subclasses :class:`AssertionError`, so code (and tests) written
  against the historical exception types keeps working.
* None of the raises below live behind ``assert``; ``python -O`` does
  not change the library's behaviour (enforced by
  ``tests/test_no_bare_asserts.py`` and the ``scripts/smoke_optimized.sh``
  smoke job).
"""

from __future__ import annotations

from typing import Iterable, Optional, Type

__all__ = [
    "ReproError",
    "MetricValidationError",
    "FaultBudgetExceeded",
    "InvariantViolation",
    "CheckpointCorruption",
    "StalePackError",
    "RoutingError",
    "check",
]


class ReproError(Exception):
    """Base class of every exception the library raises on purpose."""


class MetricValidationError(ReproError, ValueError):
    """A metric input is malformed: NaN/inf, negative, asymmetric
    distances, nonzero self-distance, or a triangle violation."""


class FaultBudgetExceeded(ReproError, ValueError):
    """A query supplied more faults than the structure was built for.

    Strict APIs (:meth:`FaultTolerantSpanner.find_path`,
    :meth:`FaultTolerantRoutingScheme.route`) raise this when
    ``|F| > f``; the graceful alternatives in
    :mod:`repro.resilience.degradation` return a
    :class:`~repro.resilience.degradation.DegradedResult` instead.
    """

    def __init__(self, f: int, faults: Optional[Iterable[int]] = None, message: str = ""):
        self.f = f
        self.faults = frozenset(faults) if faults is not None else frozenset()
        if not message:
            message = (
                f"{len(self.faults)} faults supplied but the structure "
                f"only supports f={f}"
            )
        super().__init__(message)


class CheckpointCorruption(ReproError, ValueError):
    """A persisted artifact failed an integrity check on load.

    Raised by :mod:`repro.checkpoint` for every *format-level* problem:
    unparseable JSON, an unknown format tag, a per-section CRC32
    mismatch, a whole-file digest mismatch, or a payload whose shape
    does not decode into the declared structure.  Semantic problems in
    a structurally sound payload (a tree that no longer dominates its
    metric, a blown stretch contract) raise
    :class:`InvariantViolation` from the auditor instead.  The recovery
    orchestrator (:mod:`repro.checkpoint.recovery`) catches both and
    repairs or rebuilds; callers that load directly should treat either
    as "do not trust this file".

    ``section`` names the first offending checkpoint section when the
    damage is localized (enables per-tree repair), or is ``None`` when
    the whole envelope is unusable.
    """

    def __init__(self, message: str, section: Optional[str] = None):
        self.section = section
        if section is not None:
            message = f"section {section!r}: {message}"
        super().__init__(message)


class StalePackError(ReproError, RuntimeError):
    """A packed query arena was requested from a superseded cover.

    The dynamic mutation layer (:mod:`repro.dynamic`) retires the
    pre-mutation :class:`~repro.treecover.base.TreeCover` when it swaps
    in a new generation: preorder positions, Euler tours, and home
    tables baked into a :class:`PackedCoverIndex` describe the *old*
    tree shapes, so silently building a fresh arena from the retired
    cover would serve stale answers.  Arenas built *before* the
    retirement keep working (in-flight batches answer against the
    snapshot they started with); only constructing a *new* arena is
    refused.  ``hint`` tells the caller where the current generation
    lives.
    """

    def __init__(self, message: str, hint: str = ""):
        self.hint = hint or (
            "rebuild via TreeCover.packed_index() on the current "
            "generation's cover (CheckpointService.snapshot() returns it)"
        )
        super().__init__(f"{message} [{self.hint}]")


class RoutingError(ReproError, RuntimeError, ValueError):
    """A packet could not be moved along the fixed-port overlay.

    Raised by :class:`repro.routing.ports.Network` and the
    :mod:`repro.netsim` simulator when a port lookup names a link that
    was never wired, when a hop targets a node the fault plane has
    killed, or when a packet exhausts its hop budget.  Subclasses both
    :class:`RuntimeError` and :class:`ValueError` because the historical
    code paths raised one or the other (bare ``KeyError`` for unwired
    ports, ``RuntimeError`` for hop exhaustion); callers written against
    either keep working, new callers should catch :class:`RoutingError`.

    ``node`` and ``port`` locate the failing hop when known, so the
    simulator's drop accounting can attribute the loss.
    """

    def __init__(self, message: str, node: Optional[int] = None,
                 port: Optional[int] = None):
        self.node = node
        self.port = port
        super().__init__(message)


class InvariantViolation(ReproError, AssertionError):
    """A structural guarantee the paper proves did not hold at runtime.

    Raised by the ``verify_*`` helpers, the chaos harness, and internal
    sanity checks (e.g. a replica pool with no live member under
    ``|F| <= f``, which Theorem 4.2 rules out).
    """


def check(condition: bool, message: str, exc: Type[ReproError] = InvariantViolation) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds.

    The ``assert``-statement replacement used throughout ``src/`` —
    unlike ``assert`` it survives ``python -O``.
    """
    if not condition:
        raise exc(message)
