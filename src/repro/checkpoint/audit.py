"""Structural auditor: verify the paper's invariants on loaded state.

Checkpoint *format* integrity (checksums, shape) is the job of
:mod:`repro.checkpoint.format`; this module answers the semantic
question — does the decoded structure still satisfy what the paper
proves about it?  Following the "verify, then trust" discipline of the
spanner/MST verification literature, every load path runs (a subset
of) these audits before the structure is handed to a caller:

* **trees** — single root, acyclic parent array, non-negative weights,
  and the host/representative fixpoint ``rep_point[vertex_of_point[p]]
  == p`` that makes tree distances dominate metric distances;
* **covers** — domination (``δ_T >= δ_X``) and the declared Table-1
  stretch contract ``(α, ζ)`` spot-checked on sampled pairs;
* **navigators** — hop-budget compliance of ``FindPath(u, v, k)`` on
  sampled queries plus a fingerprint match between the rebuilt
  per-tree 1-spanners and the edge sets recorded at save time;
* **FT spanners** — replica-pool size/consistency per Theorem 4.2 and
  sampled within-budget FT queries;
* **routing labels** — label-only distances (:func:`label_distance`)
  must agree with the tree metric on sampled pairs.

Semantic failures raise :class:`~repro.errors.InvariantViolation`;
audits never repair anything — that is the recovery orchestrator's job.
All sampling is deterministic (seeded), so an audit verdict is
reproducible.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import InvariantViolation, check
from ..metrics.base import Metric, sample_pairs
from ..observability import OBS, trace
from ..parallel import map_per_tree
from ..treecover.base import CoverTree, TreeCover

# Passed check batteries (one per AuditReport.record) and failed audits
# (the exception re-raises after counting) — what checkpoint loads and
# recovery sweeps report to dashboards.
_C_AUDIT_PASSED = OBS.registry.counter("audit.checks_passed")
_C_AUDIT_FAILED = OBS.registry.counter("audit.failures")

__all__ = [
    "CoverContract",
    "AuditReport",
    "audit_tree",
    "audit_cover_tree",
    "audit_cover",
    "audit_navigator",
    "audit_ft_spanner",
    "audit_labels",
]


@dataclass
class CoverContract:
    """The declared Table-1 contract a cover is audited against.

    ``gamma`` is the stretch bound α the construction promises
    (measured constants, not the asymptotic worst case — see
    DESIGN.md), ``max_trees`` bounds ζ.  Either may be ``None`` to
    skip that check.  ``pairs`` records how many point pairs ``gamma``
    was measured over (``None`` when it was declared, not measured).
    The contract travels inside checkpoint ``meta`` so an audit years
    later still knows what was promised at build time.
    """

    gamma: Optional[float] = None
    max_trees: Optional[int] = None
    pairs: Optional[int] = None

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "gamma": self.gamma,
            "max_trees": self.max_trees,
            "pairs": self.pairs,
        }

    @classmethod
    def from_jsonable(cls, data: Any) -> Optional["CoverContract"]:
        if not isinstance(data, dict):
            return None
        gamma = data.get("gamma")
        max_trees = data.get("max_trees")
        pairs = data.get("pairs")
        return cls(
            gamma=float(gamma) if gamma is not None else None,
            max_trees=int(max_trees) if max_trees is not None else None,
            pairs=int(pairs) if pairs is not None else None,
        )


@dataclass
class AuditReport:
    """What an audit checked and concluded (it raised if anything failed)."""

    kind: str
    n: int
    num_trees: int
    checks: List[str] = field(default_factory=list)

    def record(self, description: str) -> None:
        if OBS.enabled:
            _C_AUDIT_PASSED.inc()
        self.checks.append(description)

    def format_lines(self) -> str:
        head = f"audit[{self.kind}] n={self.n} trees={self.num_trees}: all passed"
        return "\n".join([head] + [f"  - {c}" for c in self.checks])


def _audited(span_name: str):
    """Wrap an audit entry point in a span that counts failures.

    The audits raise on the first broken invariant; the wrapper counts
    the failure (the span itself records the exception text) and
    re-raises.  Disabled mode short-circuits to the bare function.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not OBS.enabled:
                return fn(*args, **kwargs)
            with trace(span_name):
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    _C_AUDIT_FAILED.inc()
                    raise

        return wrapper

    return decorate


def _audit_pairs(
    n: int, pairs: Optional[Sequence[Tuple[int, int]]], sample: int, seed: int
) -> List[Tuple[int, int]]:
    if pairs is not None:
        return list(pairs)
    return sample_pairs(n, sample, seed=seed)


# ----------------------------------------------------------------------
# Trees and covers

def audit_tree(tree) -> None:
    """Well-formedness: one root, acyclic/connected parents, weights >= 0.

    The :class:`Tree` constructor enforces most of this on build; this
    re-checks a tree that has been living in memory (or was assembled
    with ``validate=False``) without rebuilding it.
    """
    roots = [v for v, p in enumerate(tree.parents) if p == -1]
    check(len(roots) == 1, f"tree has {len(roots)} roots, expected exactly 1")
    n = tree.n
    for v, p in enumerate(tree.parents):
        check(
            -1 <= p < n,
            f"parent {p} of vertex {v} out of range for {n} vertices",
        )
    # preorder() raises on cycles; covering all n vertices = connected.
    check(
        len(tree.preorder()) == n,
        "parent array does not describe a connected tree",
    )
    for v, w in enumerate(tree.weights):
        check(w >= 0, f"negative weight {w} on edge into vertex {v}")


def audit_cover_tree(cover_tree: CoverTree, metric: Metric) -> None:
    """One dominating tree: well-formed plus the host/representative
    fixpoint every stretch argument relies on."""
    audit_tree(cover_tree.tree)
    n = metric.n
    check(
        len(cover_tree.vertex_of_point) == n,
        f"vertex_of_point covers {len(cover_tree.vertex_of_point)} of {n} points",
    )
    for p, v in enumerate(cover_tree.vertex_of_point):
        check(
            0 <= v < cover_tree.tree.n,
            f"point {p} hosted at out-of-range vertex {v}",
        )
        check(
            cover_tree.rep_point[v] == p,
            f"host vertex {v} of point {p} represents "
            f"{cover_tree.rep_point[v]} instead (domination would break)",
        )
    for v, p in enumerate(cover_tree.rep_point):
        check(0 <= p < n, f"vertex {v} represents out-of-range point {p}")


def _audit_cover_tree_task(ctx, index: int) -> bool:
    """Per-tree fan-out unit: structure plus domination of one tree.

    Verdicts are deterministic — the audit raises for the lowest-index
    broken tree whatever the worker count, because results (and
    transported exceptions) merge in input order.
    """
    trees, pairs = ctx.payload
    cover_tree = trees[index]
    audit_cover_tree(cover_tree, ctx.metric)
    cover_tree.check_dominating(ctx.metric, pairs)
    return True


@_audited("audit.cover")
def audit_cover(
    cover: TreeCover,
    contract: Optional[CoverContract] = None,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    sample: int = 200,
    seed: int = 0,
    report: Optional[AuditReport] = None,
    workers: Optional[int] = None,
) -> AuditReport:
    """Audit a tree cover: per-tree structure, domination, contract.

    Raises :class:`~repro.errors.InvariantViolation` on the first
    broken invariant; returns the report of what was checked otherwise.
    The per-tree structure/domination checks are independent and fan
    out across ``workers`` processes.
    """
    if report is None:
        report = AuditReport("cover", cover.metric.n, cover.size)
    audit_pairs = _audit_pairs(cover.metric.n, pairs, sample, seed)
    map_per_tree(
        _audit_cover_tree_task,
        range(cover.size),
        workers=workers,
        metric=cover.metric,
        payload=(cover.trees, audit_pairs),
    )
    report.record(f"{cover.size} trees well-formed (roots, cycles, weights, hosts)")
    report.record(f"domination spot-checked on {len(audit_pairs)} pairs")
    if cover.home is not None:
        check(
            len(cover.home) == cover.metric.n
            and all(0 <= t < cover.size for t in cover.home),
            "home table does not map every point to a tree",
        )
        report.record("Ramsey home table consistent")
    if contract is not None:
        if contract.max_trees is not None:
            check(
                cover.size <= contract.max_trees,
                f"cover has {cover.size} trees, contract allows "
                f"ζ <= {contract.max_trees}",
            )
            report.record(f"ζ = {cover.size} <= {contract.max_trees}")
        if contract.gamma is not None:
            worst, _ = cover.measured_stretch(audit_pairs)
            check(
                worst <= contract.gamma + 1e-6,
                f"measured stretch {worst:.4f} exceeds the declared "
                f"contract α = {contract.gamma}",
            )
            report.record(
                f"stretch {worst:.3f} within contract α = {contract.gamma}"
            )
    return report


# ----------------------------------------------------------------------
# Navigators

@_audited("audit.navigator")
def audit_navigator(
    navigator,
    contract: Optional[CoverContract] = None,
    queries: int = 40,
    seed: int = 0,
    fingerprint: Optional[Dict[str, Any]] = None,
    workers: Optional[int] = None,
) -> AuditReport:
    """Audit a :class:`MetricNavigator`: cover + hop-budget compliance.

    Every sampled ``find_path(u, v)`` must return a path of at most
    ``k`` hops made of spanner edges whose weight respects the cover's
    tree distance (the full :meth:`verify_query` contract).  With a
    saved ``fingerprint``, the rebuilt per-tree 1-spanner edge sets
    must match what was recorded at save time.
    """
    report = AuditReport(
        "navigator", navigator.metric.n, navigator.cover.size
    )
    audit_cover(
        navigator.cover, contract=contract, seed=seed, report=report, workers=workers
    )
    if fingerprint is not None:
        navigator.verify_aux_fingerprint(fingerprint)
        report.record("per-tree 1-spanner edge fingerprints match saved state")
    rng = random.Random(seed)
    n = navigator.metric.n
    gamma = contract.gamma if contract is not None else None
    for _ in range(queries):
        u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
        navigator.verify_query(u, v, gamma=gamma)
    report.record(
        f"{queries} sampled queries within the k={navigator.k} hop budget"
    )
    return report


# ----------------------------------------------------------------------
# FT spanners

@_audited("audit.ft_spanner")
def audit_ft_spanner(
    spanner,
    contract: Optional[CoverContract] = None,
    queries: int = 20,
    seed: int = 0,
    workers: Optional[int] = None,
) -> AuditReport:
    """Audit a :class:`FaultTolerantSpanner` per Theorem 4.2.

    Replica pools must have between 1 and ``f + 1`` distinct in-range
    members with every point present in its own host's pool (the
    undersized-pool fallback relies on it); sampled within-budget
    queries must deliver fault-avoiding <= k-hop paths.
    """
    from ..resilience.validation import validate_ft_spanner

    report = AuditReport("ft_spanner", spanner.metric.n, spanner.cover.size)
    audit_cover(
        spanner.cover, contract=contract, seed=seed, report=report, workers=workers
    )
    validate_ft_spanner(spanner)
    report.record(
        f"replica pools sized/consistent for f={spanner.f} (Theorem 4.2)"
    )
    rng = random.Random(seed)
    n = spanner.metric.n
    for _ in range(queries):
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        others = [p for p in range(n) if p != u and p != v]
        rng.shuffle(others)
        faults = set(others[: min(spanner.f, len(others))])
        path = spanner.find_path(u, v, faults)
        spanner.verify_path(u, v, faults, path)
    report.record(
        f"{queries} sampled |F|<=f queries delivered <= k={spanner.k} hops "
        "avoiding faults"
    )
    return report


# ----------------------------------------------------------------------
# Routing labels

@_audited("audit.labels")
def audit_labels(
    cover: TreeCover,
    labels_per_tree: List[List[tuple]],
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    sample: int = 120,
    seed: int = 0,
) -> AuditReport:
    """Audit a routing label table against its cover.

    ``labels_per_tree[t][p]`` is the heavy-path distance label of point
    ``p``'s host vertex in tree ``t``.  Using *only* the labels (the
    information constraint of the labeled routing model), the distance
    :func:`~repro.routing.labels.label_distance` computes must agree
    with the actual tree metric on sampled pairs.
    """
    from ..routing.labels import label_distance

    report = AuditReport("routing_labels", cover.metric.n, cover.size)
    check(
        len(labels_per_tree) == cover.size,
        f"{len(labels_per_tree)} label tables for {cover.size} trees",
    )
    for t, table in enumerate(labels_per_tree):
        check(
            len(table) == cover.metric.n,
            f"tree {t} label table covers {len(table)} of "
            f"{cover.metric.n} points",
        )
    audit_pairs = _audit_pairs(cover.metric.n, pairs, sample, seed)
    for t, (cover_tree, table) in enumerate(zip(cover.trees, labels_per_tree)):
        for p, q in audit_pairs:
            from_labels = label_distance(table[p], table[q])
            actual = cover_tree.tree_distance(p, q)
            check(
                abs(from_labels - actual) <= 1e-6 * max(1.0, actual),
                f"tree {t}: label distance {from_labels} for ({p}, {q}) "
                f"disagrees with tree distance {actual}",
            )
    report.record(
        f"label-only distances agree with {cover.size} tree metrics on "
        f"{len(audit_pairs)} pairs"
    )
    return report
