"""Save/load entry points for every checkpointable artifact.

One function pair per artifact kind.  Every ``save_*`` writes a
checksummed v2 envelope atomically; every ``load_*`` verifies the
envelope (digest + per-section CRC32), decodes with shape validation,
and — unless ``audit=False`` — runs the structural auditor before
returning, so a successful load *is* a certificate that the structure
still satisfies the paper's invariants.  Failures are always typed:
:class:`~repro.errors.CheckpointCorruption` for format damage,
:class:`~repro.errors.InvariantViolation` for semantic damage.

The artifact kinds mirror the expensive structures of the repo:

========  =====================================================
kind      persisted state
========  =====================================================
cover     the (γ, ζ)-tree cover (Theorems 4.1 / Table 1)
navigator cover + k + per-tree 1-spanner fingerprints (𝒟_T)
ft        cover + f, k + the replica pools R(v) (Theorem 4.2)
labels    cover + per-tree heavy-path distance label tables
========  =====================================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.metric_navigator import MetricNavigator
from ..errors import CheckpointCorruption
from ..metrics.base import Metric
from ..observability import OBS, trace
from ..routing.labels import (
    cover_labelings,
    label_from_jsonable,
    label_to_jsonable,
)
from ..spanners.fault_tolerant import FaultTolerantSpanner
from ..treecover.base import TreeCover
from .audit import (
    AuditReport,
    CoverContract,
    audit_cover,
    audit_ft_spanner,
    audit_labels,
    audit_navigator,
)
from .format import (
    RAW_SECTION,
    cover_from_sections,
    cover_sections,
    load_mapped_arrays,
    load_v1_cover,
    make_envelope,
    open_envelope,
    raw_array_table,
    read_checkpoint_file,
    write_checkpoint_file,
)

__all__ = [
    "save_cover_checkpoint",
    "load_cover_checkpoint",
    "save_navigator_checkpoint",
    "load_navigator_checkpoint",
    "save_ft_checkpoint",
    "load_ft_checkpoint",
    "save_labels_checkpoint",
    "load_labels_checkpoint",
    "audit_checkpoint",
    "cover_labelings",
]

_C_MAPPED_LOADS = OBS.registry.counter("checkpoint.mapped_loads")


def _meta(
    n: int,
    contract: Optional[CoverContract],
    builder: Optional[Dict[str, Any]],
    **extra: Any,
) -> Dict[str, Any]:
    meta: Dict[str, Any] = {"n": n, **extra}
    meta["contract"] = contract.to_jsonable() if contract is not None else None
    meta["builder"] = builder
    return meta


def _contract_from_meta(
    meta: Dict[str, Any], override: Optional[CoverContract]
) -> Optional[CoverContract]:
    if override is not None:
        return override
    return CoverContract.from_jsonable(meta.get("contract"))


def _expect_kind(kind: str, expected: str) -> None:
    if kind != expected:
        raise CheckpointCorruption(
            f"checkpoint holds a {kind!r} artifact, expected {expected!r}"
        )


def _int_field(meta: Dict[str, Any], name: str) -> int:
    value = meta.get(name)
    if not isinstance(value, int) or value < 0:
        raise CheckpointCorruption(f"meta field {name!r} is {value!r}")
    return value


# ----------------------------------------------------------------------
# Covers

def save_cover_checkpoint(
    cover: TreeCover,
    path: str,
    contract: Optional[CoverContract] = None,
    builder: Optional[Dict[str, Any]] = None,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Persist a cover as a v2 envelope; returns the envelope written.

    ``extra_meta`` entries ride in the envelope's meta block alongside
    ``contract``/``builder`` — the dynamic-mutation layer stores its
    ``dynamic`` state descriptor there when compacting a journal.
    """
    envelope = make_envelope(
        "cover",
        _meta(cover.metric.n, contract, builder, **(extra_meta or {})),
        cover_sections(cover),
    )
    write_checkpoint_file(envelope, path)
    return envelope

def load_cover_checkpoint(
    path: str,
    metric: Metric,
    contract: Optional[CoverContract] = None,
    audit: bool = True,
) -> TreeCover:
    """Load + verify + audit a cover checkpoint (v2 or legacy v1)."""
    data = read_checkpoint_file(path)
    v1 = load_v1_cover(data, metric)
    if v1 is not None:
        if audit:
            audit_cover(v1, contract=contract)
        return v1
    kind, meta, bodies = open_envelope(data)
    _expect_kind(kind, "cover")
    cover = cover_from_sections(bodies, metric)
    if audit:
        audit_cover(cover, contract=_contract_from_meta(meta, contract))
    return cover


# ----------------------------------------------------------------------
# Navigators

def save_navigator_checkpoint(
    navigator: MetricNavigator,
    path: str,
    contract: Optional[CoverContract] = None,
    builder: Optional[Dict[str, Any]] = None,
    packed: bool = False,
) -> Dict[str, Any]:
    """Persist a navigator: its cover, k, and the 𝒟_T fingerprints.

    The navigation structures rebuild deterministically from the cover,
    so only their fingerprint is stored; the loader rebuilds and checks
    the rebuild against it.

    With ``packed=True`` the file additionally carries the flat query
    arrays (tree-selection index + per-tree query packs) in a raw
    binary region after the JSON envelope, so loaders can attach with
    ``mmap=True`` — no rebuild, and N processes share one physical copy
    of the query state.  Such files remain loadable by every pre-packed
    reader: the envelope is still the first line of the file and
    non-mapped loads ignore the raw region entirely.
    """
    sections = cover_sections(navigator.cover)
    sections["aux"] = navigator.aux_fingerprint()
    arrays = None
    if packed:
        from ..core.mapped_navigator import navigator_arrays

        arrays = navigator_arrays(navigator)
        sections[RAW_SECTION] = raw_array_table(arrays)
    envelope = make_envelope(
        "navigator",
        _meta(navigator.metric.n, contract, builder, k=navigator.k),
        sections,
    )
    write_checkpoint_file(envelope, path, arrays=arrays)
    return envelope


def load_navigator_checkpoint(
    path: str,
    metric: Metric,
    contract: Optional[CoverContract] = None,
    audit: bool = True,
    mmap: bool = False,
):
    """Load a navigator checkpoint; returns a query-ready navigator.

    Default mode rebuilds a full :class:`MetricNavigator` from the
    stored cover and audits it against the saved fingerprint.  With
    ``mmap=True`` (requires a file written with ``packed=True``) no
    rebuild happens: the raw query arrays are CRC-verified once, then
    memory-mapped read-only, and a
    :class:`~repro.core.mapped_navigator.PackedMetricNavigator` is
    returned — same query answers, a fraction of the load time, and
    one shared physical copy across processes.  Mapped loads skip the
    structural audit (there is no rebuilt object graph to audit; the
    arrays are integrity-checked instead).
    """
    data = read_checkpoint_file(path)
    kind, meta, bodies = open_envelope(data)
    _expect_kind(kind, "navigator")
    k = _int_field(meta, "k")
    if k < 2:
        raise CheckpointCorruption(f"meta field 'k' is {k}, need k >= 2")
    if mmap:
        from ..core.mapped_navigator import PackedMetricNavigator

        table = bodies.get(RAW_SECTION)
        if not isinstance(table, dict):
            raise CheckpointCorruption(
                "checkpoint has no raw-array region (save with "
                "packed=True to serve memory-mapped)",
                section=RAW_SECTION,
            )
        if meta.get("n") != metric.n:
            raise CheckpointCorruption(
                f"checkpoint was built for {meta.get('n')} points, "
                f"metric has {metric.n}"
            )
        with trace("checkpoint.map_arrays", path=path, n=metric.n):
            arrays = load_mapped_arrays(path, table)
            navigator = PackedMetricNavigator(metric, k, arrays)
        if OBS.enabled:
            _C_MAPPED_LOADS.inc()
        return navigator
    cover = cover_from_sections(bodies, metric)
    fingerprint = bodies.get("aux")
    if not isinstance(fingerprint, dict):
        raise CheckpointCorruption("missing navigator aux state", section="aux")
    navigator = MetricNavigator(metric, cover, k)
    if audit:
        audit_navigator(
            navigator,
            contract=_contract_from_meta(meta, contract),
            fingerprint=fingerprint,
        )
    else:
        navigator.verify_aux_fingerprint(fingerprint)
    return navigator


# ----------------------------------------------------------------------
# FT spanners

def save_ft_checkpoint(
    spanner: FaultTolerantSpanner,
    path: str,
    contract: Optional[CoverContract] = None,
    builder: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Persist an f-FT spanner: cover, (f, k), and the R(v) pools."""
    sections = cover_sections(spanner.cover)
    sections["replicas"] = {"pools": spanner.replicas}
    envelope = make_envelope(
        "ft_spanner",
        _meta(spanner.metric.n, contract, builder, f=spanner.f, k=spanner.k),
        sections,
    )
    write_checkpoint_file(envelope, path)
    return envelope


def _decode_replicas(body: Any, num_trees: int) -> List[List[List[int]]]:
    if not isinstance(body, dict):
        raise CheckpointCorruption("replica section is not an object",
                                   section="replicas")
    pools = body.get("pools")
    if not isinstance(pools, list) or len(pools) != num_trees:
        raise CheckpointCorruption(
            f"replica table covers {len(pools) if isinstance(pools, list) else '?'} "
            f"of {num_trees} trees",
            section="replicas",
        )
    for t, per_tree in enumerate(pools):
        if not isinstance(per_tree, list):
            raise CheckpointCorruption(
                f"tree {t} replica table is not a list", section="replicas"
            )
        for v, pool in enumerate(per_tree):
            if not isinstance(pool, list) or not all(
                isinstance(p, int) for p in pool
            ):
                raise CheckpointCorruption(
                    f"tree {t} vertex {v} pool is not a list of ints",
                    section="replicas",
                )
    return pools


def load_ft_checkpoint(
    path: str,
    metric: Metric,
    contract: Optional[CoverContract] = None,
    audit: bool = True,
) -> FaultTolerantSpanner:
    data = read_checkpoint_file(path)
    kind, meta, bodies = open_envelope(data)
    _expect_kind(kind, "ft_spanner")
    f = _int_field(meta, "f")
    k = _int_field(meta, "k")
    cover = cover_from_sections(bodies, metric)
    replicas = _decode_replicas(bodies.get("replicas"), cover.size)
    spanner = FaultTolerantSpanner(
        metric, f=f, k=k, cover=cover, replicas=replicas, validate=False
    )
    if audit:
        audit_ft_spanner(spanner, contract=_contract_from_meta(meta, contract))
    return spanner


# ----------------------------------------------------------------------
# Routing label tables

def _labels_section_name(index: int) -> str:
    return f"labels/{index:04d}"


def save_labels_checkpoint(
    cover: TreeCover,
    path: str,
    labels_per_tree: Optional[List[List[tuple]]] = None,
    contract: Optional[CoverContract] = None,
    builder: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Persist routing label tables together with their cover.

    ``labels_per_tree`` defaults to freshly computed
    :func:`cover_labelings`; one section per tree keeps corruption
    localized exactly like the cover's tree sections.
    """
    if labels_per_tree is None:
        labels_per_tree = cover_labelings(cover)
    sections = cover_sections(cover)
    for index, table in enumerate(labels_per_tree):
        sections[_labels_section_name(index)] = {
            "labels": [label_to_jsonable(label) for label in table]
        }
    envelope = make_envelope(
        "routing_labels",
        _meta(cover.metric.n, contract, builder),
        sections,
    )
    write_checkpoint_file(envelope, path)
    return envelope


def load_labels_checkpoint(
    path: str,
    metric: Metric,
    contract: Optional[CoverContract] = None,
    audit: bool = True,
) -> Tuple[TreeCover, List[List[tuple]]]:
    """Load + verify + audit routing labels; returns (cover, tables)."""
    data = read_checkpoint_file(path)
    kind, meta, bodies = open_envelope(data)
    _expect_kind(kind, "routing_labels")
    cover = cover_from_sections(bodies, metric)
    tables: List[List[tuple]] = []
    for index in range(cover.size):
        name = _labels_section_name(index)
        body = bodies.get(name)
        if not isinstance(body, dict) or not isinstance(body.get("labels"), list):
            raise CheckpointCorruption("label table missing", section=name)
        raw = body["labels"]
        if len(raw) != metric.n:
            raise CheckpointCorruption(
                f"{len(raw)} labels for {metric.n} points", section=name
            )
        try:
            tables.append([label_from_jsonable(item) for item in raw])
        except ValueError as exc:
            raise CheckpointCorruption(str(exc), section=name) from exc
    if audit:
        audit_cover(cover, contract=_contract_from_meta(meta, contract))
        audit_labels(cover, tables)
    return cover, tables


# ----------------------------------------------------------------------
# On-demand audit (the ``python -m repro audit`` entry point)

def audit_checkpoint(
    path: str,
    metric: Metric,
    contract: Optional[CoverContract] = None,
    workers: Optional[int] = None,
) -> AuditReport:
    """Verify + audit whatever artifact the file holds; returns the report.

    Dispatches on the envelope's ``kind`` (legacy v1 files audit as
    covers).  Raises the same typed errors as the ``load_*`` functions.
    ``workers`` fans the per-tree audit work out across processes.
    """
    data = read_checkpoint_file(path)
    v1 = load_v1_cover(data, metric)
    if v1 is not None:
        return audit_cover(v1, contract=contract, workers=workers)
    kind, meta, _ = open_envelope(data)
    if kind == "cover":
        return audit_cover(
            load_cover_checkpoint(path, metric, contract=contract, audit=False),
            contract=_contract_from_meta(meta, contract),
            workers=workers,
        )
    if kind == "navigator":
        navigator = load_navigator_checkpoint(
            path, metric, contract=contract, audit=False
        )
        _, _, bodies = open_envelope(data)
        return audit_navigator(
            navigator,
            contract=_contract_from_meta(meta, contract),
            fingerprint=bodies.get("aux"),
            workers=workers,
        )
    if kind == "ft_spanner":
        spanner = load_ft_checkpoint(path, metric, contract=contract, audit=False)
        return audit_ft_spanner(
            spanner, contract=_contract_from_meta(meta, contract), workers=workers
        )
    cover, tables = load_labels_checkpoint(
        path, metric, contract=contract, audit=False
    )
    report = audit_cover(
        cover, contract=_contract_from_meta(meta, contract), workers=workers
    )
    labels_report = audit_labels(cover, tables)
    report.kind = "routing_labels"
    report.checks.extend(labels_report.checks)
    return report
