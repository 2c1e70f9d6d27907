"""Recovery orchestrator: repair what failed the audit, label the rest.

Loading a damaged checkpoint through :mod:`repro.checkpoint.store`
raises; production deployments (ROADMAP north star) want the
alternative this module provides — *recover automatically and say
exactly what happened*:

1. **Per-tree repair.**  Checkpoints store one section per cover tree,
   so CRC failures, shape failures and per-tree audit failures are
   localized to tree indexes.  Only those trees are dropped and rebuilt
   (from a deterministic reference build of the same metric); the
   surviving ζ − 1 sections are trusted as-is after their audit, and
   derived LCA/level-ancestor state is recomputed for swapped trees.
2. **Full rebuild.**  If the envelope is unreadable, the header section
   is lost, the tree count changed, or the repaired cover still fails
   its contract audit, the cover is rebuilt from the metric outright.
3. **Degraded service.**  :class:`CheckpointService` integrates with
   :mod:`repro.resilience.degradation`: it starts answering queries
   from the surviving trees immediately — every answer labelled as a
   :class:`~repro.resilience.degradation.DegradedResult` with
   ``degraded=True`` while recovery is pending — and promotes itself to
   full-guarantee service once :meth:`CheckpointService.recover`
   finishes and the audit passes.

Every outcome is recorded in a :class:`RecoveryReport`; nothing is
repaired silently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.metric_navigator import MetricNavigator
from ..errors import CheckpointCorruption, ReproError
from ..metrics.base import Metric, sample_pairs
from ..observability import OBS, trace
from ..parallel import map_per_tree
from ..resilience.degradation import DegradedResult
from ..treecover.base import CoverTree, TreeCover
from .audit import CoverContract, audit_cover, audit_cover_tree
from .format import (
    cover_from_sections,
    load_v1_cover,
    peek_envelope,
    read_checkpoint_file,
    tree_section_name,
)
from .store import save_cover_checkpoint

__all__ = [
    "CoverBuilder",
    "TreeRepair",
    "RecoveryReport",
    "builder_from_meta",
    "recover_cover",
    "CheckpointService",
]

#: A cover builder: metric in, freshly constructed cover out.
CoverBuilder = Callable[[Metric], TreeCover]

# One counter per RecoveryReport outcome plus per-tree kept/rebuilt
# totals — the checkpoint-audit-outcome telemetry of the north star.
_C_OUTCOMES = {
    "clean": OBS.registry.counter("recovery.outcome.clean"),
    "per-tree-repair": OBS.registry.counter("recovery.outcome.per_tree_repair"),
    "full-rebuild": OBS.registry.counter("recovery.outcome.full_rebuild"),
}
_C_KEPT = OBS.registry.counter("recovery.trees_kept")
_C_REBUILT = OBS.registry.counter("recovery.trees_rebuilt")
_C_SVC_QUERIES = OBS.registry.counter("recovery.service.queries")
_C_SVC_DEGRADED = OBS.registry.counter("recovery.service.degraded")
_C_SVC_UNDELIVERED = OBS.registry.counter("recovery.service.undelivered")


def _record_report(report: "RecoveryReport") -> "RecoveryReport":
    if OBS.enabled:
        counter = _C_OUTCOMES.get(report.outcome)
        if counter is not None:
            counter.inc()
        for repair in report.repairs:
            (_C_KEPT if repair.action == "kept" else _C_REBUILT).inc()
    return report


@dataclass
class TreeRepair:
    """What happened to one cover tree during recovery."""

    index: int
    action: str  # "kept" | "rebuilt"
    reason: str = ""


@dataclass
class RecoveryReport:
    """The labelled outcome of one recovery attempt.

    ``outcome`` is ``"clean"`` (checkpoint loaded and audited, nothing
    to repair), ``"per-tree-repair"`` (only the named trees were
    rebuilt) or ``"full-rebuild"`` (the checkpoint was unusable and the
    cover was rebuilt from the metric).
    """

    outcome: str
    cover: TreeCover
    repairs: List[TreeRepair] = field(default_factory=list)
    reason: str = ""

    @property
    def rebuilt_indexes(self) -> List[int]:
        return [r.index for r in self.repairs if r.action == "rebuilt"]

    def format_summary(self) -> str:
        if self.outcome == "clean":
            return f"recovery: clean load, {self.cover.size} trees audited"
        if self.outcome == "per-tree-repair":
            rebuilt = self.rebuilt_indexes
            return (
                f"recovery: per-tree repair rebuilt {len(rebuilt)} of "
                f"{self.cover.size} trees ({rebuilt}); "
                f"{self.cover.size - len(rebuilt)} kept from checkpoint"
            )
        return f"recovery: full rebuild ({self.reason})"


def builder_from_meta(meta: Dict[str, Any]) -> Optional[CoverBuilder]:
    """Reconstruct the cover builder recorded in checkpoint ``meta``.

    Checkpoints written through the CLI carry ``builder`` metadata like
    ``{"family": "robust", "eps": 0.45}``; this turns it back into a
    callable so recovery can rebuild without the caller re-supplying
    construction parameters.  Unknown or missing metadata returns
    ``None`` (the caller must then pass an explicit builder).
    """
    spec = meta.get("builder")
    if not isinstance(spec, dict):
        return None
    family = spec.get("family")
    inner: Optional[CoverBuilder] = None
    if family == "robust":
        eps = float(spec.get("eps", 0.45))
        from ..treecover.dumbbell import robust_tree_cover

        inner = lambda metric: robust_tree_cover(metric, eps=eps)
    elif family == "compact":
        eps = float(spec.get("eps", 0.5))
        shifts = int(spec.get("shifts", 4))
        from ..treecover.compact import compact_tree_cover

        inner = lambda metric: compact_tree_cover(metric, eps=eps, shifts=shifts)
    elif family == "ramsey":
        ell = int(spec.get("ell", 2))
        seed = int(spec.get("seed", 0))
        from ..treecover.ramsey import ramsey_tree_cover

        inner = lambda metric: ramsey_tree_cover(metric, ell=ell, seed=seed)
    elif family == "planar":
        from ..treecover.planar import planar_tree_cover

        inner = lambda metric: planar_tree_cover(metric)
    if inner is None:
        return None
    pruned = spec.get("pruned")
    if isinstance(pruned, dict):
        # Replay the prune exactly as the CLI ran it: the greedy pass is
        # deterministic for fixed (eps, seed, max_pairs), so the rebuilt
        # cover's tree indexes line up with the checkpoint's — which is
        # what lets per-tree repair pull tree i out of a pruned rebuild.
        p_eps = float(pruned.get("eps", 0.05))
        p_seed = int(pruned.get("seed", 0))
        p_max = int(pruned.get("max_pairs", 0)) or None
        from ..treecover.prune import DEFAULT_MAX_PAIRS, prune_cover

        base_builder = inner

        def _pruned_builder(metric):
            report = prune_cover(
                base_builder(metric),
                eps=p_eps,
                seed=p_seed,
                max_pairs=p_max or DEFAULT_MAX_PAIRS,
            )
            return report.cover

        return _pruned_builder
    return inner


def _dynamic_metric(base: Metric, dyn_meta: Dict[str, Any]) -> Metric:
    """The full (append-only) metric a compacted dynamic checkpoint uses.

    ``dyn_meta`` is the ``dynamic`` meta block a ``compact`` wrote: the
    base point set plus any points appended since, with the active set
    listed separately (tombstones stay in the index space).
    """
    import numpy as np

    from ..metrics.euclidean import EuclideanMetric

    points = getattr(base, "points", None)
    if points is None:
        raise ValueError(
            "dynamic checkpoints require a coordinate-backed (Euclidean) "
            f"base metric, got {type(base).__name__}"
        )
    extra = dyn_meta.get("extra_points") or []
    coords = points
    if extra:
        coords = np.vstack([points, np.asarray(extra, dtype=float)])
    return EuclideanMetric(coords)


def _op_from_record(record) -> Tuple[str, Any]:
    """Decode one journal record into a ``DynamicRobustCover.apply`` op."""
    if record.op == "insert":
        return ("insert", record["point"])
    if record.op == "delete":
        return ("delete", int(record["point_id"]))
    raise CheckpointCorruption(f"journal holds unknown op {record.op!r}")


def _salvage_sections(
    path: str, metric: Metric
) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """Read a v2 envelope leniently: (meta, good bodies, bad sections)."""
    data = read_checkpoint_file(path)
    v1 = load_v1_cover(data, metric)  # raises CheckpointCorruption if torn
    if v1 is not None:
        # Legacy files have no sections to salvage individually; wrap
        # the decoded cover as pseudo-sections so repair can still run
        # per tree on audit failures.
        bodies: Dict[str, Any] = {
            "cover": {"n": metric.n, "num_trees": v1.size, "home": v1.home}
        }
        for index, cover_tree in enumerate(v1.trees):
            bodies[tree_section_name(index)] = cover_tree
        return {}, bodies, []
    _, meta, good, bad = peek_envelope(data)
    return meta, good, bad


def _audit_one_tree(
    cover_tree: CoverTree, metric: Metric, pairs
) -> Optional[str]:
    """Audit a single tree; returns the failure reason or ``None``."""
    try:
        audit_cover_tree(cover_tree, metric)
        cover_tree.check_dominating(metric, pairs)
    except ReproError as exc:
        return str(exc)
    return None


def _classify_tree_task(ctx, task) -> Tuple[Optional[CoverTree], str]:
    """Per-tree fan-out unit: decode + audit one checkpoint section.

    ``task`` is ``(body, reason)`` where a ``None`` body carries a
    precomputed envelope-level failure reason (CRC mismatch, missing
    section).  Returns ``(cover_tree, "")`` when the tree survives, or
    ``(None, reason)`` when it must be rebuilt.
    """
    body, reason = task
    if body is None:
        return None, reason
    metric = ctx.metric
    pairs = ctx.payload
    if isinstance(body, CoverTree):  # salvaged v1 payload
        cover_tree = body
    else:
        try:
            cover_tree = cover_from_sections(
                {"cover": {"n": metric.n, "num_trees": 1, "home": None},
                 tree_section_name(0): body},
                metric,
            ).trees[0]
        except CheckpointCorruption as exc:
            return None, f"shape: {exc}"
    audit_failure = _audit_one_tree(cover_tree, metric, pairs)
    if audit_failure is not None:
        return None, f"audit: {audit_failure}"
    return cover_tree, ""


def _classify_trees(
    bodies: Dict[str, Any],
    bad_sections,
    num_trees: int,
    metric: Metric,
    pairs,
    workers: Optional[int],
) -> List[Tuple[Optional[CoverTree], str]]:
    """Classify every tree section with :func:`_classify_tree_task`.

    Envelope-level failures are resolved here (cheap, needs the bad
    section table); decode + audit fan out per tree.
    """
    tasks: List[Tuple[Any, str]] = []
    for index in range(num_trees):
        name = tree_section_name(index)
        if name in bad_sections:
            tasks.append((None, "CRC32 mismatch"))
        elif name not in bodies:
            tasks.append((None, "section missing"))
        else:
            tasks.append((bodies[name], ""))
    return map_per_tree(
        _classify_tree_task, tasks, workers=workers, metric=metric, payload=pairs
    )


def recover_cover(
    path: str,
    metric: Metric,
    builder: Optional[CoverBuilder] = None,
    contract: Optional[CoverContract] = None,
    sample: int = 200,
    seed: int = 0,
    resave: bool = False,
    workers: Optional[int] = None,
) -> RecoveryReport:
    """Load a cover checkpoint, repairing or rebuilding as needed.

    Never raises for a damaged file: every failure mode downgrades to
    per-tree repair, then to a full rebuild via ``builder`` (explicit,
    or reconstructed from the checkpoint's ``builder`` metadata).  A
    :class:`ValueError` is raised only when a rebuild is needed and no
    builder is available.  With ``resave=True`` a repaired/rebuilt
    cover is written back to ``path`` (atomically) so the next start is
    clean.  ``workers`` fans the per-tree decode + audit classification
    out across processes; the verdicts are identical in every mode.
    """
    with trace("recovery.recover_cover", path=path, n=metric.n):
        return _record_report(
            _recover_cover(
                path, metric, builder, contract, sample, seed, resave, workers
            )
        )


def _recover_cover(
    path: str,
    metric: Metric,
    builder: Optional[CoverBuilder],
    contract: Optional[CoverContract],
    sample: int,
    seed: int,
    resave: bool,
    workers: Optional[int],
) -> RecoveryReport:
    pairs = sample_pairs(metric.n, sample, seed=seed)

    def full_rebuild(reason: str, meta: Dict[str, Any]) -> RecoveryReport:
        rebuilder = builder if builder is not None else builder_from_meta(meta)
        if rebuilder is None:
            raise ValueError(
                f"checkpoint {path!r} needs a full rebuild ({reason}) "
                "but no cover builder is available"
            )
        cover = rebuilder(metric)
        audit_cover(cover, contract=contract, pairs=pairs, workers=workers)
        report = RecoveryReport("full-rebuild", cover, reason=reason)
        if resave:
            save_cover_checkpoint(
                report.cover, path, contract=contract,
                builder=meta.get("builder"),
            )
        return report

    try:
        meta, bodies, bad_sections = _salvage_sections(path, metric)
    except CheckpointCorruption as exc:
        return full_rebuild(f"unreadable checkpoint: {exc}", {})

    if contract is None:
        # Hold the repaired cover to whatever the checkpoint declared.
        contract = CoverContract.from_jsonable(meta.get("contract"))

    header = bodies.get("cover")
    num_trees = header.get("num_trees") if isinstance(header, dict) else None
    if "cover" in bad_sections or not isinstance(num_trees, int) or num_trees <= 0:
        return full_rebuild("cover header section lost", meta)

    # Classify every tree: decodable + individually audited, or corrupt.
    classified = _classify_trees(
        bodies, bad_sections, num_trees, metric, pairs, workers
    )
    repairs: List[TreeRepair] = []
    trees: List[Optional[CoverTree]] = []
    for index, (cover_tree, reason) in enumerate(classified):
        trees.append(cover_tree)
        repairs.append(
            TreeRepair(index, "kept" if cover_tree is not None else "rebuilt",
                       reason)
        )

    corrupted = [r.index for r in repairs if r.action == "rebuilt"]
    home = header.get("home") if isinstance(header, dict) else None
    if (
        home is not None
        and not (
            isinstance(home, list)
            and len(home) == metric.n
            and all(isinstance(t, int) and 0 <= t < num_trees for t in home)
        )
    ):
        return full_rebuild("home table corrupted", meta)

    if corrupted:
        if len(corrupted) == num_trees:
            return full_rebuild("every tree section corrupted", meta)
        rebuilder = builder if builder is not None else builder_from_meta(meta)
        if rebuilder is None:
            raise ValueError(
                f"checkpoint {path!r} has corrupted trees {corrupted} "
                "but no cover builder is available for per-tree repair"
            )
        reference = rebuilder(metric)
        if reference.size != num_trees:
            return full_rebuild(
                f"reference build has {reference.size} trees, checkpoint "
                f"had {num_trees}",
                meta,
            )
        for index in corrupted:
            trees[index] = reference.trees[index]

    cover = TreeCover(metric, list(trees), home=home)
    for index in corrupted:
        cover.replace_tree(index, cover.trees[index])  # reset derived state
    try:
        audit_cover(cover, contract=contract, pairs=pairs, workers=workers)
    except ReproError as exc:
        return full_rebuild(f"repaired cover still fails audit: {exc}", meta)

    outcome = "per-tree-repair" if corrupted else "clean"
    report = RecoveryReport(outcome, cover, repairs=repairs)
    if resave and corrupted:
        save_cover_checkpoint(
            cover, path, contract=contract, builder=meta.get("builder")
        )
    return report


# ----------------------------------------------------------------------
# Degraded service during recovery

class CheckpointService:
    """Serve navigation queries through (and past) checkpoint recovery.

    The operational wrapper the resilience subsystem plugs into: point
    it at a cover checkpoint and it *always* comes up —

    * an intact checkpoint yields full-guarantee service immediately;
    * a damaged one yields **degraded** service from the surviving
      trees (every query labelled via
      :class:`~repro.resilience.degradation.DegradedResult`, Ramsey
      home-tree guarantees suspended) until :meth:`recover` swaps the
      rebuilt trees in and the audit passes.
    """

    def __init__(
        self,
        metric: Metric,
        k: int,
        builder: Optional[CoverBuilder] = None,
        contract: Optional[CoverContract] = None,
        workers: Optional[int] = None,
    ):
        self.metric = metric
        self.k = k
        self.builder = builder
        self.contract = contract
        self.workers = workers
        # The metric the service was constructed with.  In dynamic mode
        # `self.metric` tracks the mutable (append-only) index space;
        # compacted checkpoints record their state relative to this base.
        self._base_metric = metric
        self._path: Optional[str] = None
        self._navigator: Optional[MetricNavigator] = None
        self._pending: List[int] = []
        self._salvaged: List[Optional[CoverTree]] = []
        self._home: Optional[List[int]] = None
        self._meta: Dict[str, Any] = {}
        self.report: Optional[RecoveryReport] = None
        # Concurrency: `_state_lock` guards every read/swap of the
        # (navigator, pending, recovering, generation) tuple so queries
        # see one consistent service level; `_mutate_lock` serializes
        # the heavyweight transitions (load / recover / kill_trees),
        # which do their rebuild work *outside* `_state_lock` so live
        # queries keep flowing off the previous navigator meanwhile.
        self._state_lock = threading.Lock()
        self._mutate_lock = threading.Lock()
        self._recovering = False
        self._mapped = False
        self.generation = 0
        # Dynamic mutation state (ROADMAP item 3): installed by
        # enable_dynamic(), mutated only under `_mutate_lock`.
        self._dynamic = None  # Optional[DynamicRobustCover]
        self._journal = None  # Optional[UpdateJournal]

    # -- state -----------------------------------------------------------

    @property
    def recovery_pending(self) -> bool:
        """True while queries are served without the full contract."""
        with self._state_lock:
            return bool(self._pending) or self._navigator is None

    @property
    def navigator(self) -> Optional[MetricNavigator]:
        return self._navigator

    @property
    def state(self) -> str:
        """One word for the current service level.

        ``ready`` (full contract), ``degraded`` (serving from surviving
        trees), ``recovering`` (degraded with a recovery in flight) or
        ``down`` (nothing salvageable yet).
        """
        with self._state_lock:
            if self._recovering:
                return "recovering"
            if self._navigator is None:
                return "down"
            if self._pending:
                return "degraded"
            return "ready"

    def _status_locked(self) -> Dict[str, Any]:
        if self._recovering:
            state = "recovering"
        elif self._navigator is None:
            state = "down"
        elif self._pending:
            state = "degraded"
        else:
            state = "ready"
        status = {
            "state": state,
            "generation": self.generation,
            "trees_total": len(self._salvaged),
            "trees_pending": len(self._pending),
            "trees_serving": (
                self._navigator.num_trees
                if self._navigator is not None else 0
            ),
            "mapped": self._mapped,
            "dynamic": self._dynamic is not None,
        }
        if self._dynamic is not None:
            status["active_points"] = len(self._dynamic.active)
            status["applied_seq"] = self._dynamic.applied_seq
            status["journal_records"] = (
                len(self._journal) if self._journal is not None else 0
            )
        return status

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the service level (for envelopes)."""
        with self._state_lock:
            return self._status_locked()

    def snapshot(self) -> Tuple[Optional[MetricNavigator], Dict[str, Any]]:
        """The serving navigator plus the status that describes *it*.

        Both come from one critical section, so a batch executed on the
        returned navigator can be labelled with exactly the service
        level it was answered at, even if a swap lands mid-batch.
        """
        with self._state_lock:
            return self._navigator, self._status_locked()

    def alive_tree_indexes(self) -> List[int]:
        """Checkpoint tree indexes currently serving (not dead/pending)."""
        with self._state_lock:
            return [
                index for index, tree in enumerate(self._salvaged)
                if tree is not None
            ]

    def _swap(
        self,
        navigator: Optional[MetricNavigator],
        pending: List[int],
        salvaged: Optional[List[Optional[CoverTree]]] = None,
        recovered: bool = False,
    ) -> None:
        """Atomically install a new service level (bumps generation).

        ``recovered`` ends a recovery in the same critical section, so
        no snapshot pairs the recovered navigator with the
        ``recovering`` state.
        """
        with self._state_lock:
            self._navigator = navigator
            self._pending = pending
            if salvaged is not None:
                self._salvaged = salvaged
            if recovered:
                self._recovering = False
            self.generation += 1

    # -- loading ---------------------------------------------------------

    def load(self, path: str, mmap: bool = False) -> "CheckpointService":
        """Bring the service up from a checkpoint, degraded if damaged.

        Unlike :func:`recover_cover`, this does *not* rebuild anything
        yet: corrupted trees are noted as pending, surviving trees
        start serving immediately.  Call :meth:`recover` (e.g. from a
        background worker) to finish.

        With ``mmap=True`` the checkpoint must be a ``navigator`` file
        written with ``packed=True``: the service attaches to the raw
        query arrays by ``np.memmap`` instead of rebuilding — cold
        start in milliseconds, one shared physical copy across every
        worker process on the host.  Mapped service is read-only:
        :meth:`kill_trees`, :meth:`recover` and the ``route`` op are
        unavailable (typed errors), and damage is fail-fast (a CRC
        mismatch raises instead of degrading — there is no per-tree
        salvage for a shared mapping).
        """
        with self._mutate_lock:
            if mmap:
                return self._load_mapped(path)
            return self._load(path)

    def _load_mapped(self, path: str) -> "CheckpointService":
        from .store import load_navigator_checkpoint

        self._path = path
        navigator = load_navigator_checkpoint(
            path, self.metric, contract=self.contract, mmap=True
        )
        self.k = navigator.k
        self._mapped = True
        self._meta = {}
        self.report = None
        self._home = None
        # Placeholder per-tree entries: the python CoverTree objects
        # stay on disk in mapped mode, but tree counts in status() and
        # alive_tree_indexes() must still be honest.
        self._swap(navigator, [], salvaged=[True] * navigator.num_trees)
        return self

    def _load(self, path: str) -> "CheckpointService":
        self._path = path
        if self._journal is not None:
            self._journal.close()
        self._dynamic = None
        self._journal = None
        self.metric = self._base_metric
        try:
            meta, bodies, bad_sections = _salvage_sections(path, self.metric)
        except CheckpointCorruption as exc:
            # Nothing salvageable: no service until recover() rebuilds.
            self._meta = {}
            self.report = None
            self._unusable_reason = str(exc)
            self._swap(None, [-1], salvaged=[])
            return self
        self._meta = meta
        dyn_meta = meta.get("dynamic")
        dyn_meta = dyn_meta if isinstance(dyn_meta, dict) else None
        if dyn_meta is not None:
            # Compacted dynamic checkpoint: its index space may exceed
            # the base metric (appended points, tombstones).  Decode and
            # audit against the full dynamic metric, sampling *active*
            # pairs only — tombstoned leaves dominate trivially but
            # carry no stretch promise.
            self.metric = _dynamic_metric(self._base_metric, dyn_meta)
            live = [int(a) for a in dyn_meta.get("active", [])]
            pairs = [
                (live[a], live[b])
                for a, b in sample_pairs(len(live), 120, seed=0)
            ]
        else:
            pairs = sample_pairs(self.metric.n, 120, seed=0)
        header = bodies.get("cover")
        num_trees = header.get("num_trees") if isinstance(header, dict) else None
        if "cover" in bad_sections or not isinstance(num_trees, int) or num_trees <= 0:
            self._unusable_reason = "cover header section lost"
            self._swap(None, [-1], salvaged=[])
            return self
        self._home = header.get("home") if isinstance(header, dict) else None
        # A tree that fails decode or audit is pending rebuild
        # (degraded service until recover()).
        salvaged: List[Optional[CoverTree]] = [
            cover_tree
            for cover_tree, _ in _classify_trees(
                bodies, bad_sections, num_trees, self.metric, pairs,
                self.workers,
            )
        ]
        pending = [index for index, t in enumerate(salvaged) if t is None]
        if not pending:
            cover = TreeCover(self.metric, list(salvaged), home=self._home)
            audit_cover(
                cover,
                contract=self.contract if dyn_meta is None else None,
                pairs=pairs,
                workers=self.workers,
            )
            navigator = MetricNavigator(
                self.metric, cover, self.k, workers=self.workers
            )
            self.report = _record_report(RecoveryReport(
                "clean", cover,
                repairs=[TreeRepair(i, "kept") for i in range(num_trees)],
            ))
        else:
            survivors = [t for t in salvaged if t is not None]
            if survivors:
                # Partial cover: home table suspended (it indexes the
                # full tree list), stretch contract not promised.
                partial = TreeCover(self.metric, survivors, home=None)
                navigator = MetricNavigator(
                    self.metric, partial, self.k, workers=self.workers
                )
            else:
                navigator = None
        self._swap(navigator, pending, salvaged=salvaged)
        return self

    # -- queries ---------------------------------------------------------

    def query(self, u: int, v: int) -> DegradedResult:
        """Answer a navigation query at the current service level.

        Full service returns ``degraded=False`` results satisfying the
        k-hop/stretch contract; during recovery, results are labelled
        ``degraded=True`` with the reason, and when nothing was
        salvageable the result is undelivered rather than an exception.
        """
        obs = OBS.enabled
        if obs:
            _C_SVC_QUERIES.inc()
        # One consistent snapshot of the service level: the navigator
        # the answer comes from and the degraded flag must describe the
        # same generation even while kill_trees()/recover() swap state
        # from other threads.  Queries then run lock-free on the
        # snapshot (navigators are immutable once built).
        with self._state_lock:
            navigator = self._navigator
            num_pending = len(self._pending)
            pending = bool(num_pending) or navigator is None
        if navigator is None:
            if obs:
                _C_SVC_UNDELIVERED.inc()
            return DegradedResult(
                u, v, None, delivered=False, degraded=True, over_budget=False,
                reason=(
                    "checkpoint unusable, recovery not yet run: "
                    + getattr(self, "_unusable_reason", "no salvageable trees")
                ),
            )
        path = navigator.find_path(u, v)
        weight = navigator.path_weight(path)
        base = self.metric.distance(u, v)
        stretch = weight / base if base > 0 else 1.0
        if obs and pending:
            _C_SVC_DEGRADED.inc()
        return DegradedResult(
            u, v, path, delivered=True, degraded=pending, over_budget=False,
            hops=len(path) - 1, weight=weight, stretch=stretch,
            reason=(
                f"recovery in progress: serving from "
                f"{navigator.num_trees} surviving trees, "
                f"{num_pending} pending rebuild"
                if pending else ""
            ),
        )

    # -- live degradation ------------------------------------------------

    def kill_trees(self, indexes: Sequence[int]) -> List[int]:
        """Drop live trees from the serving navigator (chaos fault mode).

        Simulates in-memory loss of per-tree state under traffic: the
        named trees stop serving immediately, subsequent queries come
        from the survivors labelled ``degraded=True``, and — because
        the checkpoint on disk is untouched — a later :meth:`recover`
        (typically from a background thread) restores full service.
        Returns the indexes actually killed.
        """
        if self._mapped:
            raise ValueError(
                "kill_trees is unavailable in mapped mode: the query "
                "state is a shared read-only mapping with no per-tree "
                "python objects to drop; load() without mmap for chaos "
                "testing"
            )
        with self._mutate_lock:
            with self._state_lock:
                salvaged = list(self._salvaged)
                pending = set(self._pending)
            killed = [
                index for index in indexes
                if 0 <= index < len(salvaged) and salvaged[index] is not None
            ]
            if not killed:
                return []
            for index in killed:
                salvaged[index] = None
                pending.add(index)
            survivors = [t for t in salvaged if t is not None]
            if survivors:
                partial = TreeCover(self.metric, survivors, home=None)
                navigator = MetricNavigator(
                    self.metric, partial, self.k, workers=self.workers
                )
            else:
                navigator = None
                self._unusable_reason = "every tree killed by chaos"
            self._swap(navigator, sorted(pending), salvaged=salvaged)
            return killed

    # -- dynamic mutation (ROADMAP item 3) -------------------------------

    @property
    def dynamic(self):
        """The :class:`~repro.dynamic.cover.DynamicRobustCover`, if
        :meth:`enable_dynamic` has run; ``None`` otherwise."""
        return self._dynamic

    @property
    def journal(self):
        """The :class:`~repro.dynamic.journal.UpdateJournal`, if any."""
        return self._journal

    def is_known_point(self, point_id: int) -> bool:
        """Is ``point_id`` live (queryable) at the current generation?

        Static service: any id inside the metric.  Dynamic service:
        active ids only — tombstoned points stay in the index space but
        are not valid query endpoints.
        """
        dyn = self._dynamic
        if dyn is not None:
            return dyn.is_active(point_id)
        return 0 <= point_id < self.metric.n

    def _require_mutable(self, op: str) -> None:
        if self._mapped:
            raise ValueError(
                f"{op} is unavailable in mapped mode: the query state is "
                "a shared read-only memory-mapped arena; load() without "
                "mmap and enable_dynamic() to mutate"
            )
        if self._dynamic is None:
            raise ValueError(
                f"{op} requires dynamic mode: call enable_dynamic() "
                "(serve --dynamic) after load()"
            )

    def enable_dynamic(
        self,
        eps: Optional[float] = None,
        journal_path: Optional[str] = None,
    ):
        """Switch the service to mutable (insert/delete/compact) mode.

        Builds a :class:`~repro.dynamic.cover.DynamicRobustCover` for
        the current point set — restored from the checkpoint's
        ``dynamic`` meta block when the file was written by
        :meth:`compact`, fresh otherwise — opens the write-ahead journal
        beside the checkpoint, and replays every journaled mutation past
        the structure's ``applied_seq``.  The replayed structure is
        audited before it serves, so a crash anywhere between journal
        append and apply converges to the same audited state on
        restart.

        ``eps`` defaults to the checkpoint's builder metadata; only the
        robust family is mutable (every mutation rebuilds the Theorem 4.1
        construction over the live points).  Idempotent: a second call returns the existing
        dynamic cover.
        """
        if self._mapped:
            raise ValueError(
                "enable_dynamic is unavailable in mapped mode: mapped "
                "service is read-only by design; load() without mmap "
                "to mutate"
            )
        from ..dynamic import DynamicRobustCover, UpdateJournal, journal_path_for

        with self._mutate_lock:
            if self._dynamic is not None:
                return self._dynamic
            with self._state_lock:
                pending = bool(self._pending)
            if pending:
                raise ValueError(
                    "recover() the checkpoint before enable_dynamic(): "
                    "trees are still pending rebuild"
                )
            spec = self._meta.get("builder") or {}
            family = spec.get("family", "robust")
            if family != "robust":
                raise ValueError(
                    "dynamic mutation supports the robust cover family "
                    f"only; this checkpoint was built with {family!r}"
                )
            if spec.get("pruned"):
                # Mirrors the mapped-mode refusal above: a typed error
                # now instead of a silent swap later.  A mutation
                # replays the full Theorem 4.1 tree set (one tree per
                # (phase, set) slot); a pruned cover dropped most of
                # those slots, so the first mutation would quietly
                # replace the pruned cover with the full one.
                raise ValueError(
                    "dynamic mutation is unavailable for pruned covers: "
                    "a mutation replays the full Theorem 4.1 tree set; "
                    "rebuild the checkpoint without --prune to mutate"
                )
            if eps is None:
                eps = float(spec.get("eps", 0.45))
            if journal_path is None:
                if self._path is None:
                    raise ValueError(
                        "enable_dynamic needs journal_path= when no "
                        "checkpoint has been loaded"
                    )
                journal_path = journal_path_for(self._path)
            if getattr(self.metric, "points", None) is None:
                raise ValueError(
                    "dynamic mode requires a coordinate-backed "
                    "(Euclidean) metric"
                )

            dyn_meta = self._meta.get("dynamic")
            if isinstance(dyn_meta, dict):
                dyn = DynamicRobustCover.restore(
                    self._base_metric, dyn_meta, workers=self.workers
                )
            else:
                dyn = DynamicRobustCover.from_metric(
                    self.metric, eps=eps, workers=self.workers
                )
            journal = UpdateJournal(journal_path, base_seq=dyn.applied_seq)
            replay = journal.records_after(dyn.applied_seq)
            with trace(
                "journal.replay", records=len(replay), from_seq=dyn.applied_seq
            ):
                for record in replay:
                    dyn.apply([_op_from_record(record)])
                    dyn.applied_seq = record.seq
            # The replayed structure must audit before it serves: this
            # is the "reload converges to the same audited structure"
            # half of the crash-safety contract.
            audit_cover(
                dyn.cover, contract=None, pairs=dyn.active_pairs(120),
                workers=self.workers,
            )
            self._dynamic = dyn
            self._journal = journal
            self._promote_dynamic()
            return dyn

    def _promote_dynamic(self, recovered: bool = False) -> None:
        """Install the dynamic cover's current generation atomically."""
        dyn = self._dynamic
        navigator = MetricNavigator(
            dyn.metric, dyn.cover, self.k, workers=self.workers
        )
        self.metric = dyn.metric
        self._swap(navigator, [], salvaged=list(dyn.trees),
                   recovered=recovered)

    def insert(self, point: Sequence[float]) -> Dict[str, Any]:
        """Insert a point: journal (fsync) first, then apply, then swap.

        Write-ahead ordering makes the mutation crash-safe: once the
        append is acknowledged it survives any crash (a restart replays
        it from the journal); if the process dies before the append
        returns, the mutation never happened.  In-flight query batches
        keep answering on the pre-mutation snapshot until the swap.
        Returns the new point id, the journal seq, and the patch report
        (:meth:`~repro.dynamic.cover.PatchReport.to_dict`).
        """
        self._require_mutable("insert")
        point = [float(x) for x in point]
        with self._mutate_lock:
            dyn = self._dynamic
            # Validate before journaling so the journal only ever holds
            # ops that replay cleanly.
            dyn._validate_batch([("insert", point)])
            record = self._journal.append("insert", point=point)
            report = dyn.apply([("insert", point)])
            dyn.applied_seq = record.seq
            self._promote_dynamic()
            return {
                "op": "insert",
                "point_id": dyn.n - 1,
                "seq": record.seq,
                "active": len(dyn.active),
                "patch": report.to_dict(),
            }

    def delete(self, point_id: int) -> Dict[str, Any]:
        """Tombstone an active point (write-ahead; see :meth:`insert`)."""
        self._require_mutable("delete")
        point_id = int(point_id)
        with self._mutate_lock:
            dyn = self._dynamic
            dyn._validate_batch([("delete", point_id)])
            record = self._journal.append("delete", point_id=point_id)
            report = dyn.apply([("delete", point_id)])
            dyn.applied_seq = record.seq
            self._promote_dynamic()
            return {
                "op": "delete",
                "point_id": point_id,
                "seq": record.seq,
                "active": len(dyn.active),
                "patch": report.to_dict(),
            }

    def compact(self) -> Dict[str, Any]:
        """Fold the journal into a fresh checkpoint and truncate it.

        Atomically rewrites the checkpoint with the current generation
        (plus its ``dynamic`` meta block), then resets the journal to
        ``base_seq = applied_seq`` — a restart restores from the
        compacted checkpoint and replays nothing.
        """
        self._require_mutable("compact")
        with self._mutate_lock:
            if self._path is None:
                raise ValueError(
                    "compact needs a checkpoint path: load() one first"
                )
            dyn = self._dynamic
            builder = self._meta.get("builder") or {
                "family": "robust", "eps": dyn.eps,
            }
            save_cover_checkpoint(
                dyn.cover,
                self._path,
                contract=None,
                builder=builder,
                extra_meta={"dynamic": dyn.state_meta()},
            )
            self._meta["builder"] = builder
            self._meta["dynamic"] = dyn.state_meta()
            self._journal.reset(dyn.applied_seq)
            return {
                "op": "compact",
                "path": self._path,
                "applied_seq": dyn.applied_seq,
                "journal_records": len(self._journal),
                "active": len(dyn.active),
            }

    def close(self) -> None:
        """Release the journal file handle (dynamic mode)."""
        if self._journal is not None:
            self._journal.close()

    # -- recovery --------------------------------------------------------

    def recover(self, resave: bool = False) -> RecoveryReport:
        """Finish recovery: rebuild pending trees, audit, promote.

        Delegates to :func:`recover_cover` (per-tree repair first, full
        rebuild as fallback); afterwards :attr:`recovery_pending` is
        False and :meth:`query` answers with the full contract again.
        In dynamic mode the checkpoint on disk may lag the journal, so
        recovery is instead a full rebuild of the *current*
        generation over its live points — the same deterministic structure a journal replay
        converges to.
        """
        if self._mapped:
            raise ValueError(
                "recover() is unavailable in mapped mode: mapped loads "
                "are fail-fast (CRC-verified at attach) and have no "
                "degraded per-tree state to promote"
            )
        if self._dynamic is not None:
            return self._recover_dynamic(resave)
        if self._path is None:
            raise ValueError("load() a checkpoint before recover()")
        with self._mutate_lock:
            with self._state_lock:
                self._recovering = True
            try:
                # The rebuild runs outside _state_lock: concurrent
                # queries keep answering (degraded) from the previous
                # navigator until the swap below.
                report = recover_cover(
                    self._path,
                    self.metric,
                    builder=self.builder,
                    contract=self.contract,
                    resave=resave,
                    workers=self.workers,
                )
                navigator = MetricNavigator(
                    self.metric, report.cover, self.k, workers=self.workers
                )
                self.report = report
                self._swap(navigator, [], salvaged=list(report.cover.trees),
                           recovered=True)
            finally:
                with self._state_lock:
                    self._recovering = False
        return report

    def _recover_dynamic(self, resave: bool) -> RecoveryReport:
        with self._mutate_lock:
            with self._state_lock:
                self._recovering = True
            try:
                # Queries keep flowing off the previous navigator while
                # the rebuild runs; the swap below promotes atomically.
                dyn = self._dynamic.rebuild()
                audit_cover(
                    dyn.cover, contract=None, pairs=dyn.active_pairs(120),
                    workers=self.workers,
                )
                report = _record_report(RecoveryReport(
                    "full-rebuild", dyn.cover,
                    reason="dynamic mode: full rebuild of the "
                           "current generation",
                ))
                self.report = report
                self._dynamic = dyn
                self._promote_dynamic(recovered=True)
            finally:
                with self._state_lock:
                    self._recovering = False
        if resave and self._path is not None:
            self.compact()
        return report
