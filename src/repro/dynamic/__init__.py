"""Dynamic updates under churn (ROADMAP item 3).

``insert(point)`` / ``delete(point)`` on the robust tree cover as
masked replays (incremental nets and sweep, every tree replayed), a
crash-safe write-ahead journal, and live mutation through the serving
daemon.  See ``docs/DYNAMIC.md``.

Layers
------
:mod:`~repro.dynamic.builder`
    Masked (active-subset) nets, pairing sweep, and tree replays over
    an append-only index space with tombstones.
:mod:`~repro.dynamic.cover`
    :class:`DynamicRobustCover` — the mutable cover, its one mutation
    path, and the rebuild differential oracle.
:mod:`~repro.dynamic.journal`
    :class:`UpdateJournal` — CRC-framed, fsync-before-ack, torn-tail
    truncating mutation log replayed on reload.
:mod:`~repro.dynamic.churn`
    :class:`ChurnHarness` — interleaved mutations + queries with
    per-batch Table 1 / Thm 4.2 re-verification.
"""

from .builder import (
    ActiveHierarchy,
    SweepState,
    build_nets,
    build_trees,
    compute_sweep,
    nets_after_insert,
)
from .churn import ChurnHarness, states_identical
from .cover import DynamicRobustCover, PatchReport, pinned_levels
from .journal import JournalRecord, UpdateJournal, journal_path_for

__all__ = [
    "ActiveHierarchy",
    "ChurnHarness",
    "DynamicRobustCover",
    "JournalRecord",
    "PatchReport",
    "SweepState",
    "UpdateJournal",
    "build_nets",
    "build_trees",
    "compute_sweep",
    "journal_path_for",
    "nets_after_insert",
    "pinned_levels",
    "states_identical",
]
