"""Dynamic updates under churn (ROADMAP item 3).

``insert(point)`` / ``delete(point)`` on the robust tree cover, a
crash-safe write-ahead journal, and live mutation through the serving
daemon.  Each mutation batch rebuilds the cover with the static
:func:`~repro.treecover.dumbbell.robust_tree_cover` over a net
hierarchy of the live points.  See ``docs/DYNAMIC.md``.

Layers
------
:mod:`~repro.dynamic.cover`
    :class:`DynamicRobustCover` — the mutable cover over an
    append-only index space with tombstones, and its one mutation path.
:mod:`~repro.dynamic.journal`
    :class:`UpdateJournal` — CRC-framed, fsync-before-ack, torn-tail
    truncating mutation log replayed on reload.
:mod:`~repro.dynamic.churn`
    :class:`ChurnHarness` — interleaved mutations + queries with
    per-batch Table 1 / Thm 4.2 re-verification.
"""

from .churn import ChurnHarness, states_identical
from .cover import DynamicRobustCover, PatchReport, pinned_levels
from .journal import JournalRecord, UpdateJournal, journal_path_for

__all__ = [
    "ChurnHarness",
    "DynamicRobustCover",
    "JournalRecord",
    "PatchReport",
    "UpdateJournal",
    "journal_path_for",
    "pinned_levels",
    "states_identical",
]
