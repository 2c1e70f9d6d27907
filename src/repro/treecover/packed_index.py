"""Vectorized best-tree selection over a whole cover.

``TreeCover.best_tree`` — step (1) of every navigation query — scans ζ
per-tree distance oracles in a python loop for non-Ramsey covers.  At
n=600 the robust cover has ζ=1622 trees, so a single scalar query paid
1622 python-level LCA calls (and, worse, lazily built each tree's
O(n log n) sparse table on first touch).

:class:`PackedCoverIndex` concatenates the Euler tours of every cover
tree into one flat arena and builds a single ±depth sparse-table RMQ
over it, plus per-(tree, point) tables of host-vertex tour positions
and weighted depths.  One scalar selection is then a handful of
vectorized numpy ops over length-ζ vectors:

* ``lo/hi`` — two rows of the position table;
* range-minimum via two gathers from the shared sparse table (a query
  window never crosses a tree's tour segment, so the junk entries that
  span segments are never read);
* ``d = wd[p] + wd[q] − 2·wd[lca]`` with exactly the float64 op order
  of the scalar oracle, so selected indexes and distances are
  bit-identical to the legacy scan (``np.argmin`` keeps the first
  minimum, matching the scan's lowest-index tie-break).

The index serializes to a name → array dict for the checkpoint
raw-array section and reconstructs from memory-mapped views
(:meth:`arrays` / :meth:`from_arrays`).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import OBS, trace

__all__ = ["PackedCoverIndex"]

_C_BUILDS = OBS.registry.counter("cover.packed_index_builds")
_G_ARENA_BYTES = OBS.registry.gauge("cover.packed_arena_bytes")

# Sparse-table budget: a cover whose concatenated tour would exceed this
# keeps the legacy O(ζ) scan instead of thrashing memory.  Override via
# REPRO_PACKED_INDEX_MAX_MB (0 disables the packed index entirely).
_DEFAULT_MAX_MB = 768.0


def _max_table_bytes() -> float:
    raw = os.environ.get("REPRO_PACKED_INDEX_MAX_MB", "")
    try:
        return float(raw) * 1e6 if raw else _DEFAULT_MAX_MB * 1e6
    except ValueError:
        return _DEFAULT_MAX_MB * 1e6


class PackedCoverIndex:
    """Flat-array tree-selection oracle for one cover (read-only)."""

    __slots__ = (
        "first_pt", "wd_pt", "tour_depth", "wd_tour", "table", "tour_off",
        "_spans",
    )

    def __init__(
        self,
        first_pt: np.ndarray,
        wd_pt: np.ndarray,
        tour_depth: np.ndarray,
        wd_tour: np.ndarray,
        table: np.ndarray,
        tour_off: np.ndarray,
    ):
        self.first_pt = first_pt
        self.wd_pt = wd_pt
        self.tour_depth = tour_depth
        self.wd_tour = wd_tour
        self.table = table
        self.tour_off = tour_off
        #: Per window span, the flat ``table`` offsets of its two RMQ
        #: reads (built on first query).
        self._spans: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def build(cls, trees: Sequence) -> Optional["PackedCoverIndex"]:
        """Build from ``CoverTree`` objects; ``None`` over budget."""
        zeta = len(trees)
        if zeta == 0:
            return None
        n_points = len(trees[0].vertex_of_point)
        total_tour = sum(2 * ct.tree.n - 1 for ct in trees)
        max_tour = max(2 * ct.tree.n - 1 for ct in trees)
        levels = max(1, max_tour.bit_length())
        if levels * total_tour * 4 > _max_table_bytes():
            return None
        with trace("cover.packed_index_build", trees=zeta, tour=total_tour):
            if OBS.enabled:
                _C_BUILDS.inc()
            first_pt = np.empty((zeta, n_points), dtype=np.int32)
            wd_pt = np.empty((zeta, n_points), dtype=np.float64)
            tour_depth = np.empty(total_tour, dtype=np.int32)
            wd_tour = np.empty(total_tour, dtype=np.float64)
            tour_off = np.zeros(zeta + 1, dtype=np.int64)
            offset = 0
            for t, ct in enumerate(trees):
                first, tour, depths, wdepth = ct.weighted_euler_tour()
                m = len(tour)
                tour_depth[offset : offset + m] = depths
                wd_tour[offset : offset + m] = wdepth[tour]
                vop = np.asarray(ct.vertex_of_point, dtype=np.int64)
                first_pt[t] = first[vop] + offset
                wd_pt[t] = wdepth[vop]
                tour_off[t + 1] = offset = offset + m
            table = np.empty((levels, total_tour), dtype=np.int32)
            table[0] = np.arange(total_tour, dtype=np.int32)
            for j in range(1, levels):
                half = 1 << (j - 1)
                span = total_tour - (1 << j) + 1
                if span > 0:
                    left = table[j - 1, :span]
                    right = table[j - 1, half : half + span]
                    choose_right = tour_depth[right] < tour_depth[left]
                    table[j, :span] = np.where(choose_right, right, left)
                table[j, max(span, 0) :] = table[j - 1, max(span, 0) :]
        index = cls(first_pt, wd_pt, tour_depth, wd_tour, table, tour_off)
        if OBS.enabled:
            _G_ARENA_BYTES.set(index.nbytes)
        return index

    def arrays(self, prefix: str = "cov/") -> Dict[str, np.ndarray]:
        """The index as a name → array dict (raw-array checkpointing)."""
        return {
            prefix + "first": self.first_pt,
            prefix + "wpt": self.wd_pt,
            prefix + "tdepth": self.tour_depth,
            prefix + "wtour": self.wd_tour,
            prefix + "rmq": self.table,
            prefix + "toff": self.tour_off,
        }

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], prefix: str = "cov/"
    ) -> "PackedCoverIndex":
        """Reconstruct from (possibly memory-mapped) arrays, zero-copy."""
        return cls(
            arrays[prefix + "first"],
            arrays[prefix + "wpt"],
            arrays[prefix + "tdepth"],
            arrays[prefix + "wtour"],
            arrays[prefix + "rmq"],
            arrays[prefix + "toff"],
        )

    # ------------------------------------------------------------------
    # Queries

    @property
    def size(self) -> int:
        return len(self.first_pt)

    @property
    def nbytes(self) -> int:
        """Total bytes across the arena's six arrays (mmap or in-RAM)."""
        return (
            self.first_pt.nbytes
            + self.wd_pt.nbytes
            + self.tour_depth.nbytes
            + self.wd_tour.nbytes
            + self.table.nbytes
            + self.tour_off.nbytes
        )

    def _span_offsets(self) -> Tuple[np.ndarray, np.ndarray]:
        """For a window ``[l, h]`` of span ``s = h - l``, the flat
        ``table`` indexes of its two sparse-table reads are
        ``left[s] + l`` and ``right[s] + h``: row ``j = ⌊log2(s + 1)⌋``,
        columns ``l`` and ``h - 2^j + 1``."""
        if self._spans is None:
            # A window never leaves its tree's tour segment, so spans
            # stay below the longest segment.
            longest = int(np.diff(self.tour_off).max())
            length = np.arange(1, longest + 1, dtype=np.int64)
            j = np.floor(np.log2(length)).astype(np.int64)
            left = j * self.table.shape[1]
            self._spans = (left, left + 1 - (1 << j))
        return self._spans

    def _lca_pos(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Tour position of the minimum-depth entry per window (vector)."""
        l = np.minimum(lo, hi)
        h = np.maximum(lo, hi)
        span = h - l
        left, right = self._span_offsets()
        flat = self.table.reshape(-1)
        a = flat.take(left.take(span) + l)
        b = flat.take(right.take(span) + h)
        depth = self.tour_depth
        return np.where(depth.take(a) <= depth.take(b), a, b)

    def best_pair(self, p: int, q: int) -> Tuple[int, float]:
        """Lowest tree index minimizing the tree distance, plus the
        distance — bit-identical to the legacy O(ζ) scalar scan."""
        best = self._lca_pos(self.first_pt[:, p], self.first_pt[:, q])
        d = (self.wd_pt[:, p] + self.wd_pt[:, q]) - 2.0 * self.wd_tour[best]
        index = int(np.argmin(d))
        return index, float(d[index])

    def best_pairs(
        self, ps: Sequence[int], qs: Sequence[int]
    ) -> List[Tuple[int, float]]:
        """Batched :meth:`best_pair` (one gather per sparse-table level)."""
        if len(ps) == 1:  # same arithmetic, without the batch gathers
            return [self.best_pair(int(ps[0]), int(qs[0]))]
        ps = np.asarray(ps, dtype=np.int64)
        qs = np.asarray(qs, dtype=np.int64)
        first, wd = self.first_pt, self.wd_pt
        best = self._lca_pos(first.take(ps, axis=1), first.take(qs, axis=1))
        d = (wd.take(ps, axis=1) + wd.take(qs, axis=1)) \
            - 2.0 * self.wd_tour.take(best)
        index = np.argmin(d, axis=0)
        dist = d[index, np.arange(len(ps))]
        return list(zip(index.tolist(), dist.tolist()))

    def distance(self, t: int, p: int, q: int) -> float:
        """Tree distance inside tree ``t`` (the Ramsey home-tree path)."""
        lo = int(self.first_pt[t, p])
        hi = int(self.first_pt[t, q])
        if lo > hi:
            lo, hi = hi, lo
        j = (hi - lo + 1).bit_length() - 1
        a = self.table[j, lo]
        b = self.table[j, hi - (1 << j) + 1]
        w = a if self.tour_depth[a] <= self.tour_depth[b] else b
        return float((self.wd_pt[t, p] + self.wd_pt[t, q]) - 2.0 * self.wd_tour[w])

    def distances(
        self, ts: Sequence[int], ps: Sequence[int], qs: Sequence[int]
    ) -> np.ndarray:
        """Elementwise tree distances for (tree, p, q) triples."""
        ts = np.asarray(ts, dtype=np.int64)
        ps = np.asarray(ps, dtype=np.int64)
        qs = np.asarray(qs, dtype=np.int64)
        best = self._lca_pos(self.first_pt[ts, ps], self.first_pt[ts, qs])
        return (self.wd_pt[ts, ps] + self.wd_pt[ts, qs]) - 2.0 * self.wd_tour[best]
