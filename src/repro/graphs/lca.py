"""Constant-time lowest common ancestor queries.

Implements the classic Euler tour + sparse-table RMQ reduction
[BFC00/BFC04 as cited by the paper]: ``O(n log n)`` preprocessing and
``O(1)`` per query.  The sparse table is stored in numpy arrays so the
preprocessing is vectorized.  The batch queries run in place over
a :class:`PairWorkspace`, so a pass that asks the same pairs of many
trees allocates nothing per tree that scales with the pair count.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

from .tree import Tree

__all__ = ["LcaIndex", "PairWorkspace", "euler_tour", "tour_weighted_depths"]

# Scalar-path mirrors of the numpy arrays, built by the first scalar
# query (see LcaIndex.__getattr__).
_SCALAR_MIRRORS = frozenset({"_first", "_tour_list", "_tour_depth", "_table"})


def euler_tour(tree: Tree) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first-visit positions, tour vertices, tour depths) of a tree, int64.

    The standard tour of length ``2n - 1``: the sequence of vertices as
    a DFS enters them and returns to them.  The python walk only
    records the tour: it climbs parent pointers instead of keeping a
    (vertex, child) stack and reads the children from
    :meth:`Tree.child_ranges`, so it allocates no per-vertex objects.
    An entry is a descent iff the previous entry is its parent; the
    first visits and the depths follow from that in numpy.  This runs
    once per cover tree.
    """
    root = tree.root
    parents = tree.parents
    kids, start = tree.child_ranges()
    cursor = start[:-1]
    end = start[1:]
    tour = [root]
    append = tour.append
    v = root
    while True:
        i = cursor[v]
        if i < end[v]:
            cursor[v] = i + 1
            v = kids[i]
        elif v == root:
            break
        else:
            v = parents[v]
        append(v)
    tour_np = np.asarray(tour, dtype=np.int64)
    down = np.empty(len(tour), dtype=bool)
    down[0] = True
    down[1:] = np.asarray(parents, dtype=np.int64)[tour_np[1:]] == tour_np[:-1]
    first = np.empty(tree.n, dtype=np.int64)
    first[tour_np[down]] = np.flatnonzero(down)
    depths = np.cumsum(np.where(down, 1, -1)) - 1
    return first, tour_np, depths


def tour_weighted_depths(
    tree: Tree, first: np.ndarray, tour: np.ndarray
) -> np.ndarray:
    """Weighted root distance of every vertex, float64.

    The recurrence of :meth:`Tree.weighted_depths` (so the values are
    bit-identical), walked in the preorder the tour's first visits
    give, which spares the tree its child lists.
    """
    parents = tree.parents
    weights = tree.weights
    wdepth = [0.0] * tree.n
    for v in tour[np.sort(first)[1:]].tolist():
        wdepth[v] = wdepth[parents[v]] + weights[v]
    return np.asarray(wdepth, dtype=np.float64)


class PairWorkspace:
    """Scratch arrays for the batch queries of :class:`LcaIndex`.

    The arrays are allocated on first use, sized for ``size`` pairs (or
    the call, if larger), and every later call of at most that many
    pairs works inside them.  Each thread gets its own arrays, and a
    pickled workspace ships only its size, so one workspace can ride in
    a fan-out payload to threads and worker processes alike.
    """

    def __init__(self, size: int = 0):
        self.size = size
        self._local = threading.local()

    def __reduce__(self):
        return PairWorkspace, (self.size,)

    def _reserve(self, count: int):
        local = self._local
        ints = getattr(local, "ints", None)
        if ints is None or ints.shape[1] < count:
            capacity = max(count, self.size)
            local.ints = np.empty((4, capacity), dtype=np.int64)
            local.floats = np.empty((2, capacity))
            local.keys = {}
        return local

    def arrays(self, count: int, key_dtype: np.dtype) -> Tuple[np.ndarray, ...]:
        """Scratch views of ``count`` slots: four int64, two ``key_dtype``, one float64."""
        local = self._reserve(count)
        keys = local.keys.get(key_dtype)
        if keys is None:
            keys = np.empty((2, local.ints.shape[1]), dtype=key_dtype)
            local.keys[key_dtype] = keys
        return (*local.ints[:, :count], *keys[:, :count], local.floats[0, :count])

    def output(self, count: int) -> np.ndarray:
        """A float64 view of ``count`` slots that no query uses as scratch,
        for a caller that consumes each result before the next query."""
        return self._reserve(count).floats[1, :count]


def _check_ids(us: np.ndarray, vs: np.ndarray, n: int) -> None:
    # The kernels gather with np.take(mode="clip"): with mode="raise"
    # numpy buffers the output, the very allocation they avoid.  So the
    # range check happens here, once per call.
    if len(us) and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n):
        raise IndexError(f"vertex ids must lie in [0, {n})")


class LcaIndex:
    """LCA structure over a :class:`~repro.graphs.tree.Tree`.

    The numpy arrays ``first`` (tour position of each vertex's first
    visit), ``tour`` and ``tour_depth`` describe the Euler tour.  The
    sparse table holds, per level ``j`` and start ``i``, the key
    ``depth << bits | position`` of the shallowest entry of
    ``tour[i : i + 2^j]`` (the lowest position on ties), so a batched
    query merges its two windows with one ``np.minimum``.  The scalar
    queries read plain-list mirrors of the positions, built on the
    first scalar call (per-query numpy scalar indexing would dominate
    the O(1) lookups, and batch-only users never need them).  The
    batch queries :meth:`lca_many` and :meth:`distance_many` share one
    in-place window lookup, :meth:`_lca_positions`.

    >>> from repro.graphs.tree import balanced_tree
    >>> t = balanced_tree(2, 3)
    >>> LcaIndex(t).lca(7, 8)
    3
    """

    def __init__(self, tree: Tree):
        self.tree = tree
        self.first, self.tour, self.tour_depth = euler_tour(tree)

        m = len(self.tour)
        bits = m.bit_length()
        self._mask = (1 << bits) - 1
        levels = max(1, bits)
        # Keys need 2 * bits bits: int32 for any tour under 2^15.
        dtype = np.int32 if bits < 16 else np.int64
        keys = np.empty((levels, m), dtype=dtype)
        np.bitwise_or(self.tour_depth << bits, np.arange(m), out=keys[0])
        for j in range(1, levels):
            half = 1 << (j - 1)
            span = max(m - (1 << j) + 1, 0)
            np.minimum(
                keys[j - 1, :span], keys[j - 1, half : half + span], out=keys[j, :span]
            )
            keys[j, span:] = keys[j - 1, span:]
        self._keys = keys.ravel()
        # Per window length L: the flat offsets of the two level-j
        # windows, j = floor(log2(L)) (exact: frexp's exponent is
        # floor(log2(L)) + 1, and every length is exact in float64).
        lengths = np.arange(m + 1)
        lengths[0] = 1
        j = (np.frexp(lengths)[1] - 1).astype(dtype)
        self._left_off = j * m
        self._right_off = j * m + 1 - (1 << j)
        self._wd_tour: "np.ndarray | None" = None

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails, i.e. before the first
        # scalar query: build every mirror at once, so later scalar
        # calls pay nothing extra.
        if name not in _SCALAR_MIRRORS:
            raise AttributeError(name)
        self._first = self.first.tolist()
        self._tour_list = self.tour.tolist()
        self._tour_depth = self.tour_depth.tolist()
        table = self._keys.reshape(-1, len(self._tour_list)) & self._mask
        self._table = table.tolist()
        return self.__dict__[name]

    @property
    def wd_tour(self) -> np.ndarray:
        """Weighted root distance of each tour entry (built on first use)."""
        if self._wd_tour is None:
            wdepth = tour_weighted_depths(self.tree, self.first, self.tour)
            self._wd_tour = wdepth[self.tour]
        return self._wd_tour

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v`` in O(1)."""
        lo, hi = self._first[u], self._first[v]
        if lo > hi:
            lo, hi = hi, lo
        length = hi - lo + 1
        j = length.bit_length() - 1
        row = self._table[j]
        a = row[lo]
        b = row[hi - (1 << j) + 1]
        depth = self._tour_depth
        best = a if depth[a] <= depth[b] else b
        return self._tour_list[best]

    def distance(self, u: int, v: int) -> float:
        """Weighted tree distance via LCA in O(1)."""
        wdepth = self.tree.weighted_depths()
        w = self.lca(u, v)
        return wdepth[u] + wdepth[v] - 2.0 * wdepth[w]

    def _lca_positions(self, lo, hi, low, index, key_a, key_b) -> np.ndarray:
        """Tour position of the LCA for each pair of first-visit positions.

        In place: ``lo`` and ``hi`` are overwritten, ``low``, ``key_a``
        and ``key_b`` are scratch, and the positions land in ``index``.
        The window offsets share the keys' dtype, so they pass through
        the key arrays.
        """
        np.minimum(lo, hi, out=low)
        np.maximum(lo, hi, out=hi)
        np.subtract(hi, low, out=lo)
        lo += 1  # window lengths
        keys = self._keys
        np.take(self._left_off, lo, out=key_a, mode="clip")
        np.add(key_a, low, out=index)
        np.take(keys, index, out=key_a, mode="clip")
        np.take(self._right_off, lo, out=key_b, mode="clip")
        np.add(key_b, hi, out=index)
        np.take(keys, index, out=key_b, mode="clip")
        np.minimum(key_a, key_b, out=key_a)
        np.bitwise_and(key_a, self._mask, out=index)
        return index

    def lca_many(self, us: "np.ndarray", vs: "np.ndarray") -> np.ndarray:
        """Vectorized :meth:`lca` over aligned id arrays."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        _check_ids(us, vs, self.tree.n)
        lo, hi, *scratch, _ = PairWorkspace().arrays(len(us), self._keys.dtype)
        np.take(self.first, us, out=lo, mode="clip")
        np.take(self.first, vs, out=hi, mode="clip")
        return self.tour[self._lca_positions(lo, hi, *scratch)]

    def distance_many(
        self,
        us: "np.ndarray",
        vs: "np.ndarray",
        out: Optional[np.ndarray] = None,
        workspace: Optional[PairWorkspace] = None,
        hosts: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Vectorized :meth:`distance` over aligned id arrays.

        ``hosts``, when given, maps the ids to tree vertices first (a
        cover tree's host vertex per point): the first-visit table is
        composed with it once, at id level, instead of per pair.  A
        vertex's first tour entry carries its own weighted depth, so
        each pair costs gathers only.  With ``out`` (float64, one slot
        per pair) and a ``workspace`` the call allocates nothing that
        scales with the pair count.  The values are bit-identical to
        :meth:`distance`: ``wd[u] + wd[v] - 2.0 * wd[lca]`` in that
        order.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        first = self.first
        if hosts is not None:
            first = first[np.asarray(hosts, dtype=np.int64)]
        _check_ids(us, vs, len(first))
        count = len(us)
        if out is None:
            out = np.empty(count)
        workspace = workspace if workspace is not None else PairWorkspace()
        lo, hi, low, index, key_a, key_b, total = workspace.arrays(
            count, self._keys.dtype
        )
        wd_tour = self.wd_tour
        np.take(first, us, out=lo, mode="clip")
        np.take(first, vs, out=hi, mode="clip")
        np.take(wd_tour, lo, out=total, mode="clip")
        np.take(wd_tour, hi, out=out, mode="clip")
        total += out
        index = self._lca_positions(lo, hi, low, index, key_a, key_b)
        np.take(wd_tour, index, out=out, mode="clip")
        out *= 2.0
        np.subtract(total, out, out=out)
        return out

    def is_ancestor(self, a: int, v: int) -> bool:
        """True iff ``a`` is an ancestor of ``v``, in O(1)."""
        return self.lca(a, v) == a
