"""Rooted edge-weighted trees and common tree builders.

The :class:`Tree` class is the substrate for everything in this library:
Solomon's 1-spanner, the navigation data structure, tree covers and
routing all operate on instances of it.  Vertices are integers
``0 .. n-1``; the tree is stored as a parent array plus child lists and
supports weighted depths, traversal orders, and path extraction.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Tree",
    "random_tree",
    "path_tree",
    "star_tree",
    "caterpillar_tree",
    "balanced_tree",
]


class Tree:
    """A rooted tree with non-negative edge weights.

    Parameters
    ----------
    parents:
        ``parents[v]`` is the parent of vertex ``v``; the root has parent
        ``-1``.  Exactly one root must exist and the structure must be
        acyclic and connected.
    weights:
        ``weights[v]`` is the weight of the edge ``(parents[v], v)``; the
        root's entry is ignored.  Defaults to unit weights.
    validate:
        When False, skips the O(n) connectivity check.  Only for
        internal builders whose parent arrays are trees by construction
        (e.g. the robust-cover forest assembly, which creates thousands
        of trees); external callers should keep the default.
    """

    def __init__(
        self,
        parents: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        validate: bool = True,
    ):
        self.parents: List[int] = list(parents)
        n = len(self.parents)
        if n == 0:
            raise ValueError("a tree needs at least one vertex")
        roots = [v for v, p in enumerate(self.parents) if p == -1]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        self.root: int = roots[0]
        if weights is None:
            weights = [1.0] * n
        if len(weights) != n:
            raise ValueError("weights must have one entry per vertex")
        self.weights: List[float] = [float(w) for w in weights]
        self.weights[self.root] = 0.0

        self._children: Optional[List[List[int]]] = None
        self._order: Optional[List[int]] = None
        self._depth: Optional[List[int]] = None
        self._wdepth: Optional[List[float]] = None
        if validate:
            self._validate_connected()

    # ------------------------------------------------------------------
    # Basic properties

    def __getstate__(self):
        # Only the parent and weight arrays are authoritative; child
        # lists, traversal orders and depth tables are derived caches
        # that can quadruple the pickle (worker boundary, checkpoints).
        # Drop them and let the receiving side rebuild lazily.
        state = dict(self.__dict__)
        state["_children"] = None
        state["_order"] = None
        state["_depth"] = None
        state["_wdepth"] = None
        return state

    def __len__(self) -> int:
        return len(self.parents)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.parents)

    def _validate_connected(self) -> None:
        if len(self.preorder()) != self.n:
            raise ValueError("parent array does not describe a connected tree")

    @property
    def children(self) -> List[List[int]]:
        """Child lists per vertex; built lazily on first access.

        Tree covers create thousands of trees whose child lists are only
        needed if the tree is actually navigated, so the O(n) build is
        deferred out of the constructor.
        """
        if self._children is None:
            n = self.n
            children: List[List[int]] = [[] for _ in range(n)]
            for v, p in enumerate(self.parents):
                if p != -1:
                    if not 0 <= p < n:
                        raise ValueError(f"parent {p} of vertex {v} out of range")
                    children[p].append(v)
            self._children = children
        return self._children

    def child_ranges(self) -> Tuple[List[int], List[int]]:
        """Child lists as two flat lists, ``(kids, start)``.

        The children of ``v`` are ``kids[start[v] : start[v + 1]]``, in
        the order of :attr:`children`.  Built with one stable numpy
        sort and not cached: one-pass walks over thousands of large
        trees (the Euler tours of a cover's LCA indexes) would
        otherwise allocate ``n`` long-lived lists per tree, and the
        garbage collector's full passes over them grow with every
        tree already built.
        """
        parents = np.asarray(self.parents, dtype=np.int64)
        n = len(parents)
        bad = np.flatnonzero((parents != -1) & ((parents < 0) | (parents >= n)))
        if len(bad):
            v = int(bad[0])
            raise ValueError(f"parent {self.parents[v]} of vertex {v} out of range")
        order = np.argsort(parents, kind="stable")
        start = np.searchsorted(parents[order], np.arange(n + 1))
        return order.tolist(), start.tolist()

    def preorder(self) -> List[int]:
        """Vertices in preorder (root first); cached."""
        if self._order is None:
            children = self.children
            order: List[int] = []
            append = order.append
            stack = [self.root]
            seen = [False] * self.n
            while stack:
                v = stack.pop()
                if seen[v]:
                    raise ValueError("cycle detected in parent array")
                seen[v] = True
                append(v)
                cs = children[v]
                if cs:
                    stack.extend(reversed(cs))
            self._order = order
        return self._order

    def postorder(self) -> List[int]:
        """Vertices in postorder (root last)."""
        return list(reversed(self.preorder()))

    def depths(self) -> List[int]:
        """Unweighted depth of every vertex (root = 0); cached."""
        if self._depth is None:
            depth = [0] * self.n
            for v in self.preorder():
                if v != self.root:
                    depth[v] = depth[self.parents[v]] + 1
            self._depth = depth
        return self._depth

    def weighted_depths(self) -> List[float]:
        """Weighted distance from the root to every vertex; cached."""
        if self._wdepth is None:
            wdepth = [0.0] * self.n
            for v in self.preorder():
                if v != self.root:
                    wdepth[v] = wdepth[self.parents[v]] + self.weights[v]
            self._wdepth = wdepth
        return self._wdepth

    def edges(self) -> Iterable[Tuple[int, int, float]]:
        """Yield ``(parent, child, weight)`` for every tree edge."""
        for v, p in enumerate(self.parents):
            if p != -1:
                yield p, v, self.weights[v]

    # ------------------------------------------------------------------
    # Paths and distances

    def path(self, u: int, v: int) -> List[int]:
        """The unique ``u``-``v`` path as a vertex list (both endpoints included)."""
        depth = self.depths()
        up_u: List[int] = []
        up_v: List[int] = []
        while depth[u] > depth[v]:
            up_u.append(u)
            u = self.parents[u]
        while depth[v] > depth[u]:
            up_v.append(v)
            v = self.parents[v]
        while u != v:
            up_u.append(u)
            up_v.append(v)
            u = self.parents[u]
            v = self.parents[v]
        return up_u + [u] + list(reversed(up_v))

    def distance(self, u: int, v: int) -> float:
        """Weighted distance between ``u`` and ``v`` (O(path length))."""
        path = self.path(u, v)
        wdepth = self.weighted_depths()
        top = min(path, key=lambda x: self.depths()[x])
        return (wdepth[path[0]] - wdepth[top]) + (wdepth[path[-1]] - wdepth[top])

    def is_ancestor(self, a: int, v: int) -> bool:
        """True iff ``a`` is an ancestor of ``v`` (every vertex is its own ancestor)."""
        depth = self.depths()
        while depth[v] > depth[a]:
            v = self.parents[v]
        return v == a

    # ------------------------------------------------------------------
    # Construction helpers

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[Tuple[int, int, float]], root: int = 0
    ) -> "Tree":
        """Build a rooted tree from an undirected edge list ``(u, v, w)``."""
        adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        count = 0
        for u, v, w in edges:
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
            count += 1
        if count != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {count}")
        parents = [-2] * n
        weights = [0.0] * n
        parents[root] = -1
        stack = [root]
        while stack:
            u = stack.pop()
            for v, w in adjacency[u]:
                if parents[v] == -2:
                    parents[v] = u
                    weights[v] = w
                    stack.append(v)
        if any(p == -2 for p in parents):
            raise ValueError("edge list is not connected")
        return cls(parents, weights)


def random_tree(n: int, seed: Optional[int] = None, max_weight: float = 10.0) -> Tree:
    """A uniformly random labelled tree (via a random attachment process).

    Each vertex ``v >= 1`` attaches to a uniformly random earlier vertex,
    producing random recursive trees — heavy-tailed degrees and
    logarithmic depth, a good generic test distribution.
    """
    rng = random.Random(seed)
    parents = [-1] + [rng.randrange(v) for v in range(1, n)]
    weights = [0.0] + [rng.uniform(1.0, max_weight) for _ in range(1, n)]
    return Tree(parents, weights)


def path_tree(n: int, seed: Optional[int] = None) -> Tree:
    """A path ``0 - 1 - ... - n-1`` with random weights (worst case for naive navigation)."""
    rng = random.Random(seed)
    parents = [-1] + list(range(n - 1))
    weights = [0.0] + [rng.uniform(1.0, 10.0) for _ in range(1, n)]
    return Tree(parents, weights)


def star_tree(n: int) -> Tree:
    """A star with center 0 (best case: already hop-diameter 2)."""
    return Tree([-1] + [0] * (n - 1), [0.0] + [1.0] * (n - 1))


def caterpillar_tree(n: int, seed: Optional[int] = None) -> Tree:
    """A caterpillar: a spine path with a leaf hanging off every spine vertex."""
    rng = random.Random(seed)
    parents = [-1]
    for v in range(1, n):
        if v % 2 == 1:
            parents.append(max(0, v - 2))  # spine continues
        else:
            parents.append(v - 1)  # leaf off the previous spine vertex
    weights = [0.0] + [rng.uniform(1.0, 10.0) for _ in range(1, n)]
    return Tree(parents, weights)


def balanced_tree(branching: int, depth: int) -> Tree:
    """A complete ``branching``-ary tree of the given depth, unit weights."""
    parents = [-1]
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for node in frontier:
            for _ in range(branching):
                parents.append(node)
                new_frontier.append(len(parents) - 1)
        frontier = new_frontier
    return Tree(parents)
