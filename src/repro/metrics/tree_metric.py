"""Tree metrics: the shortest-path metric of an edge-weighted tree.

Tree metrics are the base case of the whole paper (Theorem 1.1).  The
class carries an LCA index so distance queries cost O(1); the batch
kernels ride on the vectorized sparse-table lookups of
:meth:`~repro.graphs.lca.LcaIndex.distance_many`.  The index is built
lazily on the first query: cover builders create thousands of tree
metrics whose distances are only ever taken in bulk later (or never),
and the Euler-tour sparse table is the dominant cost of constructing
one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..graphs.lca import LcaIndex, PairWorkspace
from ..graphs.tree import Tree
from ..observability import OBS
from .base import Metric

__all__ = ["TreeMetric"]

_C_SCALAR = OBS.registry.counter("kernel.tree.scalar_calls")
_C_BATCH = OBS.registry.counter("kernel.tree.batch_calls")
_C_LCA_BUILDS = OBS.registry.counter("kernel.tree.lca_builds")


class TreeMetric(Metric):
    """The metric induced by a rooted edge-weighted :class:`Tree`.

    Points of the metric are exactly the tree's vertices.  For Steiner
    settings (required subset), restrict queries to the required ids.
    """

    supports_batch = True

    def __init__(self, tree: Tree):
        super().__init__(tree.n)
        self.tree = tree
        self._lca_index: Optional[LcaIndex] = None

    @property
    def _lca(self) -> LcaIndex:
        if self._lca_index is None:
            if OBS.enabled:
                _C_LCA_BUILDS.inc()
            self._lca_index = LcaIndex(self.tree)
        return self._lca_index

    def built_lca_index(self) -> Optional[LcaIndex]:
        """The LCA index if a query already built it, else ``None``."""
        return self._lca_index

    def __getstate__(self):
        # The sparse table is pure derived state and dwarfs the tree
        # arrays; rebuild it lazily on the other side of the pickle
        # (worker boundary, checkpoint) instead of shipping it.
        state = dict(self.__dict__)
        state["_lca_index"] = None
        return state

    def distance(self, u: int, v: int) -> float:
        if OBS.enabled:
            _C_SCALAR.inc()
        return self._lca.distance(u, v)

    # ------------------------------------------------------------------
    # Batch kernels (vectorized sparse-table LCA)

    def distances_from(self, u: int) -> np.ndarray:
        all_ids = np.arange(self.n, dtype=np.int64)
        return self._lca.distance_many(np.full(self.n, u, dtype=np.int64), all_ids)

    def pair_distances(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        *,
        out: Optional[np.ndarray] = None,
        workspace: Optional[PairWorkspace] = None,
        hosts: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Elementwise distances; the keywords are those of
        :meth:`~repro.graphs.lca.LcaIndex.distance_many`."""
        if len(us) != len(vs):
            raise ValueError("us and vs must have equal length")
        if OBS.enabled:
            _C_BATCH.inc()
        return self._lca.distance_many(us, vs, out=out, workspace=workspace, hosts=hosts)

    def pairwise(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        grid_u = np.repeat(rows, len(cols))
        grid_v = np.tile(cols, len(rows))
        return self._lca.distance_many(grid_u, grid_v).reshape(len(rows), len(cols))

    def ball_many(
        self,
        centers: Sequence[int],
        radius: float,
        within: Optional[Sequence[int]] = None,
    ) -> List[List[int]]:
        domain = (
            np.arange(self.n, dtype=np.int64)
            if within is None
            else np.asarray(within, dtype=np.int64)
        )
        block = self.pairwise(centers, domain) <= radius
        return [domain[np.nonzero(row)[0]].tolist() for row in block]

    def ball(self, center: int, radius: float) -> List[int]:
        return np.nonzero(self.distances_from(center) <= radius)[0].tolist()

    # ------------------------------------------------------------------

    def lca(self, u: int, v: int) -> int:
        return self._lca.lca(u, v)

    def path(self, u: int, v: int):
        """The unique tree path realizing the distance."""
        return self.tree.path(u, v)
