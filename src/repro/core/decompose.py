"""The ``Prune`` and ``Decompose`` procedures of Solomon's construction.

Every tree Algorithm 1's recursion manipulates is derived from the
input tree by operations that preserve ancestor order and the relative
order of siblings; consequently the vertices of each derived tree,
listed in the *original* preorder, are exactly that tree's own
preorder.  :class:`PackedTree` exploits this: a tree is two parallel
arrays indexed by preorder position, its vertices keep their *original*
ids (so spanner edges and reported paths never need translation), and
prune / decompose / split / contraction all become single array passes
with no per-vertex dict hashing and no explicit stack traversals.

* :func:`prune_packed` (Section 3.2 of [Sol13], as used in line 2 of
  the paper's Algorithm 1): keeps the required vertices plus the
  branching vertices of their Steiner closure, at most ``|R| - 1``
  Steiner vertices, preserving ancestor order (hence T-monotonicity).
* :func:`decompose_packed` (line 4): returns cut vertices ``CV`` such
  that every connected component of ``T \\ CV`` contains at most
  ``ell`` required vertices; a single (centroid) cut for
  ``ell >= ceil(n/2)``, at most ``|V|/(ell+1)`` cuts in general
  (Lemma 3.1).
* :func:`split_packed`: the components ``T1..Tp`` of ``T \\ CV``
  together with their border cut vertices.
* :func:`decompose_centroid`: the recursive-centroid ablation of
  ``Decompose``.

The frozen dict implementation in ``repro._seed_baseline``
(``_seed_prune`` / ``_seed_decompose`` / ``_seed_split_components``)
is the differential oracle (``tests/test_decompose.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ..errors import InvariantViolation
from ..observability import OBS

__all__ = [
    "PackedTree",
    "prune_packed",
    "decompose_packed",
    "decompose_centroid",
    "split_packed",
]


# Scanned vertex totals expose the recursion's aggregate O(n log n)-ish
# work.
_C_PRUNE = OBS.registry.counter("decompose.prune_calls")
_C_PRUNE_KEPT = OBS.registry.counter("decompose.prune_kept")
_C_DECOMPOSE = OBS.registry.counter("decompose.calls")
_C_SCANNED = OBS.registry.counter("decompose.vertices_scanned")


class PackedTree:
    """A rooted tree stored as preorder-position arrays.

    ``ids[j]`` is the original vertex id at preorder position ``j``;
    ``parent[j]`` is the preorder *position* of its parent, ``-1`` for
    the root.  The root always sits at position 0, and positions are in
    preorder by construction, so a plain ``range(len(ids))`` loop visits
    parents before children and ``range(len(ids) - 1, -1, -1)`` visits
    children before parents.
    """

    __slots__ = ("ids", "parent")

    def __init__(self, ids: List[int], parent: List[int]):
        self.ids = ids
        self.parent = parent

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_tree(cls, tree) -> "PackedTree":
        """Pack a :class:`repro.graphs.tree.Tree`."""
        order = tree.preorder()
        pos = [0] * tree.n
        for j, v in enumerate(order):
            pos[v] = j
        parents = tree.parents
        parent = [-1 if parents[v] == -1 else pos[parents[v]] for v in order]
        return cls(order, parent)


def prune_packed(pt: PackedTree, required: Set[int]) -> PackedTree:
    """The Steiner-closure pruning of [Sol13].

    Returns a tree containing every required vertex plus every vertex
    with at least two children subtrees that contain required vertices
    (branching vertices).  Its root is the highest kept vertex; each
    kept vertex hangs below its nearest kept proper ancestor, so paths
    in the result are subpaths (in vertex order) of paths in ``pt``.
    The kept vertices in the input's preorder are the pruned tree's
    preorder (subtrees stay contiguous, children attach in discovery
    order), so one reverse pass computes the busy counts and one forward
    pass emits the result.
    """
    if not required:
        raise ValueError("prune needs at least one required vertex")
    ids = pt.ids
    parent = pt.parent
    m = len(ids)
    req_flag = [v in required for v in ids]
    # busy[j]: number of children subtrees holding a required vertex.
    busy = [0] * m
    for j in range(m - 1, 0, -1):
        if req_flag[j] or busy[j]:
            busy[parent[j]] += 1
    new_ids: List[int] = []
    new_parent: List[int] = []
    # nearest[j]: position *in the output* of the nearest kept ancestor
    # of j (inclusive), threaded downward in preorder.
    nearest = [-1] * m
    root_count = 0
    for j in range(m):
        p = parent[j]
        anc = nearest[p] if p != -1 else -1
        if req_flag[j] or busy[j] >= 2:
            if anc == -1:
                root_count += 1
            nearest[j] = len(new_ids)
            new_parent.append(anc)
            new_ids.append(ids[j])
        else:
            nearest[j] = anc
    if root_count != 1:
        raise InvariantViolation(f"prune produced {root_count} roots")
    if OBS.enabled:
        _C_PRUNE.inc()
        _C_PRUNE_KEPT.inc(len(new_ids))
    return PackedTree(new_ids, new_parent)


def decompose_packed(pt: PackedTree, required: Set[int], ell: int) -> List[int]:
    """Greedy postorder cut-vertex selection (the ``Decompose`` procedure).

    Accumulates required counts bottom-up and cuts a vertex whenever its
    pending count would exceed ``ell``; each component of ``pt`` minus
    the cut set then holds at most ``ell`` required vertices.  Returns
    cut *positions* (into ``pt``) in reverse preorder.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    ids = pt.ids
    parent = pt.parent
    m = len(ids)
    if OBS.enabled:
        _C_DECOMPOSE.inc()
        _C_SCANNED.inc(m)
    pending = [0] * m
    cuts: List[int] = []
    for j in range(m - 1, -1, -1):
        count = pending[j] + (1 if ids[j] in required else 0)
        if count > ell:
            cuts.append(j)
        elif j:
            # A cut contributes 0 upward; others pass their count on.
            pending[parent[j]] += count
    return cuts


def split_packed(
    pt: PackedTree, cut_positions: Sequence[int]
) -> Tuple[List[List[int]], List[List[int]], List[Set[int]], List[int]]:
    """Components of ``pt`` minus the cut positions, with border sets.

    Returns ``(comps_ids, comps_parent, borders, comp_of)``: the raw
    ``ids``/``parent`` arrays of each component (zip a pair into a
    :class:`PackedTree` only if the component actually recurses — most
    are base cases that never look at their tree again), the border cut
    vertices per component as original ids, and ``comp_of`` indexed by
    *position* in ``pt`` (``-1`` for cut vertices).  Global preorder
    restricted to one component is that component's preorder, so a
    single forward pass assembles every component simultaneously: a
    non-cut vertex whose parent is absent (root) or cut starts a new
    component, and every other vertex appends itself to its parent's
    component.
    """
    ids = pt.ids
    parent = pt.parent
    m = len(ids)
    cut_flag = bytearray(m)
    for j in cut_positions:
        cut_flag[j] = 1
    comp_of = [-1] * m
    # local[j]: position of j within its component's arrays.
    local = [0] * m
    comps_ids: List[List[int]] = []
    comps_parent: List[List[int]] = []
    borders: List[Set[int]] = []
    for j in range(m):
        if cut_flag[j]:
            continue
        p = parent[j]
        if p == -1 or cut_flag[p]:
            index = len(comps_ids)
            comp_of[j] = index
            comps_ids.append([ids[j]])
            comps_parent.append([-1])
            borders.append({ids[p]} if p != -1 else set())
        else:
            index = comp_of[p]
            comp_of[j] = index
            comp = comps_ids[index]
            local[j] = len(comp)
            comp.append(ids[j])
            comps_parent[index].append(local[p])
    # Cut vertices bordering a component from below (their parent is a
    # component vertex); the from-above direction was collected when the
    # component roots were created.
    for j in cut_positions:
        p = parent[j]
        if p != -1 and not cut_flag[p]:
            borders[comp_of[p]].add(ids[j])
    return comps_ids, comps_parent, borders, comp_of


def decompose_centroid(pt: PackedTree, required: Set[int], ell: int) -> List[int]:
    """Ablation variant of :func:`decompose_packed`: recursive centroid cutting.

    Repeatedly removes the required-weight centroid of every component
    still holding more than ``ell`` required vertices.  Produces the
    same component guarantee as the greedy cutter with (empirically)
    similar cut counts; kept for the E1 ablation bench.  Returns cut
    positions into ``pt``, in the order they are cut.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    cuts: List[int] = []
    # Each pending piece carries the positions of its vertices in pt.
    pending = [(pt, list(range(len(pt))))]
    while pending:
        piece, where = pending.pop()
        req_here = [v for v in piece.ids if v in required]
        if len(req_here) <= ell:
            continue
        # The greedy cutter with ell = ceil(n/2) yields exactly one cut:
        # the required-weight centroid of the piece.
        half = max((len(req_here) + 1) // 2, 1)
        cut = decompose_packed(piece, set(req_here), half)[0]
        cuts.append(where[cut])
        comps_ids, comps_parent, _, comp_of = split_packed(piece, [cut])
        comps_where: List[List[int]] = [[] for _ in comps_ids]
        for j, index in enumerate(comp_of):
            if index >= 0:
                comps_where[index].append(where[j])
        pending.extend(
            (PackedTree(ids, parent), w)
            for ids, parent, w in zip(comps_ids, comps_parent, comps_where)
        )
    return cuts
