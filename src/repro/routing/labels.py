"""Label-only LCA and tree-distance computation with bit accounting.

The routing schemes of Section 5.1 need two labeling primitives:

* an **LCA labeling** of the recursion tree Φ — the paper cites
  [AHL14] (O(log n)-bit labels, O(1) query); we substitute a heavy-path
  labeling with O(log² n)-bit labels and O(log n)-time label-only
  queries, which stays within Theorem 5.1's O(log² n) label budget (see
  DESIGN.md);
* a **distance labeling** of trees — the paper cites [FGNW17]
  ((1+ε)-approximate, O(log(1/ε) log n) bits); our heavy-path labels
  carry exact weighted depths at O(log² n) bits, again within budget
  and strictly stronger (exact instead of approximate).

A label is a tuple of per-chain entries; every function that consumes
labels uses *only* the labels, never the tree, mirroring the
information constraints of the labeled routing model.  ``label_bits``
charges ``2⌈log n⌉`` bits per (chain, position) entry plus
``float_bits`` per stored depth.

:func:`cover_labelings` builds the per-point distance labels of a tree
cover, which the routing schemes of Theorems 1.3 and 5.2 and the
``routing_labels`` checkpoint all share; :func:`pick_tree` is the
O(ζ) scan that picks a cover tree from two points' label lists.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..graphs.tree import Tree

__all__ = [
    "HeavyPathLabeling",
    "cover_labelings",
    "lca_key",
    "label_distance",
    "pick_tree",
    "id_bits",
    "label_bits",
    "label_to_jsonable",
    "label_from_jsonable",
]

#: Each label entry: (chain id, exit position within the chain,
#: weighted depth of the exit vertex).
Entry = Tuple[int, int, float]
Label = Tuple[Entry, ...]


class HeavyPathLabeling:
    """Heavy-path decomposition labels for one rooted tree.

    ``labels[v]`` lists, for every heavy chain on the root-to-``v``
    path, the position at which the path leaves the chain (or ends, for
    the last entry) and that exit vertex's weighted depth.  The last
    entry's (chain, position) pair is ``v``'s unique *key*.
    """

    def __init__(self, tree: Tree):
        self.tree = tree
        n = tree.n
        size = [1] * n
        for v in tree.postorder():
            for c in tree.children[v]:
                size[v] += size[c]
        # chain_of[v], pos_of[v]: heavy chain membership.
        chain_of = [-1] * n
        pos_of = [0] * n
        heads: List[int] = []
        for v in tree.preorder():
            if chain_of[v] == -1:
                chain = len(heads)
                heads.append(v)
                cur = v
                pos = 0
                while True:
                    chain_of[cur] = chain
                    pos_of[cur] = pos
                    if not tree.children[cur]:
                        break
                    cur = max(tree.children[cur], key=lambda c: size[c])
                    pos += 1
        self.chain_of = chain_of
        self.pos_of = pos_of

        wdepth = tree.weighted_depths()
        labels: List[Label] = [()] * n
        for v in tree.preorder():
            p = tree.parents[v]
            own: Entry = (chain_of[v], pos_of[v], wdepth[v])
            if p == -1:
                labels[v] = (own,)
            elif chain_of[p] == chain_of[v]:
                labels[v] = labels[p][:-1] + (own,)
            else:
                labels[v] = labels[p] + (own,)
        self.labels = labels

    def label(self, v: int) -> Label:
        return self.labels[v]

    def key(self, v: int) -> Tuple[int, int]:
        chain, pos, _ = self.labels[v][-1]
        return (chain, pos)


def cover_labelings(cover) -> List[List[Label]]:
    """Per-tree heavy-path distance labels of every point's host vertex
    (the [FGNW17]-substitute labels of the Section 5 routing schemes),
    indexed ``[tree][point]``."""
    tables: List[List[Label]] = []
    for cover_tree in cover.trees:
        labeling = HeavyPathLabeling(cover_tree.tree)
        tables.append([labeling.label(v) for v in cover_tree.vertex_of_point])
    return tables


def lca_key(label_u: Label, label_v: Label) -> Tuple[int, int]:
    """The (chain, position) key of LCA(u, v), from the labels alone."""
    last_common: Optional[Entry] = None
    for eu, ev in zip(label_u, label_v):
        if eu[0] != ev[0]:
            # Different chains entered from the same exit vertex: the LCA
            # is that exit vertex, recorded identically in both prefixes.
            break
        if eu[1] != ev[1]:
            # Same chain, different exit positions: the shallower exit is
            # the LCA.
            shallow = eu if eu[1] < ev[1] else ev
            return (shallow[0], shallow[1])
        last_common = eu
    if last_common is None:
        raise ValueError("labels do not share a root chain")
    return (last_common[0], last_common[1])


def _lca_entry(label_u: Label, label_v: Label) -> Entry:
    last_common: Optional[Entry] = None
    for eu, ev in zip(label_u, label_v):
        if eu[0] != ev[0]:
            break
        if eu[1] != ev[1]:
            return eu if eu[1] < ev[1] else ev
        last_common = eu
    if last_common is None:
        raise ValueError("labels do not share a root chain")
    return last_common


def label_distance(label_u: Label, label_v: Label) -> float:
    """Exact weighted tree distance from two labels."""
    lca = _lca_entry(label_u, label_v)
    return label_u[-1][2] + label_v[-1][2] - 2.0 * lca[2]


def pick_tree(own: Sequence[Label], other: Sequence[Label]) -> int:
    """Index of the cover tree whose distance labels put the two points
    closest (the first such tree on ties): an O(ζ) scan of the labels."""
    best = float("inf")
    index = 0
    for i, label in enumerate(own):
        d = label_distance(label, other[i])
        if d < best:
            best = d
            index = i
    return index


def id_bits(count: int) -> int:
    """Bits that name one of ``count`` items: ⌈log₂ count⌉, at least 1."""
    return max(1, (count - 1).bit_length())


def label_bits(label: Label, n: int, float_bits: int = 32) -> int:
    """Size of a label in bits: 2 ids of ⌈log n⌉ bits plus one depth each."""
    return len(label) * (2 * id_bits(n) + float_bits)


def label_to_jsonable(label: Label) -> list:
    """A label as nested lists, for checkpoint serialization."""
    return [[chain, pos, depth] for chain, pos, depth in label]


def label_from_jsonable(data: object) -> Label:
    """Decode and shape-validate a serialized label.

    Raises :class:`ValueError` on anything that is not a non-empty list
    of ``[chain >= 0, position >= 0, finite depth >= 0]`` entries, so a
    corrupted checkpoint section fails loudly instead of producing
    wrong label distances.
    """
    if not isinstance(data, list) or not data:
        raise ValueError(f"label is not a non-empty entry list: {data!r}")
    entries: List[Entry] = []
    for item in data:
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError(f"label entry {item!r} is not a [chain, pos, depth] triple")
        chain, pos, depth = item
        if not isinstance(chain, int) or chain < 0:
            raise ValueError(f"label chain id {chain!r} is not a non-negative int")
        if not isinstance(pos, int) or pos < 0:
            raise ValueError(f"label position {pos!r} is not a non-negative int")
        if (
            not isinstance(depth, (int, float))
            or isinstance(depth, bool)
            or depth != depth  # NaN
            or depth == float("inf")
            or depth < 0
        ):
            raise ValueError(f"label depth {depth!r} is not a non-negative number")
        entries.append((chain, pos, float(depth)))
    return tuple(entries)
