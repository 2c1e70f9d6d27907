"""Golden digests of the navigation structure 𝒟_T and what reads it.

Each case builds a structure and hashes its canonical bytes: the
:func:`pack_suite_arrays` arena (the checkpoint's ``pk/*`` section),
every tree's 1-spanner edge list sorted with its weights, and the
labels and tables of the two tree-routing schemes.  The digests were
recorded from the object-graph build that preceded the direct pack
build, so they pin that the navigator, the checkpoint arrays and
routing are byte-for-byte what they were.

Decrement 1 (the [AS87]-style ablation) has no frozen seed oracle;
these digests are its only identity check.

:data:`ROUTING_STATE_GOLDEN` was recorded while the metric and
fault-tolerant routing schemes still kept their own copies of the
per-tree routing state, the distance labels and the tree choice; it
pins that sharing one copy changed no label, table or routed path.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.checkpoint import cover_labelings
from repro.core import MetricNavigator, TreeNavigator
from repro.core.packed_query import pack_suite_arrays
from repro.graphs import random_tree
from repro.metrics import grid_graph_metric, random_graph_metric, random_points
from repro.routing import (
    FaultTolerantRoutingScheme,
    MetricRoutingScheme,
    build_tree_network,
)
from repro.treecover import (
    planar_tree_cover,
    prune_cover,
    ramsey_tree_cover,
    robust_tree_cover,
)


def _arrays_digest(arrays):
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _edges_digest(navigators):
    h = hashlib.sha256()
    for navigator in navigators:
        h.update(struct.pack("<q", len(navigator.edges)))
        for (a, b), w in sorted(navigator.edges.items()):
            h.update(struct.pack("<qqd", a, b, w))
    return h.hexdigest()


def _canonical(value):
    if isinstance(value, dict):
        items = sorted((_canonical(k), _canonical(v)) for k, v in value.items())
        return ("dict", items)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_canonical(x) for x in value])
    return repr(value)


def _routing_digest(labels, tables):
    blob = repr((_canonical(labels), _canonical(tables))).encode()
    return hashlib.sha256(blob).hexdigest()


def _cover(name):
    if name == "robust":
        metric = random_points(60, dim=2, seed=21)
        return metric, robust_tree_cover(metric, eps=0.5)
    if name == "pruned":
        metric = random_points(60, dim=2, seed=21)
        return metric, prune_cover(robust_tree_cover(metric, eps=0.5), seed=3).cover
    if name == "ramsey":
        metric = random_graph_metric(60, seed=22)
        return metric, ramsey_tree_cover(metric, ell=2, seed=23)
    metric = grid_graph_metric(7, seed=24)
    return metric, planar_tree_cover(metric)


COVER_CASES = [
    ("robust", 2),
    ("robust", 3),
    ("robust", 4),
    ("robust", 5),
    ("robust", 6),
    ("ramsey", 2),
    ("ramsey", 4),
    ("pruned", 3),
    ("planar", 3),
]

#: (cover, k) -> (pack_suite_arrays digest, sorted edge-list digest).
COVER_GOLDEN = {
    ("robust", 2): (
        "cde7ae171cc6127dbd5b297ac3d9be403edd69300671278f73e90f677caa2d48",
        "522aa74a64202af365efd6668f35ba75fb0d7912ee5667ce80ada5fe909982c8",
    ),
    ("robust", 3): (
        "6f65798ebfe02f0150ce084aae1de5f6f003f34e1dd97e3e8f1ff26bfc3c1747",
        "bf78a8fcc3d7dd3308a8b6ae3333086cffcc3df2ab21a20a4b742a469330b260",
    ),
    ("robust", 4): (
        "17356f97d5c59a9d7f362d52b085e81ff3e1bec04f9f27a8e944ee22a8a4f3cb",
        "23a9feec50d4c0820585c0fe227df30af49e990ec1897269093199f205a5ccac",
    ),
    ("robust", 5): (
        "91a0da97ea51a93b4f05719958c6114a821ab6dd9768696528317c36ff9a71ed",
        "d39216ff7c3784123c8773f2b047d6c9fe2896e452b3cd245279d1940ba05b2c",
    ),
    ("robust", 6): (
        "c82b13707e7e8a7c7e90ec8cb096324681e26954ba9f9e7bf429ae3c91ca4c74",
        "f4ac543b34f32c0e3cf8382d811fe000efab80c1a744af7b3edd8eaa8e74b350",
    ),
    ("ramsey", 2): (
        "d68793d14ed908afe630e1d09021561f2cc653e5e1b5a472424f144ba5975baa",
        "e44837ad2d5d9077e5be5b275e81ec0de9fc839dc4b8845967cd5da21a1cebc3",
    ),
    ("ramsey", 4): (
        "1418a6f009687cec4517cf350362dce0abdbf72f171813058d5beb122f697935",
        "2bc190517d4a989509650c5f9e5ac8ba453637ed60bb3206ff75e26157d0d1e6",
    ),
    ("pruned", 3): (
        "3e803aec494f5ecc2923efb9f2df70b1c056e2a8ac40c8c8c51ae622b3147ee8",
        "6eb9f82daeff3be7aee818a415fdb3efe54062b60fbdfa0af287fe6674ff9a33",
    ),
    ("planar", 3): (
        "952122d67c7de2979f62190264b6b066e00e95f596ede960815d2a33af339181",
        "bed3030b2145e272b14665282fcc399dd9f9d32a517b52d4cd18d17998cb6751",
    ),
}

#: (decrement, k) -> (pack digest, edge digest) of a TreeNavigator over
#: random_tree(300, seed=25) with every third vertex required.
TREE_GOLDEN = {
    (1, 2): (
        "7956228ce3757b62042f150880f65de7601a9e8eb1bd685769dadcb2deb4a873",
        "fb2d420f343f3a54df20f2b391d393c2f785f357871c33af01b41b85169b0d3d",
    ),
    (1, 3): (
        "1b89a1bb95f1e0621fede766776f4fd6c0a6e626fd4e23fe0182982d5e18886f",
        "1020553753c769829d7c4a6ce276b4df3c412efb1f60d2326f8299c8cab5513e",
    ),
    (1, 4): (
        "dd3c12f69dcfd10e4f3e1c6e07442db54a07a1475d2da302da61845b70809025",
        "b95997d47ea1a3fa0d19a22f179f6f5557e63948c6affcfa54277df530efc1c5",
    ),
    (1, 5): (
        "1cf5fd5c23a386b1a0ddb407a623311378f2a92a437efee911a98e6a9df60735",
        "d2a8e32c9fc6c4ba4f15cb58216de578c67f0160bd782e2b86400d60f62a3915",
    ),
    (1, 6): (
        "c9f26a734ed4eaf4e0f81bba6a983406a91708bf663106f4cc0d97afe77dc68c",
        "d34e3f1ad58f1871c81fe7e92d7d9ba5d3d91ab012b313703a8880499ec5743e",
    ),
    (2, 2): (
        "7956228ce3757b62042f150880f65de7601a9e8eb1bd685769dadcb2deb4a873",
        "fb2d420f343f3a54df20f2b391d393c2f785f357871c33af01b41b85169b0d3d",
    ),
    (2, 3): (
        "6b81ed36d2b14c77f121808d2a313c7cb13303de19f214ef4285e01c66e266cc",
        "16c00a28960bca4064c6cb8b416a93c31dcbeb3ba14db734522f166564ba5056",
    ),
    (2, 4): (
        "f4028934d846667580a1641a406df3814ee16a0bd1849eae6803b5124e84dd0b",
        "56688312036bb7a1d8a49c8ccfc0063759d016dc27d84b153bf0809efe4edd9a",
    ),
    (2, 5): (
        "cf7e9987c6f8b3d260e34e8ab2cabe2454de21e93dcd75ac80daa1eaee34df26",
        "b95997d47ea1a3fa0d19a22f179f6f5557e63948c6affcfa54277df530efc1c5",
    ),
    (2, 6): (
        "13ea7d9d45eb63ed5a9aae8a43dfde6385d58805ece66fcd39eea294eac54b1f",
        "d2a8e32c9fc6c4ba4f15cb58216de578c67f0160bd782e2b86400d60f62a3915",
    ),
}

#: Routing-scheme labels and tables.
ROUTING_GOLDEN = {
    "tree": "49b0ed0985fd5be068538cb917c06946c6bf0b94d6ba3a00844c0dc96efadaa4",
    "metric": "cf4623e57e8ee16211b6efed5dd89fc51e6a72b08e9ec1a9c865598c841bec24",
    "ft": "c06200197ad5a93f10b707f2ac1e06afd7a57ea416be268c1229393ef4c06107",
}


#: Labels, tables, distance-label tables and the (path, weight) of
#: every routed ordered pair, for the schemes built by
#: :func:`routing_state_digests`.
ROUTING_STATE_GOLDEN = {
    "metric_robust": "299c8cde034a7055c0b8c56f6a277947b56e4e239a433fda49ad57b8c13f4d48",
    "ft_f2": "14ecf19bb75b422cf5d6d55509f13b3171c466f1285e997917e5cc6c260ced32",
    "cover_labelings_robust": "3ac227a087a98d0b9202f17f35d0b52c8f58708480433a7e69e3cacd6c1d62ce",
    "cover_labelings_ramsey": "5b882ace2776f3503d1d3e68dae2948e9b5bc7722691c5b849556f0eeaaed280",
    "metric_routes_robust": "d4c4add4c36a6b7e1912e41a5ffc433b3694c3962b79ee46d516220c6f68015d",
    "metric_routes_ramsey": "de7f5408f4db22633dba7e97d1047054da8a617e9f98ff3d4fe5eb4c8a846ab8",
    "ft_routes_f2": "4190888e442e36301536f1d97c21720ae42d8913df8c061d1d163b19541aba84",
}

#: The faulty set every fault-tolerant route avoids (|F| = f = 2).
FT_FAULTS = frozenset({3, 17})


def cover_digests(name, k):
    metric, cover = _cover(name)
    navigator = MetricNavigator(metric, cover, k, workers=0)
    return (
        _arrays_digest(pack_suite_arrays(navigator.packs)),
        _edges_digest(navigator.navigators),
    )


def tree_digests(decrement, k):
    tree = random_tree(300, seed=25)
    navigator = TreeNavigator(
        tree, k, required=range(0, 300, 3), decrement=decrement
    )
    return (
        _arrays_digest(pack_suite_arrays([navigator.pack])),
        _edges_digest([navigator]),
    )


def routing_digests():
    tree_scheme, _ = build_tree_network(random_tree(150, seed=26), seed=27)
    metric, cover = _cover("ramsey")
    metric_scheme = MetricRoutingScheme(metric, cover, seed=27)
    # The digest was recorded while Ramsey tables still carried every
    # tree's distance label, which no node reads there; put them back
    # so the digest still pins the rest of each table.
    dist_tables = cover_labelings(cover)
    metric_tables = {
        p: {**table, "dist": [rows[p] for rows in dist_tables]}
        for p, table in metric_scheme.tables.items()
    }
    ft = FaultTolerantRoutingScheme(random_points(24, dim=2, seed=28), f=1, seed=29)
    return {
        "tree": _routing_digest(tree_scheme.labels, tree_scheme.tables),
        "metric": _routing_digest(metric_scheme.labels, metric_tables),
        "ft": _routing_digest(ft.labels, ft.tables),
    }


def _routes_digest(route, n, skip=frozenset()):
    """Digest of ``route(u, v)``'s path and weight over ordered pairs."""
    rows = []
    for u in range(n):
        for v in range(n):
            if u != v and u not in skip and v not in skip:
                result = route(u, v)
                rows.append((u, v, result.path, repr(result.weight)))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def routing_state_digests():
    robust_metric, robust = _cover("robust")
    ramsey_metric, ramsey = _cover("ramsey")
    robust_scheme = MetricRoutingScheme(robust_metric, robust, seed=27)
    ramsey_scheme = MetricRoutingScheme(ramsey_metric, ramsey, seed=27)
    ft = FaultTolerantRoutingScheme(random_points(24, dim=2, seed=28), f=2, seed=29)
    return {
        "metric_robust": _routing_digest(robust_scheme.labels, robust_scheme.tables),
        "ft_f2": _routing_digest(ft.labels, ft.tables),
        "cover_labelings_robust": _routing_digest(cover_labelings(robust), []),
        "cover_labelings_ramsey": _routing_digest(cover_labelings(ramsey), []),
        "metric_routes_robust": _routes_digest(robust_scheme.route, robust_metric.n),
        "metric_routes_ramsey": _routes_digest(ramsey_scheme.route, ramsey_metric.n),
        "ft_routes_f2": _routes_digest(
            lambda u, v: ft.route(u, v, FT_FAULTS), ft.metric.n, skip=FT_FAULTS
        ),
    }


@pytest.mark.parametrize("name,k", COVER_CASES)
def test_cover_navigator_bytes(name, k):
    assert cover_digests(name, k) == COVER_GOLDEN[(name, k)]


@pytest.mark.parametrize("decrement", [1, 2])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_tree_navigator_bytes(decrement, k):
    assert tree_digests(decrement, k) == TREE_GOLDEN[(decrement, k)]


def test_routing_labels_and_tables():
    assert routing_digests() == ROUTING_GOLDEN


def test_routing_state_bytes():
    assert routing_state_digests() == ROUTING_STATE_GOLDEN
