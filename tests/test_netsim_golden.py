"""Golden digests of simulator runs and of what their observers record.

Each case builds a scheme, runs one simulation and hashes two things:

* the run itself — every delivered envelope's (msg_id, delivered_at,
  path, weight, hops, worst header), every drop with its reason, the
  event count, the final clock and :class:`SimReport`'s stretches;
* the ``OBS.registry.snapshot()`` the run leaves behind (instruments
  it never touched, and the ``kernel.*`` distance counters, left out).

The digests were recorded while the observer plane still ran inside
the event loop, one histogram observe and one scalar oracle call per
delivery.  Moving it to one pass per ``run()`` call must change
neither.  The one documented difference is where the oracle's distance
calls are counted: they left ``kernel.*.scalar_calls`` for the batch
counters, which :func:`_after_move` states exactly.
"""

import hashlib
import json
import struct

import pytest

from repro.graphs import random_tree
from repro.metrics import random_graph_metric, random_points
from repro.netsim import (
    NetworkSimulator,
    SimReport,
    compile_ft_scheme,
    compile_metric_scheme,
    compile_tree_scheme,
    kill_schedule,
    uniform_pairs,
)
from repro.observability import OBS
from repro.resilience.injectors import RandomInjector
from repro.routing import (
    FaultTolerantRoutingScheme,
    MetricRoutingScheme,
    build_tree_network,
)
from repro.treecover import ramsey_tree_cover, robust_tree_cover

pytestmark = pytest.mark.netsim

MESSAGES = 200
SPACING = 0.01


def _tree_scheme():
    return build_tree_network(random_tree(80, seed=3), seed=5)


def _euclidean_scheme(dim):
    metric = random_points(40, dim=dim, seed=13)
    return MetricRoutingScheme(metric, robust_tree_cover(metric, eps=0.45),
                               seed=14)


def _ramsey_scheme():
    metric = random_graph_metric(40, seed=16)
    return MetricRoutingScheme(metric, ramsey_tree_cover(metric, ell=2, seed=17),
                               seed=18)


def _ft_scheme():
    metric = random_points(44, dim=2, seed=29)
    return FaultTolerantRoutingScheme(
        metric, f=2, cover=robust_tree_cover(metric, eps=0.45), seed=30)


def _compile(kind, **links):
    if kind == "tree":
        scheme, net = _tree_scheme()
        return compile_tree_scheme(scheme, net, **links)
    if kind == "ft":
        return compile_ft_scheme(_ft_scheme(), gamma=4.0, **links)
    scheme = _ramsey_scheme() if kind == "ramsey" else _euclidean_scheme(
        int(kind[len("euclidean"):]))
    return compile_metric_scheme(scheme, gamma=4.0, **links)


#: name -> (scheme, tie-break, scheduler seed, kills, link options)
CASES = {
    "tree-fifo": ("tree", "fifo", 0, 0, {}),
    "tree-lifo-bounded-queue": (
        "tree", "lifo", 0, 0, {"service_time": 0.2, "queue_cap": 1}),
    "tree-seeded-kills": ("tree", "seeded", 7, 3, {}),
    "euclidean2-seeded": ("euclidean2", "seeded", 3, 0, {}),
    "euclidean8-fifo": ("euclidean8", "fifo", 0, 0, {}),
    "ramsey-fifo": ("ramsey", "fifo", 0, 0, {}),
    "ramsey-seeded-bounded-queue": (
        "ramsey", "seeded", 11, 0, {"service_time": 0.05, "queue_cap": 1}),
    "ft-seeded-kills": ("ft", "seeded", 3, 2, {}),
    "ft-lifo-bounded-queue": (
        "ft", "lifo", 0, 0, {"service_time": 0.05, "queue_cap": 1}),
}


def _simulate(name):
    kind, tie_break, seed, kills, links = CASES[name]
    compiled = _compile(kind, **links)
    pairs = uniform_pairs(compiled.n, MESSAGES, seed=len(name))
    OBS.registry.reset()
    with OBS.scoped(True):
        sim = NetworkSimulator(compiled, tie_break=tie_break, seed=seed)
        sim.send_many(pairs, spacing=SPACING)
        for when, victim in kill_schedule(
            RandomInjector(compiled.n, seed=seed), count=kills,
            start=SPACING * MESSAGES / 2.0, spacing=0.3,
        ):
            sim.kill_at(when, victim)
        sim.run()
        snapshot = OBS.registry.snapshot()
    return sim, snapshot


def _run_digest(sim):
    h = hashlib.sha256()
    for env in sim.delivered:
        h.update(struct.pack("<qdqdqq", env.msg_id, env.delivered_at,
                             len(env.path), env.weight, env.hops,
                             env.max_header_bits))
        h.update(struct.pack(f"<{len(env.path)}q", *env.path))
    for env, reason in sim.dropped:
        h.update(struct.pack("<q", env.msg_id) + reason.encode())
    h.update(struct.pack("<qd", sim.scheduler.events_run, sim.now))
    stretches = SimReport(sim).stretches
    h.update(struct.pack(f"<{len(stretches)}d", *stretches))
    return h.hexdigest()


def _split(snapshot):
    """The touched instruments: (non-kernel digest, kernel counters)."""
    touched, kernel = {}, {}
    for kind, values in snapshot.items():
        for key, value in values.items():
            if kind == "histograms" and not value["count"] or not value:
                continue
            if key.startswith("kernel."):
                kernel[key] = value
            else:
                touched[f"{kind}/{key}"] = value
    blob = json.dumps(touched, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), kernel


#: name -> (run digest, registry digest, the parent's kernel counters)
GOLDEN = {
    "tree-fifo": (
        "1f82be56e55eba3b332ddb9a07c9e87b40f2a306eece568e29925ff720927f59",
        "1346938b1154ebe841bcc7d5cd7212a07b652e1065dcf84615a4ea155b961f1d",
        {"kernel.tree.scalar_calls": 200},
    ),
    "tree-lifo-bounded-queue": (
        "59db1ba77ace53db18c75caa98fbea1cbd3c95678d9bbfd8af2bc5a3285668c6",
        "6f3d6b49918c671000e2db9af9ff4c823d7428dc32759d856cbf09601534a6c8",
        {"kernel.tree.scalar_calls": 191},
    ),
    "tree-seeded-kills": (
        "1d7753b5212a616c5a949e83b286c13717515ed74d293599ef400504f7fcc479",
        "42f2357a3d27bafec23efeb4010c54687020573685c1d93640d6b0fec74b2236",
        {"kernel.tree.scalar_calls": 193},
    ),
    "euclidean2-seeded": (
        "4e5c48348111aa83e7f27df01042f81312389031ada87e81902f39c0a62e901e",
        "b628984c4e37ddb4605768dea03eff91fb20bed350408c89942d8e677a6dc475",
        {"kernel.euclidean.scalar_calls": 200},
    ),
    "euclidean8-fifo": (
        "dbf5675f36232a2e1939dda4a3c4940abc55daf8772009b71ebee0f8eb6922ae",
        "9ab010dd22d0d24521a8b7a5659582af092a21ef33792f1b7121803fa87abb37",
        {"kernel.euclidean.scalar_calls": 200},
    ),
    "ramsey-fifo": (
        "7418068d33a6ec74f27b05f0f95482b79d9d5712c81b683c43d7d2eea6bbe925",
        "8bd5ed92635af00b3f86766354ef0a0e0ff0e96a56f987b7cc6940f2f325def5",
        {},
    ),
    "ramsey-seeded-bounded-queue": (
        "fe58407661f0576999b24a2d4da524e6dddff6c607f1d2cda3e08a7d0f4c1521",
        "e44114eafbec49aee75a3e4ebd0a47c8859d9604e62a59c7f98ab08b58447156",
        {},
    ),
    "ft-seeded-kills": (
        "5ea2a89c31dad82e19b134350a781446dbc6912aad6a61ca45d828ce7ae54185",
        "9b05647324eb4cedac27bee07dcd9c01a7e8002b98ae94936f405fe48ea2cab0",
        {"kernel.euclidean.scalar_calls": 186},
    ),
    "ft-lifo-bounded-queue": (
        "cf20842af2ee42f642d960a957eb8a66b53d7d10dfab742fc819a604d958e129",
        "b6d22cc0bc67708dd612fa3dff50d16f42952e3552aae985ce4f6f0d0eabb6fa",
        {"kernel.euclidean.scalar_calls": 195},
    ),
}


def _after_move(parent_kernel):
    """The kernel counters once the oracle is one batch per ``run()``.

    Every scalar call the per-delivery oracle made becomes one value of
    a single batch call (the tree kernel counts calls only).
    """
    moved = {}
    for key, calls in parent_kernel.items():
        family = key[len("kernel."):-len(".scalar_calls")]
        moved[f"kernel.{family}.batch_calls"] = 1
        if family == "euclidean":
            moved["kernel.euclidean.batch_values"] = calls
    return moved


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_and_registry_match_the_recorded_digests(name):
    sim, snapshot = _simulate(name)
    run_digest, obs_digest, parent_kernel = GOLDEN[name]
    obs, kernel = _split(snapshot)
    assert _run_digest(sim) == run_digest
    assert obs == obs_digest
    assert kernel == _after_move(parent_kernel)


@pytest.mark.parametrize("cap", [80, 120, 170])
def test_max_events_raise_still_counts_every_delivery(cap):
    """A ``max_events`` stop raises mid-run; the observer pass runs
    anyway, and a resumed run counts only what it delivers itself."""
    compiled = _compile("tree")
    OBS.registry.reset()
    with OBS.scoped(True):
        sim = NetworkSimulator(compiled, tie_break="seeded", seed=1)
        sim.send_many(uniform_pairs(compiled.n, 60, seed=2), spacing=SPACING)
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run(max_events=cap)
        mid = len(sim.delivered)
        assert 0 < mid < 60
        snap = OBS.registry.snapshot()
        assert snap["counters"]["netsim.delivered"] == mid
        for hist in ("netsim.hops", "netsim.header_bits", "netsim.stretch_pct"):
            assert snap["histograms"][hist]["count"] == mid
        sim.run()
        snap = OBS.registry.snapshot()
    report = SimReport(sim)
    assert report.delivered == 60
    assert snap["counters"]["netsim.delivered"] == 60
    stretch = snap["histograms"]["netsim.stretch_pct"]
    assert stretch["count"] == 60
    assert stretch["sum"] == sum(100.0 * s for s in report.stretches)

