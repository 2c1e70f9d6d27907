"""Golden wire bytes and counter deltas of the serving daemon.

One seeded request stream goes to a daemon over a raw socket: ``path``,
``distance`` and ``route`` queries with int and string ids, ``ping``
lines, malformed and invalid lines, out-of-range pairs, mixed
``deadline_ms`` values, and a line split across two socket reads.  The
daemon's answer lines, sorted by id, hash to a digest recorded before
queries travelled as columnar batches; the counters the stream moves
were recorded at the same time.  Both an in-memory cover and a
memory-mapped pruned navigator checkpoint serve the stream.

``test_template_mutation_fails_the_digest`` shows the digest sees a
one-byte change of the answer-line template.
"""

import hashlib
import json
import random
import socket
import time

import pytest

from repro.checkpoint import (
    CheckpointService,
    save_cover_checkpoint,
    save_navigator_checkpoint,
)
from repro.core import MetricNavigator
from repro.metrics import random_points
from repro.observability import OBS
from repro.serve import AdmissionPolicy, ThreadedServer
from repro.serve import protocol
from repro.treecover import prune_cover, robust_tree_cover

pytestmark = pytest.mark.serve

N = 48
K = 3

#: sha256 over the sorted answer lines, per service kind.
DIGESTS = {
    "cover": "a983f2dbaa217bfa4981a9711e677b8f077842d4cc9644b548b5deff1c7522de",
    "mapped": "2d395f909a64af26eae729b26ac3ec0a5e1a4234d1ed640a5224db0659998cbb",
}

#: Counter and histogram-count deltas the stream moves, per service kind.
_MOVED = {
    "serve.requests": 193, "serve.admitted": 176, "serve.bad_requests": 10,
    "treenav.queries": 102, "treenav.nodes_touched": 402,
    "navigator.hops": 102, "navigator.tree_chosen": 102,
}
COUNTS = {"cover": _MOVED, "mapped": _MOVED}

_COUNTERS = ("serve.requests", "serve.admitted", "serve.bad_requests",
             "treenav.queries", "treenav.nodes_touched")
_HISTOGRAMS = ("navigator.hops", "navigator.tree_chosen")


def _stream(seed=25):
    """The request stream: a list of wire lines (bytes, newline-ended)."""
    rng = random.Random(seed)
    lines = []
    for i in range(180):
        roll = rng.random()
        if roll < 0.04:
            lines.append({"id": i, "op": "ping"})
            continue
        op = "path" if roll < 0.6 else "distance" if roll < 0.9 else "route"
        u = rng.randrange(N)
        v = u if rng.random() < 0.05 else rng.randrange(N)
        body = {"id": f"q-{i}" if rng.random() < 0.2 else i,
                "op": op, "u": u, "v": v}
        deadline = rng.choice([None, None, 30000, 45000.5, 60000])
        if deadline is not None:
            body["deadline_ms"] = deadline
        lines.append(body)
    encoded = [protocol.encode_json(body).encode() + b"\n" for body in lines]
    odd = [
        b"this is not json\n",
        b'{"id": 1000, "op": "path", "u": 3, "v": 4000}\n',  # out of range
        b'{"id": 1001, "op": "distance", "u": 4000, "v": 3}\n',
        b'{"id": 1002, "op": "path", "u": -1, "v": 2}\n',
        b'{"id": 1003, "op": "path", "u": true, "v": 2}\n',
        b'{"id": 1004, "op": "path", "u": 1, "v": 2, "deadline_ms": 0}\n',
        b'{"id": 1005, "op": "explode"}\n',
        b'{"id": 1006, "op": "path", "u": 1}\n',
        b'["a", "list"]\n',
        b'{"id": "pad", "op": "path", "u": 5, "v": 9, "pad": [1, {"x": 2}]}\n',
        b'  {"v": 7, "u": 11, "op": "path", "id": 1007}  \n',
        b'{"id": 1008, "op": "distance", "u": 2, "v": 2.0}\n',
        b'{"id": 1009, "op": "ping"}\n',
        b"\n",
    ]
    for index, line in enumerate(odd):
        encoded.insert(7 + 11 * index, line)
    return encoded


def _serve(service):
    """Send the stream in three writes (one line split across the last
    two), half-close, and return every answer line."""
    lines = _stream()
    head = b"".join(lines[:100])
    tail = b"".join(lines[100:])
    cut = tail.index(b'"op"', 40)  # inside a line
    policy = AdmissionPolicy(max_batch=8, max_queue=4096)
    with ThreadedServer(service, policy=policy) as threaded, \
            socket.create_connection((threaded.host, threaded.port),
                                     timeout=60) as sock:
        sock.sendall(head)
        time.sleep(0.05)
        sock.sendall(tail[:cut])
        time.sleep(0.05)
        sock.sendall(tail[cut:])
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as reader:
            return list(reader)


def _digest(answers):
    keyed = sorted((json.dumps(json.loads(line)["id"]), line)
                   for line in answers)
    h = hashlib.sha256()
    for _, line in keyed:
        h.update(line)
    return h.hexdigest()


def _counts():
    registry = OBS.registry
    out = {name: registry.counter(name).value for name in _COUNTERS}
    out.update({name: registry.histogram(name).count for name in _HISTOGRAMS})
    return out


@pytest.fixture(scope="module")
def metric():
    return random_points(N, dim=2, seed=5)


@pytest.fixture(scope="module")
def checkpoints(metric, tmp_path_factory):
    cover = robust_tree_cover(metric, eps=0.5)
    root = tmp_path_factory.mktemp("golden")
    cover_path = str(root / "cover.ckpt")
    save_cover_checkpoint(cover, cover_path,
                          builder={"family": "robust", "eps": 0.5})
    nav_path = str(root / "nav.ckpt")
    pruned = prune_cover(cover, seed=3).cover
    save_navigator_checkpoint(MetricNavigator(metric, pruned, K), nav_path,
                              packed=True)
    return {"cover": cover_path, "mapped": nav_path}


def _load(metric, checkpoints, kind):
    return CheckpointService(metric, k=K).load(
        checkpoints[kind], mmap=kind == "mapped"
    )


@pytest.mark.parametrize("kind", ["cover", "mapped"])
def test_answer_bytes_match_the_recorded_digest(metric, checkpoints, kind):
    answers = _serve(_load(metric, checkpoints, kind))
    assert len(answers) == len([line for line in _stream() if line.strip()])
    assert _digest(answers) == DIGESTS[kind]


@pytest.mark.parametrize("kind", ["cover", "mapped"])
def test_counters_match_the_recorded_deltas(metric, checkpoints, kind):
    service = _load(metric, checkpoints, kind)
    with OBS.scoped(True):
        before = _counts()
        _serve(service)
        after = _counts()
    moved = {name: after[name] - before[name] for name in before}
    assert moved == COUNTS[kind]


@pytest.mark.parametrize("name", ["_PATH_LINE", "_DISTANCE_LINE"])
def test_template_mutation_fails_the_digest(metric, checkpoints, name,
                                            monkeypatch):
    """One byte changed in an answer-line template changes the digest:
    the golden bytes see the template, not only the JSON encoder."""
    template = getattr(protocol, name)
    at = template.index('"status"') + 1
    mutated = template[:at] + "S" + template[at + 1:]
    assert len(mutated) == len(template) and mutated != template
    monkeypatch.setattr(protocol, name, mutated)
    answers = _serve(_load(metric, checkpoints, "mapped"))
    assert _digest(answers) != DIGESTS["mapped"]
