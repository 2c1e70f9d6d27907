#!/usr/bin/env sh
# Smoke the serving daemon end to end through the CLI:
# build a cover checkpoint -> start `python -m repro serve` in the
# background -> drive mixed traffic (paths, distances, a route, a
# pipelined burst) -> inject one live fault and wait for background
# recovery -> scrape /metrics over plain HTTP -> clean shutdown via the
# protocol's shutdown op.  A second pass serves a packed checkpoint
# memory-mapped and checks its answers, and a burst of 2,000 pipelined
# queries on each of two connections, against the in-memory navigator:
# the bursts' answer lines byte for byte, and the daemon's admission,
# navigator, latency and inline-batch counts, and one write mixing valid
# queries with a malformed line and an out-of-range pair (each line gets
# its own answer).  Exercises every serving layer (admission
# batching, degraded labelling, chaos recovery, the HTTP facade) on a
# small instance; fast enough for CI.  The exhaustive suite lives in
# tests/test_serve.py behind the `serve` pytest marker.
#
# Usage: scripts/serve_smoke.sh [work_dir]
set -eu
cd "$(dirname "$0")/.."
WORK_DIR="${1:-$(mktemp -d)}"
mkdir -p "$WORK_DIR"
CKPT="$WORK_DIR/cover.ckpt"
LOG="$WORK_DIR/serve.log"
N=70
PORT=$((20000 + $$ % 20000))

PYTHONPATH=src python -m repro checkpoint --family euclidean --n "$N" \
    --what cover --out "$CKPT"

PYTHONPATH=src python -m repro serve "$CKPT" --family euclidean --n "$N" \
    --port "$PORT" >"$LOG" 2>&1 &
SERVE_PID=$!
# Whatever happens below, never leave the daemon running.
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

PYTHONPATH=src python - "$PORT" "$N" <<'EOF'
import sys
import urllib.request

from repro.serve import ServeClient, wait_for_server

port, n = int(sys.argv[1]), int(sys.argv[2])
wait_for_server("127.0.0.1", port, timeout=120)

with ServeClient("127.0.0.1", port) as client:
    health = client.health()
    assert health["ready"], health
    print(f"daemon ready: {health['service']['trees_serving']} trees serving")

    # Mixed traffic: scalar queries plus a pipelined burst that the
    # admission controller coalesces into micro-batches.
    for u, v in [(0, n - 1), (1, n // 2), (3, 7)]:
        response = client.path(u, v)
        assert response["status"] == "ok", response
        assert response["result"]["hops"] <= 3, response
    assert client.distance(2, n - 2)["status"] == "ok"
    assert client.route(5, n - 5)["status"] == "ok"
    burst = client.query_batch(
        "path", [(i, (i * 7 + 3) % n) for i in range(24) if i != (i * 7 + 3) % n]
    )
    assert all(r["status"] == "ok" for r in burst)
    print(f"mixed traffic ok ({len(burst)} pipelined queries)")

    # One injected fault: responses degrade with an explicit label,
    # then background recovery restores the full contract.
    outcome = client.chaos(kill=[0], recover=True)
    assert outcome["result"]["killed"] == [0], outcome
    degraded = client.path(0, n - 1)
    assert degraded["status"] in ("ok", "degraded"), degraded
    client.wait_state("ready", timeout=300)
    recovered = client.path(0, n - 1)
    assert recovered["status"] == "ok", recovered
    print("fault injected, degraded labelling observed, recovery complete")

    # The same port speaks HTTP for scraping.
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=30
    ) as response:
        text = response.read().decode()
    assert "repro_serve_admitted" in text, text[:200]
    assert "repro_serve_chaos_trees_killed" in text
    print(f"scraped /metrics: {len(text.splitlines())} series lines")

    client.shutdown()
EOF

# The shutdown op must terminate the daemon cleanly (exit code 0).
if wait "$SERVE_PID"; then
    trap - EXIT
else
    echo "ERROR: daemon exited non-zero after shutdown op" >&2
    cat "$LOG" >&2
    exit 1
fi

# Second pass: zero-copy serving.  A navigator checkpoint saved with
# --packed carries the raw query-array region; `serve --mmap` attaches
# to it without rebuilding.  Queries must answer with the full
# contract and exactly as the same checkpoint loaded in memory (no
# mmap) answers them; route (which needs the cover object) must
# degrade to a labelled undelivered, never crash.
MMAP_CKPT="$WORK_DIR/nav.ckpt"
MMAP_LOG="$WORK_DIR/serve_mmap.log"
MMAP_PORT=$((PORT + 1))

PYTHONPATH=src python -m repro checkpoint --family euclidean --n "$N" \
    --what navigator --packed --out "$MMAP_CKPT"

# The queue holds both bursts of the leg below, so none of it is shed.
PYTHONPATH=src python -m repro serve "$MMAP_CKPT" --family euclidean \
    --n "$N" --mmap --port "$MMAP_PORT" --max-queue 4096 \
    >"$MMAP_LOG" 2>&1 &
MMAP_PID=$!
trap 'kill "$MMAP_PID" 2>/dev/null || true' EXIT

PYTHONPATH=src python - "$MMAP_CKPT" "$MMAP_PORT" "$N" <<'EOF'
import json
import random
import re
import socket
import sys
import threading
import urllib.request

from repro.checkpoint import load_navigator_checkpoint
from repro.metrics import random_points, sample_pairs
from repro.serve import (
    ServeClient,
    encode_line,
    make_response,
    wait_for_server,
)

path, port, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
# The daemon's metric (`--family euclidean`, default seed 0).
in_memory = load_navigator_checkpoint(path, random_points(n, dim=2, seed=0))
wait_for_server("127.0.0.1", port, timeout=120)

with ServeClient("127.0.0.1", port) as client:
    health = client.health()
    assert health["ready"], health
    assert health["service"]["mapped"] is True, health
    pairs = [(0, n - 1), (1, n // 2), (3, 7), (4, 4)]
    pairs += sample_pairs(n, 30, seed=5)
    for u, v in pairs:
        response = client.path(u, v)
        assert response["status"] == "ok", response
        assert response["result"]["hops"] <= 3, response
        assert response["service"]["mapped"] is True, response
        expected, tree = in_memory.find_path_with_tree(u, v)
        assert response["result"]["path"] == expected, (u, v, response)
        assert response["result"]["tree"] == tree, (u, v, response)
        distance = client.distance(u, v)
        assert distance["status"] == "ok", distance
        assert distance["result"]["distance"] == \
            in_memory.approx_distance(u, v), (u, v, distance)
    print(f"mmap parity ok: {len(pairs)} path and distance answers "
          "identical to the in-memory navigator")
    routed = client.route(5, n - 5)
    assert routed["status"] == "undelivered", routed
    assert "memory-mapped" in (routed["error"] or ""), routed
    print("mmap traffic ok: paths delivered, route labelled undelivered")


COUNTS = ("repro_serve_admitted", "repro_navigator_queries",
          "repro_navigator_hops_count", "repro_serve_request_latency_us_count",
          "repro_serve_batches_inline")


def scrape():
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=30
    ) as response:
        text = response.read().decode()
    return {name: float(re.search(rf"^{name} (\S+)$", text,
                                  re.MULTILINE).group(1))
            for name in COUNTS}


def expected_result(op, u, v):
    """The answer's result, computed by the in-memory navigator."""
    if op == "distance":
        return {"distance": in_memory.approx_distance(u, v)}
    path, tree = in_memory.find_path_with_tree(u, v)
    weight = in_memory.path_weight(path)
    base = in_memory.metric.distance(u, v)
    return {"path": path, "hops": len(path) - 1, "weight": weight,
            "stretch": weight / base if base > 0 else 1.0, "tree": tree}


# Burst: 2,000 pipelined queries in one write on each of two
# connections at once; the second half-closes after sending, the first
# stays open.  Every id is answered exactly once on its own connection,
# each answer line is byte for byte the envelope of the in-memory
# navigator's result, and the daemon's counts moved by exactly the two
# bursts: admissions and request latencies, one navigator query and
# one hop count per path answer with u != v.  Some batches ran on the
# event loop itself.
rng = random.Random(11)
burst = [("path" if i % 2 else "distance", rng.randrange(n), rng.randrange(n))
         for i in range(2000)]
payload = b"".join(
    encode_line({"id": i, "op": op, "u": u, "v": v})
    for i, (op, u, v) in enumerate(burst)
)
with ServeClient("127.0.0.1", port) as client:
    service = client.health()["service"]
before = scrape()
received = [None, None]


def drive(which):
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(payload)
        if which:
            sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as reader:
            if which:  # half-closed: the daemon closes after the last
                received[which] = list(reader)
            else:
                received[which] = [reader.readline() for _ in burst]


threads = [threading.Thread(target=drive, args=(which,)) for which in (0, 1)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(120)
for lines in received:
    answers = [json.loads(line) for line in lines]
    ids = sorted(answer["id"] for answer in answers)
    assert ids == list(range(len(burst))), (len(ids), len(set(ids)))
    for line, answer in zip(lines, answers):
        op, u, v = burst[answer["id"]]
        expected = encode_line(make_response(
            answer["id"], "ok", expected_result(op, u, v), None, service
        ))
        assert line == expected, (line, expected)
after = scrape()
navigated = 2 * sum(1 for op, u, v in burst if op == "path" and u != v)
moved = {name: after[name] - before[name] for name in COUNTS}
inline = moved.pop("repro_serve_batches_inline")
assert inline > 0, moved
assert moved == {
    "repro_serve_admitted": 2 * len(burst),
    "repro_navigator_queries": navigated,
    "repro_navigator_hops_count": navigated,
    "repro_serve_request_latency_us_count": 2 * len(burst),
}, (moved, navigated)
print(f"burst ok: {len(burst)} pipelined queries on each of two "
      "connections (one half-closed), each answered once, byte-identical "
      "to the in-memory navigator's envelopes; counts moved by exactly "
      f"the bursts ({navigated} navigated paths, {inline:.0f} batches "
      "on the loop)")

# One write of valid queries with a malformed line and an out-of-range
# pair among them: the batch decode leaves those two lines to the
# per-line parser, and every line gets its own answer.
mixed = [("path", 1, 2), ("distance", 3, 9), ("path", 5, 5), ("path", 7, 40)]
lines = [encode_line({"id": f"m{i}", "op": op, "u": u, "v": v})
         for i, (op, u, v) in enumerate(mixed)]
lines.insert(2, b"this is not json\n")
lines.insert(4, encode_line({"id": "far", "op": "path", "u": 0, "v": n + 5}))
with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
    sock.sendall(b"".join(lines))
    sock.shutdown(socket.SHUT_WR)
    with sock.makefile("rb") as reader:
        answers = [json.loads(line) for line in reader]
assert len(answers) == len(lines), answers
by_id = {answer["id"]: answer for answer in answers}
assert len(by_id) == len(lines), answers
for i, (op, u, v) in enumerate(mixed):
    answer = by_id[f"m{i}"]
    assert answer["status"] == "ok", answer
    assert answer["result"] == expected_result(op, u, v), answer
assert "not valid JSON" in by_id[None]["error"], by_id[None]
assert by_id["far"]["status"] == "error", by_id["far"]
assert f"[0, {n})" in by_id["far"]["error"], by_id["far"]
print(f"mixed write ok: {len(mixed)} queries answered beside a malformed "
      "line and an out-of-range pair, each with its own answer")

with ServeClient("127.0.0.1", port) as client:
    client.shutdown()
EOF

if wait "$MMAP_PID"; then
    trap - EXIT
else
    echo "ERROR: mmap daemon exited non-zero after shutdown op" >&2
    cat "$MMAP_LOG" >&2
    exit 1
fi

echo "serve smoke passed"
