#!/usr/bin/env sh
# Smoke the dynamic-mutation path end to end through the CLI,
# including the crash window the journal exists for:
# build a cover checkpoint -> start `python -m repro serve --dynamic`
# -> drive interleaved mutations + queries over the wire -> kill -9
# the daemon and tear the journal tail (a crash mid-append) -> restart
# -> the replay must truncate the torn tail, re-apply every acked
# record, and pass the structural audit -> compact -> clean shutdown.
# The exhaustive suite lives in tests/test_dynamic.py behind the
# `dynamic` pytest marker; BENCH_dynamic.json (scripts/bench_smoke.sh)
# carries the sustained-churn numbers.
#
# Usage: scripts/churn_smoke.sh [work_dir]
set -eu
cd "$(dirname "$0")/.."
WORK_DIR="${1:-$(mktemp -d)}"
mkdir -p "$WORK_DIR"
CKPT="$WORK_DIR/cover.ckpt"
JOURNAL="$CKPT.journal"
LOG="$WORK_DIR/churn_serve.log"
N=40
PORT=$((21000 + $$ % 20000))

PYTHONPATH=src python -m repro checkpoint --family euclidean --n "$N" \
    --what cover --out "$CKPT"

PYTHONPATH=src python -m repro serve "$CKPT" --family euclidean --n "$N" \
    --dynamic --port "$PORT" >"$LOG" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# Phase 1: interleaved mutations and queries; record how far we got.
PYTHONPATH=src python - "$PORT" "$N" "$WORK_DIR/acked.txt" <<'EOF'
import sys

from repro.serve import ServeClient, wait_for_server

port, n, out = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
wait_for_server("127.0.0.1", port, timeout=120)


PATCH_KEYS = {"ops", "trees_total", "trees_replayed", "touched_fraction",
              "rebuilt", "repinned"}


def check_patch(response):
    # The block perfbench's churn probe reads off every mutation reply:
    # exactly these keys, so a field added or lost on the wire fails.
    patch = response["result"]["patch"]
    assert set(patch) == PATCH_KEYS, (sorted(patch), response)
    assert patch["ops"] == 1, patch
    assert patch["trees_replayed"] == patch["trees_total"] > 0, patch
    assert patch["touched_fraction"] == 1.0 and patch["rebuilt"] is True, patch


with ServeClient("127.0.0.1", port) as client:
    health = client.health()
    assert health["ready"], health
    assert health["service"]["dynamic"] is True, health

    inserted = []
    for i in range(4):
        response = client.insert([50.0 + 40.0 * i, 75.0 + 25.0 * i])
        assert response["status"] == "ok", response
        check_patch(response)
        inserted.append(response["result"]["point_id"])
        # Query the fresh point immediately: the new generation
        # (and its router) must serve it.
        for op in ("distance", "path", "route"):
            reply = client.request(op, u=i, v=inserted[-1])
            assert reply["status"] == "ok", reply
    deleted = client.delete(3)
    assert deleted["status"] == "ok", deleted
    check_patch(deleted)
    refused = client.distance(3, 5)
    assert refused["status"] == "error" and "tombstoned" in refused["error"], refused

    status = client.health()["service"]
    assert status["applied_seq"] == 5, status
    assert status["journal_records"] == 5, status
    with open(out, "w") as fh:
        fh.write(f"{status['applied_seq']} {status['active_points']}\n")
    print(
        f"churn traffic ok: {len(inserted)} inserts + 1 delete acked, "
        f"{status['active_points']} active points"
    )
EOF

# Phase 2: crash. kill -9 gives the daemon no chance to flush or
# close anything; the torn half-frame we append simulates the power
# cut landing mid-append (after the ack of seq 5, during seq 6).
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
printf '\x99\x00\x00\x00\xde\xad\xbe\xefgarbage' >> "$JOURNAL"
echo "daemon killed -9; journal tail torn ($(wc -c < "$JOURNAL") bytes)"

# Phase 3: restart. enable_dynamic must truncate the torn tail,
# replay the five acked records, and pass the structural audit before
# the daemon reports ready.
PYTHONPATH=src python -m repro serve "$CKPT" --family euclidean --n "$N" \
    --dynamic --port "$PORT" >"$LOG.2" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

PYTHONPATH=src python - "$PORT" "$N" "$WORK_DIR/acked.txt" <<'EOF'
import sys

from repro.serve import ServeClient, wait_for_server

port, n, acked = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
expect_seq, expect_active = map(int, open(acked).read().split())
wait_for_server("127.0.0.1", port, timeout=120)

with ServeClient("127.0.0.1", port) as client:
    status = client.health()["service"]
    assert status["dynamic"] is True, status
    assert status["applied_seq"] == expect_seq, (status, expect_seq)
    assert status["active_points"] == expect_active, (status, expect_active)

    # Every acked mutation survived the crash: the new points answer,
    # the tombstone still refuses.
    for u in (n, n + 1, n + 2, n + 3):
        reply = client.path(0, u)
        assert reply["status"] == "ok", reply
    refused = client.distance(3, 5)
    assert refused["status"] == "error" and "tombstoned" in refused["error"], refused
    print(
        f"replay ok: seq {status['applied_seq']} restored, "
        f"{status['journal_records']} journal records, audit passed"
    )

    # Fold the journal into the checkpoint and keep mutating: seq
    # numbering continues across the compaction epoch.
    compacted = client.compact()
    assert compacted["status"] == "ok", compacted
    assert compacted["result"]["journal_records"] == 0, compacted
    after = client.insert([500.0, 500.0])
    assert after["status"] == "ok", after
    assert after["result"]["seq"] == expect_seq + 1, after
    print("compact ok: journal folded, mutation seq continues")

    client.shutdown()
EOF

if wait "$SERVE_PID"; then
    trap - EXIT
else
    echo "ERROR: daemon exited non-zero after shutdown op" >&2
    cat "$LOG.2" >&2
    exit 1
fi

echo "churn smoke passed"
