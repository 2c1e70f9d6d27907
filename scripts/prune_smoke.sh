#!/usr/bin/env sh
# Smoke the cover-pruning + compact-backend pipeline end to end through
# the CLI: build a pruned cover checkpoint -> audit it -> build a
# pruned *packed* navigator checkpoint -> verify in-memory vs mmap
# query parity -> check that a traced prune's stage spans cover its wall
# time -> serve it memory-mapped and verify the daemon answers
# the identical paths -> build + audit a compact-backend checkpoint ->
# finally prove the dynamic layer refuses a pruned checkpoint with a
# typed error (non-zero exit), never silent corruption.  Fast enough
# for CI; the exhaustive suite lives in tests/test_prune.py and
# tests/test_tree_covers.py.
#
# Usage: scripts/prune_smoke.sh [work_dir]
set -eu
cd "$(dirname "$0")/.."
WORK_DIR="${1:-$(mktemp -d)}"
mkdir -p "$WORK_DIR"
COVER_CKPT="$WORK_DIR/pruned_cover.ckpt"
NAV_CKPT="$WORK_DIR/pruned_nav.ckpt"
COMPACT_CKPT="$WORK_DIR/compact_cover.ckpt"
LOG="$WORK_DIR/serve.log"
N=90
PORT=$((21000 + $$ % 20000))

# Leg 1: pruned cover checkpoint survives its own audit.  The builder
# spec in the envelope records the prune, so recovery replays it.
PYTHONPATH=src python -m repro checkpoint --family euclidean --n "$N" \
    --what cover --prune --out "$COVER_CKPT"
PYTHONPATH=src python -m repro audit --checkpoint "$COVER_CKPT" \
    --family euclidean --n "$N"
echo "pruned cover checkpoint audited"

# Leg 2: pruned packed navigator -> in-memory vs mmap bit-identity.
PYTHONPATH=src python -m repro checkpoint --family euclidean --n "$N" \
    --what navigator --prune --packed --out "$NAV_CKPT"

PYTHONPATH=src python - "$NAV_CKPT" "$N" <<'EOF'
import sys

from repro.checkpoint import load_navigator_checkpoint
from repro.metrics import random_points, sample_pairs

path, n = sys.argv[1], int(sys.argv[2])
metric = random_points(n, dim=2, seed=0)
rebuilt = load_navigator_checkpoint(path, metric)
mapped = load_navigator_checkpoint(path, metric, mmap=True)
for u, v in sample_pairs(n, 80, seed=3):
    assert mapped.find_path(u, v) == rebuilt.find_path(u, v), (u, v)
print(f"mmap parity ok: 80 pairs bit-identical across {mapped.num_trees} "
      "retained trees")
EOF

# Leg 2b: the prune's stages account for its wall time — the direct
# children of every traced cover.prune span (γ scan, coverage matrix,
# greedy, re-audit) sum to at least 95% of it.  The traced build is the
# benchmark's n=200 checkpoint, run under wait4 so that its minor page
# faults and system CPU seconds print beside the check.  Those figures
# are informational, not gated: they depend on the C allocator.
TRACE="$WORK_DIR/prune_trace.json"
PYTHONPATH=src python - "$WORK_DIR/traced_nav.ckpt" "$TRACE" <<'EOF'
import os
import sys

out, trace = sys.argv[1], sys.argv[2]
argv = [sys.executable, "-m", "repro", "checkpoint", "--family", "euclidean",
        "--n", "200", "--k", "3", "--eps", "0.5", "--seed", "1",
        "--what", "navigator", "--prune", "--packed", "--out", out,
        "--trace", "--trace-out", trace]
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
if os.waitstatus_to_exitcode(status) != 0:
    sys.exit(f"n=200 build failed: wait status {status}")
print(f"n=200 build rusage (not gated): {usage.ru_minflt} minor page faults, "
      f"{usage.ru_stime:.2f} s sys, {usage.ru_utime:.2f} s user")
EOF

PYTHONPATH=src python - "$TRACE" <<'EOF'
import json
import sys


def walk(spans):
    for span in spans:
        yield span
        yield from walk(span.get("children", []))


with open(sys.argv[1], encoding="utf-8") as handle:
    doc = json.load(handle)
prunes = [s for s in walk(doc["spans"]) if s["name"] == "cover.prune"]
assert prunes, "no cover.prune span in the trace"
for span in prunes:
    children = span.get("children", [])
    covered = sum(c["duration_ns"] for c in children) / span["duration_ns"]
    names = ", ".join(c["name"] for c in children)
    assert covered >= 0.95, f"cover.prune children ({names}) cover {covered:.3f}"
    print(f"cover.prune stage coverage ok: {covered:.3f} by {names}")
EOF

# Leg 3: serve the pruned checkpoint memory-mapped; the daemon must
# answer the same paths the local loads produced.
PYTHONPATH=src python -m repro serve "$NAV_CKPT" --family euclidean \
    --n "$N" --mmap --port "$PORT" >"$LOG" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

PYTHONPATH=src python - "$NAV_CKPT" "$PORT" "$N" <<'EOF'
import sys

from repro.checkpoint import load_navigator_checkpoint
from repro.metrics import random_points, sample_pairs
from repro.serve import ServeClient, wait_for_server

path, port, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
metric = random_points(n, dim=2, seed=0)
mapped = load_navigator_checkpoint(path, metric, mmap=True)
wait_for_server("127.0.0.1", port, timeout=120)
with ServeClient("127.0.0.1", port) as client:
    health = client.health()
    assert health["ready"], health
    assert health["service"]["mapped"] is True, health
    for u, v in sample_pairs(n, 30, seed=4):
        response = client.path(u, v)
        assert response["status"] == "ok", response
        assert response["result"]["path"] == mapped.find_path(u, v), (u, v)
    print("served parity ok: 30 daemon answers identical to the local mmap")
    client.shutdown()
EOF

if wait "$SERVE_PID"; then
    trap - EXIT
else
    echo "ERROR: daemon exited non-zero after shutdown op" >&2
    cat "$LOG" >&2
    exit 1
fi

# Leg 4: the compact doubling-metric backend rides the same checkpoint
# + audit machinery via its builder spec.
PYTHONPATH=src python -m repro checkpoint --family euclidean --n "$N" \
    --what cover --backend compact --out "$COMPACT_CKPT"
PYTHONPATH=src python -m repro audit --checkpoint "$COMPACT_CKPT" \
    --family euclidean --n "$N"
echo "compact-backend checkpoint audited"

# Leg 5: dynamic mutation on a pruned checkpoint must be a typed
# refusal — non-zero exit with the reason on stderr.
DYN_ERR="$WORK_DIR/dynamic_refusal.err"
if PYTHONPATH=src python -m repro serve "$COVER_CKPT" --family euclidean \
    --n "$N" --dynamic --port $((PORT + 1)) 2>"$DYN_ERR"; then
    echo "ERROR: serve --dynamic accepted a pruned checkpoint" >&2
    exit 1
fi
if ! grep -q "pruned" "$DYN_ERR"; then
    echo "ERROR: dynamic refusal did not name the pruned cover:" >&2
    cat "$DYN_ERR" >&2
    exit 1
fi
echo "dynamic mutation refused the pruned checkpoint as expected"

echo "prune smoke passed"
