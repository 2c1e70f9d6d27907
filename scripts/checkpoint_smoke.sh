#!/usr/bin/env sh
# Smoke the checkpoint subsystem end to end through the CLI:
# save -> audit -> corrupt -> audit must fail -> recover -> audit clean.
# Exercises every layer (format v2 checksums, structural auditor,
# per-tree recovery) on a small instance; fast enough for CI.  The
# exhaustive property tests live in tests/test_checkpoint.py behind the
# `checkpoint` pytest marker.
#
# Usage: scripts/checkpoint_smoke.sh [work_dir]
set -eu
cd "$(dirname "$0")/.."
WORK_DIR="${1:-$(mktemp -d)}"
mkdir -p "$WORK_DIR"
CKPT="$WORK_DIR/cover.ckpt"

# Run the whole pipeline through the process-pool engine: every build,
# audit and per-tree recovery below fans out across 2 workers, so the
# smoke covers the parallel paths alongside the checkpoint layers.
REPRO_WORKERS=2
export REPRO_WORKERS

PYTHONPATH=src python -m repro checkpoint --family euclidean --n 70 \
    --what cover --out "$CKPT"

PYTHONPATH=src python -m repro audit --checkpoint "$CKPT" \
    --family euclidean --n 70

# Corrupt one byte in the middle of the file; the audit must now fail
# with a typed error (non-zero exit), never a wrong answer.
PYTHONPATH=src python - "$CKPT" <<'EOF'
import sys

path = sys.argv[1]
with open(path, "rb") as handle:
    raw = bytearray(handle.read())
raw[len(raw) // 2] ^= 0xFF
with open(path, "wb") as handle:
    handle.write(raw)
print(f"flipped one byte in {path}")
EOF

if PYTHONPATH=src python -m repro audit --checkpoint "$CKPT" \
    --family euclidean --n 70; then
    echo "ERROR: audit accepted a corrupted checkpoint" >&2
    exit 1
fi
echo "corrupted checkpoint rejected as expected"

# Automatic recovery rebuilds and resaves; the audit passes again.
PYTHONPATH=src python -m repro audit --checkpoint "$CKPT" \
    --family euclidean --n 70 --recover --resave
PYTHONPATH=src python -m repro audit --checkpoint "$CKPT" \
    --family euclidean --n 70

echo "checkpoint smoke passed"
