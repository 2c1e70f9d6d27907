#!/usr/bin/env sh
# Smoke the benchmark-regression harness end to end: run a tiny-n
# `python -m repro bench --quick`, whose stages (repro.bench.stages())
# raise on a broken contract — the zeta gates of the robust, pruned and
# compact covers, the mapped serving rows, the dynamic rows and the
# netsim delivery/stretch/hop/drop gates — then validate every emitted
# BENCH_*.json against the schema contract
# (repro.bench.validate_bench_json).  Fast enough for CI; the full-size
# gates live in tests/test_bench_harness.py and tests/test_netsim.py
# behind the `bench` pytest marker, tests/test_bench_manifest.py pins the
# shape of the files this script emits, and the crash-path smoke for the
# dynamic rows (kill -9 mid-journal, restart, replay) is
# scripts/churn_smoke.sh.
#
# Usage: scripts/bench_smoke.sh [out_dir]
set -eu
cd "$(dirname "$0")/.."
OUT_DIR="${1:-$(mktemp -d)}"

# REPRO_WORKERS=2 routes every per-tree build through the process-pool
# engine, so the smoke also covers the shared-memory shipping path and
# the workers/parallel_speedup fields of the emitted schemas.
REPRO_WORKERS=2 PYTHONPATH=src python -m repro bench --quick --n 80 --nav-n 60 \
    --serve-n 60 --out-dir "$OUT_DIR"

PYTHONPATH=src python - "$OUT_DIR" <<'EOF'
import json
import sys

from repro.bench import FILES, validate_bench_json

out_dir = sys.argv[1]
payloads = {}
for file in FILES:
    path = f"{out_dir}/BENCH_{file}.json"
    with open(path, encoding="utf-8") as handle:
        payloads[file] = payload = json.load(handle)
    validate_bench_json(payload)
    print(f"{path}: schema {payload['schema']} OK "
          f"({len(payload['results'])} results)")

# The packed-query rewrite must keep scalar queries at least at parity
# with the frozen seed loop, even at smoke sizes — a speedup below 1.0
# here means the hot path regressed to (or below) the seed
# implementation.  A timing gate, so it is not a stage check.
rows = {entry["name"]: entry for entry in payloads["navigation"]["results"]}
scalar = rows["query_scalar"]
if scalar["speedup"] is not None and scalar["speedup"] < 1.0:
    raise SystemExit(
        f"query_scalar regressed below the seed baseline: "
        f"speedup {scalar['speedup']} (current {scalar['seconds']}s, "
        f"seed {scalar['seed_seconds']}s)"
    )
print(f"query_scalar speedup {scalar['speedup']}x vs seed: OK")
EOF

# Second pass with --trace: the BENCH rows must now embed span trees,
# and every one of them must validate against the checked-in trace
# schema (src/repro/observability/trace_schema.json).
TRACE_DIR="$OUT_DIR/trace"
PYTHONPATH=src python -m repro bench --quick --n 80 --nav-n 60 --no-baseline \
    --no-serving --no-dynamic --trace --out-dir "$TRACE_DIR"

PYTHONPATH=src python - "$TRACE_DIR" <<'EOF'
import json
import sys

from repro.bench import validate_bench_json
from repro.observability import trace_document, validate_trace_json

out_dir = sys.argv[1]
traced_rows = 0
for name in ("BENCH_tree_covers.json", "BENCH_navigation.json"):
    path = f"{out_dir}/{name}"
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_bench_json(payload)
    if not payload["config"].get("trace"):
        raise SystemExit(f"{path}: config.trace missing from a --trace run")
    for entry in payload["results"]:
        if "trace" not in entry:
            raise SystemExit(f"{path}: result {entry['name']} lacks trace spans")
        problems = validate_trace_json(
            trace_document(entry["trace"], payload.get("trace_metrics"))
        )
        if problems:
            raise SystemExit(f"{path}: {entry['name']}: {problems}")
        traced_rows += 1
print(f"trace pass OK: {traced_rows} BENCH rows validated against the "
      "trace schema")
EOF

# And the report renderer must digest a traced artifact.
PYTHONPATH=src python -m repro trace-report "$TRACE_DIR/BENCH_navigation.json" \
    > /dev/null

echo "bench smoke passed"
