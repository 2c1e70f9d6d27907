#!/usr/bin/env sh
# Smoke the message-passing simulator end to end through the CLI:
# build a 10^4-node tree scheme -> compile to per-node state (locality
# audit) -> route 10^5 messages and gate the Theorem 5.1 contract
# (100% delivery, <= 2 hops, stretch exactly 1, headers within the
# log^2 n budget) -> rerun with 5% of the nodes killed mid-traffic and
# demand exact drop accounting (every loss is dead_node, survivors
# still stretch-1) -> small metric (one of them a Ramsey cover routed
# through home trees) and fault-tolerant legs through `--verify` ->
# scrape netsim.* off a live /metrics endpoint.  The exhaustive suite
# lives in tests/test_netsim.py (netsim marker; the full-size bench
# legs additionally carry -m bench).
#
# Usage: scripts/netsim_smoke.sh [work_dir]
set -eu
cd "$(dirname "$0")/.."
WORK_DIR="${1:-$(mktemp -d)}"
BIG_JSON="$WORK_DIR/netsim_tree.json"
RAMSEY_JSON="$WORK_DIR/netsim_ramsey.json"
SCRAPE_LOG="$WORK_DIR/netsim_scrape.log"
PORT=$((21000 + $$ % 20000))

# Leg 1: the headline scale — 10^4 nodes, 10^5 messages, contract-gated
# by --verify and re-checked off the --json report below.
PYTHONPATH=src python -m repro netsim --scheme tree --n 10000 \
    --messages 100000 --tie-break seeded --verify --json >"$BIG_JSON"

PYTHONPATH=src python - "$BIG_JSON" <<'EOF'
import json
import math
import sys

with open(sys.argv[1]) as fh:
    lines = fh.read().splitlines()
# The indented JSON report sits between the human summary lines and
# the contract-check verdict.
text = "\n".join(lines[lines.index("{"):])
report, _ = json.JSONDecoder().raw_decode(text)
n = report["n"]
budget = math.ceil(math.log2(n)) ** 2
assert n == 10_000, report
assert report["injected"] == 100_000, report
assert report["delivered"] == 100_000, report
assert report["hops_max"] <= 2, report
assert report["stretch_p99"] <= 1.0 + 1e-9, report
assert report["header_bits_max"] <= budget, report
print(f"tree leg ok: {report['delivered']} delivered, "
      f"hops<={report['hops_max']}, stretch p99={report['stretch_p99']}, "
      f"headers<={report['header_bits_max']} bits (budget {budget})")
EOF

# Leg 2: kill 5% of the nodes mid-traffic.  The tree scheme has no
# fault tolerance, so losses are allowed — but every single one must be
# accounted as dead_node, the books must balance exactly, and the
# messages that do get through must still be 2-hop stretch-1.  The run
# is driven in steps of simulated time, and the netsim.* series it
# exports must count each delivery exactly once: an observer pass that
# is skipped or repeated at the end of a `run` call breaks the counts.
PYTHONPATH=src python - <<'EOF'
import math

from repro.graphs import random_tree
from repro.netsim import (NetworkSimulator, SimReport, audit_locality,
                          compile_tree_scheme, kill_schedule, uniform_pairs)
from repro.observability import OBS
from repro.resilience.injectors import RandomInjector
from repro.routing import build_tree_network

n, messages, kills = 2_000, 20_000, 100  # 5% of the field dies
tree = random_tree(n, seed=11)
scheme, net = build_tree_network(tree, seed=12)
compiled = compile_tree_scheme(scheme, net)
audit_locality(compiled)

sim = NetworkSimulator(compiled, tie_break="seeded", seed=13)
spacing = 0.001
sim.send_many(uniform_pairs(n, messages, seed=14), spacing=spacing)
horizon = spacing * messages
for when, victim in kill_schedule(
    RandomInjector(n, seed=15), count=kills,
    start=horizon / 3.0, spacing=horizon / (3.0 * kills),
):
    sim.kill_at(when, victim)
OBS.enable()
until = 0.0
while len(sim.scheduler):
    until += 1.0
    sim.run(until=until)

report = SimReport(sim)
losses = {r: c for r, c in report.drop_counts.items() if c}
assert report.kills == kills, report.kills
assert report.delivered + sum(losses.values()) == report.injected, losses
assert set(losses) <= {"dead_node"}, losses
assert report.delivery_rate >= 0.80, report.delivery_rate
assert report.max_hops <= 2, report.max_hops
assert report.stretch_percentile(99) <= 1.0 + 1e-9
series = dict(
    line.rsplit(" ", 1) for line in OBS.registry.export_prom_text().splitlines()
    if line.startswith("repro_netsim_")
)
assert int(series["repro_netsim_delivered"]) == report.delivered, series
assert int(series["repro_netsim_hops_count"]) == report.delivered, series
count = int(series["repro_netsim_stretch_pct_count"])
assert count == report.delivered == len(report.stretches), (count, report.delivered)
mean_pct = float(series["repro_netsim_stretch_pct_sum"]) / count
report_pct = 100.0 * sum(report.stretches) / len(report.stretches)
assert math.isclose(mean_pct, report_pct, rel_tol=1e-12), (mean_pct, report_pct)
print(f"kill leg ok: {kills} nodes (5%) killed mid-run, "
      f"{report.delivered}/{report.injected} delivered "
      f"({100 * report.delivery_rate:.1f}%), losses {losses} "
      "(all dead_node, books balance); "
      f"stretch_pct count {count}, mean {mean_pct:.6f} = report's")
EOF

# Leg 3: the other two theorems through the CLI's own contract gates.
PYTHONPATH=src python -m repro netsim --scheme metric --family euclidean \
    --n 150 --messages 1500 --verify
# The Ramsey cover here has ζ = 2 home trees: a header carries
# 1 + ⌈log₂ 150⌉ + ⌈log₂ 2⌉ = 10 bits.
PYTHONPATH=src python -m repro netsim --scheme metric --family general \
    --n 150 --ell 3 --verify --json >"$RAMSEY_JSON"

PYTHONPATH=src python - "$RAMSEY_JSON" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    lines = fh.read().splitlines()
text = "\n".join(lines[lines.index("{"):])
report, _ = json.JSONDecoder().raw_decode(text)
assert report["zeta"] == 2, report
assert report["delivered"] == report["injected"], report
assert report["header_bits_max"] == 10, report
print(f"ramsey leg ok: zeta={report['zeta']}, "
      f"headers<={report['header_bits_max']} bits")
EOF
PYTHONPATH=src python -m repro netsim --scheme ft --family euclidean \
    --n 90 --f 2 --kill 2 --messages 900 --spacing 0.01 --verify

# Leg 4: the netsim.* instruments are scrapable over plain HTTP while
# a run lingers on --metrics-port.
PYTHONPATH=src python -m repro netsim --scheme tree --n 300 \
    --messages 2000 --metrics-port "$PORT" --linger 60 \
    >"$SCRAPE_LOG" 2>&1 &
SIM_PID=$!
trap 'kill "$SIM_PID" 2>/dev/null || true' EXIT

PYTHONPATH=src python - "$PORT" <<'EOF'
import sys
import time
import urllib.error
import urllib.request

port = int(sys.argv[1])
deadline = time.monotonic() + 120
while True:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as response:
            text = response.read().decode()
        break
    except (urllib.error.URLError, ConnectionError):
        if time.monotonic() > deadline:
            raise
        time.sleep(0.2)
assert "repro_netsim_injected 2000" in text, text[:400]
assert "repro_netsim_delivered 2000" in text, text[:400]
assert "repro_netsim_hops_count 2000" in text, text[:400]
assert "repro_netsim_stretch_pct_count 2000" in text, text[:400]
assert "repro_netsim_header_bits_sum" in text, text[:400]
print(f"scraped /metrics: {len(text.splitlines())} series lines, "
      "netsim counters present")
EOF

kill "$SIM_PID" 2>/dev/null || true
wait "$SIM_PID" 2>/dev/null || true
trap - EXIT

echo "netsim smoke passed"
