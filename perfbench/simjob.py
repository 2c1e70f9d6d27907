"""The netsim-tree workload, run in its own process.

Usage::

    python perfbench/simjob.py --seed S --seconds T --out RESULT.json

Drives Theorem 5.1 on a 10^4-node random tree through the ``repro.netsim``
public API and writes one JSON object.  Set-up (tree network build,
compile, locality audit, message injection) runs three times and each
attempt is timed by stage.  The measured phase then repeats
1.2 × 10^5-message bulk runs on fresh simulators.  Each run is driven
through ``NetworkSimulator.run`` in steps of simulated time, timed
around each call, and cut into slices of about 10^3 delivered messages.
One chunk of fixed calibration work (``hostspeed.py``) is timed after
every slice and after every set-up stage, so each wall time can be
rescaled to the reference host speed.  Every run is gated with
``SimReport.check_contract`` and must deliver each message at the same
simulated time as the first.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time

import hostspeed

N_NODES = 10_000
MESSAGES = 120_000
SPACING = 0.01
SETUPS = 3
#: Simulated seconds per ``run`` call (about 100 injections).
STEP = 1.0
#: Delivered messages per wall-clock sample.
SLICE = 1000
#: Calibration chunks timed after each set-up stage (median taken).
STAGE_CHUNKS = 3


def _setup(seed: int):
    from repro.graphs import random_tree
    from repro.netsim import (
        NetworkSimulator,
        audit_locality,
        compile_tree_scheme,
        uniform_pairs,
    )
    from repro.routing import build_tree_network

    stages, calib = {}, {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        stages[name] = time.perf_counter() - start
        calib[name] = hostspeed.median_chunk_s(STAGE_CHUNKS)
        return value

    def build():
        tree = random_tree(N_NODES, seed=seed)
        return build_tree_network(tree, seed=seed + 1)

    def inject():
        pairs = uniform_pairs(compiled.n, MESSAGES, seed=seed + 2)
        sim = NetworkSimulator(compiled, tie_break="seeded", seed=seed)
        sim.send_many(pairs, spacing=SPACING)
        return pairs, sim

    scheme, net = timed("build", build)
    compiled = timed("compile", compile_tree_scheme, scheme, net)
    timed("audit", audit_locality, compiled)
    pairs, sim = timed("inject", inject)
    stages["normalised_s"] = sum(
        hostspeed.normalise(stages[name], calib[name]) for name in calib)
    return compiled, pairs, sim, stages


def _gate(sim, errors: list) -> dict:
    """``SimReport.check_contract`` on a finished run; failures go to
    ``errors``."""
    from repro.errors import InvariantViolation
    from repro.netsim import SimReport

    report = SimReport(sim)
    header_budget = math.ceil(math.log2(sim.compiled.n)) ** 2
    try:
        report.check_contract(min_delivery=1.0, hop_budget=2,
                              header_budget=header_budget)
    except InvariantViolation as exc:
        errors.append(str(exc))
    return {"injected": report.injected, "delivered": report.delivered,
            "events": report.events, "drops": report.drop_counts}


def _timed_run(sim):
    """Run ``sim`` to the end in :data:`STEP` steps.

    Returns one ``[wall_s, calib_s, delivered]`` row per slice: the wall
    seconds spent inside ``run`` until at least :data:`SLICE` more
    messages were delivered (the last slice may hold fewer), the wall
    seconds of the calibration chunk timed right after it, and the
    messages it delivered.
    """
    slices = []
    slice_s = 0.0
    slice_start = 0
    until = sim.now
    while len(sim.scheduler):
        until += STEP
        t0 = time.perf_counter()
        sim.run(until=until)
        slice_s += time.perf_counter() - t0
        done = len(sim.delivered) - slice_start
        if done >= SLICE or not len(sim.scheduler):
            slices.append([slice_s, hostspeed.chunk_s(), done])
            slice_s, slice_start = 0.0, len(sim.delivered)
    return slices


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="JSON result path")
    args = parser.parse_args(argv)

    from repro.netsim import NetworkSimulator
    from repro.observability import OBS

    OBS.enable()  # as `python -m repro netsim` runs it
    setups = []
    for _ in range(SETUPS):
        compiled, pairs, sim, stages = _setup(args.seed)
        setups.append(stages)
    # Earlier attempts' simulators are reference cycles; collect them so
    # their garbage does not burden the measured phase.
    gc.collect()

    out = {"setups": setups, "bulk": [], "errors": [], "slices": []}
    first_delivery = None
    start = time.perf_counter()
    while True:
        if sim is None:
            t0 = time.perf_counter()
            sim = NetworkSimulator(compiled, tie_break="seeded", seed=args.seed)
            sim.send_many(pairs, spacing=SPACING)
            inject = time.perf_counter() - t0
        else:
            inject = setups[-1]["inject"]
        slices = _timed_run(sim)
        out["slices"].append(slices)
        row = _gate(sim, out["errors"])
        row.update(run_s=sum(s[0] for s in slices), inject_s=inject)
        delivery = [(e.msg_id, e.delivered_at) for e in sim.delivered]
        if first_delivery is None:
            first_delivery = delivery
        elif delivery != first_delivery:
            # Same network, messages and tie-break seed: a rerun must
            # deliver every message at the same simulated time.
            out["errors"].append("bulk rerun delivered at other times")
        out["bulk"].append(row)
        sim = None
        # Stop before a run that would end past the measured time.
        elapsed = time.perf_counter() - start
        if elapsed * (len(out["bulk"]) + 1) / len(out["bulk"]) > args.seconds:
            break
    out["measured_s"] = time.perf_counter() - start
    out["setup_s"] = statistics.median(s["normalised_s"] for s in setups)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.exit(main(sys.argv[1:]))
