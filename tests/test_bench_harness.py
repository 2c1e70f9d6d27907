"""The benchmark-regression harness: schema, emission, and (marked) gates.

The unmarked tests run at toy sizes so tier-1 stays fast; the
``bench``-marked test is the real regression gate at n=2000 (opt in
with ``-m bench``), asserting the >= 3x construction speedup the
vectorized kernels are meant to deliver.
"""

import json
import subprocess
import sys

import pytest

from repro.bench import (
    FILES,
    NAVIGATION_SCHEMA,
    TREE_COVERS_SCHEMA,
    Ctx,
    bench_navigation,
    bench_tree_covers,
    stages,
    validate_bench_json,
    write_bench_files,
)
from repro.errors import InvariantViolation


@pytest.fixture(scope="module")
def tiny_tree_payload():
    return bench_tree_covers(n=60, repeats=1, robust_repeats=1, stretch_sample=40)


def test_tree_covers_payload_shape(tiny_tree_payload):
    payload = tiny_tree_payload
    validate_bench_json(payload)
    assert payload["schema"] == TREE_COVERS_SCHEMA
    names = [entry["name"] for entry in payload["results"]]
    assert names == ["net_hierarchy", "hst", "robust_cover", "cover_pruning",
                     "compact_cover"]
    by_name = {entry["name"]: entry for entry in payload["results"]}
    robust = by_name["robust_cover"]
    # The baseline must rebuild the same cover: identical zeta, and the
    # measured stretch must stay a valid (finite, >= 1) cover quality.
    assert robust["detail"]["zeta"] == robust["detail"]["zeta_seed"]
    assert 1.0 <= robust["detail"]["stretch_mean"] <= robust["detail"]["stretch_max"]
    assert robust["detail"]["cover_bytes"] > 0
    # The seed implementation has counterparts only for the first three
    # stages; the pruning/compact rows are new machinery.
    for name in ("net_hierarchy", "hst", "robust_cover"):
        assert by_name[name]["seed_seconds"] is not None
        assert by_name[name]["speedup"] is not None
    pruning = by_name["cover_pruning"]["detail"]
    assert pruning["zeta_after"] < pruning["zeta_before"] == robust["detail"]["zeta"]
    assert pruning["reduction"] > 1.0
    assert pruning["stretch_max"] <= pruning["gamma"] + 1e-6
    assert pruning["cover_bytes_after"] < pruning["cover_bytes_before"]
    assert pruning["nav_delta"]["retained_paths_identical"] is True
    assert pruning["nav_delta"]["build_pruned_s"] <= pruning["nav_delta"]["build_full_s"]
    compact = by_name["compact_cover"]["detail"]
    assert compact["zeta"] < compact["zeta_robust"]
    assert compact["reduction_vs_robust"] > 1.0
    assert 1.0 <= compact["stretch_mean"] <= compact["stretch_max"]


def test_rows_follow_the_stage_table(tiny_tree_payload):
    names = [stage.name for stage in stages() if stage.file == "tree_covers"]
    assert [entry["name"] for entry in tiny_tree_payload["results"]] == names
    assert {stage.file for stage in stages()} == set(FILES) | {None}
    library = [stage.name for stage in stages() if stage.file is None]
    assert len(set(library)) == len(library)


def test_stage_checks_reject_a_broken_contract():
    pruning = next(s for s in stages() if s.name == "cover_pruning")
    ctx = Ctx()
    ctx.rows["cover_pruning"] = {"detail": {
        "zeta_before": 10, "zeta_after": 5, "reduction": 2.0, "gamma": 1.5,
        "stretch_max": 1.6, "nav_delta": {"retained_paths_identical": True},
    }}
    with pytest.raises(InvariantViolation, match="stretch"):
        pruning.check(ctx, None)
    query = next(s for s in stages() if s.name == "query_k2")
    ctx.pairs = [(0, 1)] * 4
    query.check(ctx, 8)
    with pytest.raises(InvariantViolation, match="hops"):
        query.check(ctx, 9)


def test_navigation_payload_shape():
    payload = bench_navigation(n=50, queries=30)
    validate_bench_json(payload)
    assert payload["schema"] == NAVIGATION_SCHEMA
    names = [entry["name"] for entry in payload["results"]]
    assert names == ["robust_cover", "navigator_build", "query_scalar",
                     "query_batch"]
    by_name = {entry["name"]: entry for entry in payload["results"]}
    # Every row now carries a measured seed baseline (the satellite fix
    # for the formerly-null seed_seconds/speedup fields).
    for name in ("robust_cover", "navigator_build", "query_scalar",
                 "query_batch"):
        assert by_name[name]["seed_seconds"] is not None
        assert by_name[name]["speedup"] is not None
    for name in ("robust_cover", "navigator_build"):
        detail = by_name[name]["detail"]
        assert detail["serial_seconds"] is not None
        if detail["workers"] > 1:
            # A real pool ran: the parallel-vs-serial comparison exists.
            assert detail["parallel_speedup"] is not None
        else:
            # Honest serial fallback: no fabricated 1.0 speedup, and if
            # the caller *asked* for a pool the reason is recorded.
            assert detail["parallel_speedup"] is None
            if detail.get("workers_requested", 0) > 1:
                assert "workers" in detail["workers_fallback"]
    scalar = by_name["query_scalar"]["detail"]
    assert scalar["p50_us"] <= scalar["p99_us"]
    assert by_name["query_batch"]["detail"]["queries"] == scalar["queries"]


def test_validate_rejects_malformed_payloads(tiny_tree_payload):
    good = tiny_tree_payload
    bad_schema = dict(good, schema="repro.bench.unknown/v9")
    with pytest.raises(ValueError, match="schema"):
        validate_bench_json(bad_schema)
    with pytest.raises(ValueError, match="results"):
        validate_bench_json(dict(good, results=[]))
    broken = json.loads(json.dumps(good))
    broken["results"][0]["seconds"] = "fast"
    with pytest.raises(ValueError, match="seconds"):
        validate_bench_json(broken)
    broken = json.loads(json.dumps(good))
    del broken["results"][0]["name"]
    with pytest.raises(ValueError, match="name"):
        validate_bench_json(broken)
    with pytest.raises(ValueError, match="config"):
        validate_bench_json({"schema": TREE_COVERS_SCHEMA, "results": [1]})


def test_write_bench_files_roundtrip(tiny_tree_payload, tmp_path):
    out = tmp_path / "artifacts"
    paths = write_bench_files(str(out), tiny_tree_payload, None)
    assert [p.split("/")[-1] for p in paths] == ["BENCH_tree_covers.json"]
    with open(paths[0], encoding="utf-8") as handle:
        loaded = json.load(handle)
    validate_bench_json(loaded)
    assert loaded == tiny_tree_payload


def test_repro_bench_cli_writes_construction_artifacts(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "bench",
            "--quick",
            "--n",
            "60",
            "--nav-n",
            "60",
            "--no-serving",
            "--no-dynamic",
            "--no-netsim",
            "--out-dir",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=560,
    )
    assert result.returncode == 0, result.stderr
    for name in ("BENCH_tree_covers.json", "BENCH_navigation.json"):
        with open(tmp_path / name, encoding="utf-8") as handle:
            validate_bench_json(json.load(handle))


@pytest.mark.bench
def test_full_size_construction_speedup_gate():
    """The PR's headline: >= 3x construction speedup at n=2000.

    Covers the doubling-metric robust tree cover and the HST hierarchy
    against the frozen seed implementations, measured in-process.
    """
    payload = bench_tree_covers(n=2000)
    validate_bench_json(payload)
    by_name = {entry["name"]: entry for entry in payload["results"]}
    assert by_name["robust_cover"]["speedup"] >= 3.0
    assert by_name["hst"]["speedup"] >= 3.0
    assert by_name["robust_cover"]["detail"]["zeta"] == (
        by_name["robust_cover"]["detail"]["zeta_seed"]
    )
    # The zeta attack: pruning must cut the cover >= 5x at full size
    # while staying within the re-verified stretch budget.
    pruning = by_name["cover_pruning"]["detail"]
    assert pruning["reduction"] >= 5.0
    assert pruning["stretch_max"] <= pruning["gamma"] + 1e-6
    assert pruning["nav_delta"]["retained_paths_identical"] is True
