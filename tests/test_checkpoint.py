"""Self-verifying checkpoints: integrity, audit, and recovery.

The contract under test (ISSUE 3 acceptance criteria): every load path
either returns an audited structure or raises a typed
``CheckpointCorruption`` / ``InvariantViolation`` — never a wrong
answer — single-byte corruption of any saved artifact is detected, and
per-tree recovery restores a passing audit without a full rebuild.
"""

import copy
import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointService,
    CoverContract,
    audit_checkpoint,
    audit_cover,
    cover_labelings,
    load_cover_checkpoint,
    load_ft_checkpoint,
    load_labels_checkpoint,
    load_navigator_checkpoint,
    recover_cover,
    save_cover_checkpoint,
    save_ft_checkpoint,
    save_labels_checkpoint,
    save_navigator_checkpoint,
)
from repro.checkpoint.format import (
    canonical_bytes,
    section_crc,
    tree_section_name,
)
from repro.core import MetricNavigator
from repro.errors import CheckpointCorruption, InvariantViolation, ReproError
from repro.io import save_cover
from repro.metrics import random_points, sample_pairs
from repro.spanners import FaultTolerantSpanner
from repro.treecover import robust_tree_cover

pytestmark = pytest.mark.checkpoint

N = 40
EPS = 0.5
CONTRACT = CoverContract(gamma=2.5)


@pytest.fixture(scope="module")
def metric():
    return random_points(N, dim=2, seed=11)


@pytest.fixture(scope="module")
def cover(metric):
    return robust_tree_cover(metric, eps=EPS)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _dump_json(payload: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _reseal(data: dict) -> dict:
    """Recompute section CRCs and the digest after editing bodies.

    Produces a *format-valid* file whose content changed — the weapon
    for testing that the semantic auditor catches what checksums
    cannot.
    """
    for entry in data["sections"].values():
        entry["crc32"] = section_crc(entry["body"])
    core = {key: data[key] for key in ("format", "kind", "meta", "sections")}
    data["digest"] = hashlib.sha256(canonical_bytes(core)).hexdigest()
    return data


# ----------------------------------------------------------------------
# Round trips


class TestRoundTrips:
    def test_cover_round_trip(self, metric, cover, tmp_path):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(cover, path, contract=CONTRACT)
        loaded = load_cover_checkpoint(path, metric)
        assert loaded.size == cover.size
        for u, v in sample_pairs(N, 40, seed=1):
            assert abs(loaded.stretch(u, v) - cover.stretch(u, v)) < 1e-9

    def test_navigator_round_trip(self, metric, cover, tmp_path):
        navigator = MetricNavigator(metric, cover, 3)
        path = str(tmp_path / "nav.ckpt")
        save_navigator_checkpoint(navigator, path, contract=CONTRACT)
        rebuilt = load_navigator_checkpoint(path, metric)
        assert rebuilt.k == navigator.k
        assert rebuilt.num_edges == navigator.num_edges
        for u, v in sample_pairs(N, 30, seed=2):
            assert rebuilt.find_path(u, v) == navigator.find_path(u, v)

    def test_ft_round_trip_preserves_replicas(self, metric, cover, tmp_path):
        spanner = FaultTolerantSpanner(metric, f=1, k=4, cover=cover)
        path = str(tmp_path / "ft.ckpt")
        save_ft_checkpoint(spanner, path, contract=CONTRACT)
        reloaded = load_ft_checkpoint(path, metric)
        assert reloaded.f == spanner.f and reloaded.k == spanner.k
        assert reloaded.replicas == spanner.replicas
        faults = {5}
        path_uv = reloaded.find_path(0, 9, faults)
        assert reloaded.verify_path(0, 9, faults, path_uv) >= 1.0

    def test_labels_round_trip(self, metric, cover, tmp_path):
        path = str(tmp_path / "labels.ckpt")
        save_labels_checkpoint(cover, path, contract=CONTRACT)
        loaded_cover, tables = load_labels_checkpoint(path, metric)
        assert tables == cover_labelings(loaded_cover)

    def test_v1_files_still_load_and_audit(self, metric, cover, tmp_path):
        path = str(tmp_path / "v1.json")
        save_cover(cover, path)
        loaded = load_cover_checkpoint(path, metric, contract=CONTRACT)
        assert loaded.size == cover.size
        report = audit_checkpoint(path, metric)
        assert report.kind == "cover"

    def test_audit_checkpoint_reports_every_kind(self, metric, cover, tmp_path):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(cover, path, contract=CONTRACT)
        report = audit_checkpoint(path, metric)
        assert report.kind == "cover" and report.checks
        path = str(tmp_path / "labels.ckpt")
        save_labels_checkpoint(cover, path)
        assert audit_checkpoint(path, metric).kind == "routing_labels"


# ----------------------------------------------------------------------
# Atomic saves


class TestAtomicSave:
    def test_no_temp_files_left_behind(self, metric, cover, tmp_path):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(cover, path)
        save_cover_checkpoint(cover, path)  # overwrite in place
        assert sorted(os.listdir(tmp_path)) == ["cover.ckpt"]

    def test_failed_save_leaves_previous_file_intact(
        self, metric, cover, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(cover, path)
        before = Path(path).read_bytes()

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            save_cover_checkpoint(cover, path)
        monkeypatch.undo()
        assert Path(path).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["cover.ckpt"]
        load_cover_checkpoint(path, metric)


# ----------------------------------------------------------------------
# Corruption detection (the "never a wrong answer" property)


@pytest.fixture(scope="module")
def saved_cover_bytes(metric, cover, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "cover.ckpt")
    save_cover_checkpoint(cover, path, contract=CONTRACT)
    return Path(path).read_bytes()


class TestCorruptionDetection:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_single_byte_corruption_always_detected(
        self, metric, saved_cover_bytes, tmp_path_factory, data
    ):
        """Flip one byte anywhere: the load must raise a typed error,
        never return a structure built from the damaged payload."""
        raw = bytearray(saved_cover_bytes)
        position = data.draw(st.integers(0, len(raw) - 1))
        new_byte = data.draw(
            st.integers(0, 255).filter(lambda b: b != raw[position])
        )
        raw[position] = new_byte
        path = str(tmp_path_factory.mktemp("corrupt") / "cover.ckpt")
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises((CheckpointCorruption, InvariantViolation)):
            load_cover_checkpoint(path, metric)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_field_corruption_behind_valid_checksums_is_audited(
        self, metric, saved_cover_bytes, tmp_path_factory, data
    ):
        """An attacker (or bug) that rewrites a field AND reseals the
        checksums still cannot smuggle a broken tree past the audit."""
        payload = json.loads(saved_cover_bytes.decode())
        num_trees = payload["sections"]["cover"]["body"]["num_trees"]
        index = data.draw(st.integers(0, num_trees - 1))
        body = payload["sections"][tree_section_name(index)]["body"]
        attack = data.draw(st.sampled_from(["weights", "parents", "rep"]))
        if attack == "weights":
            # Zeroing weights breaks domination (δ_T >= δ_X).
            body["tree"]["weights"] = [0.0] * len(body["tree"]["weights"])
        elif attack == "parents":
            # A second root breaks tree well-formedness; pick a vertex
            # that is not already the root.
            parents = body["tree"]["parents"]
            victim = max(v for v, p in enumerate(parents) if p != -1)
            parents[victim] = -1
        else:
            # Breaking the host/representative fixpoint breaks stretch.
            body["rep_point"] = list(reversed(body["rep_point"]))
        _reseal(payload)
        path = str(tmp_path_factory.mktemp("sneaky") / "cover.ckpt")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ReproError):
            load_cover_checkpoint(path, metric)

    def test_truncated_file_is_rejected(self, metric, saved_cover_bytes, tmp_path):
        path = str(tmp_path / "trunc.ckpt")
        with open(path, "wb") as handle:
            handle.write(saved_cover_bytes[: len(saved_cover_bytes) // 2])
        with pytest.raises(CheckpointCorruption):
            load_cover_checkpoint(path, metric)

    def test_wrong_kind_is_rejected(self, metric, cover, tmp_path):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(cover, path)
        with pytest.raises(CheckpointCorruption):
            load_ft_checkpoint(path, metric)

    def test_corrupt_v1_fails_with_clear_error(self, metric, cover, tmp_path):
        path = str(tmp_path / "v1.json")
        save_cover(cover, path)
        payload = _load_json(path)
        payload["trees"][0]["vertex_of_point"][3] = 10**9
        _dump_json(payload, path)
        with pytest.raises(CheckpointCorruption, match="out of range"):
            load_cover_checkpoint(path, metric)

    def test_replica_pool_oversize_fails_audit(self, metric, cover, tmp_path):
        spanner = FaultTolerantSpanner(metric, f=1, k=4, cover=cover)
        path = str(tmp_path / "ft.ckpt")
        save_ft_checkpoint(spanner, path)
        payload = _load_json(path)
        pools = payload["sections"]["replicas"]["body"]["pools"]
        pools[0][0] = list(range(min(8, N)))  # blow the f+1 bound
        _reseal(payload)
        _dump_json(payload, path)
        with pytest.raises(InvariantViolation):
            load_ft_checkpoint(path, metric)

    def test_label_corruption_fails_audit(self, metric, cover, tmp_path):
        path = str(tmp_path / "labels.ckpt")
        save_labels_checkpoint(cover, path)
        payload = _load_json(path)
        body = payload["sections"]["labels/0000"]["body"]
        body["labels"][0][-1][2] += 1000.0  # inflate a stored depth
        _reseal(payload)
        _dump_json(payload, path)
        with pytest.raises(InvariantViolation):
            load_labels_checkpoint(path, metric)

    def test_navigator_fingerprint_mismatch_detected(self, metric, cover, tmp_path):
        navigator = MetricNavigator(metric, cover, 3)
        path = str(tmp_path / "nav.ckpt")
        save_navigator_checkpoint(navigator, path)
        payload = _load_json(path)
        payload["sections"]["aux"]["body"]["per_tree"][0]["edges"] += 1
        _reseal(payload)
        _dump_json(payload, path)
        with pytest.raises(InvariantViolation):
            load_navigator_checkpoint(path, metric)


# ----------------------------------------------------------------------
# Recovery


def _kill_tree(path: str, index: int, mode: str) -> None:
    """Corrupt exactly one tree section of a saved cover checkpoint."""
    payload = _load_json(path)
    entry = payload["sections"][tree_section_name(index)]
    if mode == "crc":
        entry["crc32"] = (entry["crc32"] + 1) & 0xFFFFFFFF
    else:
        entry["body"]["tree"]["weights"] = [
            0.0 for _ in entry["body"]["tree"]["weights"]
        ]
        _reseal(payload)
    _dump_json(payload, path)


class TestRecovery:
    @pytest.mark.parametrize("mode", ["crc", "semantic"])
    def test_per_tree_repair_restores_contract(
        self, metric, cover, tmp_path, mode
    ):
        """Kill one tree; repair must rebuild exactly that tree, keep
        the rest, and the repaired cover must pass the Table-1 stretch
        contract audit — without a full rebuild."""
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(
            cover, path, contract=CONTRACT,
            builder={"family": "robust", "eps": EPS},
        )
        victim = 1
        _kill_tree(path, victim, mode)
        with pytest.raises(ReproError):
            load_cover_checkpoint(path, metric)
        report = recover_cover(path, metric)
        assert report.outcome == "per-tree-repair"
        assert report.rebuilt_indexes == [victim]
        assert sum(r.action == "kept" for r in report.repairs) == cover.size - 1
        audit_cover(report.cover, contract=CONTRACT)
        worst, _ = report.cover.measured_stretch(sample_pairs(N, 150, seed=3))
        assert worst <= CONTRACT.gamma

    def test_recover_resave_round_trips(self, metric, cover, tmp_path):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(
            cover, path, builder={"family": "robust", "eps": EPS}
        )
        _kill_tree(path, 0, "crc")
        recover_cover(path, metric, resave=True)
        loaded = load_cover_checkpoint(path, metric)  # clean again
        assert loaded.size == cover.size
        assert recover_cover(path, metric).outcome == "clean"

    def test_unreadable_checkpoint_full_rebuild(self, metric, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "w") as handle:
            handle.write("{ not json")
        report = recover_cover(
            path, metric, builder=lambda m: robust_tree_cover(m, eps=EPS)
        )
        assert report.outcome == "full-rebuild"
        audit_cover(report.cover)

    def test_rebuild_without_builder_raises(self, metric, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "w") as handle:
            handle.write("{ not json")
        with pytest.raises(ValueError, match="no cover builder"):
            recover_cover(path, metric)

    def test_all_trees_dead_full_rebuild(self, metric, cover, tmp_path):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(
            cover, path, builder={"family": "robust", "eps": EPS}
        )
        payload = _load_json(path)
        for index in range(cover.size):
            payload["sections"][tree_section_name(index)]["crc32"] ^= 1
        _dump_json(payload, path)
        report = recover_cover(path, metric)
        assert report.outcome == "full-rebuild"


# ----------------------------------------------------------------------
# Degraded service during recovery


class TestCheckpointService:
    def test_degraded_service_then_promotion(self, metric, cover, tmp_path):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(
            cover, path, contract=CONTRACT,
            builder={"family": "robust", "eps": EPS},
        )
        _kill_tree(path, 2, "crc")
        service = CheckpointService(metric, k=3, contract=CONTRACT).load(path)
        assert service.recovery_pending
        result = service.query(0, N - 1)
        assert result.delivered and result.degraded
        assert "recovery in progress" in result.reason
        assert result.path[0] == 0 and result.path[-1] == N - 1
        assert len(result.path) - 1 <= 3

        report = service.recover()
        assert report.outcome == "per-tree-repair"
        assert not service.recovery_pending
        clean = service.query(0, N - 1)
        assert clean.ok and not clean.degraded

    def test_intact_checkpoint_serves_full_guarantee(
        self, metric, cover, tmp_path
    ):
        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(cover, path, contract=CONTRACT)
        service = CheckpointService(metric, k=3, contract=CONTRACT).load(path)
        assert not service.recovery_pending
        result = service.query(1, 7)
        assert result.ok and result.hops <= 3

    def test_unusable_checkpoint_answers_undelivered_not_raise(
        self, metric, tmp_path
    ):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "w") as handle:
            handle.write("garbage")
        service = CheckpointService(
            metric, k=3, builder=lambda m: robust_tree_cover(m, eps=EPS)
        ).load(path)
        result = service.query(0, 1)
        assert not result.delivered and result.degraded
        service.recover()
        assert service.query(0, 1).ok

    def test_query_is_thread_safe_while_recover_runs(
        self, metric, cover, tmp_path
    ):
        """Hammer ``query`` from threads while ``recover`` swaps state.

        Regression test for the serving daemon's concurrency contract:
        every concurrent answer must come from one consistent snapshot —
        delivered degraded (pre-swap navigator) or delivered clean
        (post-swap), never an exception or a torn navigator/pending
        read that would mislabel an answer.
        """
        import random as random_mod
        import threading

        path = str(tmp_path / "cover.ckpt")
        save_cover_checkpoint(
            cover, path, contract=CONTRACT,
            builder={"family": "robust", "eps": EPS},
        )
        _kill_tree(path, 1, "crc")
        service = CheckpointService(metric, k=3, contract=CONTRACT).load(path)
        assert service.recovery_pending

        stop = threading.Event()
        errors = []
        observed = []

        def hammer(seed):
            rng = random_mod.Random(seed)
            while not stop.is_set():
                u, v = rng.sample(range(N), 2)
                try:
                    result = service.query(u, v)
                except Exception as exc:  # any raise is the regression
                    errors.append(f"query({u},{v}) raised {exc!r}")
                    return
                if not result.delivered:
                    errors.append(f"query({u},{v}) undelivered mid-recovery")
                    return
                if result.path[0] != u or result.path[-1] != v:
                    errors.append(f"query({u},{v}) returned torn path")
                    return
                observed.append(result.degraded)

        threads = [
            threading.Thread(target=hammer, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        report = service.recover()
        stop.set()
        for thread in threads:
            thread.join(60)

        assert not errors, errors[:3]
        assert report.outcome == "per-tree-repair"
        assert not service.recovery_pending
        # Traffic genuinely overlapped the transition: answers from the
        # degraded generation were observed, and after recovery the
        # full contract is back.
        assert observed and any(observed)
        clean = service.query(0, N - 1)
        assert clean.ok and not clean.degraded and clean.hops <= 3
