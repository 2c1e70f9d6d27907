"""Dynamic-updates-under-churn suite (``-m dynamic``; runs in tier-1).

Five layers, mirroring the subsystem:

* differential oracle — a mutated :class:`DynamicRobustCover` must be
  tree-for-tree identical to a from-scratch rebuild on the same final
  point set, including a bounded hypothesis sweep over random mutation
  schedules and the root-anchor-deletion corner;
* static oracle — the cover over the live points of a grown index
  space must be isomorphic to the plain cover of the live points'
  own metric (same ζ, bit-identical tree distances under the index
  map);
* journal durability — fsync-before-ack append/reload round trips,
  idempotent replay, and a hypothesis truncate-at-any-byte property:
  a crash can only ever lose the torn tail, never a valid prefix;
* service integration — ``enable_dynamic``/``insert``/``delete``/
  ``compact`` through :class:`CheckpointService`, the ``patch`` block
  of the insert/delete responses, crash-replay of a
  journaled-but-unapplied record, typed refusals in static and mapped
  modes, and the stale-pack / stale-router regressions;
* end-to-end — mutation verbs over the wire through a real daemon,
  including routing across a mutation (the generation-keyed router
  cache) and tombstone refusals.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointService,
    save_cover_checkpoint,
    save_navigator_checkpoint,
)
from repro.core.metric_navigator import MetricNavigator
from repro.dynamic import (
    ChurnHarness,
    DynamicRobustCover,
    UpdateJournal,
    journal_path_for,
    states_identical,
)
from repro.errors import CheckpointCorruption, StalePackError
from repro.metrics import random_points
from repro.metrics.doubling import NetHierarchy
from repro.metrics.euclidean import EuclideanMetric
from repro.serve import AdmissionPolicy, ServeClient, ThreadedServer
from repro.treecover import robust_tree_cover

pytestmark = pytest.mark.dynamic

N = 28
EPS = 0.5
K = 3
BUILDER = {"family": "robust", "eps": EPS}


@pytest.fixture(scope="module")
def metric():
    return random_points(N, dim=2, seed=7)


def _fresh(metric, **kwargs):
    return DynamicRobustCover.from_metric(metric, eps=EPS, **kwargs)


def _insert_point(rng):
    return [float(rng.uniform(0.0, 1000.0)), float(rng.uniform(0.0, 1000.0))]


# ----------------------------------------------------------------------
# Differential oracle: mutated state == from-scratch rebuild


class TestDifferentialOracle:
    def test_single_insert_matches_rebuild(self, metric):
        dyn = _fresh(metric)
        dyn.apply([("insert", [123.0, 456.0])])
        assert states_identical(dyn, dyn.rebuild())

    def test_single_delete_matches_rebuild(self, metric):
        dyn = _fresh(metric)
        dyn.apply([("delete", 3)])
        assert states_identical(dyn, dyn.rebuild())

    def test_root_anchor_deletion_matches_rebuild(self, metric):
        """Deleting the point anchoring a tree's final root must still
        converge to the same structure a from-scratch rebuild picks:
        the masked finish re-anchors on the next live component root."""
        dyn = _fresh(metric)
        tree = dyn.trees[0]
        victim = tree.rep_point[tree.tree.root]
        dyn.apply([("delete", victim)])
        assert victim not in dyn.active
        assert states_identical(dyn, dyn.rebuild())

    def test_mixed_batches_match_rebuild(self, metric):
        dyn = _fresh(metric)
        dyn.apply([("insert", [10.0, 20.0]), ("delete", 0), ("delete", 9)])
        dyn.apply([("insert", [900.0, 900.0]), ("delete", N)])
        assert states_identical(dyn, dyn.rebuild())

    def test_validation_failures_leave_state_untouched(self, metric):
        dyn = _fresh(metric)
        before = dyn.rebuild()
        with pytest.raises(ValueError):
            dyn.apply([("delete", 10_000)])
        with pytest.raises(ValueError):
            dyn.apply([("delete", 1), ("delete", 1)])
        assert states_identical(dyn, before)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_schedules_match_rebuild(self, data):
        """Bounded sweep: any short random insert/delete schedule must
        leave the mutated cover identical to rebuilding from scratch."""
        metric = random_points(16, dim=2, seed=11)
        dyn = DynamicRobustCover.from_metric(metric, eps=EPS)
        batches = data.draw(st.integers(1, 2), label="batches")
        seen_points = []
        for _ in range(batches):
            size = data.draw(st.integers(1, 3), label="batch_size")
            ops, doomed = [], set()
            for _ in range(size):
                live = [p for p in dyn.active if p not in doomed]
                if len(live) > 4 and data.draw(st.booleans(), label="delete?"):
                    victim = data.draw(st.sampled_from(live), label="victim")
                    doomed.add(victim)
                    ops.append(("delete", victim))
                else:
                    coords = data.draw(
                        st.tuples(
                            st.floats(0, 1000, allow_nan=False),
                            st.floats(0, 1000, allow_nan=False),
                        ),
                        label="point",
                    )
                    point = list(coords)
                    # Inserts at distance 0 from an earlier insert are
                    # refused by validation (a sub-1e-154 offset squares
                    # to 0 too); nudge them so the schedule stays
                    # applicable.
                    while seen_points and np.linalg.norm(
                        np.asarray(seen_points) - point, axis=1
                    ).min() == 0.0:
                        point[0] += 1.0
                    seen_points.append(point)
                    ops.append(("insert", point))
            dyn.apply(ops)
        assert states_identical(dyn, dyn.rebuild())


# ----------------------------------------------------------------------
# Static oracle: the cover over live points == the cover of the live
# points alone, under the index map


def assert_isomorphic_to_compacted_cover(dyn):
    """ζ and every tree's distances over all active pairs equal those of
    the plain cover built on the compacted live points, bit for bit."""
    live = np.asarray(dyn.active)
    compacted = EuclideanMetric(dyn.coords[live])
    plain = robust_tree_cover(
        compacted,
        dyn.eps,
        hierarchy=NetHierarchy(compacted, dyn.i_min, dyn.i_max),
    )
    assert len(dyn.trees) == len(plain.trees)
    ia, ib = np.triu_indices(len(live), 1)
    for masked, ref in zip(dyn.trees, plain.trees):
        assert np.array_equal(
            masked.tree_distances_many(live[ia], live[ib]),
            ref.tree_distances_many(ia, ib),
        )


class TestStaticOracle:
    @pytest.mark.parametrize("eps", [0.3, 0.5])
    def test_live_cover_matches_the_compacted_static_cover(self, metric, eps):
        dyn = DynamicRobustCover.from_metric(metric, eps=eps)
        root = dyn.trees[0].tree.root
        anchor = dyn.trees[0].rep_point[root]

        def others(count):
            return [p for p in dyn.active if p != anchor][1 : 1 + count]

        schedule = [
            lambda: [("delete", anchor)],  # the first tree's root anchor
            lambda: [("delete", p) for p in others(2)]
            + [("insert", [123.0, 456.0])],
            lambda: [("insert", [900.0, 80.0]), ("insert", [40.0, 950.0])],
            lambda: [("insert", [5000.0, 5000.0])],  # widens the range
            lambda: [("delete", p) for p in others(3)],
        ]
        repins = []
        for make_ops in schedule:
            repins.append(dyn.apply(make_ops()).repinned)
            assert_isomorphic_to_compacted_cover(dyn)
        assert anchor not in dyn.active
        assert repins == [False, False, False, True, False]


# ----------------------------------------------------------------------
# Journal durability


class TestJournal:
    def _filled(self, path, ops=4):
        with UpdateJournal(path) as journal:
            for i in range(ops):
                if i % 2 == 0:
                    journal.append("insert", point=[float(i), float(i + 1)])
                else:
                    journal.append("delete", point_id=i)
            return [dict(r) for r in journal.records]

    def test_append_reload_round_trip(self, tmp_path):
        path = str(tmp_path / "j.journal")
        written = self._filled(path)
        with UpdateJournal(path) as journal:
            assert [dict(r) for r in journal.records] == written
            assert journal.last_seq == len(written)
            assert journal.base_seq == 0

    def test_replay_is_idempotent(self, tmp_path):
        path = str(tmp_path / "j.journal")
        self._filled(path, ops=5)
        with UpdateJournal(path) as journal:
            assert [r.seq for r in journal.records_after(0)] == [1, 2, 3, 4, 5]
            assert [r.seq for r in journal.records_after(3)] == [4, 5]
            assert journal.records_after(5) == []
            assert journal.records_after(99) == []

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "j.journal")
        self._filled(path, ops=3)
        intact = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00\xde\xad\xbe\xefpartial frame")
        with UpdateJournal(path) as journal:
            assert len(journal) == 3
        assert os.path.getsize(path) == intact

    def test_seq_gap_is_corruption(self, tmp_path):
        import json
        import struct
        import zlib

        path = str(tmp_path / "j.journal")
        self._filled(path, ops=2)
        bogus = json.dumps(
            {"kind": "op", "seq": 9, "op": "delete", "point_id": 0},
            sort_keys=True, separators=(",", ":"),
        ).encode()
        with open(path, "ab") as fh:
            fh.write(struct.pack("<II", len(bogus), zlib.crc32(bogus)) + bogus)
        with pytest.raises(CheckpointCorruption, match="gap-free"):
            UpdateJournal(path)

    def test_reset_starts_a_fresh_epoch(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with UpdateJournal(path) as journal:
            journal.append("insert", point=[1.0, 2.0])
            journal.append("delete", point_id=0)
            journal.reset()
            assert len(journal) == 0
            assert journal.base_seq == 2
            record = journal.append("insert", point=[3.0, 4.0])
            assert record.seq == 3

    @settings(max_examples=25, deadline=None)
    @given(cut=st.integers(0, 400))
    def test_truncate_at_any_byte_keeps_longest_valid_prefix(self, cut):
        """Crash-safety property: chopping the file at ANY byte loses at
        most the torn tail — reopening always yields a gap-free prefix
        of the originally acked records (or rejects an empty/torn
        header outright, never serving invented state)."""
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cut.journal")
            written = self._filled(path, ops=6)
            size = os.path.getsize(path)
            cut = min(cut, size)
            with open(path, "r+b") as fh:
                fh.truncate(cut)
            try:
                with UpdateJournal(path) as journal:
                    survived = [dict(r) for r in journal.records]
            except CheckpointCorruption:
                # The header itself was torn: refusal, not silent reset.
                assert cut < size
                return
            if cut < size:
                assert len(survived) < len(written)
            assert survived == written[: len(survived)]


# ----------------------------------------------------------------------
# Stale pack units


class TestStaleness:
    def test_retired_cover_refuses_new_packed_arena(self, metric):
        cover = robust_tree_cover(metric, eps=EPS)
        cover.retire("test mutation")
        with pytest.raises(StalePackError, match="retired"):
            cover.packed_index()

    def test_prebuilt_arena_keeps_serving_after_retirement(self, metric):
        cover = robust_tree_cover(metric, eps=EPS)
        arena = cover.packed_index()
        cover.retire("test mutation")
        if arena is not None:  # size budget may skip the arena entirely
            assert cover.packed_index() is arena

    def test_mutation_retires_the_previous_generation(self, metric):
        dyn = _fresh(metric)
        prev = dyn.cover
        dyn.apply([("insert", [50.0, 60.0])])
        assert dyn.cover is not prev
        assert prev.retired
        with pytest.raises(StalePackError):
            prev.packed_index()


# ----------------------------------------------------------------------
# Churn harness


class TestChurnHarness:
    def test_batches_pass_stretch_and_pool_audits(self, metric):
        harness = ChurnHarness(
            _fresh(metric), gamma=None, seed=3, f=1, k=K, verify_ft=True
        )
        records = harness.run(batches=2, batch_size=3, queries=8)
        assert len(records) == 2
        for record in records:
            assert record["ft_pools_ok"] is True
            assert record["measured_stretch"] >= 0.0
            assert record["active"] >= 3

    def test_differential_oracle_gate(self, metric):
        harness = ChurnHarness(
            _fresh(metric), seed=4, verify_ft=False, verify_rebuild=True
        )
        record = harness.run_batch(batch_size=2, queries=4)
        assert record["rebuild_identical"] is True


# ----------------------------------------------------------------------
# CheckpointService integration


@pytest.fixture()
def service(metric, tmp_path):
    cover = robust_tree_cover(metric, eps=EPS)
    path = str(tmp_path / "cover.ckpt")
    save_cover_checkpoint(cover, path, builder=BUILDER)
    svc = CheckpointService(metric, k=K).load(path)
    yield svc
    svc.close()


class TestServiceDynamic:
    def test_static_service_refuses_mutations(self, service):
        with pytest.raises(ValueError, match="enable_dynamic"):
            service.insert([1.0, 2.0])
        with pytest.raises(ValueError, match="enable_dynamic"):
            service.delete(0)

    def test_mapped_service_refuses_dynamic_mode(self, metric, tmp_path):
        cover = robust_tree_cover(metric, eps=EPS)
        navigator = MetricNavigator(metric, cover, K)
        path = str(tmp_path / "nav.ckpt")
        save_navigator_checkpoint(navigator, path, builder=BUILDER, packed=True)
        svc = CheckpointService(metric, k=K).load(path, mmap=True)
        with pytest.raises(ValueError, match="read-only"):
            svc.enable_dynamic(eps=EPS, journal_path=str(tmp_path / "j"))
        with pytest.raises(ValueError, match="mapped"):
            svc.insert([1.0, 2.0])

    def test_mutate_journal_replay_compact_cycle(self, service, tmp_path, metric):
        dyn = service.enable_dynamic()
        journal = journal_path_for(service._path)
        assert os.path.exists(journal)

        inserted = service.insert([250.0, 250.0])
        assert inserted["point_id"] == N
        assert inserted["seq"] == 1
        deleted = service.delete(2)
        assert deleted["seq"] == 2
        status = service.status()
        assert status["dynamic"] is True
        assert status["applied_seq"] == 2
        assert status["journal_records"] == 2

        # Queries reach the new point on the new generation.
        result = service.query(0, N)
        assert result.delivered and not result.degraded

        # A second service over the same files replays the journal to
        # the identical structure (acked == durable).
        twin = CheckpointService(metric, k=K).load(service._path)
        twin.enable_dynamic()
        assert states_identical(twin.dynamic, service.dynamic)
        twin.close()

        # compact folds the journal into the checkpoint...
        compacted = service.compact()
        assert compacted["applied_seq"] == 2
        assert compacted["journal_records"] == 0

        # ...and a cold reload of the compacted checkpoint (base
        # metric!) restores the same structure, continuing the seq.
        cold = CheckpointService(metric, k=K).load(service._path)
        assert cold.state == "ready"
        cold.enable_dynamic()
        assert states_identical(cold.dynamic, service.dynamic)
        assert cold.insert([750.0, 750.0])["seq"] == 3
        cold.close()

    def test_mutation_responses_carry_the_patch_report(self, service):
        """The ``patch`` block rides the insert/delete wire responses
        (load generators read ``touched_fraction`` from it): exactly the
        :class:`PatchReport` keys, and every tree replayed."""
        keys = {
            "ops", "trees_total", "trees_replayed", "touched_fraction",
            "rebuilt", "repinned",
        }
        dyn = service.enable_dynamic()
        for mutate in (lambda: service.insert([640.0, 320.0]),
                       lambda: service.delete(5)):
            patch = mutate()["patch"]
            assert set(patch) == keys
            assert patch == dyn.last_report.to_dict()
            assert patch["ops"] == 1
            assert patch["trees_replayed"] == patch["trees_total"] == len(dyn.trees)
            assert patch["touched_fraction"] == 1.0
            assert patch["rebuilt"] is True

    def test_journaled_but_unapplied_record_replays(self, service, metric):
        service.enable_dynamic()
        service.insert([111.0, 222.0])
        path = service._path
        service.close()

        # Simulate a crash after the fsync-ack but before the patch
        # applied: the record exists only in the journal.
        with UpdateJournal(journal_path_for(path)) as journal:
            assert journal.last_seq == 1
            journal.append("insert", point=[333.0, 444.0])

        revived = CheckpointService(metric, k=K).load(path)
        dyn = revived.enable_dynamic()
        assert dyn.applied_seq == 2
        assert len(dyn.active) == N + 2

        reference = _fresh(metric)
        reference.apply([("insert", [111.0, 222.0])])
        reference.apply([("insert", [333.0, 444.0])])
        assert states_identical(dyn, reference)
        revived.close()

    def test_recover_in_dynamic_mode_rebuilds_current_generation(self, service):
        service.enable_dynamic()
        service.insert([10.0, 990.0])
        before = service.dynamic
        report = service.recover()
        assert report.outcome == "full-rebuild"
        assert service.state == "ready"
        assert states_identical(service.dynamic, before)


# ----------------------------------------------------------------------
# End-to-end: mutation verbs over the wire


@pytest.fixture()
def dynamic_server(metric, tmp_path):
    cover = robust_tree_cover(metric, eps=EPS)
    path = str(tmp_path / "cover.ckpt")
    save_cover_checkpoint(cover, path, builder=BUILDER)
    svc = CheckpointService(metric, k=K).load(path)
    svc.enable_dynamic()
    with ThreadedServer(
        svc, policy=AdmissionPolicy(max_batch=8)
    ) as threaded:
        yield threaded
    svc.close()


@pytest.mark.serve
class TestServeMutations:
    def test_mutation_lifecycle_over_the_wire(self, dynamic_server):
        with ServeClient(dynamic_server.host, dynamic_server.port) as client:
            # Routing works before any mutation, and again after an
            # insert *to the new point* — the regression for the
            # generation-keyed router cache (a stale single-slot router
            # would reject point id N as out of range).
            assert client.route(0, 1)["status"] == "ok"
            inserted = client.insert([420.0, 240.0])
            assert inserted["status"] == "ok"
            new_id = inserted["result"]["point_id"]
            assert new_id == N
            assert client.route(0, new_id)["status"] == "ok"
            assert client.path(1, new_id)["status"] == "ok"

            deleted = client.delete(4)
            assert deleted["status"] == "ok"
            refusal = client.distance(4, 7)
            assert refusal["status"] == "error"
            assert "tombstoned" in refusal["error"]

            compacted = client.compact()
            assert compacted["status"] == "ok"
            health = client.health()
            assert health["service"]["dynamic"] is True
            assert health["service"]["journal_records"] == 0
            assert health["service"]["active_points"] == N  # +1 -1

    def test_mutation_requires_well_formed_fields(self, dynamic_server):
        with ServeClient(dynamic_server.host, dynamic_server.port) as client:
            bad_point = client.request("insert", point=["x"])
            assert bad_point["status"] == "error"
            assert "coordinates" in bad_point["error"]
            bad_delete = client.request("delete")
            assert bad_delete["status"] == "error"

    def test_mapped_daemon_refuses_mutations_as_undelivered(
        self, metric, tmp_path
    ):
        cover = robust_tree_cover(metric, eps=EPS)
        navigator = MetricNavigator(metric, cover, K)
        path = str(tmp_path / "nav.ckpt")
        save_navigator_checkpoint(navigator, path, builder=BUILDER, packed=True)
        svc = CheckpointService(metric, k=K).load(path, mmap=True)
        with ThreadedServer(svc) as threaded:
            with ServeClient(threaded.host, threaded.port) as client:
                refusal = client.insert([1.0, 2.0])
                assert refusal["status"] == "undelivered"
                assert "memory-mapped" in refusal["error"]
                assert client.distance(0, 1)["status"] == "ok"
