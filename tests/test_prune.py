"""Pruned and compact covers through the persistence + serving stack.

The prune/compact machinery itself is pinned in
``tests/test_tree_covers.py`` (contract domination, determinism) and
``tests/test_packed_query.py`` (bit-identical retained paths); this
module pins the *integration* surface the ISSUE demands:

* a pruned navigator survives the packed checkpoint + mmap round trip
  with bit-identical answers,
* builder specs for both new shapes (``pruned`` block, ``compact``
  family) replay deterministically through :func:`builder_from_meta`,
* the dynamic-mutation layer refuses pruned and compact checkpoints
  with a typed error instead of corrupting patch replay,
* a checkpoint pruned over all pairs declares the prune's γ, and every
  answer of its mapped navigator lies within that declared α.
"""

import pytest

from repro.checkpoint import (
    CheckpointService,
    builder_from_meta,
    load_cover_checkpoint,
    load_navigator_checkpoint,
    save_cover_checkpoint,
    save_navigator_checkpoint,
)
from repro.checkpoint.format import open_envelope, read_checkpoint_file
from repro.cli import main as cli_main
from repro.core import MetricNavigator
from repro.metrics import random_points, sample_pairs
from repro.treecover import (
    compact_tree_cover,
    prune_cover,
    robust_tree_cover,
)

N = 90
PRUNE_SPEC = {"eps": 0.05, "seed": 0, "max_pairs": 50_000}


@pytest.fixture(scope="module")
def metric():
    return random_points(N, dim=2, seed=31)


@pytest.fixture(scope="module")
def pruned(metric):
    report = prune_cover(robust_tree_cover(metric, eps=0.4), **PRUNE_SPEC)
    assert report.zeta_after < report.zeta_before
    return report.cover


class TestPrunedCheckpoints:
    def test_packed_mmap_roundtrip_is_bit_identical(self, metric, pruned, tmp_path):
        """build -> prune -> packed checkpoint -> mmap: same answers."""
        navigator = MetricNavigator(metric, pruned, 3)
        path = str(tmp_path / "pruned_nav.ckpt")
        save_navigator_checkpoint(
            navigator,
            path,
            builder={"family": "robust", "eps": 0.4, "pruned": dict(PRUNE_SPEC)},
            packed=True,
        )
        rebuilt = load_navigator_checkpoint(path, metric)
        mapped = load_navigator_checkpoint(path, metric, mmap=True)
        assert mapped.num_trees == pruned.size
        for u, v in sample_pairs(N, 60, seed=5):
            expected = navigator.find_path(u, v)
            assert rebuilt.find_path(u, v) == expected
            assert mapped.find_path(u, v) == expected

    def test_cover_spec_roundtrip_and_deterministic_replay(
        self, metric, pruned, tmp_path
    ):
        """The builder spec in meta rebuilds the identical pruned cover."""
        spec = {"family": "robust", "eps": 0.4, "pruned": dict(PRUNE_SPEC)}
        path = str(tmp_path / "pruned_cover.ckpt")
        save_cover_checkpoint(pruned, path, builder=spec)
        loaded = load_cover_checkpoint(path, metric)
        assert loaded.size == pruned.size
        _, meta, _ = open_envelope(read_checkpoint_file(path))
        builder = builder_from_meta(meta)
        assert builder is not None
        rebuilt = builder(metric)
        assert rebuilt.size == pruned.size
        for u, v in sample_pairs(N, 40, seed=7):
            # Identical retained set + deterministic tie-breaks mean the
            # rebuild answers from the same tree at the same distance —
            # which is what per-tree repair relies on.
            assert rebuilt.best_tree(u, v) == pruned.best_tree(u, v)

    def test_compact_spec_roundtrip(self, metric, tmp_path):
        cover = compact_tree_cover(metric, eps=0.5, shifts=2)
        spec = {"family": "compact", "eps": 0.5, "shifts": 2}
        path = str(tmp_path / "compact_cover.ckpt")
        save_cover_checkpoint(cover, path, builder=spec)
        loaded = load_cover_checkpoint(path, metric)
        assert loaded.size == cover.size
        _, meta, _ = open_envelope(read_checkpoint_file(path))
        rebuilt = builder_from_meta(meta)(metric)
        assert rebuilt.size == cover.size
        for u, v in sample_pairs(N, 40, seed=9):
            assert rebuilt.best_tree(u, v) == cover.best_tree(u, v)


class TestDynamicRefusals:
    def test_enable_dynamic_refuses_pruned_cover(self, metric, pruned, tmp_path):
        path = str(tmp_path / "pruned.ckpt")
        save_cover_checkpoint(
            pruned,
            path,
            builder={"family": "robust", "eps": 0.4, "pruned": dict(PRUNE_SPEC)},
        )
        service = CheckpointService(metric, 3).load(path)
        assert not service.recovery_pending
        with pytest.raises(ValueError, match="pruned"):
            service.enable_dynamic(journal_path=str(tmp_path / "j.journal"))

    def test_enable_dynamic_refuses_compact_family(self, metric, tmp_path):
        cover = compact_tree_cover(metric, eps=0.5, shifts=2)
        path = str(tmp_path / "compact.ckpt")
        save_cover_checkpoint(
            cover, path, builder={"family": "compact", "eps": 0.5, "shifts": 2}
        )
        service = CheckpointService(metric, 3).load(path)
        with pytest.raises(ValueError, match="robust cover family"):
            service.enable_dynamic(journal_path=str(tmp_path / "j.journal"))


def _declared(path):
    _, meta, _ = open_envelope(read_checkpoint_file(path))
    return meta["contract"]


class TestDeclaredContract:
    def test_every_mapped_answer_is_within_the_pruned_alpha(self, tmp_path):
        n = 200
        path = str(tmp_path / "nav.ckpt")
        assert cli_main([
            "checkpoint", "--family", "euclidean", "--n", str(n),
            "--k", "3", "--eps", "0.5", "--seed", "1",
            "--what", "navigator", "--packed", "--prune", "--out", path,
        ]) == 0
        contract = _declared(path)
        assert contract["pairs"] == n * (n - 1) // 2  # measured, all pairs
        alpha = contract["gamma"]
        metric = random_points(n, dim=2, seed=1)
        mapped = load_navigator_checkpoint(path, metric, mmap=True)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        answers = zip(
            pairs, mapped.find_paths(pairs), mapped.approx_distances(pairs)
        )
        worst = 1.0
        for (u, v), (route, _), distance in answers:
            base = metric.distance(u, v)
            weight = sum(
                metric.distance(a, b) for a, b in zip(route, route[1:])
            )
            assert route[0] == u and route[-1] == v and len(route) <= 4
            assert base <= distance * (1 + 1e-9)
            worst = max(worst, weight / base, distance / base)
        assert worst <= alpha * (1 + 1e-9)

    def test_unpruned_cover_declares_its_sampled_stretch(self, tmp_path):
        path = str(tmp_path / "cover.ckpt")
        assert cli_main([
            "checkpoint", "--family", "euclidean", "--n", "40",
            "--eps", "0.5", "--what", "cover", "--out", path,
        ]) == 0
        assert _declared(path)["pairs"] == 300
        explicit = str(tmp_path / "explicit.ckpt")
        assert cli_main([
            "checkpoint", "--family", "euclidean", "--n", "40",
            "--eps", "0.5", "--what", "cover", "--gamma", "9",
            "--out", explicit,
        ]) == 0
        declared = _declared(explicit)
        assert (declared["gamma"], declared["pairs"]) == (9.0, None)
