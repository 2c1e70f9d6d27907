"""Zero-copy checkpoint tests: raw-array region, mmap loads, sharing.

The ``packed=True`` navigator checkpoint appends a page-aligned raw
binary region after the JSON envelope line; ``mmap=True`` loads attach
to it without rebuilding anything.  These tests pin the format's
integrity story (per-array CRC32 tamper detection, envelope digest
unaffected), backward compatibility (non-mapped readers ignore the raw
region; plain v2 files refuse ``mmap=True`` with a typed error), exact
answer parity, and cross-process bit-identity under the ``spawn`` start
method.
"""

import mmap
import multiprocessing

import numpy as np
import pytest

from repro.checkpoint import (
    RAW_SECTION,
    load_mapped_arrays,
    load_navigator_checkpoint,
    open_envelope,
    read_checkpoint_file,
    save_navigator_checkpoint,
)
from repro.core import MetricNavigator, PackedMetricNavigator
from repro.errors import CheckpointCorruption
from repro.metrics import random_points, sample_pairs
from repro.parallel import attach_mapped_navigator, mapped_navigator_descriptor
from repro.treecover import prune_cover, ramsey_tree_cover, robust_tree_cover


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    metric = random_points(80, dim=2, seed=0)
    cover = robust_tree_cover(metric, eps=0.5)
    navigator = MetricNavigator(metric, cover, 3)
    path = str(tmp_path_factory.mktemp("ckpt") / "nav.ckpt")
    save_navigator_checkpoint(navigator, path, packed=True)
    return metric, navigator, path


class TestFormat:
    def test_envelope_is_first_line_and_verifies(self, stack):
        _, _, path = stack
        data = read_checkpoint_file(path)
        kind, meta, bodies = open_envelope(data)
        assert kind == "navigator"
        assert RAW_SECTION in bodies
        table = bodies[RAW_SECTION]
        assert table["align"] == 4096
        for spec in table["arrays"].values():
            assert spec["offset"] % 64 == 0

    def test_raw_byte_tamper_detected_at_map_time(self, stack, tmp_path):
        _, _, path = stack
        data = read_checkpoint_file(path)
        _, _, bodies = open_envelope(data)
        table = bodies[RAW_SECTION]
        raw = open(path, "rb").read()
        name, spec = next(iter(table["arrays"].items()))
        align = table["align"]
        header_len = raw.index(b"\n") + 1
        data_start = -(-header_len // align) * align
        offset = data_start + spec["offset"]
        tampered = (
            raw[:offset] + bytes([raw[offset] ^ 0xFF]) + raw[offset + 1:]
        )
        bad = str(tmp_path / "tampered.ckpt")
        with open(bad, "wb") as handle:
            handle.write(tampered)
        # The envelope (JSON line) is untouched, so digest still passes…
        open_envelope(read_checkpoint_file(bad))
        # …but the raw region's per-array CRC catches the flip.
        with pytest.raises(CheckpointCorruption, match="CRC32"):
            load_mapped_arrays(bad, table)

    def test_mapped_arrays_are_read_only(self, stack):
        _, _, path = stack
        _, _, bodies = open_envelope(read_checkpoint_file(path))
        arrays = load_mapped_arrays(path, bodies[RAW_SECTION])
        view = next(iter(arrays.values()))
        assert not view.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            view[...] = 0


    def test_mapped_arrays_are_plain_views_of_the_file_mapping(self, stack):
        _, _, path = stack
        _, _, bodies = open_envelope(read_checkpoint_file(path))
        arrays = load_mapped_arrays(path, bodies[RAW_SECTION])
        for view in arrays.values():
            # Plain ndarrays: scalar indexing skips np.memmap's
            # Python-level __getitem__.
            assert type(view) is np.ndarray
            assert not view.flags.writeable
            # Zero-copy: every array in the base chain borrows its
            # memory, down to the file mapping itself.
            owner = view
            while isinstance(owner, np.ndarray):
                assert not owner.flags.owndata
                owner = owner.base
            assert isinstance(owner, mmap.mmap)


class TestCompatibility:
    def test_packed_file_loads_through_legacy_path(self, stack):
        """Non-mmap loads of a packed file rebuild + audit as before."""
        metric, navigator, path = stack
        rebuilt = load_navigator_checkpoint(path, metric)
        assert isinstance(rebuilt, MetricNavigator)
        assert rebuilt.num_trees == navigator.num_trees

    def test_plain_v2_file_refuses_mmap(self, stack, tmp_path):
        metric, navigator, _ = stack
        plain = str(tmp_path / "plain.ckpt")
        save_navigator_checkpoint(navigator, plain)  # no raw region
        load_navigator_checkpoint(plain, metric)  # fine without mmap
        with pytest.raises(CheckpointCorruption, match="raw-array"):
            load_navigator_checkpoint(plain, metric, mmap=True)

    def test_mmap_rejects_wrong_metric_size(self, stack):
        _, _, path = stack
        other = random_points(81, dim=2, seed=1)
        with pytest.raises(CheckpointCorruption, match="80 points"):
            load_navigator_checkpoint(path, other, mmap=True)


@pytest.fixture(scope="module", params=["robust", "pruned", "ramsey"])
def cover_stack(request, tmp_path_factory):
    """One packed checkpoint per cover kind: the full robust cover, a
    pruned one (retained trees, remapped indexes) and a Ramsey one
    (home-table selection)."""
    metric = random_points(80, dim=2, seed=0)
    if request.param == "ramsey":
        cover = ramsey_tree_cover(metric, ell=2, seed=1)
    else:
        cover = robust_tree_cover(metric, eps=0.5)
        if request.param == "pruned":
            cover = prune_cover(cover, eps=0.05, seed=3).cover
    navigator = MetricNavigator(metric, cover, 3)
    path = str(tmp_path_factory.mktemp("ckpt") / "nav.ckpt")
    save_navigator_checkpoint(navigator, path, packed=True)
    return metric, navigator, path


class TestParity:
    def test_mapped_answers_bit_identical(self, cover_stack):
        metric, navigator, path = cover_stack
        mapped = load_navigator_checkpoint(path, metric, mmap=True)
        assert isinstance(mapped, PackedMetricNavigator)
        assert mapped.num_trees == navigator.num_trees
        pairs = sample_pairs(metric.n, 120, seed=2)
        for u, v in pairs:
            assert mapped.find_path_with_tree(u, v) == \
                navigator.find_path_with_tree(u, v)
            assert mapped.approx_distance(u, v) == \
                navigator.approx_distance(u, v)
        assert mapped.find_paths(pairs) == navigator.find_paths(pairs)
        assert np.array_equal(
            mapped.approx_distances(pairs), navigator.approx_distances(pairs)
        )

    def test_paths_are_json_ready_python_ints(self, stack):
        metric, _, path = stack
        mapped = load_navigator_checkpoint(path, metric, mmap=True)
        path_points, tree = mapped.find_path_with_tree(0, 79)
        assert all(type(x) is int for x in path_points)
        assert type(tree) is int


def _worker_answers(path, points, pairs, queue):
    """Spawn entry point: attach to the mapped checkpoint, answer."""
    from repro.metrics import EuclideanMetric

    metric = EuclideanMetric(points)
    navigator = attach_mapped_navigator(
        mapped_navigator_descriptor(path), metric
    )
    queue.put([navigator.find_path_with_tree(u, v) for u, v in pairs])


class TestMultiProcess:
    def test_two_spawned_processes_answer_identically(self, stack):
        """Two independent processes mapping the same checkpoint give
        bit-identical answers (and match the in-memory navigator)."""
        metric, navigator, path = stack
        pairs = sample_pairs(metric.n, 40, seed=3)
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.SimpleQueue()
        procs = [
            ctx.Process(
                target=_worker_answers,
                args=(path, metric.points, pairs, queue),
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        answers = [queue.get() for _ in procs]
        for proc in procs:
            proc.join()
        expected = [navigator.find_path_with_tree(u, v) for u, v in pairs]
        # queue.get() normalizes tuples through pickling; compare shapes
        normalized = [[(list(p), t) for p, t in a] for a in answers]
        assert normalized[0] == normalized[1]
        assert normalized[0] == [(list(p), t) for p, t in expected]
