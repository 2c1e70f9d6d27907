"""Import footprint of the serving path.

A memory-mapped daemon answers from packed arrays and never calls
scipy, so it must never load it: scipy is imported at its call sites
(KD-trees, ``cdist``, ``Delaunay``) and only a build that uses one pays
for it.  Each check runs in a fresh interpreter, so modules other tests
imported cannot mask a module-level import.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.checkpoint import save_navigator_checkpoint
from repro.core import MetricNavigator
from repro.metrics import random_points
from repro.treecover import prune_cover, robust_tree_cover

N = 60
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def pruned_packed_checkpoint(tmp_path_factory):
    metric = random_points(N, dim=2, seed=0)
    cover = prune_cover(robust_tree_cover(metric, eps=0.5)).cover
    path = str(tmp_path_factory.mktemp("footprint") / "nav.ckpt")
    save_navigator_checkpoint(MetricNavigator(metric, cover, 3), path, packed=True)
    return path


def test_mapped_service_answers_without_scipy(pruned_packed_checkpoint):
    out = _run(
        """
        import sys

        def no_scipy(where):
            assert "scipy" not in sys.modules, f"scipy loaded by {where}"

        import repro
        no_scipy("import repro")
        import repro.cli
        no_scipy("import repro.cli")

        from repro.checkpoint import CheckpointService
        from repro.metrics import random_points
        from repro.serve import QueryEngine

        path, n = sys.argv[1], int(sys.argv[2])
        service = CheckpointService(random_points(n, dim=2, seed=0), k=3)
        service.load(path, mmap=True)
        no_scipy("a mapped load")
        engine = QueryEngine(service)
        us, vs = [0, 3, 5], [n - 1, 17, 5]
        paths = engine.execute("path", us, vs)
        distances = engine.execute("distance", us, vs)
        no_scipy("path and distance queries")
        assert paths.status + distances.status == ["ok"] * 6
        assert paths.result(0)["path"][0] == 0
        assert distances.result(2)["distance"] == 0.0
        print("served", len(paths) + len(distances))
        """,
        pruned_packed_checkpoint,
        str(N),
    )
    assert out.strip() == "served 6"


def test_kd_tree_build_imports_scipy_on_first_use():
    out = _run(
        """
        import sys

        from repro.metrics import random_points
        from repro.treecover import robust_tree_cover

        metric = random_points(40, dim=2, seed=1)
        assert "scipy" not in sys.modules
        cover = robust_tree_cover(metric, eps=0.5)
        assert cover.size > 0
        print("scipy" in sys.modules)
        """
    )
    assert out.strip() == "True"
