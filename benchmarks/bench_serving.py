"""Serving subsystem — cold start, admission batching, daemon round trips.

Times the moving parts of ``repro.serve``: checkpoint load to first
answered query, the engine's batch kernels at the admission batcher's
batch sizes, and full closed-loop daemon round trips.  The tracked
regression artifact (``BENCH_serving.json``) comes from
``python -m repro bench``; this file is the interactive profiler's view
of the same path.
"""

import pytest

from repro.bench import _serve_closed_loop
from repro.checkpoint import CheckpointService, save_cover_checkpoint
from repro.metrics import random_points
from repro.serve import AdmissionPolicy, QueryEngine, ServeClient, ThreadedServer
from repro.treecover import robust_tree_cover

N = 120
EPS = 0.5
K = 3


@pytest.fixture(scope="module")
def srv_metric():
    return random_points(N, dim=2, seed=7)


@pytest.fixture(scope="module")
def srv_ckpt(srv_metric, tmp_path_factory):
    cover = robust_tree_cover(srv_metric, eps=EPS)
    path = str(tmp_path_factory.mktemp("bench_serve") / "cover.ckpt")
    save_cover_checkpoint(cover, path, builder={"family": "robust", "eps": EPS})
    return path


@pytest.fixture(scope="module")
def srv_service(srv_metric, srv_ckpt):
    return CheckpointService(srv_metric, k=K).load(srv_ckpt)


def test_cold_load_to_ready(benchmark, srv_metric, srv_ckpt):
    """The deploy/restart cost: audited load until queries can flow."""

    def cold_load():
        return CheckpointService(srv_metric, k=K).load(srv_ckpt)

    service = benchmark(cold_load)
    assert service.state == "ready"


@pytest.mark.parametrize("batch_size", [1, 8, 32])
def test_engine_batch_execution(benchmark, srv_service, batch_size):
    """The executor half of admission batching, without the network."""
    engine = QueryEngine(srv_service)
    pairs = [(i % N, (i * 5 + 7) % N) for i in range(batch_size)]
    pairs = [(u, v) for u, v in pairs if u != v] or [(0, 1)]

    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    answers = benchmark(engine.execute, "path", us, vs)
    assert set(answers.status) == {"ok"}


def test_daemon_round_trip(benchmark, srv_service):
    """One pipelined closed-loop wave through a live daemon."""
    policy = AdmissionPolicy(max_batch=8)
    with ThreadedServer(srv_service, policy=policy) as threaded:
        with ServeClient(threaded.host, threaded.port) as client:
            pairs = [(i, (i * 3 + 1) % N) for i in range(1, 17)]

            def wave():
                total, lat_us, statuses = _serve_closed_loop(
                    client, pairs, queries=32, window=8
                )
                return statuses

            statuses = benchmark(wave)
            assert statuses.get("ok", 0) == 32
