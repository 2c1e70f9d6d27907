"""pytest-benchmark view of the library stages of ``repro.bench.stages()``.

Each stage with no BENCH file is one test: its set-up runs untimed,
``benchmark`` times its ``run``, and its check asserts the guarantee the
paper's theorem bounds (Table 1 stretch and tree counts, hop budgets,
routing delivery, ...).  Fixtures are built once per session.  The
tracked regression artifacts come from ``python -m repro bench``.
"""

import pytest

from repro.bench import Ctx, stages


@pytest.fixture(scope="session")
def cache():
    return {}


@pytest.mark.parametrize(
    "stage", [s for s in stages() if s.file is None], ids=lambda s: s.name
)
def test_stage(benchmark, cache, stage):
    with Ctx(cache=cache) as ctx:
        if stage.setup is not None:
            stage.setup(ctx)
        out = benchmark(stage.run, ctx)
        if stage.check is not None:
            stage.check(ctx, out)
