"""The BENCH files keep their shape at the smoke configuration.

Runs ``python -m repro bench`` exactly as ``scripts/bench_smoke.sh``
does (a 2-worker leg and a ``--trace`` leg) and compares every emitted
file against ``bench_smoke_manifest.json``: schema id, payload keys,
config keys, row names in order, each row's keys and each row's
``detail`` key set.  The detail's ``workers_fallback`` is left out: it
appears only on a host with fewer cores than the requested workers.
"""

import json
import os
import pathlib
import subprocess
import sys

MANIFEST = pathlib.Path(__file__).with_name("bench_smoke_manifest.json")
SMOKE_ARGS = ["--quick", "--n", "80", "--nav-n", "60"]


def _bench(out_dir, *extra, workers=None):
    env = dict(os.environ)
    if workers is not None:
        env["REPRO_WORKERS"] = str(workers)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "bench", *SMOKE_ARGS, *extra,
         "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=560, env=env,
    )
    assert result.returncode == 0, result.stderr


def _manifest(out_dir):
    files = {}
    for leg in ("plain", "trace"):
        directory = out_dir / leg
        for path in sorted(directory.glob("BENCH_*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            files[f"{leg}/{path.name}"] = {
                "schema": payload["schema"],
                "keys": sorted(payload),
                "config": sorted(payload["config"]),
                "rows": [
                    [row["name"], sorted(row),
                     sorted(k for k in row["detail"] if k != "workers_fallback")]
                    for row in payload["results"]
                ],
            }
    return files


def test_smoke_configuration_emits_the_recorded_manifest(tmp_path):
    _bench(tmp_path / "plain", "--serve-n", "60", workers=2)
    _bench(tmp_path / "trace", "--no-baseline", "--no-serving",
           "--no-dynamic", "--trace")
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = _manifest(tmp_path)
    assert list(got) == list(expected)
    for name, spec in expected.items():
        assert got[name] == spec, name
