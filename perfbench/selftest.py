"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest perfbench/selftest.py`` from the repository
root.  The file name keeps the repository's default test collection from
picking the harness up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import fingerprint, run, stats, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _experiment(tmp_path, workload: str, mode: str) -> dict:
    """One two-round experiment in a fresh interpreter, as the benchmark runs it."""
    out = tmp_path / f"{workload}-{mode}.json"
    code = (
        "from perfbench import child; "
        f"child.experiment({workload!r}, 3, {mode!r}, {str(out)!r}, rounds=1)"
    )
    env, _removed = fingerprint.scrubbed_environment(dict(os.environ))
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
        capture_output=True, timeout=120,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrappers_are_transparent(tmp_path, workload):
    plain = _experiment(tmp_path, workload, "timed")
    traced = _experiment(tmp_path, workload, "traced")
    assert traced["digest"] == plain["digest"]
    assert traced["accounting"]["error_s"] < 1e-6
    if workload == "secagg-distributed-1e5":
        # Both workers reported their own layers at exit.
        assert len(traced["workers"]) == 2
        assert all(w["totals"]["secagg.mask"]["calls"] > 0 for w in traced["workers"])


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        stats.percentile(range(99), 90)
    assert stats.percentile(range(100), 90) == 89
    assert stats.samples_beyond(100, 90) == 10


def _fake_result(traced: bool) -> dict:
    result = {
        "rounds": 3, "round_ends": [1.0, 1.5, 2.5], "setup_s": 1.0,
        "peak_rss_mb": 100.0, "model_bytes": 30, "wire_bytes": 60,
    }
    if traced:
        result.update(
            layers={"nn.forward": {"busy": 1.0, "self": 1.0, "calls": 2}},
            counts={}, workers=[], materializations=0, redispatches=0,
            benign_tasks=4, accounting={"round_self": [0.1, 0.2, 0.3]},
        )
    return result


def test_metric_names_and_units_match_benchmark_json():
    results = [_fake_result(False)] * 50
    printed = run.end_to_end(results)
    assert {n: u for n, (_v, u) in printed.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    layers = run.per_layer(_fake_result(True))
    layers.update(run.tracing_overhead([_fake_result(False)], [_fake_result(True)]))
    assert {n: u for n, (_v, u) in layers.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_the_generated_inputs(workload):
    from repro.experiments.runner import build_dataset

    first, _ = build_dataset(workloads.scenario(workload, 1))
    second, _ = build_dataset(workloads.scenario(workload, 2))
    again, _ = build_dataset(workloads.scenario(workload, 1))
    assert np.array_equal(first.client(0).train.x, again.client(0).train.x)
    assert not np.array_equal(first.client(0).train.x, second.client(0).train.x)


def test_thread_variables_are_scrubbed():
    env, removed = fingerprint.scrubbed_environment(
        {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4", "HOME": "/h"}
    )
    assert env == {"HOME": "/h"}
    assert removed == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}
