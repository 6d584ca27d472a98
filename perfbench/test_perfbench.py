"""Tests for the benchmark itself: the output check, pinned knobs, determinism.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench  # noqa: E402
from check import Invocation, check_history  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from repro.sgx.counters import CounterError  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

#: Small enough for a test, large enough to exercise every layer.
TINY = 0.1


def _w(key, t0, t1, version):
    return Invocation(False, key, t0, t1, f"ok:{version}".encode())


def _r(key, t0, t1, version):
    return Invocation(True, key, t0, t1, f"{key}@{version}".encode())


def _clean_history():
    return [
        _w("a", 0.0, 1.0, 1),
        _r("a", 1.5, 2.0, 1),
        _w("a", 2.0, 3.0, 2),
        _r("a", 2.5, 3.5, 2),  # concurrent with the second write
        _r("a", 2.5, 2.6, 1),  # concurrent, old value still allowed
        _w("b", 0.0, None, None),  # outstanding at the end
    ]


def test_clean_history_passes():
    snapshots = {"g0": {"replica-0": b"a=2;b=1", "replica-1": b"a=2;b=1"}}
    assert check_history(_clean_history(), snapshots) == []


def test_stale_read_is_flagged():
    history = _clean_history() + [_r("a", 4.0, 4.1, 1)]
    assert any("stale read" in v for v in check_history(history))


def test_read_from_the_future_is_flagged():
    history = _clean_history() + [_r("a", 0.1, 0.2, 3)]
    assert any("only" in v and "invoked" in v for v in check_history(history))


def test_duplicate_version_is_flagged():
    history = _clean_history() + [_w("a", 4.0, 5.0, 2)]
    assert any("duplicate write version 2" in v for v in check_history(history))


def test_gap_without_outstanding_write_is_flagged():
    history = [_w("c", 0.0, 1.0, 1), _w("c", 1.0, 2.0, 3), _w("c", 2.0, 2.5, 4)]
    assert any("missing" in v for v in check_history(history))


def test_lost_write_is_flagged():
    snapshots = {"g0": {"replica-0": b"a=1;b=0", "replica-1": b"a=1;b=0"}}
    violations = check_history(_clean_history(), snapshots)
    assert any("lost write" in v for v in violations)


def test_diverged_replicas_are_flagged():
    snapshots = {"g0": {"replica-0": b"a=2", "replica-1": b"a=2;b=1"}}
    assert any("diverge" in v for v in check_history(_clean_history(), snapshots))


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _sim(result):
    return result.sim, result.counts


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_and_second_seed_passes(name):
    workload = WORKLOADS[name].scaled(TINY)
    first = run_pass(workload, 7)
    assert first.violations == []
    assert _sim(run_pass(workload, 7)) == _sim(first)
    second = run_pass(workload, 8)
    assert second.violations == []
    assert second.sim["failed"] == 0
    assert _sim(second) != _sim(first)


def test_environment_knobs_change_nothing():
    """The pinned workloads ignore the repo's environment defaults."""
    name = "shard-failover"
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "from workloads import WORKLOADS, run_pass;"
        f"r = run_pass(WORKLOADS[{name!r}].scaled({TINY}), 7);"
        "print(json.dumps([r.sim, r.counts], sort_keys=True))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    outputs = []
    for extra in ({}, {"REPRO_BATCHING": "4", "REPRO_LEASES": "on",
                       "REPRO_SHARDS": "4", "REPRO_BENCH_SCALE": "0.1"}):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
            env={**env, **extra}, capture_output=True, text=True, check=True,
        )
        outputs.append(proc.stdout.strip().splitlines()[-1])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_passes_agree_and_report_every_per_layer_metric(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name].scaled(TINY)
    base = bench.worker(workload, 7, "base")
    profiled = bench.worker(workload, 7, "profile")
    observed = base if "critpath" in base else bench.worker(workload, 7, "obs")
    for result in (profiled, observed):
        assert (result["sim"], result["counts"]) == (base["sim"], base["counts"])
    metrics = per_layer_metrics(base, profiled, observed)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    shares = [v for k, v in metrics.items() if k.startswith("critpath.")]
    assert sum(shares) == pytest.approx(1.0)
    self_shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
    assert 0.5 < sum(self_shares) <= 1.0


@pytest.mark.xfail(raises=CounterError, strict=True, reason="view-change defect")
def test_leader_crash_under_load():
    """A known simulator defect, kept visible here.

    ``shard-failover`` with group 0's leader crashed instead of a backup
    fails at seed 1: the new leader orders a fresh request while
    ``Replica._maybe_install_view`` is still re-certifying lower
    prepared slots, and the trusted order counter refuses to move back.
    Once the defect is fixed this test passes, which strict xfail turns
    into a failure: then the workload can crash the leader again.
    """
    workload = replace(WORKLOADS["shard-failover"], crashed=("replica-0",))
    assert run_pass(workload, 1).violations == []


def test_fails_without_the_simulator(tmp_path):
    """With only BENCHMARK.json and perfbench/, the run fails and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "write-lan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
