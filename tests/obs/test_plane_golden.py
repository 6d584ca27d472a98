"""Byte pins for real instrumented runs.

``tests/obs/test_export.py`` pins the exporters on a handcrafted
fixture, and CI diffs two same-seed runs of one commit against each
other. Neither notices a probe change that alters what a real run
records. These digests do: they were taken before the obs hot path was
optimised, and any change to a recorded byte — a span, an attribute, a
metric series, a health event, a forensic bundle — fails here.

A deliberate change to what the planes record must update the digests
below and say why. Print the current ones with::

    PYTHONPATH=src:tests python -m obs.test_plane_golden
"""

import hashlib
from pathlib import Path

import pytest

from repro.bench.clusters import BATCHING_ENV, LEASES_ENV
from repro.obs.__main__ import run_workload
from repro.obs.export import REPORT_FILES, write_report
from repro.obs.health.harness import run_detection
from repro.obs.health.plane import write_health_report
from repro.shard.cluster import SHARDS_ENV

#: The faulty scenario the health pin judges (a leader crash forces a
#: view change, so detectors fire and the flight recorder writes bundles).
HEALTH_SCENARIO = "leader_crash_view_change"

OBS_DIGESTS = {
    "metrics.jsonl":
        "1c7a93715c5fc43ae84ca571a3b0601e65d44f0e0f4895efb2dd3ec9b9d8df19",
    "metrics.prom":
        "080974ca8608294fb3c3595dd31a0d2e0bd387d5d264a334c77bc97948e29e98",
    "trace.json":
        "329c52cdc7603afba4100e86e54481645141df149dc57092e21a40fe17ff1674",
}

HEALTH_DIGESTS = {
    "bundles/bundle-000-slo_violation/events.jsonl":
        "6af0e9663430c800d4de9acede3bc7691cdfc846ec7842985c94e43b34872dbb",
    "bundles/bundle-000-slo_violation/spans.jsonl":
        "fc4be48f2d25851bf573317567b815726bd2095a22c603002a12d5ecdf7a4b16",
    "bundles/bundle-000-slo_violation/trace.json":
        "ebdb42d3e6bdf4926ca4d52ca10b123062a33e8442b320b6480d4a334759ddc1",
    "bundles/bundle-001-view_change/events.jsonl":
        "0291ceac386ec50700be76854972ab673a301b6b01c664c77fc09bfebd7ea30d",
    "bundles/bundle-001-view_change/spans.jsonl":
        "fa98447168c364d08eb3157c25c7b2597089899e0b512e527b77dc730c13d7ef",
    "bundles/bundle-001-view_change/trace.json":
        "c1715f739d35bd5042b1d6c23ad04c680d6fafa5bdeb7394eda2b697745f7f26",
    "bundles/bundle-002-client_retry_spike/events.jsonl":
        "b9f8fa5efaf879175314bfdd511e25ba99e6a12b7222035aee2f24b6167fe593",
    "bundles/bundle-002-client_retry_spike/spans.jsonl":
        "173de5fb4ce4380553799c8d87dca511e0020032859a12e03def10f7fbca3e22",
    "bundles/bundle-002-client_retry_spike/trace.json":
        "38012790f445c0b72b0729aa381cbdc672fb98992d6ba9e14e3b1272ed5ade2d",
    "bundles/bundle-003-slo_violation/events.jsonl":
        "1d3c93014b047e14dd0687b026a9dd6a6521de9ae3ff296cbb7280de25f816a8",
    "bundles/bundle-003-slo_violation/spans.jsonl":
        "9cfb90cbdbb40d1682dc7c478f1886afc7a83ca372f7d7a475fcf4296ab543e7",
    "bundles/bundle-003-slo_violation/trace.json":
        "d3e00138fb67a3005ad4a92e7eadcff2cf05ff549fce8e4b97aded0dfa884417",
    "bundles/bundle-004-sealed_counter_stall/events.jsonl":
        "5029234d43c57a60eca3dcccd4805f8d29245ad4006551f6b8533ea559ecea93",
    "bundles/bundle-004-sealed_counter_stall/spans.jsonl":
        "aa8a178dbf598f495b080b6d8254912defbb2f4e11d665c449be4aee232165ab",
    "bundles/bundle-004-sealed_counter_stall/trace.json":
        "69de51bb606631d0f6ec5b59dd6958cc9a8b7f11858da46c0682911fbceba277",
    "bundles/bundle-005-slo_violation/events.jsonl":
        "c9d468166445750187aa64e9bb2f96d070e3f192ce53cc8fdcf2ae53d0d8d0a0",
    "bundles/bundle-005-slo_violation/spans.jsonl":
        "aa8a178dbf598f495b080b6d8254912defbb2f4e11d665c449be4aee232165ab",
    "bundles/bundle-005-slo_violation/trace.json":
        "69de51bb606631d0f6ec5b59dd6958cc9a8b7f11858da46c0682911fbceba277",
    "bundles/bundle-006-client_retry_spike/events.jsonl":
        "4d3c39b258dc2892eecb65b103cec7c18c7091c8893ee26393f24d7da85637f7",
    "bundles/bundle-006-client_retry_spike/spans.jsonl":
        "7f3e9050e1709c5ba165b6595d34408d289c4775703d57d29705334e9229666c",
    "bundles/bundle-006-client_retry_spike/trace.json":
        "fc92bb94d8c962c2c341b6a600d31e3d03fc05dccf04da6f9d0744b007a7563b",
    "health.json":
        "f0c66cc49408a5d812d61d0eba492163dd2a55980e0c2c20a8240c785f4d51e7",
}



def _digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def obs_digests(out: Path) -> dict[str, str]:
    plane, _ = run_workload(seed=42, n_clients=4, warmup=0.02, duration=0.1)
    write_report(out, plane.registry, plane.spans.spans, sorted(REPORT_FILES))
    return _digests(out)


def health_digests(out: Path) -> dict[str, str]:
    run = run_detection(HEALTH_SCENARIO, 1)
    assert run["ok"]
    write_health_report(out, run.pop("plane"))
    return _digests(out)


@pytest.fixture
def default_deployment(monkeypatch):
    """Pin the default deployment whatever the CI matrix forces."""
    for name in (BATCHING_ENV, LEASES_ENV, SHARDS_ENV):
        monkeypatch.delenv(name, raising=False)


def test_obs_plane_exports_are_pinned(tmp_path, default_deployment):
    assert obs_digests(tmp_path) == OBS_DIGESTS


def test_health_report_and_bundles_are_pinned(tmp_path, default_deployment):
    assert health_digests(tmp_path) == HEALTH_DIGESTS


if __name__ == "__main__":
    import tempfile

    for name, fn in (("OBS_DIGESTS", obs_digests), ("HEALTH_DIGESTS", health_digests)):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"{name} = {fn(Path(tmp))!r}")
