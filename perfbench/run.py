"""Run one benchmark workload at one seed and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload write-lan --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures for ``--seconds`` host seconds. It
simulates the workload from the same seed again and again, each pass in
a fresh process so no pass inherits warm caches from the one before.
Every pass sets the deployment up several times, checks its outputs
(``check.py``) and must reproduce the first pass's simulated metrics
exactly. Host timings are medians over passes and set-ups. With
``--trace 1`` it makes the traced run described in ``layers.py`` and
prints the per-layer metrics instead.

Metric names, units and directions come from ``BENCHMARK.json`` at the
repository root; the simulator is imported from ``src/`` next to it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero on any output-check violation.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-ups each pass measures on their own before its timed pass.
SETUP_SAMPLES = 20
#: Host seconds a whole run may take, whatever ``--seconds`` says.
RUN_LIMIT = 170.0


class PassFailed(Exception):
    """A pass crashed, failed the output check or broke determinism."""


# -- one pass, in its own process ----------------------------------------------


def worker(workload, seed: int, mode: str) -> dict:
    """One pass: ``plain``/``base`` untraced, ``profile`` or ``obs``.

    Host times are in reference-machine seconds (``workloads.calibrate``).
    """
    import cProfile
    import pstats
    import resource

    from layers import CallCounts, critpath_shares, layer_self_times
    from workloads import run_pass, setup

    setup_s = [setup(workload, seed)[1] for _ in range(SETUP_SAMPLES)]
    instrument = obs_plane = None
    if mode == "profile":
        profiler, calls = cProfile.Profile(), CallCounts()
        instrument = _Both(calls, profiler)
    elif mode == "obs":
        from repro.obs import ObsPlane

        obs_plane = ObsPlane()
    result = run_pass(workload, seed, obs_plane, instrument)
    out = {
        "setup_s": setup_s + [result.setup_s],
        "host_s": result.host_s,
        "raw_host_s": result.raw_host_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim": result.sim,
        "counts": result.counts,
        "violations": result.violations,
        "health": result.health,
    }
    if mode == "profile":
        out["layer_s"] = layer_self_times(pstats.Stats(profiler).stats)
        out["use_calls"], out["mac_calls"] = calls.use_calls, calls.mac_calls
    if mode in ("base", "obs") and result.plane is not None:
        out["critpath"] = critpath_shares(result.plane)
        out["spans"] = len(result.plane.spans)
    return out


class _Both:
    """Enables two instruments together (counting, then profiling)."""

    def __init__(self, first, second):
        self.first, self.second = first, second

    def enable(self) -> None:
        self.first.enable()
        self.second.enable()

    def disable(self) -> None:
        self.second.disable()
        self.first.disable()


class Runner:
    """Starts passes as child processes, one at a time."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.first = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def run(self, mode: str) -> dict:
        a = self.args
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", a.workload,
            "--seed", str(a.seed), "--seconds", "0", "--worker", mode,
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True,
                timeout=max(1.0, RUN_LIMIT - self.elapsed()),
            )
        except subprocess.TimeoutExpired as error:
            raise PassFailed(f"{mode} pass timed out") from error
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-25:])
            raise PassFailed(f"{mode} pass exited {proc.returncode}:\n{tail}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["violations"]:
            lines = "\n".join(result["violations"][:20])
            raise PassFailed(f"output check failed in the {mode} pass:\n{lines}")
        key = (result["sim"], result["counts"])
        if self.first is None:
            self.first = key
        elif key != self.first:
            raise PassFailed(f"the {mode} pass changed the simulated results")
        return result


# -- reporting -------------------------------------------------------------------


def _emit(spec_metrics: list, values: dict, attempted: int, failed: int) -> None:
    metrics = {}
    for entry in spec_metrics:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:>38} = {value:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from passes filling ``seconds`` host seconds."""
    passes, walls = [], []
    while True:
        began = runner.elapsed()
        if walls and began + statistics.median(walls) > min(seconds, RUN_LIMIT):
            break
        passes.append(runner.run("plain"))
        walls.append(runner.elapsed() - began)
    first = passes[0]
    sim, counts = first["sim"], first["counts"]
    if sim["sim_p99_ms"] is None:
        raise PassFailed("too few latency samples for a p99")
    setups = [s for p in passes for s in p["setup_s"]]
    host_s = statistics.median(p["host_s"] for p in passes)
    print(
        f"{runner.args.workload} seed={runner.args.seed}: {len(passes)} pass(es), "
        f"{len(setups)} set-ups, {sim['latency_samples']} latency samples, "
        f"{counts['ops']} ops completed, {counts['events']} events, "
        f"{counts['sessions']} sessions"
    )
    print(
        "host_s per pass, raw -> reference-scaled: "
        + " ".join(f"{p['raw_host_s']:.3f}->{p['host_s']:.3f}" for p in passes)
    )
    print(
        f"offered {sim['offered_ops']:.6g} ops/s in the window; unavailable "
        f"{sim['unavailable_s']:.6g} sim s; failed {sim['failed']}"
    )
    values = {
        "setup_s": statistics.median(setups),
        "host_s": host_s,
        "host_us_per_op": host_s / counts["ops"] * 1e6,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "sim_throughput_ops": sim["sim_throughput_ops"],
        "sim_p50_ms": sim["sim_p50_ms"],
        "sim_p99_ms": sim["sim_p99_ms"],
    }
    return values, first


def traced(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics from the base, profile and obs passes."""
    from layers import per_layer_metrics

    base = runner.run("base")
    profiled = runner.run("profile")
    observed = base if "critpath" in base else runner.run("obs")
    sim = base["sim"]
    print(
        f"{runner.args.workload} seed={runner.args.seed}: traced run, "
        f"{base['counts']['ops']} ops, {sim['latency_samples']} latency samples, "
        f"{'2' if observed is base else '3'} passes with identical simulated results"
    )
    return per_layer_metrics(base, profiled, observed), base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("plain", "base", "profile", "obs"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.worker:
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        print(json.dumps(worker(WORKLOADS[args.workload], args.seed, args.worker)))
        return 0
    # A terminated run raises SystemExit, so subprocess.run kills and
    # reaps the pass it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args)
    try:
        if args.trace:
            values, first = traced(runner)
            metrics = spec["per_layer"]
        else:
            values, first = untraced(runner, args.seconds)
            metrics = spec["end_to_end"]
    except PassFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    _emit(metrics, values, first["sim"]["attempted"], first["sim"]["failed"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
