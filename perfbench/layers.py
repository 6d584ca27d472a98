"""Per-layer numbers for the traced run.

The traced run makes up to three passes over the same workload and
seed, each in its own process (see ``run.py``):

1. ``base``: untraced, the baseline for the tracing overhead and for
   the simulated metrics every other pass must reproduce exactly;
2. ``profile``: under :mod:`cProfile`, with counting wrappers around
   ``Resource.use`` and ``MacKey.sign``. Host self-time is grouped by
   the package layer that owns each function; builtins and standard
   library functions are charged to the layer that called them;
3. ``obs``: with an :class:`repro.obs.ObsPlane` attached, for the
   :mod:`repro.obs.critpath` phase shares (simulated time). The
   failover workload carries a health plane in every pass, so its
   critical path comes from the base pass and this pass is skipped.
"""

from __future__ import annotations

from pathlib import Path

#: Package layers whose host self-time is reported, by source path
#: under ``src/repro``, with the name used in the metric.
LAYERS = {
    "sim/engine.py": "engine",
    "sim/resources.py": "resources",
    "sim/network.py": "network",
    "hybster/": "hybster",
    "troxy/": "troxy",
    "sgx/": "sgx",
    "crypto/": "crypto",
    "shard/": "shard",
    "obs/": "obs",
    "apps/": "apps",
    "workloads/": "workloads",
}
OTHER = "other"
HERE = Path(__file__).resolve().parent


class CallCounts:
    """Counts calls into the resource and MAC layers while enabled.

    Wraps the class attributes, so every instance is counted; the
    wrappers return exactly what the wrapped functions return.
    """

    def __init__(self):
        from repro.crypto.primitives import MacKey
        from repro.sim.resources import Resource

        self.use_calls = 0
        self.mac_calls = 0
        self._use, self._sign = Resource.use, MacKey.sign
        use, sign, counts = self._use, self._sign, self

        def _counted_use(resource, duration):
            counts.use_calls += 1
            return use(resource, duration)

        def _counted_sign(key, data):
            counts.mac_calls += 1
            return sign(key, data)

        self._classes = (Resource, MacKey)
        self._counted = (_counted_use, _counted_sign)

    def enable(self) -> None:
        resource_cls, mac_cls = self._classes
        resource_cls.use, mac_cls.sign = self._counted

    def disable(self) -> None:
        resource_cls, mac_cls = self._classes
        resource_cls.use, mac_cls.sign = self._use, self._sign


#: The wrappers above belong to the layer they count.
WRAPPER_LAYER = {"_counted_use": "resources", "_counted_sign": "crypto"}


def layer_of(func: tuple):
    """Layer of a profiled function, or None for builtins and stdlib."""
    filename, _line, name = func
    if Path(filename).parent == HERE:
        return WRAPPER_LAYER.get(name, OTHER)
    marker = "/repro/"
    path = Path(filename).as_posix()
    if marker not in path:
        return None
    rel = path.rsplit(marker, 1)[1]
    for prefix, layer in LAYERS.items():
        if rel.startswith(prefix):
            return layer
    return OTHER


def layer_self_times(stats: dict) -> dict[str, float]:
    """Host self-seconds per layer from ``pstats.Stats(...).stats``.

    A builtin or standard-library function's self-time is split over
    its callers in proportion to the time spent on each call edge,
    walking up until a caller belongs to a layer.
    """
    memo: dict = {}

    def split(func, visiting) -> dict[str, float]:
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
        total = sum(weights.values())
        shares: dict[str, float] = {}
        if total <= 0 or func in visiting:
            shares[OTHER] = 1.0
        else:
            for caller, weight in weights.items():
                layer = layer_of(caller)
                parts = {layer: 1.0} if layer else split(caller, visiting | {func})
                for name, part in parts.items():
                    shares[name] = shares.get(name, 0.0) + part * weight / total
        memo[func] = shares
        return shares

    times: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(func)
        parts = {layer: 1.0} if layer else split(func, frozenset())
        for name, part in parts.items():
            times[name] = times.get(name, 0.0) + tt * part
    return times


def critpath_shares(plane) -> dict[str, float]:
    """Share of end-to-end simulated time per critical-path phase."""
    from repro.obs.critpath import PHASES, analyze

    analysis = analyze(plane.spans)
    return {
        f"critpath.{phase}.{part}_share": analysis.share((phase, part))
        for phase in PHASES
        for part in ("wait", "service")
    }


def per_layer_metrics(base: dict, profiled: dict, observed: dict) -> dict:
    """Per-layer metrics from the three passes' results (see run.py)."""
    c, sim = base["counts"], base["sim"]
    ops, orders = c["ops"], c["orders"]
    times = profiled["layer_s"]
    total = sum(times.values())
    metrics = {
        "engine.events_per_op": c["events"] / ops,
        "engine.host_us_per_event": base["host_s"] / c["events"] * 1e6,
        "resources.use_calls_per_op": profiled["use_calls"] / ops,
        "network.msgs_per_op": c["msgs"] / ops,
        "network.bytes_per_op": c["bytes"] / ops,
        "hybster.orders_per_op": orders / ops,
        "hybster.avg_batch": (
            (c["batched_requests"] + orders - c["batches"]) / orders if orders else 0.0
        ),
        "hybster.view_changes": c["view_changes"],
        "troxy.fast_read_hit_ratio": (
            c["fast_read_hits"] / c["fast_read_attempts"]
            if c["fast_read_attempts"]
            else 0.0
        ),
        "troxy.fast_read_conflicts_per_1k": c["fast_read_conflicts"] / ops * 1e3,
        "troxy.cache_invalidations_per_op": c["cache_invalidations"] / ops,
        "sgx.ecalls_per_op": c["ecalls"] / ops,
        "sgx.copied_bytes_per_op": c["copied_bytes"] / ops,
        "crypto.mac_calls_per_op": profiled["mac_calls"] / ops,
        "shard.forward_share": c["forwards"] / ops,
        "obs.spans_per_op": observed["spans"] / ops,
        "obs.health_detect_s": base["health"]["detect_s"],
        "obs.false_alarms": base["health"]["false_alarms"],
        "apps.executions_per_op": c["executions"] / ops,
        "workloads.retries_per_1k_ops": c["retries"] / ops * 1e3,
        "workloads.sessions_opened": c["sessions"],
        "unavailable_s": sim["unavailable_s"],
        "failed_share": sim["failed"] / sim["attempted"],
        "trace.overhead_ratio": profiled["host_s"] / base["host_s"],
    }
    for layer in LAYERS.values():
        metrics[f"{layer}.self_share"] = times.get(layer, 0.0) / total
    metrics.update(observed["critpath"])
    return metrics
