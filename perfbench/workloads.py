"""The benchmark's workloads: pinned deployments and their load generators.

Each workload runs the whole simulated deployment in this process, on
one thread. Simulated clients are objects driven by the simulation
engine, not host threads. Every cluster knob is passed explicitly, so
``REPRO_BATCHING``, ``REPRO_LEASES``, ``REPRO_SHARDS`` and
``REPRO_BENCH_SCALE`` in the environment change nothing.

One :func:`run_pass` builds a deployment from a seed, drives it, drains
it, checks every result (:mod:`perfbench.check`) and returns host
timings next to the simulated metrics and deterministic counters.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.metrics import percentile
from repro.apps.base import Operation, OpKind, Payload
from repro.apps.echo import EchoService
from repro.bench.clusters import build_troxy
from repro.hybster.config import BatchConfig, ClusterConfig, LeaseConfig
from repro.obs.health import HealthPlane
from repro.shard.cluster import build_sharded
from repro.workloads.distributions import UniformKeys, ZipfKeys
from repro.workloads.legacy import LegacyClient

from check import Invocation, check_history

#: Protocol timeouts every workload pins (the ClusterConfig defaults).
REQUEST_TIMEOUT = 2.0
PROGRESS_TIMEOUT = 1.0
CHECKPOINT_INTERVAL = 128
#: Cores per replica machine. Two (not the testbed's eight) puts the
#: saturation point within a short simulated window, as the paper
#: benchmarks in repro.bench do.
REPLICA_CORES = 2
#: Bytes in a read request body.
READ_SIZE = 10
#: Extra simulated time after the last operation returns, so lagging
#: replicas finish executing before snapshots are compared.
SETTLE = 0.05
#: A p99 is only reported with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: The simulation runs in this many slices per measurement window, with
#: one calibration burst before each (see :func:`calibrate`).
SLICES = 100
#: Host seconds one calibration burst takes on the reference machine.
REFERENCE_BURST_S = 1e-3


def calibrate(n: int = 1000) -> float:
    """Host seconds a fixed pure-Python loop takes right now.

    The host this benchmark runs on changes speed by tens of percent
    from one second to the next. Each slice of simulation (and each
    set-up) is preceded by one burst of this loop, and its host time is
    scaled by ``REFERENCE_BURST_S / burst``: host times are reported in
    seconds of a machine on which one burst takes ``REFERENCE_BURST_S``.
    The loop is benchmark code, so no change to the simulator changes
    its cost.
    """
    heap, table = [], {}

    def echo():
        value = 0
        while True:
            value = yield value + 1

    gen = echo()
    next(gen)
    start = time.perf_counter()
    for i in range(n):
        heapq.heappush(heap, (i * 7919 % 1000, i, str(i)))
        table[i & 255] = table.get(i & 255, 0) + gen.send(i)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    #: 0 builds an unsharded deployment (``build_troxy``); N >= 1 builds
    #: ``build_sharded(shards=N)``.
    shards: int
    batching: BatchConfig
    write_size: int
    reply_size: int
    key_space: int
    #: Zipf exponent over the key space; 0 means uniform.
    zipf: float
    read_share: float
    #: Closed-loop client count; 0 selects the open loop at ``rate``.
    clients: int
    rate: float
    warmup: float
    window: float
    #: Simulated time after the window start at which the replicas in
    #: ``crashed`` crash for good; None means no fault.
    crash_after: Optional[float] = None
    crashed: tuple[str, ...] = ()
    health: bool = False
    #: Sessions connected at set-up time (open loop); more are opened
    #: on demand, each with a simulated TLS handshake.
    initial_sessions: int = 0
    #: Longest simulated time allowed after the window for outstanding
    #: operations to return.
    drain: float = 1.0

    def scaled(self, scale: float) -> "Workload":
        """The same workload with ``scale`` times the operations.

        The closed loop shortens its window; the open loop lowers its
        rate, so fault timing and timeouts stay as they are.
        """
        if self.clients:
            return replace(self, warmup=self.warmup * scale, window=self.window * scale)
        return replace(self, rate=self.rate * scale)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="write-lan",
            shards=0,
            batching=BatchConfig(),
            write_size=1024,
            reply_size=10,
            key_space=64,
            zipf=0.0,
            read_share=0.0,
            clients=32,
            rate=0.0,
            warmup=0.01,
            window=0.05,
        ),
        Workload(
            name="read-mix-lan",
            shards=0,
            batching=BatchConfig(),
            write_size=10,
            reply_size=1024,
            key_space=1024,
            zipf=0.99,
            read_share=0.95,
            clients=0,
            rate=50_000.0,
            warmup=0.01,
            window=0.1,
            initial_sessions=256,
        ),
        Workload(
            name="shard-failover",
            shards=2,
            batching=BatchConfig.adaptive_default(),
            write_size=10,
            reply_size=10,
            key_space=1024,
            zipf=0.0,
            read_share=0.5,
            clients=0,
            rate=500.0,
            warmup=0.05,
            window=5.0,
            crash_after=1.25,
            # One backup of each group. Crashing a leader instead trips a
            # simulator defect in view change on some seeds (README).
            crashed=("replica-1", "g1-replica-1"),
            health=True,
            initial_sessions=16,
            drain=4.0,
        ),
    )
}


class OpSource:
    """Seeded operation stream for one workload."""

    def __init__(self, workload: Workload, rng: random.Random):
        self.rng = rng
        self.read_share = workload.read_share
        self.keys = (
            ZipfKeys(workload.key_space, workload.zipf)
            if workload.zipf
            else UniformKeys(workload.key_space)
        )
        self.write_body = Payload(b"w", padded_size=workload.write_size)
        self.read_body = Payload(b"r", padded_size=READ_SIZE)

    def __call__(self) -> Operation:
        key = self.keys.sample(self.rng)
        if self.read_share and self.rng.random() < self.read_share:
            return Operation(OpKind.READ, "get", key=key, body=self.read_body)
        return Operation(OpKind.WRITE, "set", key=key, body=self.write_body)


def open_loop_schedule(workload: Workload, seed: int) -> list[tuple[float, Operation]]:
    """Poisson arrivals at the offered rate over warm-up plus window."""
    rng = random.Random(seed)
    source = OpSource(workload, rng)
    end = workload.warmup + workload.window
    schedule, t = [], 0.0
    while True:
        t += rng.expovariate(workload.rate)
        if t >= end:
            return schedule
        schedule.append((t, source()))


def build(workload: Workload, seed: int):
    """Build the pinned deployment (no clients yet)."""
    config = ClusterConfig(
        f=1,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        request_timeout=REQUEST_TIMEOUT,
        progress_timeout=PROGRESS_TIMEOUT,
        batching=workload.batching,
        leases=LeaseConfig(),
    )
    common = dict(
        seed=seed,
        f=1,
        app_factory=lambda: EchoService(reply_size=workload.reply_size),
        boundary="sgx",
        fast_reads=True,
        client_machines=2,
        wan=None,
        client_nic=None,
        replica_cores=REPLICA_CORES,
        config=config,
        batching=None,
        leases=None,
        monitor_factory=None,
        cache_entries=65536,
        cache_outside=True,
        epc_bytes=None,
        query_timeout=0.1,
        trace=False,
    )
    if workload.shards:
        return build_sharded(shards=workload.shards, vnodes=64, **common)
    return build_troxy(**common)


class SessionPool:
    """Client sessions for the open loop, grown on demand.

    A request that falls due while every session is busy gets a new
    session (a fresh legacy client with a simulated TLS handshake), so
    no request waits behind a stalled one.
    """

    def __init__(self, cluster, plane, initial: int):
        self.cluster = cluster
        self.plane = plane
        self.opened = 0
        self.idle: deque = deque()
        for _ in range(initial):
            client = cluster.new_client(request_timeout=REQUEST_TIMEOUT)
            self.opened += 1
            self.idle.append(self._wrap(client))

    def _wrap(self, client):
        return self.plane.wrap_clients([client])[0] if self.plane is not None else client

    def acquire(self):
        """(session, needs_connect)."""
        if self.idle:
            return self.idle.popleft(), False
        # Same machine/contact round-robin as cluster.new_client().
        cluster, index = self.cluster, self.opened
        self.opened += 1
        client = LegacyClient(
            cluster.machines[index % len(cluster.machines)],
            client_id=f"client-{index + 1}",
            keyring=cluster.keyring,
            hosts=cluster.hosts,
            contact_index=index % len(cluster.hosts),
            request_timeout=REQUEST_TIMEOUT,
        )
        return self._wrap(client), True

    def release(self, session) -> None:
        self.idle.append(session)


@dataclass
class Record:
    """One operation: the checked invocation plus its timing."""

    inv: Invocation
    due: float
    retries: int = 0


@dataclass
class PassResult:
    """Outcome of one pass over a workload."""

    setup_s: float
    host_s: float
    raw_host_s: float
    sim: dict
    counts: dict
    health: dict
    violations: list
    plane: object = None


class Cell:
    """One built deployment and the load that drives it."""

    def __init__(self, workload: Workload, seed: int, cluster, plane, schedule=None):
        self.workload = workload
        self.cluster = cluster
        self.env = cluster.env
        self.plane = plane
        self.records: list[Record] = []
        self.outstanding = 0
        self.stop_at = workload.warmup + workload.window
        self.crash_at = (
            workload.warmup + workload.crash_after
            if workload.crash_after is not None
            else None
        )
        if workload.clients:
            self.rng = random.Random(seed)
            self.source = OpSource(workload, self.rng)
            clients = [
                cluster.new_client(request_timeout=REQUEST_TIMEOUT)
                for _ in range(workload.clients)
            ]
            self.sessions = plane.wrap_clients(clients) if plane is not None else clients
            self.opened = len(clients)
        else:
            self.schedule = schedule
            self.pool = SessionPool(cluster, plane, workload.initial_sessions)

    @property
    def sessions_opened(self) -> int:
        return self.opened if self.workload.clients else self.pool.opened

    # -- load ----------------------------------------------------------------------

    def start(self) -> None:
        env = self.env
        if self.workload.clients:
            for session in self.sessions:
                env.process(self._closed(session))
        else:
            env.process(self._open())
        if self.crash_at is not None:
            env.process(self._crash())

    def _crash(self):
        yield self.env.timeout(self.crash_at - self.env.now)
        for replica_id in self.workload.crashed:
            self.cluster.host_of(replica_id).stop()

    def _begin(self, op, due) -> Record:
        """Record an operation the moment it falls due."""
        record = Record(Invocation(op.is_read, op.key, due), due)
        self.records.append(record)
        self.outstanding += 1
        return record

    def _invoke(self, session, op, record):
        record.inv.invoked = self.env.now
        outcome = yield from session.invoke(op)
        record.inv.returned = self.env.now
        record.inv.result = outcome.result.content
        record.retries = outcome.retries
        self.outstanding -= 1

    def _closed(self, session):
        env = self.env
        while env.now < self.stop_at:
            op = self.source()
            yield from self._invoke(session, op, self._begin(op, env.now))

    def _open(self):
        env = self.env
        for due, op in self.schedule:
            if due > env.now:
                yield env.timeout(due - env.now)
            env.process(self._one(op, self._begin(op, due)))

    def _one(self, op, record):
        session, fresh = self.pool.acquire()
        if fresh:
            yield from session.connect()
        yield from self._invoke(session, op, record)
        self.pool.release(session)

    def run(self, instrument=None) -> tuple[float, float]:
        """Load, drain until every operation returned, then settle.

        Simulates in slices, each after a calibration burst, and returns
        the host seconds spent simulating: (raw, reference-scaled).
        ``instrument`` (``enable``/``disable``) is on during slices only.
        """
        env, step = self.env, self.workload.window / SLICES
        raw = scaled = 0.0

        def advance(until: float) -> None:
            nonlocal raw, scaled
            while env.now < until:
                scale = REFERENCE_BURST_S / calibrate()
                start = time.perf_counter()
                if instrument is not None:
                    instrument.enable()
                env.run(until=min(until, env.now + step))
                if instrument is not None:
                    instrument.disable()
                elapsed = time.perf_counter() - start
                raw += elapsed
                scaled += elapsed * scale

        self.start()
        advance(self.stop_at)
        deadline = self.stop_at + self.workload.drain
        while env.now < deadline and self.outstanding:
            advance(min(deadline, env.now + step))
        advance(env.now + SETTLE)
        return raw, scaled

    # -- results -------------------------------------------------------------------

    def group_of_key(self, key: str) -> str:
        if self.workload.shards:
            return self.cluster.router.group_of_key(key)
        return "g0"

    def snapshots(self) -> dict:
        crashed = self.workload.crashed
        if self.workload.shards:
            groups = [(g.group_id, g.replicas) for g in self.cluster.groups]
        else:
            groups = [("g0", self.cluster.replicas)]
        return {
            gid: {
                r.replica_id: r.app.snapshot()
                for r in replicas
                if r.replica_id not in crashed
            }
            for gid, replicas in groups
        }

    def sim_metrics(self) -> dict:
        w = self.workload
        start, end = w.warmup, w.warmup + w.window
        records = self.records
        in_window = [r for r in records if start <= r.due < end]
        latencies = sorted(
            r.inv.returned - r.due for r in in_window if r.inv.completed
        )
        failed = sum(1 for r in records if not r.inv.completed)
        p99 = None
        if len(latencies) * 0.01 >= TAIL_SAMPLES:
            p99 = percentile(latencies, 0.99) * 1e3
        # Longest stretch with no group-0 write returning, from the crash
        # (or the window start) to the window end.
        since = self.crash_at if self.crash_at is not None else start
        marks = sorted(
            r.inv.returned
            for r in records
            if not r.inv.read
            and r.inv.completed
            and since <= r.inv.returned < end
            and self.group_of_key(r.inv.key) == "g0"
        )
        edges = [since] + marks + [end]
        unavailable = max(b - a for a, b in zip(edges, edges[1:]))
        return {
            "offered_ops": len(in_window) / w.window,
            "sim_throughput_ops": len(latencies) / w.window,
            "sim_p50_ms": percentile(latencies, 0.5) * 1e3,
            "sim_p99_ms": p99,
            "latency_samples": len(latencies),
            "unavailable_s": unavailable,
            "attempted": len(records),
            "failed": failed,
        }

    def counts(self) -> dict:
        cluster = self.cluster
        replicas = cluster.replicas
        enclaves = [h.enclave for h in cluster.hosts] + [r.boundary for r in replicas]
        groups = cluster.groups if self.workload.shards else None
        views = (
            sum(max(r.view for r in g.replicas) for g in groups)
            if groups
            else max(r.view for r in replicas)
        )
        cores = cluster.cores
        return {
            "ops": sum(1 for r in self.records if r.inv.completed),
            "events": self.env.scheduled_events,
            "steps": self.env.steps,
            "msgs": cluster.net.messages_sent,
            "bytes": cluster.net.bytes_sent,
            "ecalls": sum(e.stats.ecalls for e in enclaves),
            "copied_bytes": sum(
                e.stats.bytes_copied_in + e.stats.bytes_copied_out for e in enclaves
            ),
            "orders": sum(r.stats.orders_sent for r in replicas),
            "batches": sum(r.stats.batches_sent for r in replicas),
            "batched_requests": sum(r.stats.batched_requests for r in replicas),
            "view_changes": views,
            "executions": sum(r.stats.executions for r in replicas),
            "fast_read_attempts": sum(c.stats.fast_read_attempts for c in cores),
            "fast_read_hits": sum(c.stats.fast_read_hits for c in cores),
            "fast_read_conflicts": sum(c.stats.fast_read_conflicts for c in cores),
            "cache_invalidations": sum(c.cache.stats.invalidations for c in cores),
            "forwards": cluster.router.stats.forwards if self.workload.shards else 0,
            "retries": sum(r.retries for r in self.records),
            "sessions": self.sessions_opened,
        }

    def health(self) -> dict:
        """Delay to the first health event after the crash, and alarms before it."""
        if not isinstance(self.plane, HealthPlane):
            return {"detect_s": 0.0, "false_alarms": 0}
        crash = self.crash_at if self.crash_at is not None else float("inf")
        events = self.plane.events
        detected = [e.t for e in events if e.t >= crash]
        return {
            "detect_s": (min(detected) - crash) if detected else 0.0,
            "false_alarms": sum(1 for e in events if e.t < crash),
        }


def setup(workload: Workload, seed: int, obs_plane=None):
    """Build the deployment, attach its plane, connect clients.

    Returns (cell, reference-scaled host seconds). A calibration
    burst runs first; the open-loop schedule is input, generated before
    the clock starts. ``obs_plane`` is an extra
    :class:`repro.obs.ObsPlane` for traced runs; the failover workload
    always carries its own health plane instead.
    """
    schedule = None if workload.clients else open_loop_schedule(workload, seed)
    gc.collect()
    scale = REFERENCE_BURST_S / calibrate()
    start = time.perf_counter()
    cluster = build(workload, seed)
    plane = HealthPlane() if workload.health else obs_plane
    if plane is not None:
        plane.attach(cluster)
    cell = Cell(workload, seed, cluster, plane, schedule)
    return cell, (time.perf_counter() - start) * scale


def run_pass(workload: Workload, seed: int, obs_plane=None, instrument=None) -> PassResult:
    """Set up, drive, drain and check one deployment."""
    cell, setup_s = setup(workload, seed, obs_plane)
    gc.collect()
    raw_host_s, host_s = cell.run(instrument)
    if cell.plane is not None:
        cell.plane.finalize()
    violations = check_history(
        [r.inv for r in cell.records], cell.snapshots(), cell.group_of_key
    )
    return PassResult(
        setup_s=setup_s,
        host_s=host_s,
        raw_host_s=raw_host_s,
        sim=cell.sim_metrics(),
        counts=cell.counts(),
        health=cell.health(),
        violations=violations,
        plane=cell.plane,
    )
