"""Output correctness check for the echo-service workloads.

Every benchmark run records one :class:`Invocation` per client operation,
including operations still outstanding when the run ends, and checks the
history against the echo service's versioned-register semantics
(:mod:`repro.apps.echo`): each write to a key bumps that key's version
and is acknowledged as ``ok:N``; each read returns ``key@V``.

The rules, per key:

* write acks carry distinct versions (no duplicate execution), no acked
  version exceeds the number of writes invoked, and every version
  missing below the highest ack is explained by a write that never
  returned (no gaps);
* a read's ``V`` is at least the highest version acked before the read
  was invoked (no stale read) and at most the number of writes invoked
  before the read returned (no read from the future);
* after the load stops and the cluster drains, every live replica of a
  group holds the same snapshot, and each key's final version covers
  every acked write (no lost write) without exceeding the writes
  invoked.

The module is pure Python with no simulator imports, so it can be
tested on synthetic histories.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional


@dataclass
class Invocation:
    """One client operation as the load generator saw it."""

    read: bool
    key: str
    invoked: float
    returned: Optional[float] = None
    result: Optional[bytes] = None

    @property
    def completed(self) -> bool:
        return self.returned is not None


def parse_snapshot(snapshot: bytes) -> dict[str, int]:
    """Echo-service snapshot ``k=v;k=v`` -> {key: version}."""
    versions: dict[str, int] = {}
    if snapshot:
        for entry in snapshot.decode().split(";"):
            key, version = entry.rsplit("=", 1)
            versions[key] = int(version)
    return versions


def _ack_version(inv: Invocation) -> Optional[int]:
    text = inv.result.decode(errors="replace")
    if not text.startswith("ok:") or not text[3:].isdigit():
        return None
    return int(text[3:])


def _read_version(inv: Invocation) -> Optional[int]:
    text = inv.result.decode(errors="replace")
    key, sep, version = text.rpartition("@")
    if not sep or key != inv.key or not version.isdigit():
        return None
    return int(version)


def check_history(
    history: Iterable[Invocation],
    group_snapshots: Optional[Mapping[str, Mapping[str, bytes]]] = None,
    group_of_key=None,
) -> list[str]:
    """Return one message per violation; an empty list means correct.

    ``group_snapshots`` maps group id -> {live replica id: app snapshot}
    taken after the drain; ``group_of_key`` maps a key to its group id
    (every key in group ``"g0"`` when omitted).
    """
    violations: list[str] = []
    writes: dict[str, list[Invocation]] = {}
    reads: dict[str, list[Invocation]] = {}
    for inv in history:
        (reads if inv.read else writes).setdefault(inv.key, []).append(inv)

    acked: dict[str, list[tuple[float, int]]] = {}  # key -> (returned, version)
    for key in sorted(writes):
        versions = []
        for inv in writes[key]:
            if not inv.completed:
                continue
            version = _ack_version(inv)
            if version is None:
                violations.append(f"{key}: malformed write ack {inv.result!r}")
                continue
            versions.append(version)
            acked.setdefault(key, []).append((inv.returned, version))
        invoked = len(writes[key])
        seen: set[int] = set()
        for version in versions:
            if version in seen:
                violations.append(f"{key}: duplicate write version {version}")
            seen.add(version)
        if versions:
            top = max(versions)
            if top > invoked:
                violations.append(
                    f"{key}: ack version {top} exceeds {invoked} writes invoked"
                )
            missing = top - len(seen)
            outstanding = invoked - len(versions)
            if missing > outstanding:
                violations.append(
                    f"{key}: {missing} version(s) missing below {top} but only "
                    f"{outstanding} write(s) unacknowledged"
                )

    for key in sorted(reads):
        key_acks = sorted(acked.get(key, ()))
        ack_times = [t for t, _ in key_acks]
        prefix_max, best = [], 0
        for _, version in key_acks:
            best = max(best, version)
            prefix_max.append(best)
        write_starts = sorted(inv.invoked for inv in writes.get(key, ()))
        for inv in reads[key]:
            if not inv.completed:
                continue
            version = _read_version(inv)
            if version is None:
                violations.append(f"{key}: malformed read result {inv.result!r}")
                continue
            # Acks strictly before the invocation must be visible.
            before = bisect.bisect_left(ack_times, inv.invoked)
            floor = prefix_max[before - 1] if before else 0
            if version < floor:
                violations.append(
                    f"{key}: stale read @{version} at t={inv.invoked:.6f}, "
                    f"version {floor} was already acknowledged"
                )
            ceiling = bisect.bisect_right(write_starts, inv.returned)
            if version > ceiling:
                violations.append(
                    f"{key}: read @{version} returned at t={inv.returned:.6f} "
                    f"but only {ceiling} write(s) were invoked"
                )

    if group_snapshots is not None:
        finals: dict[str, dict[str, int]] = {}
        for gid in sorted(group_snapshots):
            replicas = group_snapshots[gid]
            distinct = sorted(set(replicas.values()))
            if len(distinct) != 1:
                violations.append(
                    f"group {gid}: live replicas diverge "
                    f"({len(distinct)} distinct snapshots over {len(replicas)})"
                )
            if replicas:
                finals[gid] = parse_snapshot(replicas[sorted(replicas)[0]])
        for key in sorted(writes):
            gid = group_of_key(key) if group_of_key is not None else "g0"
            if gid not in finals:
                continue
            final = finals[gid].get(key, 0)
            top = max((v for _, v in acked.get(key, ())), default=0)
            if final < top:
                violations.append(
                    f"{key}: lost write, final version {final} < acked {top}"
                )
            if final > len(writes[key]):
                violations.append(
                    f"{key}: final version {final} exceeds "
                    f"{len(writes[key])} writes invoked"
                )
    return violations
