"""Registry of labeled counters, gauges, and histograms.

The registry is the single sink every layer emits into. Instruments are
identified by (name, sorted label set); asking for the same identity
twice returns the same instrument, so probes in different subsystems can
share series without coordination. Everything is plain Python state —
no wall-clock timestamps, no background threads — so a registry filled
by a deterministic simulation run exports byte-identically.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .quantiles import QuantileSketch

Number = Union[int, float]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency-style buckets (seconds); chosen to resolve both the
#: LAN microsecond regime and the paper's 100 ms WAN regime.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Default tracked quantiles: median, tail, extreme tail.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


class RegistryError(Exception):
    """Conflicting or malformed instrument registration."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise RegistryError(f"invalid metric name: {name!r}")
    return name


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise RegistryError(f"invalid label name: {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _quantile_tuple(name: str, quantiles: Sequence[float]) -> tuple[float, ...]:
    qs = tuple(sorted(float(q) for q in quantiles))
    if not qs:
        raise RegistryError(f"quantile {name} needs at least one quantile")
    if any(not 0.0 < q < 1.0 for q in qs):
        raise RegistryError(f"quantile {name} quantiles must be in (0, 1)")
    return qs


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """Freely settable value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise RegistryError(f"histogram {name} needs at least one bucket")
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise RegistryError(f"histogram {name} buckets must be finite")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        # One count per finite bound; the +Inf bucket is ``count``.
        self.counts = [0] * len(bounds)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        self.sum += value
        self.count += 1
        # First bound >= value; the recheck drops NaN (bisect puts it at 0).
        i = bisect_left(self.buckets, value)
        if i < len(self.counts) and value <= self.buckets[i]:
            self.counts[i] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class Quantile:
    """Streaming-quantile instrument backed by a mergeable sketch.

    Complements :class:`Histogram`, whose fixed buckets only bound a
    quantile to a bucket width: the sketch tracks the distribution
    itself, so exporters can emit ``_quantile{q=...}`` lines for any
    tracked quantile with sub-bucket resolution.
    """

    kind = "quantile"
    __slots__ = ("name", "labels", "quantiles", "sketch")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        compression: int = 64,
    ):
        self.name = name
        self.labels = labels
        self.quantiles = _quantile_tuple(name, quantiles)
        self.sketch = QuantileSketch(compression=compression)

    def observe(self, value: Number) -> None:
        self.sketch.observe(value)

    @property
    def sum(self) -> float:
        return self.sketch.sum

    @property
    def count(self) -> int:
        return int(self.sketch.count)

    def value(self, q: float) -> float:
        """Estimated value at quantile ``q`` (NaN when empty)."""
        return self.sketch.quantile(q)

    def snapshot(self) -> list[tuple[float, float]]:
        """(q, estimate) pairs for every tracked quantile."""
        return [(q, self.sketch.quantile(q)) for q in self.quantiles]


@dataclass
class _Family:
    """All instruments sharing one metric name."""

    name: str
    kind: str
    help: str = ""
    buckets: Optional[tuple[float, ...]] = None
    quantiles: Optional[tuple[float, ...]] = None
    instruments: dict = field(default_factory=dict)


class Registry:
    """Get-or-create store of instruments, keyed by name + labels.

    Each factory call is first looked up by its exact signature (kind,
    name, help, buckets or quantiles, labels in call order), so a repeated
    probe costs one dict hit and gets the same instrument back. Only a
    miss validates names and labels, checks kind, bucket and quantile
    conflicts, and fills a late ``help``. A call that raises is never
    cached, so it raises every time.
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._handles: dict[tuple, object] = {}

    # -- instrument factories -------------------------------------------------

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._instrument("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._instrument("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> Histogram:
        return self._instrument("histogram", name, help, labels, buckets)

    def quantile(
        self,
        name: str,
        help: str = "",
        quantiles: Optional[Sequence[float]] = None,
        compression: int = 64,
        **labels,
    ) -> Quantile:
        return self._instrument(
            "quantile", name, help, labels, quantiles, compression
        )

    def _instrument(self, kind, name, help, labels, spec=None, compression=64):
        spec = None if spec is None else tuple(spec)
        key = (kind, name, help, spec, compression, *labels.items())
        try:
            return self._handles[key]
        except (KeyError, TypeError):
            pass
        instrument = self._resolve(kind, name, help, labels, spec, compression)
        # Only string label values are cached: 1 and True are equal keys
        # but render differently, and unhashable values cannot be keys.
        if all(type(value) is str for value in labels.values()):
            self._handles[key] = instrument
        return instrument

    def _resolve(self, kind, name, help, labels, spec, compression):
        _check_name(name)
        family = self._families.get(name)
        if family is None:
            family = _Family(name=name, kind=kind, help=help)
            self._families[name] = family
        elif family.kind != kind:
            raise RegistryError(
                f"metric {name} already registered as {family.kind}, not {kind}"
            )
        if help and not family.help:
            family.help = help
        if kind == "histogram":
            bounds = tuple(sorted(float(b) for b in spec)) if spec else DEFAULT_BUCKETS
            if family.buckets is None:
                family.buckets = bounds
            elif family.buckets != bounds:
                raise RegistryError(
                    f"histogram {name} re-registered with different buckets"
                )
        elif kind == "quantile":
            qs = DEFAULT_QUANTILES if spec is None else _quantile_tuple(name, spec)
            if family.quantiles is None:
                family.quantiles = qs
            elif family.quantiles != qs:
                raise RegistryError(
                    f"quantile {name} re-registered with different quantiles"
                )
        key = _label_key(labels)
        instrument = family.instruments.get(key)
        if instrument is None:
            if kind == "histogram":
                instrument = Histogram(name, key, family.buckets)
            elif kind == "quantile":
                instrument = Quantile(name, key, family.quantiles, compression)
            else:
                instrument = (Counter if kind == "counter" else Gauge)(name, key)
            family.instruments[key] = instrument
        return instrument

    # -- read access ------------------------------------------------------------

    def families(self) -> Iterator[_Family]:
        """Families sorted by name (deterministic export order)."""
        for name in sorted(self._families):
            yield self._families[name]

    def instruments(self) -> Iterator[Union[Counter, Gauge, Histogram, Quantile]]:
        """All instruments, sorted by (name, labels)."""
        for family in self.families():
            for key in sorted(family.instruments):
                yield family.instruments[key]

    def value(self, name: str, **labels) -> Number:
        """Current value of a counter/gauge; 0 when never touched."""
        family = self._families.get(name)
        if family is None:
            return 0
        instrument = family.instruments.get(_label_key(labels))
        if instrument is None:
            return 0
        if isinstance(instrument, (Histogram, Quantile)):
            raise RegistryError(
                f"{name} is a {instrument.kind}; read .sum/.count instead"
            )
        return instrument.value

    def total(self, name: str, **labels) -> Number:
        """Sum of a family's values across series matching ``labels``.

        A series matches when every given (label, value) pair appears in
        its label set; extra labels on the series are ignored.
        """
        family = self._families.get(name)
        if family is None:
            return 0
        want = set(_label_key(labels))
        total: Number = 0
        for key, instrument in family.instruments.items():
            if want <= set(key):
                if isinstance(instrument, (Histogram, Quantile)):
                    total += instrument.count
                else:
                    total += instrument.value
        return total
