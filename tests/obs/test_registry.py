"""Unit tests for the metrics registry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import DEFAULT_BUCKETS, Histogram, Registry, RegistryError


def test_counter_inc_and_value():
    reg = Registry()
    c = reg.counter("ops_total", "Operations", node="r0")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.value("ops_total", node="r0") == 5


def test_counter_rejects_negative_increment():
    c = Registry().counter("ops_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_get_or_create_same_instrument():
    reg = Registry()
    a = reg.counter("ops_total", node="r0")
    b = reg.counter("ops_total", node="r0")
    assert a is b
    assert reg.counter("ops_total", node="r1") is not a


def test_gauge_set_inc_dec():
    g = Registry().gauge("depth")
    g.set(10.0)
    g.inc(2.5)
    g.dec()
    assert g.value == pytest.approx(11.5)


def test_histogram_buckets_and_cumulative():
    h = Registry().histogram("lat", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.05, 0.5, 5.0):
        h.observe(v)
    cum = dict(h.cumulative())
    assert cum[0.01] == 1
    assert cum[0.1] == 3
    assert cum[1.0] == 4
    assert cum[math.inf] == 5
    assert h.count == 5
    assert h.sum == pytest.approx(5.605)


def test_histogram_default_buckets():
    h = Registry().histogram("lat")
    assert tuple(h.buckets) == tuple(DEFAULT_BUCKETS)


def test_kind_conflict_rejected():
    reg = Registry()
    reg.counter("x_total")
    with pytest.raises(RegistryError):
        reg.gauge("x_total")


def test_bucket_conflict_rejected():
    reg = Registry()
    reg.histogram("lat", buckets=(1.0, 2.0))
    with pytest.raises(RegistryError):
        reg.histogram("lat", buckets=(1.0, 3.0))


def test_invalid_names_rejected():
    reg = Registry()
    with pytest.raises(RegistryError):
        reg.counter("bad-name")
    with pytest.raises(RegistryError):
        reg.counter("ok_total", **{"bad-label": "v"})


def test_total_sums_over_matching_labels():
    reg = Registry()
    reg.counter("reads_total", node="r0", outcome="hit").inc(3)
    reg.counter("reads_total", node="r1", outcome="hit").inc(2)
    reg.counter("reads_total", node="r0", outcome="miss").inc(7)
    assert reg.total("reads_total") == 12
    assert reg.total("reads_total", outcome="hit") == 5
    assert reg.total("reads_total", node="r0") == 10
    assert reg.total("missing_total") == 0


def test_value_raises_on_histogram():
    reg = Registry()
    reg.histogram("lat").observe(1.0)
    with pytest.raises(RegistryError):
        reg.value("lat")


def test_families_sorted_by_name():
    reg = Registry()
    reg.counter("zz_total")
    reg.gauge("aa")
    assert [f.name for f in reg.families()] == ["aa", "zz_total"]


# -- instrument handles: a cached hit must not skip validation ----------------


def test_repeated_invalid_names_raise_every_time():
    reg = Registry()
    for _ in range(3):
        with pytest.raises(RegistryError, match="metric name"):
            reg.counter("bad-name", node="r0")
        with pytest.raises(RegistryError, match="label name"):
            reg.counter("ok_total", **{"bad-label": "v"})
    assert "bad-name" not in reg._families


def test_kind_conflict_raises_after_cached_hit():
    reg = Registry()
    counter = reg.counter("x_total", node="r0")
    assert reg.counter("x_total", node="r0") is counter
    for _ in range(2):
        with pytest.raises(RegistryError, match="already registered"):
            reg.gauge("x_total", node="r0")
    assert reg.counter("x_total", node="r0") is counter


def test_late_help_fills_empty_family_help():
    reg = Registry()
    counter = reg.counter("ops_total", node="r0")
    assert reg.counter("ops_total", node="r0") is counter
    assert reg.counter("ops_total", "Operations", node="r0") is counter
    (family,) = reg.families()
    assert family.help == "Operations"
    reg.counter("ops_total", "Other text", node="r0")
    assert family.help == "Operations"


def test_bucket_conflict_raises_after_cached_hit():
    reg = Registry()
    hist = reg.histogram("lat", buckets=(1.0, 2.0), node="r0")
    assert reg.histogram("lat", buckets=[2.0, 1.0], node="r0") is hist
    for _ in range(2):
        with pytest.raises(RegistryError, match="buckets"):
            reg.histogram("lat", buckets=(1.0, 3.0), node="r0")
    assert reg.histogram("lat", buckets=(1.0, 2.0), node="r0") is hist


def test_quantile_conflict_raises_after_cached_hit():
    reg = Registry()
    q = reg.quantile("lat_q", quantiles=(0.5, 0.99), node="r0")
    assert reg.quantile("lat_q", quantiles=(0.5, 0.99), node="r0") is q
    for _ in range(2):
        with pytest.raises(RegistryError, match="quantiles"):
            reg.quantile("lat_q", quantiles=(0.5, 0.9), node="r0")
        with pytest.raises(RegistryError, match="at least one"):
            reg.quantile("lat_q", quantiles=(), node="r0")


def test_label_values_that_hash_equal_stay_distinct():
    reg = Registry()
    reg.counter("flags_total", on=True).inc()
    reg.counter("flags_total", on=1).inc(5)
    assert reg.value("flags_total", on="True") == 1
    assert reg.value("flags_total", on="1") == 5


def test_unhashable_label_value_still_resolves():
    reg = Registry()
    first = reg.counter("odd_total", node=["r0"])
    assert reg.counter("odd_total", node=["r0"]) is first
    assert first.labels == (("node", "['r0']"),)


def test_label_order_does_not_split_series():
    reg = Registry()
    a = reg.counter("reads_total", node="r0", outcome="hit")
    b = reg.counter("reads_total", outcome="hit", node="r0")
    assert a is b


# -- bucket placement -------------------------------------------------------------


def _linear_bucket(bounds, value):
    """Bucket index the original linear scan chose (None: +Inf only)."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return None


_BOUNDS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    min_size=1, max_size=16, unique=True,
)


@given(bounds=_BOUNDS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_bisect_bucket_placement_matches_linear_scan(bounds, data):
    hist = Histogram("h", (), bounds)
    value = data.draw(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(hist.buckets),
        st.sampled_from((math.inf, -math.inf, math.nan)),
        st.integers(-10, 10),
    ))
    expected = _linear_bucket(hist.buckets, value)
    hist.observe(value)
    want = [0] * len(hist.buckets)
    if expected is not None:
        want[expected] = 1
    assert hist.counts == want
    assert hist.count == 1
