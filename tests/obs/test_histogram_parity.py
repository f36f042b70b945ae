"""The value -> count :class:`Histogram` is output-identical to a
list-backed reference that keeps every sample.

``ReferenceHistogram`` keeps every sample; production keeps one count
per distinct value.  On every generated stream the two must agree,
compared by ``repr`` so that float bits (and any ``-0.0``) count:
``summary()``, ``percentile(p)`` for any ``p`` in [0, 100], the sample
multiset, and the registry's two renderings (``stats`` table and
Prometheus text).

Parity domain: finite samples whose running sum cannot overflow, with
``-0.0`` written as ``0.0`` (the two share one key; pinned separately
below).  ±inf is covered by unit tests; NaN is unspecified.
"""

import math
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as metrics_module
from repro.obs.export import metrics_to_prometheus
from repro.obs.metrics import Histogram, MetricsRegistry
from tests.obs.reference_histogram import ReferenceHistogram

INF = math.inf
MIN_NORMAL = sys.float_info.min
#: Longest generated stream; with |x| <= BOUND no sum can overflow.
MAX_SAMPLES = 300
BOUND = 1e300


def _positive_zero(x: float) -> float:
    return x + 0.0  # -0.0 + 0.0 == 0.0; every other float is unchanged


# LQI-like (50..110) and queue-occupancy-like (0..3) integer readings.
integral = st.one_of(st.integers(50, 110), st.integers(0, 3)).map(float)
wide = st.floats(min_value=-BOUND, max_value=BOUND,
                 allow_nan=False, allow_infinity=False)
subnormal = st.floats(min_value=-MIN_NORMAL, max_value=MIN_NORMAL,
                      allow_nan=False, allow_infinity=False)
samples = st.one_of(integral, wide, subnormal).map(_positive_zero)
repeated = st.lists(samples, min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=MAX_SAMPLES))
streams = st.one_of(st.lists(integral, max_size=MAX_SAMPLES),
                    st.lists(samples, max_size=MAX_SAMPLES),
                    repeated)
percents = st.floats(min_value=0.0, max_value=100.0)

PARITY = settings(max_examples=200, deadline=None, derandomize=True)


def _pair(stream):
    hist, ref = Histogram("h"), ReferenceHistogram("h")
    for value in stream:
        hist.observe(value)
        ref.observe(value)
    return hist, ref


@given(streams, st.frozensets(st.integers(0, MAX_SAMPLES), max_size=8))
@PARITY
def test_summary_matches_reference_between_observes(stream, checkpoints):
    hist, ref = Histogram("h"), ReferenceHistogram("h")
    for i, value in enumerate(stream):
        if i in checkpoints:  # summaries interleaved with observes
            assert repr(hist.summary()) == repr(ref.summary())
        hist.observe(value)
        ref.observe(value)
    assert repr(hist.summary()) == repr(ref.summary())
    assert hist.count == ref.count
    assert repr(hist.total) == repr(ref.total)


@given(streams, st.lists(percents, min_size=1, max_size=5))
@PARITY
def test_percentile_matches_reference(stream, ps):
    hist, ref = _pair(stream)
    for p in ps:
        assert repr(hist.percentile(p)) == repr(ref.percentile(p))


@given(streams)
@PARITY
def test_values_are_the_reference_samples_in_ascending_order(stream):
    hist, ref = _pair(stream)
    values = hist.values()
    assert values == sorted(values)
    assert repr(values) == repr(sorted(ref.values()))


def _registry_outputs(histogram_cls, streams_by_name):
    """``render()`` and Prometheus text of a registry whose histograms
    are ``histogram_cls``, plus a counter and a gauge beside them."""
    with mock.patch.object(metrics_module, "Histogram", histogram_cls):
        registry = MetricsRegistry()
        registry.counter("mac.sent_frames").inc(7)
        registry.gauge("medium.idx.rebuilds").set(3)
        for name, stream in streams_by_name.items():
            hist = registry.histogram(name)
            for value in stream:
                hist.observe(value)
        return (registry.render(), registry.render("radio."),
                metrics_to_prometheus(registry, labels={"fleet": "f"}))


@given(st.dictionaries(
    st.sampled_from(["radio.lqi", "mac.queue_occupancy", "ping.rtt_ms",
                     "diag.unused"]),
    streams, max_size=4))
@PARITY
def test_registry_renderings_match_reference(streams_by_name):
    assert (_registry_outputs(Histogram, streams_by_name)
            == _registry_outputs(ReferenceHistogram, streams_by_name))


# -- outside the generated domain ---------------------------------------------


def test_zero_signs_fold_into_one_key():
    """``0.0 == -0.0`` as dict keys: they count together, reported
    under whichever sign arrived first."""
    hist = Histogram("h")
    for value in (0.0, -0.0, 0.0, 1.0):
        hist.observe(value)
    assert hist.count == 4
    assert repr(hist.values()) == "[0.0, 0.0, 0.0, 1.0]"
    assert repr(hist.min) == "0.0"
    assert repr(hist.percentile(50)) == "0.0"

    first_negative = Histogram("h")
    for value in (-0.0, 0.0):
        first_negative.observe(value)
    assert repr(first_negative.values()) == "[-0.0, -0.0]"
    assert repr(first_negative.mean) == "0.0"  # the exact sum is zero


@pytest.mark.parametrize("stream", [
    [INF, 1.0, 2.0],
    [-INF, 3.0, 3.0],
    [2.0, INF, INF, -5.0],
    [-INF, -INF, 0.5],
])
def test_one_signed_infinity_matches_reference(stream):
    hist, ref = _pair(stream)
    assert repr(hist.summary()) == repr(ref.summary())
    for p in (0.0, 25.0, 50.0, 100.0):
        assert repr(hist.percentile(p)) == repr(ref.percentile(p))


def test_both_infinities_raise_like_reference():
    hist, ref = _pair([INF, 1.0, -INF])
    with pytest.raises(ValueError) as expected:
        ref.summary()
    with pytest.raises(ValueError) as got:
        hist.summary()
    assert str(got.value) == str(expected.value)
    assert (hist.min, hist.max) == (ref.min, ref.max) == (-INF, INF)
    for p in (0.0, 50.0, 100.0):
        assert repr(hist.percentile(p)) == repr(ref.percentile(p))


def test_underflowing_percentile_is_the_minimum():
    """``p / 100`` underflowing to 0.0 still means rank 1."""
    hist = Histogram("h")
    for value in (3.0, 1.0, 2.0):
        hist.observe(value)
    assert hist.percentile(5e-324) == 1.0


# -- memory -------------------------------------------------------------------


def test_memory_is_bounded_by_distinct_values():
    """200k LQI readings over 61 values stay well under 64 KiB; a list
    of every sample takes ~6 MB."""
    lqis = list(range(50, 111))  # ints, as the radio reports them
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hist = Histogram("radio.lqi")
        for i in range(200_000):
            hist.observe(lqis[(i * 7) % 61])
        hist.summary()  # the sorted-key cache is part of the footprint
        footprint = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert hist.count == 200_000
    assert footprint < 64 * 1024, f"{footprint} bytes"
