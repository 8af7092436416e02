"""Columnar StatsCollector buffers: outputs pinned to the tuple-deque
reference implementation, memory kept flat.

The collector's event storage moved from one python tuple per decision
to growable columnar numpy buffers.  ``_ReferenceCollector`` below is a
faithful copy of the pre-columnar implementation; the property test
streams identical event sequences into both and asserts every public
accessor answers identically (including float-for-float equality of
``mean_slack_s``, whose summation order the columnar path reproduces).
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro._rng import rng_for
from repro.cluster.stats import SLO_EVENT_KINDS, StatsCollector


class _ReferenceCollector:
    """The pre-columnar tuple-deque implementation, verbatim."""

    def __init__(self, max_window_s: float = 3600.0):
        self._max_window_s = max_window_s
        self._events = deque()
        self._slo_events = deque()

    def record_decision(self, now, hit, k=0):
        self._events.append((now, hit, k))
        cutoff = now - self._max_window_s
        while self._events and self._events[0][0] < cutoff:
            self._events.popleft()

    def record_slo(self, now, kind, slack_s):
        self._slo_events.append((now, kind, slack_s))
        cutoff = now - self._max_window_s
        while self._slo_events and self._slo_events[0][0] < cutoff:
            self._slo_events.popleft()

    def window(self, now, window_s):
        cutoff = now - window_s
        arrivals = hits = misses = 0
        k_counts = {}
        for time, is_hit, k in reversed(self._events):
            if time < cutoff:
                break
            arrivals += 1
            if is_hit:
                hits += 1
                k_counts[k] = k_counts.get(k, 0) + 1
            else:
                misses += 1
        k_rates = (
            {k: c / hits for k, c in sorted(k_counts.items())}
            if hits
            else {}
        )
        return arrivals, hits, misses, k_rates

    def slo_window(self, now, window_s):
        cutoff = now - window_s
        counts = {kind: 0 for kind in SLO_EVENT_KINDS}
        slack_sum = 0.0
        slack_n = 0
        for time, kind, slack in reversed(self._slo_events):
            if time < cutoff:
                break
            counts[kind] += 1
            if kind in ("accept", "degrade", "shed", "late"):
                slack_sum += slack
                slack_n += 1
        return counts, slack_sum / slack_n if slack_n else 0.0


def _event_stream(seed: str, n: int):
    """A seeded monotone event stream mixing decisions and SLO events."""
    rng = rng_for("stats-columnar", seed)
    now = 0.0
    for _ in range(n):
        now += float(rng.exponential(7.0))
        if rng.random() < 0.7:
            hit = bool(rng.random() < 0.6)
            k = int(rng.integers(5, 30)) if hit else 0
            yield ("decision", now, hit, k)
        else:
            kind = SLO_EVENT_KINDS[
                int(rng.integers(0, len(SLO_EVENT_KINDS)))
            ]
            slack = float(rng.normal(0.0, 40.0))
            yield ("slo", now, kind, slack)


@pytest.mark.parametrize("seed", ["a", "b", "c"])
@pytest.mark.parametrize("max_window_s", [50.0, 3600.0])
def test_accessors_match_reference(seed, max_window_s):
    collector = StatsCollector(max_window_s=max_window_s)
    reference = _ReferenceCollector(max_window_s=max_window_s)
    now = 0.0
    rng = rng_for("stats-columnar-query", seed)
    for event in _event_stream(seed, 3000):
        if event[0] == "decision":
            _, now, hit, k = event
            collector.record_decision(now, hit=hit, k=k)
            reference.record_decision(now, hit=hit, k=k)
        else:
            _, now, kind, slack = event
            collector.record_slo(now, kind, slack)
            reference.record_slo(now, kind, slack)
        if rng.random() < 0.02:
            window_s = float(rng.choice([10.0, 60.0, 300.0, 3600.0]))
            got = collector.window(now, window_s)
            arrivals, hits, misses, k_rates = reference.window(
                now, window_s
            )
            assert got.arrivals == arrivals
            assert got.hits == hits
            assert got.misses == misses
            assert got.k_rates == k_rates
            slo = collector.slo_window(now, window_s)
            counts, mean_slack = reference.slo_window(now, window_s)
            assert slo.accepted == counts["accept"]
            assert slo.degraded == counts["degrade"]
            assert slo.shed == counts["shed"]
            assert slo.late == counts["late"]
            assert slo.met == counts["met"]
            assert slo.violated == counts["violation"]
            # Bit-for-bit: the columnar path replays the reference's
            # newest-to-oldest summation order.
            assert slo.mean_slack_s == mean_slack


def _unique_k_rates(collector, now, window_s):
    """The window's k histogram as ``np.unique`` computes it."""
    events = collector._events
    start = events.window_start(now - window_s)
    hit = events.col("hit")[start:]
    hits = int(np.count_nonzero(hit))
    if not hits:
        return {}
    ks, counts = np.unique(events.col("k")[start:][hit], return_counts=True)
    return {int(k): int(c) / hits for k, c in zip(ks, counts)}


@given(
    gaps=st.lists(
        st.tuples(
            st.floats(0.0, 30.0, allow_nan=False),
            st.booleans(),
            st.integers(0, 50),
        ),
        max_size=80,
    ),
    window_s=st.floats(1.0, 400.0, allow_nan=False),
)
@example(gaps=[], window_s=60.0)
@example(gaps=[(1.0, False, 0), (2.0, False, 7)], window_s=60.0)
@example(gaps=[(1.0, True, 3), (500.0, False, 0)], window_s=60.0)
def test_window_k_rates_match_unique_oracle(gaps, window_s):
    """bincount-built ``k_rates``: same keys, same ascending order, same
    floats as the ``np.unique`` histogram, empty and all-miss windows
    included."""
    collector = StatsCollector(max_window_s=3600.0)
    now = 0.0
    for gap, hit, k in gaps:
        now += gap
        collector.record_decision(now, hit=hit, k=k if hit else -1)
    got = collector.window(now, window_s).k_rates
    want = _unique_k_rates(collector, now, window_s)
    assert list(got.items()) == list(want.items())
    assert all(type(k) is int for k in got)


def test_merged_matches_reference_merge():
    """Fleet merge: windowed answers equal the tuple-deque heapq merge."""
    collectors = []
    references = []
    last = 0.0
    for i in range(3):
        collector = StatsCollector()
        reference = _ReferenceCollector()
        for event in _event_stream(f"m{i}", 500):
            if event[0] == "decision":
                _, now, hit, k = event
                collector.record_decision(now, hit=hit, k=k)
                reference.record_decision(now, hit=hit, k=k)
            else:
                _, now, kind, slack = event
                collector.record_slo(now, kind, slack)
                reference.record_slo(now, kind, slack)
            last = max(last, now)
        collectors.append(collector)
        references.append(reference)
    merged = StatsCollector.merged(collectors)
    ref_events = list(
        heapq.merge(*(r._events for r in references))
    )
    assert merged.total_arrivals == sum(
        c.total_arrivals for c in collectors
    )
    for window_s in (60.0, 600.0, 3600.0):
        got = merged.window(last, window_s)
        cutoff = last - window_s
        in_window = [e for e in ref_events if e[0] >= cutoff]
        assert got.arrivals == len(in_window)
        assert got.hits == sum(1 for e in in_window if e[1])


def test_recording_into_merged_collector():
    """Appending after a merge must grow the slack-free merged buffers
    (regression: zero/one-event merges used to IndexError on append)."""
    for n_pre in (0, 1, 5):
        source = StatsCollector()
        for i in range(n_pre):
            source.record_decision(float(i), hit=True, k=10)
        merged = StatsCollector.merged([source, StatsCollector()])
        merged.record_decision(float(n_pre), hit=False)
        merged.record_slo(float(n_pre), "accept", 1.0)
        assert merged.window(float(n_pre), 3600.0).arrivals == n_pre + 1
        assert merged.slo_window(float(n_pre), 3600.0).accepted == 1


def test_buffer_memory_stays_flat():
    """A long trimmed stream never grows the buffer past O(live window)."""
    collector = StatsCollector(max_window_s=100.0)
    for i in range(200_000):
        collector.record_decision(float(i), hit=(i % 2 == 0), k=10)
    ring = collector._events
    capacity = ring._cols["time"].shape[0]
    # Trims are amortized (every _TRIM_INTERVAL appends), so the live
    # region is bounded by the window plus one trim interval.
    from repro.cluster.stats import _TRIM_INTERVAL

    assert len(ring) <= 101 + _TRIM_INTERVAL
    assert capacity <= 4096
    assert collector.total_arrivals == 200_000
