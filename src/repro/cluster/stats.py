"""Sliding-window serving statistics.

The Global Monitor (§5.3) reads three quantities from the last monitoring
period: the request rate ``R``, the cache hit rate ``H_cache``, and the
distribution of refinement steps ``P(K = k)``.  The collector keeps
timestamped decision events and answers windowed queries over them; it also
accumulates whole-run counters for the final report.

Events are stored columnar (:class:`_ColumnRing`): parallel growable numpy
arrays instead of a python tuple per event, so million-request traces cost
a few flat bytes per decision and windowed queries reduce over array
slices rather than walking tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


#: SLO event kinds the collector accepts; admission events ("accept",
#: "degrade", "shed", "late") are streamed by the SLO gate at arrival,
#: outcome events ("met", "violation") at completion.
SLO_EVENT_KINDS = ("accept", "degrade", "shed", "late", "met", "violation")

#: kind name <-> small-int code for the columnar SLO event buffer.
_SLO_KIND_CODE = {kind: i for i, kind in enumerate(SLO_EVENT_KINDS)}
#: Codes 0..3 are the arrival-side admission kinds (accept/degrade/
#: shed/late) whose planned slack feeds ``mean_slack_s``.
_LAST_ADMISSION_CODE = _SLO_KIND_CODE["late"]

# Appends between ring trims; see StatsCollector.__init__.
_TRIM_INTERVAL = 512


class _ColumnRing:
    """Growable columnar event buffer with amortized O(1) append/trim.

    Events live oldest-first in parallel preallocated numpy arrays
    between ``_head`` and ``_tail``: appends write at the tail, trimming
    advances the head.  When the tail hits capacity the buffer either
    slides the live region back to offset zero (when at least half the
    array is trimmed slack) or doubles — so storage stays O(live
    events) at a handful of bytes per row, instead of one ~100-byte
    python tuple per event, and million-request traces keep flat
    memory.

    Event times must be appended in non-decreasing order — the same
    sortedness invariant the previous deque implementation leaned on
    for its trim/early-break loops — which lets every windowed query
    start from one ``searchsorted``.
    """

    def __init__(self, dtypes: Sequence[Tuple[str, str]], initial: int = 1024):
        self._names = [name for name, _ in dtypes]
        self._cols = {
            name: np.empty(initial, dtype=dt) for name, dt in dtypes
        }
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def _grow(self) -> None:
        capacity = self._cols[self._names[0]].shape[0]
        live = len(self)
        if self._head >= max(1, capacity // 2):
            # Enough trimmed slack at the front: slide instead of grow.
            for name, col in self._cols.items():
                col[:live] = col[self._head:self._tail]
        else:
            # max(8, ...) also covers buffers whose capacity equals the
            # live count with no slack — e.g. fresh from extend_merged —
            # where doubling zero/one slots would free no room.
            for name, col in list(self._cols.items()):
                fresh = np.empty(
                    max(8, 2 * capacity), dtype=col.dtype
                )
                fresh[:live] = col[self._head:self._tail]
                self._cols[name] = fresh
        self._head = 0
        self._tail = live

    def append(self, *values) -> None:
        if self._tail == self._cols[self._names[0]].shape[0]:
            self._grow()
        for name, value in zip(self._names, values):
            self._cols[name][self._tail] = value
        self._tail += 1

    def col(self, name: str) -> np.ndarray:
        """Live view of one column, oldest first."""
        return self._cols[name][self._head:self._tail]

    def last_time(self) -> Optional[float]:
        """Newest event time, or None when empty."""
        if self._head >= self._tail:
            return None
        return float(self._cols["time"][self._tail - 1])

    def trim_before(self, cutoff: float) -> None:
        """Drop events with ``time < cutoff`` (head advance, no copy)."""
        times = self.col("time")
        self._head += int(np.searchsorted(times, cutoff, side="left"))

    def window_start(self, cutoff: float) -> int:
        """Index into the live views of the first event ``>= cutoff``."""
        return int(
            np.searchsorted(self.col("time"), cutoff, side="left")
        )

    def snapshot_state(self) -> Dict[str, np.ndarray]:
        """Copies of the live columns, oldest first (snapshot support)."""
        return {name: self.col(name).copy() for name in self._names}

    def restore_state(self, cols: Dict[str, np.ndarray]) -> None:
        """Replace the buffer contents with a ``snapshot_state`` capture.

        The live region restarts at offset zero; ``_grow`` tolerates the
        exact-fit (even zero-length) arrays this installs.
        """
        n = 0
        for name in self._names:
            data = cols[name]
            self._cols[name] = data.copy()
            n = data.shape[0]
        self._head = 0
        self._tail = n

    def extend_merged(self, rings: Sequence["_ColumnRing"]) -> None:
        """Fill this (empty) buffer with a time-sorted merge of ``rings``."""
        if not rings:
            return
        parts = {
            name: [ring.col(name) for ring in rings]
            for name in self._names
        }
        times = np.concatenate(parts["time"])
        order = np.argsort(times, kind="stable")
        for name in self._names:
            self._cols[name] = np.concatenate(parts[name])[order]
        self._head = 0
        self._tail = times.shape[0]


@dataclass(frozen=True)
class SloWindowStats:
    """SLO pressure snapshot of the last monitoring window.

    ``mean_slack_s`` averages the *planned* slack of admission events
    (deadline minus the chosen path's completion estimate); negative
    values mean the gate is already admitting work it expects to be late.
    """

    window_s: float
    accepted: int
    degraded: int
    shed: int
    late: int
    met: int
    violated: int
    mean_slack_s: float

    @property
    def admissions(self) -> int:
        return self.accepted + self.degraded + self.shed + self.late

    @property
    def pressure(self) -> float:
        """Fraction of windowed SLO events going wrong (0 = healthy).

        Sheds and late admissions count from the arrival side, violations
        from the completion side; degraded requests count as half —
        served in time, but below primary quality.
        """
        total = self.admissions + self.met + self.violated
        if total == 0:
            return 0.0
        bad = self.shed + self.late + self.violated + 0.5 * self.degraded
        return min(1.0, bad / total)


@dataclass(frozen=True)
class WindowStats:
    """Snapshot of the last monitoring window."""

    window_s: float
    arrivals: int
    hits: int
    misses: int
    k_rates: Dict[int, float]

    @property
    def request_rate_per_min(self) -> float:
        if self.window_s <= 0:
            return 0.0
        return 60.0 * self.arrivals / self.window_s

    @property
    def hit_rate(self) -> float:
        decided = self.hits + self.misses
        if decided == 0:
            return 0.0
        return self.hits / decided


class StatsCollector:
    """Streams scheduling decisions; answers sliding-window queries."""

    def __init__(self, max_window_s: float = 3600.0):
        if max_window_s <= 0:
            raise ValueError("max_window_s must be positive")
        self._max_window_s = max_window_s
        # Columnar (time, is_hit, k) rows — k meaningful only for hits.
        self._events = _ColumnRing(
            (("time", "f8"), ("hit", "?"), ("k", "i8"))
        )
        # Columnar (time, kind code, slack_s) rows — streamed by the
        # SLO gate when active.
        self._slo_events = _ColumnRing(
            (("time", "f8"), ("kind", "i1"), ("slack", "f8"))
        )
        self.total_arrivals = 0
        self.total_hits = 0
        self.total_misses = 0
        self.k_histogram: Dict[int, int] = {}
        # Trimming only reclaims memory — windowed queries compute their
        # own cutoff via searchsorted — so it runs every _TRIM_INTERVAL
        # appends instead of on every event.  The live region is bounded
        # by the window plus one interval.
        self._trim_countdown = _TRIM_INTERVAL
        self._slo_trim_countdown = _TRIM_INTERVAL

    @classmethod
    def merged(
        cls, collectors: Sequence["StatsCollector"]
    ) -> "StatsCollector":
        """Fleet-wide collector: summed counters, time-merged events.

        Used by the cluster serving layer to aggregate per-replica stats
        into one fleet view.  Event streams are merged in timestamp order
        (each replica's stream is already sorted), so windowed queries on
        the merged collector answer fleet-wide questions.  The merge is a
        snapshot — later recording should go to the per-replica
        collectors, not the merged one.
        """
        out = cls(
            max_window_s=max(
                (c._max_window_s for c in collectors), default=3600.0
            )
        )
        for collector in collectors:
            collector._flush_trims()
        out._events.extend_merged([c._events for c in collectors])
        out._slo_events.extend_merged(
            [c._slo_events for c in collectors]
        )
        for collector in collectors:
            out.total_arrivals += collector.total_arrivals
            out.total_hits += collector.total_hits
            out.total_misses += collector.total_misses
            for k, count in collector.k_histogram.items():
                out.k_histogram[k] = out.k_histogram.get(k, 0) + count
        return out

    def snapshot_state(self) -> Dict[str, object]:
        """Full collector state for :class:`repro.core.journal.Snapshot`.

        Deliberately does *not* flush deferred trims: the capture must be
        side-effect-free so a journaled run with snapshots stays
        bit-identical to one without.
        """
        return {
            "events": self._events.snapshot_state(),
            "slo": self._slo_events.snapshot_state(),
            "totals": (
                self.total_arrivals,
                self.total_hits,
                self.total_misses,
            ),
            "k_histogram": dict(self.k_histogram),
            "countdowns": (
                self._trim_countdown,
                self._slo_trim_countdown,
            ),
            "max_window_s": self._max_window_s,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore, in place, a ``snapshot_state`` capture."""
        if state["max_window_s"] != self._max_window_s:
            raise ValueError(
                "max_window_s mismatch: snapshot "
                f"{state['max_window_s']}, collector {self._max_window_s}"
            )
        self._events.restore_state(state["events"])
        self._slo_events.restore_state(state["slo"])
        (
            self.total_arrivals,
            self.total_hits,
            self.total_misses,
        ) = state["totals"]
        self.k_histogram = dict(state["k_histogram"])
        self._trim_countdown, self._slo_trim_countdown = state[
            "countdowns"
        ]

    def record_decision(self, now: float, hit: bool, k: int = 0) -> None:
        """Record one scheduling decision (cache hit with ``k``, or miss)."""
        self._events.append(now, hit, k)
        self.total_arrivals += 1
        if hit:
            self.total_hits += 1
            self.k_histogram[k] = self.k_histogram.get(k, 0) + 1
        else:
            self.total_misses += 1
        self._trim_countdown -= 1
        if self._trim_countdown <= 0:
            self._trim_countdown = _TRIM_INTERVAL
            self._trim(now)

    def window(self, now: float, window_s: float) -> WindowStats:
        """Stats over ``[now - window_s, now]``."""
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        start = self._events.window_start(
            self._query_cutoff(self._events, now, window_s)
        )
        hit_col = self._events.col("hit")[start:]
        arrivals = hit_col.shape[0]
        hits = int(np.count_nonzero(hit_col))
        misses = arrivals - hits
        if hits:
            # A hit's k is always >= 0, so bincount keys ascend like
            # np.unique's and the empty bins drop out.
            counts = np.bincount(self._events.col("k")[start:][hit_col])
            k_rates = {
                k: c / hits for k, c in enumerate(counts.tolist()) if c
            }
        else:
            k_rates = {}
        return WindowStats(
            window_s=window_s,
            arrivals=arrivals,
            hits=hits,
            misses=misses,
            k_rates=k_rates,
        )

    def record_slo(self, now: float, kind: str, slack_s: float) -> None:
        """Record one SLO event (see :data:`SLO_EVENT_KINDS`)."""
        if kind not in SLO_EVENT_KINDS:
            raise ValueError(
                f"unknown SLO event kind {kind!r}; "
                f"expected one of {SLO_EVENT_KINDS}"
            )
        self._slo_events.append(now, _SLO_KIND_CODE[kind], slack_s)
        self._slo_trim_countdown -= 1
        if self._slo_trim_countdown <= 0:
            self._slo_trim_countdown = _TRIM_INTERVAL
            self._trim_slo(now)

    def slo_window(self, now: float, window_s: float) -> SloWindowStats:
        """SLO events over ``[now - window_s, now]``."""
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        start = self._slo_events.window_start(
            self._query_cutoff(self._slo_events, now, window_s)
        )
        kind_col = self._slo_events.col("kind")[start:]
        by_code = np.bincount(
            kind_col, minlength=len(SLO_EVENT_KINDS)
        )
        counts = {
            kind: int(by_code[code])
            for kind, code in _SLO_KIND_CODE.items()
        }
        admission = kind_col <= _LAST_ADMISSION_CODE
        slack_n = int(np.count_nonzero(admission))
        # Accumulated newest-to-oldest, exactly as the tuple-deque
        # implementation summed it, so the mean stays bit-identical.
        slack_sum = 0.0
        for slack in self._slo_events.col("slack")[start:][admission][
            ::-1
        ]:
            slack_sum += float(slack)
        return SloWindowStats(
            window_s=window_s,
            accepted=counts["accept"],
            degraded=counts["degrade"],
            shed=counts["shed"],
            late=counts["late"],
            met=counts["met"],
            violated=counts["violation"],
            mean_slack_s=slack_sum / slack_n if slack_n else 0.0,
        )

    def _trim_slo(self, now: float) -> None:
        self._slo_events.trim_before(now - self._max_window_s)

    def _query_cutoff(
        self, ring: _ColumnRing, now: float, window_s: float
    ) -> float:
        """Window start, honouring the eager-trim retention boundary.

        Trims are amortized, so the ring may still hold events older
        than ``last append - max_window`` that per-append trimming would
        already have dropped; queries wider than ``max_window_s`` must
        not see them.
        """
        cutoff = now - window_s
        last = ring.last_time()
        if last is not None:
            retention = last - self._max_window_s
            if retention > cutoff:
                return retention
        return cutoff

    def _flush_trims(self) -> None:
        """Apply any deferred trims (pre-merge normalisation)."""
        for ring in (self._events, self._slo_events):
            last = ring.last_time()
            if last is not None:
                ring.trim_before(last - self._max_window_s)
        self._trim_countdown = _TRIM_INTERVAL
        self._slo_trim_countdown = _TRIM_INTERVAL

    @property
    def overall_hit_rate(self) -> float:
        decided = self.total_hits + self.total_misses
        if decided == 0:
            return 0.0
        return self.total_hits / decided

    def overall_k_rates(self) -> Dict[int, float]:
        """Whole-run ``P(K = k)`` over cache hits."""
        if self.total_hits == 0:
            return {}
        return {
            k: c / self.total_hits
            for k, c in sorted(self.k_histogram.items())
        }

    def _trim(self, now: float) -> None:
        self._events.trim_before(now - self._max_window_s)
