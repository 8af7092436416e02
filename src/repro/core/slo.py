"""SLO admission control and degradation (the in-engine deadline layer).

The paper's §7.2 evaluates SLO compliance *after the fact* from latency
logs; this module is the layer that enforces deadlines *inside* the
engine, in the spirit of DiffServe's query-aware model scaling: every
request gets a deadline and priority class at arrival
(:class:`~repro.core.config.SLOPolicy`), and the gate then walks a small
state machine per request:

    accept ──(primary path meets slack)──────▶ primary queue
    degrade ─(only a cheaper path in slack)──▶ small-model path
    shed ───(no path meets slack, class sheddable)───▶ typed rejection
    late ───(no path meets slack, class must-serve)──▶ primary queue

Path feasibility uses deterministic queueing estimates the serving system
supplies (:class:`PathEstimate`): estimated start + queue wait + service
against the deadline minus the policy's safety margin.  The estimates are
deliberately simple — backlog over effective parallelism — so admission
is O(paths) per request and bit-for-bit reproducible.

:func:`summarize_slo` folds a run's records into the
violation/shed/degraded accounting ``ServingReport`` exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.stats import StatsCollector
from repro.core.config import SLOClass, SLOPolicy
from repro.core.request import (
    RequestRecord,
    SLORejection,
    columnar_view,
)


@dataclass(frozen=True)
class PathEstimate:
    """One serving path's deterministic completion estimate.

    ``wait_s`` is the estimated queueing delay before service could start
    (backlog ahead of this request over the path's effective parallelism);
    ``service_s`` the path's service time for this request.  ``degraded``
    marks paths that trade quality for latency (the small-model cascade).
    """

    name: str
    wait_s: float
    service_s: float
    degraded: bool = False

    def completion_estimate_s(self, start_s: float) -> float:
        return start_s + self.wait_s + self.service_s


@dataclass(frozen=True)
class SloVerdict:
    """Outcome of the admission state machine for one request."""

    action: str  # "accept" | "degrade" | "shed" | "late"
    path: Optional[PathEstimate] = None

    @property
    def admitted(self) -> bool:
        return self.action != "shed"


class SloGate:
    """Per-request deadline assignment + admission state machine.

    Stateless between requests apart from the stats stream: the serving
    system owns the queues and passes fresh :class:`PathEstimate` values
    on every arrival.
    """

    def __init__(
        self,
        policy: SLOPolicy,
        solo_latency_s: float,
        stats: Optional[StatsCollector] = None,
    ):
        if solo_latency_s <= 0:
            raise ValueError("solo_latency_s must be positive")
        self._policy = policy
        self._solo_latency_s = solo_latency_s
        self._stats = stats

    @property
    def policy(self) -> SLOPolicy:
        return self._policy

    def bind_stats(self, stats: StatsCollector) -> None:
        """Point the gate at a fresh run's stats collector."""
        self._stats = stats

    def config_fingerprint(self) -> str:
        """Configuration digest for snapshot-compatibility checks.

        The gate keeps no per-request state, so two gates with equal
        fingerprints are interchangeable at restore time.
        """
        return f"{self._policy!r}/{self._solo_latency_s!r}"

    def assign(self, record: RequestRecord) -> SLOClass:
        """Stamp class, priority, and deadline onto an arriving record."""
        cls = self._policy.class_of(record.request_id)
        record.slo_class = cls.name
        record.priority = cls.priority
        record.deadline_s = record.arrival_s + cls.deadline_budget_s(
            self._solo_latency_s
        )
        return cls

    def admit(
        self,
        record: RequestRecord,
        now: float,
        primary: PathEstimate,
        fallbacks: Sequence[PathEstimate] = (),
    ) -> SloVerdict:
        """Run the accept/degrade/shed state machine for one arrival.

        ``record`` must already be stamped by :meth:`assign`.  Work can
        start once the scheduler latency has elapsed (``enqueued_s``), so
        estimates launch from there.  Fallbacks are tried in order; the
        first feasible one wins.
        """
        cls = self._policy.class_named(record.slo_class)
        start = record.enqueued_s if record.enqueued_s is not None else now
        budget = record.deadline_s - self._policy.slack_margin_s

        def feasible(path: PathEstimate) -> bool:
            return path.completion_estimate_s(start) <= budget

        if feasible(primary):
            self._record(now, "accept", record, primary, start)
            return SloVerdict(action="accept", path=primary)
        degradable = self._policy.degrade and cls.degradable
        if degradable:
            for path in fallbacks:
                if feasible(path):
                    self._record(now, "degrade", record, path, start)
                    return SloVerdict(action="degrade", path=path)
        if self._policy.admission and cls.sheddable:
            # Best estimate over the paths this request was *allowed* to
            # take — fallbacks a non-degradable class (or a degrade-off
            # policy) cannot use must not make a shed look avoidable.
            allowed = (primary, *fallbacks) if degradable else (primary,)
            best = min(
                p.completion_estimate_s(start) for p in allowed
            )
            record.rejection = SLORejection(
                time_s=now,
                slo_class=cls.name,
                deadline_s=record.deadline_s,
                best_estimate_s=best,
            )
            self._record(now, "shed", record, primary, start)
            return SloVerdict(action="shed")
        # Must-serve class (or admission off): ride the primary path late.
        self._record(now, "late", record, primary, start)
        return SloVerdict(action="late", path=primary)

    def record_completion(self, record: RequestRecord, now: float) -> None:
        """Stream the met/violated outcome of a completed request."""
        if self._stats is None or record.deadline_s is None:
            return
        slack = record.deadline_s - now
        kind = "met" if now <= record.deadline_s else "violation"
        self._stats.record_slo(now, kind, slack)

    def _record(
        self,
        now: float,
        kind: str,
        record: RequestRecord,
        path: PathEstimate,
        start: float,
    ) -> None:
        if self._stats is None:
            return
        slack = record.deadline_s - path.completion_estimate_s(start)
        self._stats.record_slo(now, kind, slack)


@dataclass(frozen=True)
class SloSummary:
    """Violation/shed/degraded accounting of one serving run.

    A request *violates* its SLO when it is not completed by its deadline
    for any reason: completed late, shed at admission, or still unfinished
    when the run's horizon cut it off.
    """

    total: int
    completed_in_time: int
    completed_late: int
    shed: int
    degraded: int
    unfinished: int

    @property
    def violations(self) -> int:
        return self.completed_late + self.shed + self.unfinished

    @property
    def violation_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return self.violations / self.total

    @property
    def shed_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return self.shed / self.total


def summarize_slo(
    records: Sequence[RequestRecord],
) -> Optional[SloSummary]:
    """Fold records with deadlines into an :class:`SloSummary`.

    Returns None when no record carries a deadline (SLO mode was off).
    """
    cv = columnar_view(records)
    if cv is not None:
        store, rows = cv
        deadline = store.gather("deadline_s", rows)
        has_deadline = deadline == deadline
        total = int(np.count_nonzero(has_deadline))
        if total == 0:
            return None
        deadline = deadline[has_deadline]
        rows = rows[has_deadline]
        shed_mask = store.gather("shed", rows)
        comp = store.gather("completion_s", rows)
        completed = comp == comp
        in_time = ~shed_mask & completed & (comp <= deadline)
        return SloSummary(
            total=total,
            completed_in_time=int(np.count_nonzero(in_time)),
            completed_late=int(
                np.count_nonzero(~shed_mask & completed & ~in_time)
            ),
            shed=int(np.count_nonzero(shed_mask)),
            degraded=int(
                np.count_nonzero(
                    store.gather("degraded", rows) & ~shed_mask
                )
            ),
            unfinished=int(np.count_nonzero(~shed_mask & ~completed)),
        )
    with_deadline: List[RequestRecord] = [
        r for r in records if r.deadline_s is not None
    ]
    if not with_deadline:
        return None
    in_time = late = shed = degraded = unfinished = 0
    for record in with_deadline:
        if record.degraded and not record.shed:
            degraded += 1
        if record.shed:
            shed += 1
        elif not record.completed:
            unfinished += 1
        elif record.completion_s <= record.deadline_s:
            in_time += 1
        else:
            late += 1
    return SloSummary(
        total=len(with_deadline),
        completed_in_time=in_time,
        completed_late=late,
        shed=shed,
        degraded=degraded,
        unfinished=unfinished,
    )
