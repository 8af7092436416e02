"""End-to-end serving systems over the cluster simulator.

:class:`BaseServingSystem` owns the plumbing every system shares: request
admission, worker dispatch, completion bookkeeping and report assembly.
Subclasses define policy — how a request is decided, which queue it joins,
and what job an idle worker picks next.  The event loop belongs to the
fleet (:class:`repro.core.cluster_router.ClusterServingSystem`): a system
run alone is the one replica of a fleet, so every run, snapshot and
restore takes the fleet's path.

:class:`MoDMSystem` is the paper's system (Fig. 4): a cache-aware Request
Scheduler feeding hit/miss queues, a PID-stabilized Global Monitor
reallocating workers between the large model and an adaptively chosen small
model, and workers that prioritize misses on large models while small
models exclusively refine cache hits.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import collections

import numpy as np

from repro.cluster.energy import EnergyReport
from repro.cluster.events import EventLoop
from repro.cluster.stats import StatsCollector
from repro.cluster.worker import GPUWorker, Job
from repro.core.ann import IVFParams
from repro.core.cache import VectorCache, make_image_cache
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    JournalConfig,
    MoDMConfig,
)
from repro.core.journal import JournalKind
from repro.core.kselection import (
    REFERENCE_TOTAL_STEPS,
    KSelector,
    modm_default_selector,
    scale_k_steps,
)
from repro.core.monitor import Allocation, GlobalMonitor, MonitorConfig
from repro.core.request import (
    RequestRecord,
    RequestStore,
    columnar_view,
)
from repro.core.slo import (
    PathEstimate,
    SloGate,
    SloSummary,
    summarize_slo,
)
from repro.core.retrieval import (
    RetrievalPolicy,
    TextToImageRetrieval,
    TextToTextRetrieval,
)
from repro.core.scheduler import RequestScheduler
from repro.diffusion.model import DiffusionModelSim
from repro.diffusion.registry import ModelSpec, get_gpu, get_model
from repro.embedding.space import SemanticSpace
from repro.workloads.prompts import Prompt
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class AllocationEvent:
    """Timestamped Global Monitor decision, for the allocation timeline."""

    time_s: float
    n_large: int
    n_small: int
    small_model: str


@dataclass
class _WorkItem:
    """A record in service, with everything needed to finish it."""

    record: RequestRecord
    model: DiffusionModelSim
    steps: int
    skipped_steps: int
    source_image: Optional[object] = None


@dataclass
class ServingReport:
    """Everything one serving run produced.

    Reports are immutable once :meth:`BaseServingSystem.run` returns, so
    every derived metric is computed once on first access and cached —
    consumers (benchmarks, figure runners) read ``latencies()`` and
    friends many times over thousands of records.
    """

    system: str
    trace_name: str
    records: List[RequestRecord]
    energy: EnergyReport
    workers: List[GPUWorker]
    stats: StatsCollector
    allocations: List[AllocationEvent] = field(default_factory=list)
    cache_size: int = 0
    cache_storage_bytes: int = 0
    _completed: Optional[List[RequestRecord]] = field(
        default=None, repr=False, compare=False
    )
    _latencies: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _completion_times: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _arrival_times: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _slo_summary: Optional[SloSummary] = field(
        default=None, repr=False, compare=False
    )
    _slo_summarized: bool = field(
        default=False, repr=False, compare=False
    )
    _columns: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )
    _columns_resolved: bool = field(
        default=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Derived serving metrics
    # ------------------------------------------------------------------
    def _store_rows(self):
        """``(store, rows)`` when the records share one columnar store.

        Engine-produced reports always do (a run bulk-allocates every
        request in its fleet's store), turning every reduction below
        into a single numpy gather; hand-assembled reports (tests) fall
        back to the per-record loops.
        """
        if not self._columns_resolved:
            self._columns = columnar_view(self.records)
            self._columns_resolved = True
        return self._columns

    def completed(self) -> List[RequestRecord]:
        if self._completed is None:
            self._completed = [r for r in self.records if r.completed]
        return self._completed

    @property
    def n_completed(self) -> int:
        if self._completed is None:
            cv = self._store_rows()
            if cv is not None:
                store, rows = cv
                comp = store.gather("completion_s", rows)
                return int(np.count_nonzero(comp == comp))
        return len(self.completed())

    def latencies(self) -> np.ndarray:
        if self._latencies is None:
            cv = self._store_rows()
            if cv is not None:
                store, rows = cv
                comp = store.gather("completion_s", rows)
                mask = comp == comp
                # Same elementwise IEEE subtraction, in record order, as
                # the per-record ``latency_s`` loop — bit-identical.
                self._latencies = (
                    comp[mask] - store.gather("arrival_s", rows)[mask]
                )
            else:
                self._latencies = np.array(
                    [r.latency_s for r in self.completed()]
                )
            # Cached arrays are shared across calls: freeze them so a
            # caller-side in-place sort cannot corrupt later reads.
            self._latencies.flags.writeable = False
        return self._latencies

    def completion_times(self) -> np.ndarray:
        if self._completion_times is None:
            cv = self._store_rows()
            if cv is not None:
                store, rows = cv
                comp = store.gather("completion_s", rows)
                self._completion_times = comp[comp == comp]
            else:
                self._completion_times = np.array(
                    [r.completion_s for r in self.completed()]
                )
            self._completion_times.flags.writeable = False
        return self._completion_times

    def arrival_times(self) -> np.ndarray:
        if self._arrival_times is None:
            cv = self._store_rows()
            if cv is not None:
                store, rows = cv
                self._arrival_times = store.gather("arrival_s", rows)
            else:
                self._arrival_times = np.array(
                    [r.arrival_s for r in self.records]
                )
            self._arrival_times.flags.writeable = False
        return self._arrival_times

    @property
    def makespan_s(self) -> float:
        times = self.completion_times()
        return float(times.max()) if times.size else 0.0

    @property
    def serving_span_s(self) -> float:
        """First arrival to last completion — the active serving window."""
        times = self.completion_times()
        if not times.size:
            return 0.0
        first_arrival = float(self.arrival_times().min())
        return float(times.max()) - first_arrival

    @property
    def throughput_rpm(self) -> float:
        """Completed requests per minute over the active serving window."""
        if self.serving_span_s <= 0:
            return 0.0
        return 60.0 * self.n_completed / self.serving_span_s

    @property
    def hit_rate(self) -> float:
        return self.stats.overall_hit_rate

    def k_rates(self) -> Dict[int, float]:
        return self.stats.overall_k_rates()

    def images(self) -> List[Tuple[Prompt, object]]:
        """(prompt, image) pairs for quality evaluation."""
        return [
            (r.prompt, r.image)
            for r in self.completed()
            if r.image is not None
        ]

    # ------------------------------------------------------------------
    # SLO accounting (all zeros / None when the SLO subsystem was off)
    # ------------------------------------------------------------------
    @property
    def n_shed(self) -> int:
        """Requests rejected by SLO admission control."""
        summary = self.slo()
        return summary.shed if summary is not None else 0

    @property
    def n_degraded(self) -> int:
        """Requests re-routed to the degraded small-model path."""
        summary = self.slo()
        return summary.degraded if summary is not None else 0

    def slo(self) -> Optional[SloSummary]:
        """Violation/shed/degraded summary; None when SLO mode was off."""
        if not self._slo_summarized:
            self._slo_summary = summarize_slo(self.records)
            self._slo_summarized = True
        return self._slo_summary


class _ReadyQueue:
    """Request queue split into a ready structure and a pending min-heap.

    Records enter their queue while still paying scheduler latency
    (``enqueued_s`` in the future).  The old implementation kept one deque
    and linearly re-scanned it on every pop, deleting from the middle —
    O(queue) per dispatch.  Here not-yet-ready records wait in a heap keyed
    by ``(enqueued_s, insertion seq)``; :meth:`pop` promotes everything
    whose time has come into the ready structure — O(log n) amortized,
    O(1) when nothing promotes.

    In the default FIFO mode the ready structure is a deque and pop order
    is earliest-``enqueued_s`` first with insertion order breaking ties.
    Scheduler latency is non-decreasing over a run (it grows with cache
    occupancy), so arrival order implies ``enqueued_s`` order and this is
    exactly the old first-ready-in-queue-order scan — the seed-trace
    golden regression pins that equivalence.

    With ``edf=True`` (SLO mode) the ready structure is a min-heap keyed
    by ``(priority, deadline, insertion seq)``: strict priority bands,
    earliest deadline first within a band, FIFO among equal deadlines.
    At any fixed dispatch instant, ordering by deadline is ordering by
    slack, so this is the (priority, slack) order the SLO subsystem
    specifies with EDF tie-breaking.  Records without a deadline sort
    last within their priority band, in insertion order.
    """

    __slots__ = ("_ready", "_pending", "_seq", "_edf")

    def __init__(self, edf: bool = False) -> None:
        self._edf = edf
        # FIFO: a deque of records.  EDF: a heap list of
        # (priority, deadline, seq, record) tuples.
        self._ready = collections.deque() if not edf else []
        self._pending: List[Tuple[float, int, RequestRecord]] = []
        # snap: derived (FIFO tiebreak only; restore_state re-issues
        # seqs in the persisted list order, so values need not survive)
        self._seq = itertools.count()

    def _add_ready(self, record: RequestRecord) -> None:
        if self._edf:
            deadline = (
                record.deadline_s
                if record.deadline_s is not None
                else math.inf
            )
            heapq.heappush(
                self._ready,
                (record.priority, deadline, next(self._seq), record),
            )
        else:
            self._ready.append(record)

    def push(self, record: RequestRecord, now: float) -> None:
        """Add ``record``; ready immediately if its latency has elapsed."""
        enqueued = record.enqueued_s
        if enqueued is None or enqueued <= now:
            self._add_ready(record)
        else:
            heapq.heappush(
                self._pending, (enqueued, next(self._seq), record)
            )

    def _promote(self, now: float) -> None:
        pending = self._pending
        while pending and pending[0][0] <= now:
            self._add_ready(heapq.heappop(pending)[2])

    def pop(self, now: float) -> Optional[RequestRecord]:
        """Next ready record (FIFO or EDF order), or None."""
        self._promote(now)
        ready = self._ready
        if not ready:
            return None
        if self._edf:
            return heapq.heappop(ready)[3]
        return ready.popleft()

    def has_ready(self, now: float) -> bool:
        """True when :meth:`pop` would return a record at ``now``."""
        return bool(self._ready) or bool(
            self._pending and self._pending[0][0] <= now
        )

    def __len__(self) -> int:
        return len(self._ready) + len(self._pending)

    def __iter__(self) -> Iterator[RequestRecord]:
        """Queued records in pop order (ready first, then pending).

        Iteration order matches the old single deque in FIFO mode, which
        matters for float-sum reproducibility in the Global Monitor's
        backlog metric.
        """
        if self._edf:
            for _, _, _, record in sorted(
                self._ready, key=lambda e: e[:3]
            ):
                yield record
        else:
            yield from self._ready
        for _, _, record in sorted(self._pending):
            yield record

    def snapshot_state(self) -> Tuple[bool, List[int], List[Tuple[float, int]]]:
        """Row-level queue state for
        :class:`repro.core.journal.EngineSnapshot`.

        Only *relative* sequence order matters for pop ties, so the
        capture stores rows in pop order and restore re-inserts them with
        fresh sequence numbers — identical pop behavior, no counter to
        persist.
        """
        if self._edf:
            ready_rows = [
                e[3]._row
                for e in sorted(self._ready, key=lambda e: e[:3])
            ]
        else:
            ready_rows = [r._row for r in self._ready]
        pending = [
            (e[0], e[2]._row)
            for e in sorted(self._pending, key=lambda e: e[:2])
        ]
        return (self._edf, ready_rows, pending)

    def restore_state(self, state, store: RequestStore) -> None:
        """Rebuild a freshly constructed queue from ``snapshot_state``."""
        edf, ready_rows, pending = state
        if edf != self._edf:
            raise ValueError(
                "queue mode mismatch: snapshot "
                f"edf={edf}, queue edf={self._edf}"
            )
        for row in ready_rows:
            self._add_ready(RequestRecord._view(store, row))
        for enqueued, row in pending:
            heapq.heappush(
                self._pending,
                (
                    enqueued,
                    next(self._seq),
                    RequestRecord._view(store, row),
                ),
            )


class BaseServingSystem:
    """Admission, dispatch and completion plumbing shared by every
    serving system; a fleet (one replica, when run alone) drives it."""

    name = "base"

    def __init__(
        self,
        space: SemanticSpace,
        cluster: ClusterConfig,
        seed: str = "run0",
        store_images: bool = True,
        image_id_len_cap: Optional[int] = None,
        journal: Optional[JournalConfig] = None,
    ):
        self._space = space
        self._cluster = cluster
        self._gpu = get_gpu(cluster.gpu_name)
        self._seed = seed
        self._store_images = store_images
        self._image_id_len_cap = image_id_len_cap
        self._journal_config = journal
        self._model_sims: Dict[str, DiffusionModelSim] = {}
        # Subclasses install a gate to opt into the SLO subsystem; None
        # keeps every code path identical to the policy-free engine.
        self._slo_gate: Optional[SloGate] = None
        # The fleet running this system (installed by the fleet's run and
        # restore), and the one-replica fleet that runs it alone.
        self._fleet = None
        self._solo = None
        self.stats = StatsCollector()
        self._reset_runtime()

    # ------------------------------------------------------------------
    # Subclass policy hooks
    # ------------------------------------------------------------------
    def _handle_arrival(self, record: RequestRecord, now: float) -> None:
        """Decide and enqueue one request (may complete it immediately)."""
        raise NotImplementedError

    def _handle_arrivals(
        self, records: Sequence[RequestRecord], now: float
    ) -> None:
        """Decide a batch of same-tick arrivals.

        Systems with a vectorizable decision path (MoDM's batched
        embed-and-score, Pinecone's batched retrieve) override this to
        turn n same-tick arrivals into one matrix-matrix product; the
        default just loops the single-arrival hook.
        """
        for record in records:
            self._handle_arrival(record, now)

    def _next_work(
        self, worker: GPUWorker, now: float
    ) -> Optional[_WorkItem]:
        """Pick the next work item for an idle worker, or None."""
        raise NotImplementedError

    def _has_ready_work(self, now: float) -> bool:
        """Cheap pre-check: could any idle worker get work at ``now``?

        Subclasses with O(1) queue state override this so a dispatch wakeup
        on an idle system costs one comparison instead of polling every
        worker.  Returning True when no work exists is always safe —
        ``_next_work`` remains the authority.
        """
        return True

    def _on_complete(self, record: RequestRecord, now: float) -> None:
        """Post-completion hook (cache admission etc.)."""

    def _on_run_start(self) -> None:
        """Hook fired once before the event loop runs (monitor ticks)."""
        if (
            self._journal_owner is not None
            and self._journal_config.snapshot_period_s > 0
        ):
            self._schedule_snapshot_tick()

    def warm_model(self) -> Optional[str]:
        """Name of the model whose generations ``warm_cache`` admits,
        or None for a system that warms no cache."""
        return None

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def model_sim(self, name: str) -> DiffusionModelSim:
        sim = self._model_sims.get(name)
        if sim is None:
            sim = DiffusionModelSim(
                get_model(name),
                self._space,
                image_id_len_cap=self._image_id_len_cap,
            )
            self._model_sims[name] = sim
        return sim

    def _reset_runtime(self) -> None:
        self.loop = EventLoop()
        self.workers: List[GPUWorker] = [
            GPUWorker(worker_id=i, gpu=self._gpu)
            for i in range(self._cluster.n_workers)
        ]
        self._workers_by_id: Dict[int, GPUWorker] = {
            w.worker_id: w for w in self.workers
        }
        self.records: List[RequestRecord] = []
        self._in_service: Dict[int, _WorkItem] = {}
        # Workers finishing at the same timestamp complete as one cohort
        # event: map finish time -> workers, in schedule order.
        self._completion_buckets: Dict[float, List[GPUWorker]] = {}
        self._n_completed = 0
        self._n_shed = 0
        self._n_expected = 0
        self.stats = StatsCollector()
        if self._slo_gate is not None:
            self._slo_gate.bind_stats(self.stats)
        # Idle-worker set: membership mirrors ``worker.is_idle`` at event
        # times, so dispatch never scans busy workers.
        self._idle_workers: Set[int] = set(
            w.worker_id for w in self.workers
        )
        # Dispatch wakeups already scheduled, by timestamp: n same-tick
        # records coalesce into one wakeup event instead of n.
        self._pending_wakeups: Set[float] = set()
        # Opt-in fault-tolerance state.  With journaling off every field
        # below is inert and no extra event ever enters the loop, so the
        # simulation is bit-identical to the journal-free engine.  The
        # owner this replica's rows carry in its fleet's journal: set by
        # the fleet when both journal, else None (no rows).
        self._journal_owner: Optional[int] = None
        self._cache_snapshots: List[Tuple[float, object]] = []
        # Tick-dedup markers: a periodic event is live only while its
        # timestamp matches the marker; _halt invalidates both so ticks
        # already in the heap become no-ops.
        self._next_monitor_tick_s = -1.0
        self._next_snapshot_tick_s = -1.0
        self._dead = False

    def _solo_fleet(self):
        """The one-replica fleet that runs this system alone.

        Built on first use and kept, so a run, its snapshots, a restore
        and a resume all act on the same fleet.  It journals exactly
        when this system has a journal config, with that config's
        snapshot period; the run's journal is the fleet's.
        """
        if self._solo is None:
            from repro.core.cluster_router import ClusterServingSystem

            config = self._journal_config
            self._solo = ClusterServingSystem(
                self._space,
                lambda i: self,
                ClusterRoutingConfig(
                    journal=config is not None,
                    snapshot_period_s=(
                        config.snapshot_period_s if config is not None
                        else 0.0
                    )
                ),
                name=self.name,
            )
        return self._solo

    def run(self, trace: Trace, until: Optional[float] = None) -> ServingReport:
        """Serve ``trace`` to completion (or until the time horizon), as
        the one replica of a fleet."""
        self._solo_fleet()._start(trace)
        return self.resume(trace, until=until)

    def resume(
        self, trace: Trace, until: Optional[float] = None
    ) -> ServingReport:
        """Continue a run cut short by ``until``, or restored from a
        :class:`repro.core.journal.Snapshot`, to completion.

        Only this replica's report is built: the fleet-wide aggregate
        of a one-replica fleet would repeat it.
        """
        fleet = self._solo_fleet()
        fleet.loop.run(until=until)
        return fleet._replica_reports(trace)[0]

    @property
    def request_store(self) -> RequestStore:
        """The store holding this run's requests: its fleet's."""
        return self._fleet.request_store

    @property
    def snapshots(self) -> list:
        """The periodic snapshots of this system's run (its fleet's)."""
        return self._fleet.snapshots if self._fleet is not None else []

    def _journal_row(
        self, now: float, kind: int, a: int = 0, b: int = 0, x: float = 0.0
    ) -> None:
        """Write a row owned by this replica into its fleet's journal."""
        self._fleet._journal.append(now, kind, a, b, x, self._journal_owner)

    def _schedule_snapshot_tick(self) -> None:
        when = self.loop.now + self._journal_config.snapshot_period_s
        self._next_snapshot_tick_s = when
        self.loop.schedule(when, self._snapshot_tick)

    def _snapshot_tick(self, now: float) -> None:
        if now != self._next_snapshot_tick_s:
            return  # superseded: the replica was halted since scheduling
        if self.all_done:
            return
        # Journal the marker and schedule the successor: a snapshot the
        # fleet captures later carries both, so a restored run keeps
        # snapshotting on the same cadence.  A warm restart or a cache
        # migration — only a failure plan has them — needs just the
        # semantic-cache state kept here.
        self._journal_row(
            now, JournalKind.SNAPSHOT, self._n_completed, self._n_shed
        )
        self._schedule_snapshot_tick()
        cache = getattr(self, "cache", None)
        if cache is not None and self._fleet.routing.failures is not None:
            self._cache_snapshots.append((now, cache.snapshot()))

    def _build_report(
        self, trace: Trace, energy: EnergyReport
    ) -> ServingReport:
        return ServingReport(
            system=self.name,
            trace_name=trace.name,
            records=self.records,
            energy=energy,
            workers=self.workers,
            stats=self.stats,
        )

    def _admit(
        self, records: Sequence[RequestRecord], now: float, replica_id: int
    ) -> None:
        """Admit a group of requests routed at ``now`` to this system,
        the fleet's replica ``replica_id``: decide them, journal the
        group and its decisions, and dispatch."""
        self._n_expected += len(records)
        self.records.extend(records)
        for record in records:
            record.replica_id = replica_id
        journaled = self._journal_owner is not None
        if journaled:
            self._journal_row(
                now, JournalKind.ARRIVAL, records[0].request_id, len(records)
            )
        self._handle_arrivals(records, now)
        if journaled:
            for record in records:
                if record.shed:
                    self._journal_row(now, JournalKind.SHED, record.request_id)
                    continue
                decision = record.decision
                if decision is not None:
                    self._journal_row(
                        now,
                        JournalKind.DECISION,
                        record.request_id,
                        decision.k_steps if decision.hit else -1,
                        decision.similarity,
                    )
        self._dispatch(now)

    def _schedule_queue_dispatch(self, record: RequestRecord) -> None:
        """Wake the dispatcher when a request's scheduler latency elapses.

        Requests enter their queue at ``enqueued_s`` (arrival plus embed +
        retrieval latency); without this wake-up an otherwise idle system
        would never notice the queue became non-empty.  Wakeups at the
        same timestamp are coalesced: dispatch is idempotent and every
        state-changing event re-dispatches, so one wakeup per distinct
        time is equivalent to one per record.
        """
        when = record.enqueued_s
        if when is None or when <= self.loop.now:
            return
        if when in self._pending_wakeups:
            return
        self._pending_wakeups.add(when)
        self.loop.schedule(when, self._dispatch_wakeup)

    def _dispatch_wakeup(self, now: float) -> None:
        self._pending_wakeups.discard(now)
        self._dispatch(now)

    def _dispatch(self, now: float) -> None:
        idle = self._idle_workers
        if not idle or not self._has_ready_work(now):
            return
        workers = self._workers_by_id
        for worker_id in sorted(idle):
            worker = workers[worker_id]
            if not worker.is_idle(now):  # pragma: no cover - safety net
                continue
            item = self._next_work(worker, now)
            if item is None:
                continue
            self._start(worker, item, now)
            # The queues only shrink while dispatching: once no ready
            # work remains, the rest of the scan is a no-op — skip it.
            if not self._has_ready_work(now):
                return

    def _start(self, worker: GPUWorker, item: _WorkItem, now: float) -> None:
        record = item.record
        job = Job(
            request_id=record.request_id,
            model=item.model.spec,
            steps=item.steps,
            kind="refine" if item.source_image is not None else "full",
            skipped_steps=item.skipped_steps,
            extra_seconds=self._worker_overhead_s(item),
        )
        finish = worker.assign(job, now)
        self._idle_workers.discard(worker.worker_id)
        record.service_start_s = now
        record.worker_id = worker.worker_id
        record.model_name = item.model.spec.name
        record.steps_run = item.steps
        self._in_service[record.request_id] = item
        if self._journal_owner is not None:
            self._journal_row(
                now,
                JournalKind.DISPATCH,
                record.request_id,
                worker.worker_id,
                float(item.steps),
            )
        # Same-timestamp completions form one cohort event; workers are
        # completed in schedule order within the cohort, and each record
        # still dispatches individually (deferring dispatch to the end of
        # the cohort would change worker assignment and break the golden
        # traces).
        bucket = self._completion_buckets.get(finish)
        if bucket is None:
            self._completion_buckets[finish] = [worker]
            self.loop.schedule(finish, self._complete_cohort)
        else:
            bucket.append(worker)

    def _worker_overhead_s(self, item: _WorkItem) -> float:
        """Extra worker-blocking seconds (baselines override)."""
        return 0.0

    def _complete_cohort(self, now: float) -> None:
        """Complete every worker that finished at ``now``, in order."""
        bucket = self._completion_buckets.pop(now, None)
        if bucket is None:
            return  # stale: the owning replica was halted mid-flight
        for worker in bucket:
            self._complete(worker, now)

    def _complete(self, worker: GPUWorker, now: float) -> None:
        job = worker.complete(now)
        self._idle_workers.add(worker.worker_id)
        item = self._in_service.pop(job.request_id)
        record = item.record
        if item.source_image is not None:
            result = item.model.refine(
                record.prompt,
                item.source_image,
                item.skipped_steps,
                seed=self._seed,
                created_at=now,
            )
        else:
            result = item.model.generate(
                record.prompt, seed=self._seed, created_at=now
            )
        record.completion_s = now
        if self._store_images:
            record.image = result.image
        self._n_completed += 1
        if self._journal_owner is not None:
            self._journal_row(
                now, JournalKind.COMPLETE, record.request_id, worker.worker_id
            )
        if self._slo_gate is not None:
            self._slo_gate.record_completion(record, now)
        self._on_complete_image(record, result.image, now)
        self._on_complete(record, now)
        self._dispatch(now)

    def _on_complete_image(self, record, image, now: float) -> None:
        """Hook with the generated image even when not stored."""

    def _finish_without_gpu(
        self, record: RequestRecord, image, now: float
    ) -> None:
        """Complete a request scheduler-side (no GPU work) — Pinecone."""
        record.completion_s = now
        record.model_name = "cache"
        if self._store_images:
            record.image = image
        self._n_completed += 1

    def _install_slo_gate(
        self, policy, reference_spec: ModelSpec
    ) -> None:
        """Opt this system into the SLO subsystem.

        ``reference_spec`` is the model whose solo service time on this
        cluster's GPU anchors multiplier-style deadlines (the large /
        primary model).
        """
        self._slo_gate = SloGate(
            policy,
            reference_spec.service_time_s(
                self._gpu.name, reference_spec.total_steps
            ),
            self.stats,
        )

    def _register_shed(self, record: RequestRecord) -> None:
        """Account a request shed by SLO admission (it never queues)."""
        assert record.rejection is not None
        self._n_shed += 1

    @property
    def all_done(self) -> bool:
        """Every expected request reached a terminal state.

        Shed requests terminate at admission, so they count alongside
        completions — otherwise a run with sheds would tick its monitor
        forever.  The check is fleet-wide: a replica cannot know how many
        more requests will be routed to it, so periodic machinery
        (monitor ticks) keeps running until the whole fleet drains.  A
        system run alone is its fleet's one replica, so there the fleet
        counts are its own.
        """
        return self._fleet.all_done

    # ------------------------------------------------------------------
    # Cluster-layer surface (load introspection, worker rebalancing)
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests queued but not yet in service (subclasses override)."""
        return 0

    def load(self) -> int:
        """Routing load signal: queued plus in-service requests."""
        return self.queue_depth() + len(self._in_service)

    @property
    def n_terminal(self) -> int:
        """Requests this replica finished (completed or shed)."""
        return self._n_completed + self._n_shed

    def idle_worker_ids(self) -> List[int]:
        """Ids of currently idle workers, ascending."""
        return sorted(self._idle_workers)

    def _default_worker_model(self) -> Optional[str]:
        """Model a freshly adopted worker should target (policy hint)."""
        return None

    def release_worker(self, worker_id: int) -> GPUWorker:
        """Detach an *idle* worker so another replica can adopt it."""
        if worker_id not in self._idle_workers:
            raise ValueError(
                f"worker {worker_id} is not idle; only idle workers "
                "can be released"
            )
        worker = self._workers_by_id.pop(worker_id)
        self._idle_workers.discard(worker_id)
        self.workers.remove(worker)
        self._on_worker_count_changed()
        return worker

    def adopt_worker(self, worker: GPUWorker, now: float) -> None:
        """Attach a worker released by another replica.

        The worker keeps its resident model (switch cost is paid
        naturally when its first job here needs a different one) but is
        re-targeted at this system's default; dispatch is the caller's
        responsibility (the autoscaler re-dispatches after a transfer).
        """
        if worker.worker_id in self._workers_by_id:
            raise ValueError(
                f"worker id {worker.worker_id} already present"
            )
        worker.target_model = self._default_worker_model()
        self.workers.append(worker)
        self._workers_by_id[worker.worker_id] = worker
        if worker.is_idle(now):
            self._idle_workers.add(worker.worker_id)
        self._on_worker_count_changed()

    def _on_worker_count_changed(self) -> None:
        """Hook fired after adopt/release (monitor resizing etc.)."""

    # ------------------------------------------------------------------
    # Failure injection (cluster layer)
    # ------------------------------------------------------------------
    def _halt(self, now: float) -> List[RequestRecord]:
        """Kill this replica: abort in-flight work, drain its queues.

        Returns every orphaned (admitted but unfinished) record with its
        scheduling state reset, so the cluster layer can re-route the
        batch as fresh arrivals; ``arrival_s`` is untouched, so measured
        latency spans the failure.  Cumulative worker charges (busy
        seconds, energy) stay where they were incurred — aborted work is
        real work the fleet paid for.
        """
        orphans = [
            self._in_service[rid].record
            for rid in sorted(self._in_service)
        ]
        for worker in self.workers:
            worker.current_job = None
            worker.available_at = now
        self._in_service = {}
        self._completion_buckets = {}
        self._pending_wakeups = set()
        self._idle_workers = set(w.worker_id for w in self.workers)
        orphans.extend(self._drain_queues())
        self._next_monitor_tick_s = -1.0
        self._next_snapshot_tick_s = -1.0
        self._dead = True
        self._n_expected -= len(orphans)
        orphan_rows = {record._row for record in orphans}
        self.records = [
            r for r in self.records if r._row not in orphan_rows
        ]
        for record in orphans:
            record.service_start_s = None
            record.worker_id = None
            record.model_name = None
            record.steps_run = 0
            record.enqueued_s = None
            record.decision = None
            record.degraded = False
            record.degrade_k_steps = 0
            record.degrade_source = None
            record.replica_id = None
        return orphans

    def _drain_queues(self) -> List[RequestRecord]:
        """Remove and return every queued record (subclasses override)."""
        return []

    def _restart(self, now: float, cache_state=None) -> None:
        """Bring a halted replica back online at ``now``.

        A reboot loses resident models — each worker pays its model load
        on the first post-restart job, which is exactly the cold-start
        cost the recovery-latency metric measures.  ``cache_state`` (a
        snapshot taken before the kill) warm-restores the semantic
        cache; None rejoins cold.
        """
        self._dead = False
        for worker in self.workers:
            worker.current_job = None
            worker.model_name = None
            worker.available_at = max(worker.available_at, now)
        self._in_service = {}
        self._completion_buckets = {}
        self._pending_wakeups = set()
        self._idle_workers = set(
            w.worker_id for w in self.workers if w.is_idle(now)
        )
        self._on_restart(now, cache_state)

    def _on_restart(self, now: float, cache_state) -> None:
        """Policy-state rebuild hook after :meth:`_restart`."""


def clear_hotpath_memos(space: Optional[SemanticSpace] = None) -> None:
    """Reset every process-wide fast-path memo to a cold state.

    Benchmarks call this before a cold-start measurement; correctness
    never depends on it (every memoized value is pure in its key).
    """
    from repro._rng import directions
    from repro.diffusion import model as _model
    from repro.embedding import image_encoder as _image_encoder
    from repro.embedding import text_encoder as _text_encoder

    directions.clear()
    _model.clear_model_memos()
    _text_encoder._EMBED_MEMO.clear()
    _image_encoder._EMBED_MEMO.clear()
    if space is not None:
        space.mixture_cache.clear()


class MoDMSystem(BaseServingSystem):
    """The paper's serving system (Fig. 4)."""

    name = "modm"

    def __init__(
        self,
        space: SemanticSpace,
        config: Optional[MoDMConfig] = None,
        selector: Optional[KSelector] = None,
    ):
        config = config or MoDMConfig()
        super().__init__(
            space,
            config.cluster,
            seed=config.seed,
            store_images=config.store_images,
            image_id_len_cap=config.image_id_len_cap,
            journal=config.journal,
        )
        self.config = config
        self._large_spec = get_model(config.large_model)
        self._small_specs = [get_model(m) for m in config.small_models]

        retrieval: RetrievalPolicy
        if config.retrieval == "text-to-image":
            retrieval = TextToImageRetrieval(space)
        else:
            retrieval = TextToTextRetrieval(space)
        self.cache: VectorCache = make_image_cache(
            capacity=config.cache_capacity,
            embed_dim=retrieval.embed_dim,
            policy=config.cache_policy,
            backend=config.retrieval_backend,
            ann=IVFParams(
                nlist=config.ann_nlist,
                nprobe=config.ann_nprobe,
                train_min=config.ann_train_min,
                seed=config.seed,
            ),
            tiering=config.cache_tiering,
        )
        if hasattr(self.cache, "on_tier_event"):
            # Tiered cache: journal promotions/demotions.  The callback
            # reads the journal owner at fire time, so it survives the
            # fleet rebinding the replica on every run and restore.
            self.cache.on_tier_event = self._journal_tier_event
        base_selector = selector or modm_default_selector()
        if config.threshold_shift:
            base_selector = base_selector.shifted(config.threshold_shift)
        self.scheduler = RequestScheduler(
            cache=self.cache,
            retrieval=retrieval,
            selector=base_selector,
            stats=self.stats,
            admission=config.cache_admission,
            large_model_name=self._large_spec.name,
            embed_latency_s=config.embed_latency_s,
        )
        self.monitor = GlobalMonitor(
            MonitorConfig(
                mode=config.monitor_mode,
                period_s=config.monitor_period_s,
                window_s=config.monitor_window_s,
                use_pid=config.use_pid,
            ),
            large_model=self._large_spec,
            small_models=self._small_specs,
            gpu_name=config.cluster.gpu_name,
            n_workers=config.cluster.n_workers,
        )
        self._slo_edf = False
        self._degrade_selector: Optional[KSelector] = None
        if config.slo is not None:
            self._install_slo_gate(config.slo, self._large_spec)
            self._slo_edf = config.slo.edf
            # The degrade cascade re-thresholds miss candidates through a
            # more permissive selector (lower similarity bar, smaller k).
            self._degrade_selector = base_selector.shifted(
                -config.slo.degrade_threshold_shift
            )
        self.allocations: List[AllocationEvent] = []
        self._miss_queue = _ReadyQueue(edf=self._slo_edf)
        self._hit_queue = _ReadyQueue(edf=self._slo_edf)
        # Queued hit-path work in full-generation equivalents, maintained
        # incrementally for O(1) admission-time wait estimates (only when
        # the SLO gate is active).
        self._hit_backlog_frac = 0.0

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm_cache(
        self, prompts: Sequence[Prompt], seed: str = "warmup"
    ) -> None:
        """Pre-populate the cache with large-model generations (§6).

        Bit-identical to generating and admitting one prompt at a time:
        no warm image depends on another (each image's content is pure
        in its own keyed draws, and the cache only receives the images),
        so each chunk of prompts is generated as one batch
        (:meth:`~repro.diffusion.model.DiffusionModelSim.generate_chunks`),
        embedded as one batch, and inserted in prompt order.  Serving
        cannot batch this way: a request's decision reads the cache its
        predecessors filled.
        """
        sim = self.model_sim(self.warm_model())
        for chunk, images in sim.generate_chunks(prompts, seed=seed):
            self.scheduler.admit_batch(chunk, images, now=0.0)

    def warm_model(self) -> str:
        return self._large_spec.name

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def _reset_runtime(self) -> None:
        super()._reset_runtime()
        edf = getattr(self, "_slo_edf", False)
        self._miss_queue = _ReadyQueue(edf=edf)
        self._hit_queue = _ReadyQueue(edf=edf)
        self._hit_backlog_frac = 0.0
        # All workers start targeted at the large model; kept in sync by
        # _apply_allocation so SLO admission never scans the worker list.
        self._n_large_workers = self._cluster.n_workers
        self.allocations = []
        if hasattr(self, "monitor"):
            self.monitor.reset()
            # Restore the configured pool size: a previous cluster run's
            # autoscaler may have resized the monitor mid-run.
            self.monitor.resize(self._cluster.n_workers)
            # All workers start on the large model.
            for worker in self.workers:
                worker.target_model = self._large_spec.name
        if hasattr(self, "scheduler"):
            self.scheduler.bind_stats(self.stats)

    def _on_run_start(self) -> None:
        super()._on_run_start()
        self._schedule_monitor_tick()

    def _schedule_monitor_tick(self) -> None:
        # Explicit ``now + period`` (not ``schedule_in``, which computes
        # the same sum) so the marker and the scheduled time are the same
        # float — the tick-dedup compare below is exact.
        when = self.loop.now + self.monitor.config.period_s
        self._next_monitor_tick_s = when
        self.loop.schedule(when, self._monitor_tick)

    def _monitor_tick(self, now: float) -> None:
        if now != self._next_monitor_tick_s:
            return  # superseded: the replica was halted since scheduling
        if self.all_done:
            return
        window = self.stats.window(now, self.monitor.config.window_s)
        hit_backlog_workload = sum(
            self._hit_work_frac(record) for record in self._hit_queue
        )
        slo_pressure = 0.0
        if (
            self._slo_gate is not None
            and self._slo_gate.policy.monitor_pressure
        ):
            slo_pressure = self.stats.slo_window(
                now, self.monitor.config.window_s
            ).pressure
        allocation = self.monitor.allocate(
            window,
            miss_backlog=len(self._miss_queue),
            hit_backlog_workload=hit_backlog_workload,
            slo_pressure=slo_pressure,
        )
        self._apply_allocation(allocation, now)
        self._schedule_monitor_tick()
        self._dispatch(now)

    @staticmethod
    def _hit_work_frac(record: RequestRecord) -> float:
        """Hit-queue work of one record, in full-generation equivalents."""
        if record.degraded:
            return 1.0 - record.degrade_k_steps / REFERENCE_TOTAL_STEPS
        if record.decision is None:
            return 0.0
        return 1.0 - record.decision.skip_fraction

    def _journal_tier_event(
        self, now: float, kind: str, slot: int, entry_id: int
    ) -> None:
        """Tiered-cache hook: journal a promotion/demotion.

        Tier moves never change retrieval results (hot rows are exact
        copies of cold rows), but they do change the modelled retrieval
        latency, so the journal records them for replay audits.
        """
        if self._journal_owner is not None:
            self._journal_row(now, JournalKind[kind.upper()], entry_id, slot)

    def _apply_allocation(self, allocation: Allocation, now: float) -> None:
        if self._journal_owner is not None:
            self._journal_row(
                now, JournalKind.ALLOC, allocation.n_large, allocation.n_small
            )
        self.allocations.append(
            AllocationEvent(
                time_s=now,
                n_large=allocation.n_large,
                n_small=allocation.n_small,
                small_model=allocation.small_model,
            )
        )
        self._n_large_workers = allocation.n_large
        # Minimal-switch assignment: workers already (heading) large keep
        # the large role first.
        large_name = self._large_spec.name
        ranked = sorted(
            self.workers,
            key=lambda w: (w.effective_model() != large_name, w.worker_id),
        )
        for i, worker in enumerate(ranked):
            if i < allocation.n_large:
                worker.target_model = large_name
            else:
                worker.target_model = allocation.small_model

    def _handle_arrival(self, record: RequestRecord, now: float) -> None:
        self._handle_arrivals([record], now)

    def _handle_arrivals(
        self, records: Sequence[RequestRecord], now: float
    ) -> None:
        # Same-tick arrivals embed and score as one matrix-matrix product.
        gate = self._slo_gate
        decisions = self.scheduler.decide_batch(
            [record.prompt for record in records],
            now,
            keep_candidates=gate is not None and gate.policy.degrade,
        )
        for record, decision in zip(records, decisions):
            record.decision = decision
            record.enqueued_s = now + decision.scheduler_latency_s
            if gate is not None:
                self._slo_admit(record, now)
                if record.shed:
                    self._register_shed(record)
                    continue
            if decision.hit or record.degraded:
                self._push_hit(record, now)
            else:
                self._miss_queue.push(record, now)
            self._schedule_queue_dispatch(record)

    # ------------------------------------------------------------------
    # SLO admission (gate active only)
    # ------------------------------------------------------------------
    def _slo_admit(self, record: RequestRecord, now: float) -> None:
        """Assign the deadline and run accept/degrade/shed for one arrival.

        Path estimates are deliberately simple and deterministic: queued
        work ahead of this request over the effective parallelism of the
        serving path, using the monitor's current worker split and small
        model.  Model-switch load times are ignored (they are one-off
        costs the PID damping already bounds).
        """
        gate = self._slo_gate
        gate.assign(record)
        decision = record.decision
        gpu = self._gpu.name
        large = self._large_spec
        small = get_model(self.monitor.current_small)
        # len(self.workers) tracks autoscaler transfers; equal to the
        # static cluster size whenever the cluster layer is not in play.
        n_small = max(0, len(self.workers) - self._n_large_workers)
        n_large = max(1, self._n_large_workers)
        small_full_s = small.service_time_s(gpu, small.total_steps)
        if n_small > 0:
            hit_wait = self._hit_backlog_frac * small_full_s / n_small
        else:
            # All-large allocation: hit-path work cannot start until the
            # next monitor tick can grant a small worker (under pressure
            # it will), so charge up to one period plus the backlog on
            # that single future worker — no phantom capacity *now*.
            hit_wait = (
                self.monitor.config.period_s
                + self._hit_backlog_frac * small_full_s
            )

        if decision.hit:
            skipped = scale_k_steps(decision.k_steps, small.total_steps)
            primary = PathEstimate(
                name="small-refine",
                wait_s=hit_wait,
                service_s=small.service_time_s(
                    gpu, small.total_steps - skipped
                ),
            )
            gate.admit(record, now, primary)
            return  # hits already ride the fast path; never degraded
        large_service = large.service_time_s(gpu, large.total_steps)
        primary = PathEstimate(
            name="large",
            wait_s=len(self._miss_queue) * large_service / n_large,
            service_s=large_service,
        )
        degrade_k = 0
        degrade_source = None
        if (
            self._degrade_selector is not None
            and decision.candidate_image is not None
        ):
            k = self._degrade_selector.decide(
                decision.candidate_similarity
            )
            if k is not None:
                degrade_k = k
                degrade_source = decision.candidate_image
        if degrade_source is not None:
            skipped = scale_k_steps(degrade_k, small.total_steps)
            fallback = PathEstimate(
                name="small-refine-degraded",
                wait_s=hit_wait,
                service_s=small.service_time_s(
                    gpu, small.total_steps - skipped
                ),
                degraded=True,
            )
        else:
            fallback = PathEstimate(
                name="small-full-degraded",
                wait_s=hit_wait,
                service_s=small_full_s,
                degraded=True,
            )
        verdict = gate.admit(record, now, primary, (fallback,))
        if verdict.action == "degrade":
            record.degraded = True
            record.degrade_k_steps = degrade_k
            record.degrade_source = degrade_source

    def _push_hit(self, record: RequestRecord, now: float) -> None:
        self._hit_queue.push(record, now)
        if self._slo_gate is not None:
            self._hit_backlog_frac += self._hit_work_frac(record)

    def _pop_hit(self, now: float) -> Optional[RequestRecord]:
        record = self._hit_queue.pop(now)
        if record is not None and self._slo_gate is not None:
            self._hit_backlog_frac = max(
                0.0, self._hit_backlog_frac - self._hit_work_frac(record)
            )
        return record

    def _has_ready_work(self, now: float) -> bool:
        return self._miss_queue.has_ready(now) or self._hit_queue.has_ready(
            now
        )

    def queue_depth(self) -> int:
        return len(self._miss_queue) + len(self._hit_queue)

    def _default_worker_model(self) -> Optional[str]:
        # Misses have priority (§4.2); the next monitor tick rebalances.
        return self._large_spec.name

    def _on_worker_count_changed(self) -> None:
        self.monitor.resize(max(1, len(self.workers)))
        # Recount from worker targets: adoption/release changes both the
        # pool and its large/small composition (an adopted worker arrives
        # targeted at the large model), and the SLO path estimates read
        # this split between monitor ticks.
        large = self._large_spec.name
        self._n_large_workers = sum(
            1
            for worker in self.workers
            if worker.effective_model() == large
        )

    def _drain_queues(self) -> List[RequestRecord]:
        orphans = list(self._miss_queue)
        orphans.extend(self._hit_queue)
        edf = self._slo_edf
        self._miss_queue = _ReadyQueue(edf=edf)
        self._hit_queue = _ReadyQueue(edf=edf)
        self._hit_backlog_frac = 0.0
        return orphans

    def _on_restart(self, now: float, cache_state) -> None:
        edf = self._slo_edf
        self._miss_queue = _ReadyQueue(edf=edf)
        self._hit_queue = _ReadyQueue(edf=edf)
        self._hit_backlog_frac = 0.0
        self.monitor.reset()
        self.monitor.resize(max(1, len(self.workers)))
        large = self._large_spec.name
        for worker in self.workers:
            worker.target_model = large
        self._n_large_workers = len(self.workers)
        if cache_state is not None:
            self.cache.restore(cache_state)
        else:
            self.cache.clear()
        self._schedule_monitor_tick()
        if (
            self._journal_owner is not None
            and self._journal_config.snapshot_period_s > 0
        ):
            self._schedule_snapshot_tick()

    def _next_work(
        self, worker: GPUWorker, now: float
    ) -> Optional[_WorkItem]:
        role = worker.effective_model() or self._large_spec.name
        if role == self._large_spec.name:
            record = self._miss_queue.pop(now)
            if record is not None:
                return _WorkItem(
                    record=record,
                    model=self.model_sim(self._large_spec.name),
                    steps=self._large_spec.total_steps,
                    skipped_steps=0,
                )
            # Large workers may refine hits when no misses wait (§4.2).
            record = self._pop_hit(now)
            if record is not None:
                return self._refine_item(record, self._large_spec)
            return None
        # Small workers exclusively refine cache hits (§4.2).
        record = self._pop_hit(now)
        if record is not None:
            return self._refine_item(record, get_model(role))
        return None

    def _refine_item(
        self, record: RequestRecord, spec: ModelSpec
    ) -> _WorkItem:
        """Hit-queue work item: refine a hit, or serve a degraded miss.

        Degraded requests (SLO cascade) either refine the miss's nearest
        cache candidate with the permissive-selector ``k`` or, with no
        usable candidate, run a full generation on the hit-path model —
        degraded service, but within deadline.
        """
        if record.degraded:
            if record.degrade_source is not None:
                skipped = scale_k_steps(
                    record.degrade_k_steps, spec.total_steps
                )
                return _WorkItem(
                    record=record,
                    model=self.model_sim(spec.name),
                    steps=spec.total_steps - skipped,
                    skipped_steps=skipped,
                    source_image=record.degrade_source,
                )
            if spec.name == self._large_spec.name:
                # An idle large worker drained this candidate-less
                # degraded miss: the service it gets is a full large
                # generation — the primary path after all, so it no
                # longer counts as degraded.
                record.degraded = False
            return _WorkItem(
                record=record,
                model=self.model_sim(spec.name),
                steps=spec.total_steps,
                skipped_steps=0,
            )
        decision = record.decision
        assert decision is not None and decision.retrieved_image is not None
        skipped = scale_k_steps(decision.k_steps, spec.total_steps)
        return _WorkItem(
            record=record,
            model=self.model_sim(spec.name),
            steps=spec.total_steps - skipped,
            skipped_steps=skipped,
            source_image=decision.retrieved_image,
        )

    def _on_complete_image(self, record, image, now: float) -> None:
        self.scheduler.admit(record.prompt, image, now)

    def _build_report(self, trace, energy) -> ServingReport:
        report = super()._build_report(trace, energy)
        report.allocations = list(self.allocations)
        report.cache_size = len(self.cache)
        report.cache_storage_bytes = self.cache.storage_bytes()
        return report
