"""Append-only event journal and engine state snapshots.

The serving engine is deterministic: given a trace and a seed, every run
is bit-identical (the golden regressions pin this).  This module exploits
that property for fault tolerance:

- :class:`EventJournal` — a compact columnar record of everything a run
  decided (arrivals, cache decisions, dispatches, completions, allocator
  and router actions), in the ``RequestStore``/``_ColumnRing`` style:
  parallel numpy arrays with amortised-doubling growth, one row per
  event.  A run keeps one journal, its fleet's: each row's ``owner``
  column names the replica that wrote it, or -1 for the fleet's own
  rows.  A sha256 :meth:`~EventJournal.digest` over the live bytes lets
  two runs prove they took the same path without diffing reports.
- :class:`Snapshot` — the full state of a running fleet, restorable
  into a fresh identically-configured fleet such that resuming the run
  is bit-identical to never having stopped.  A single engine runs as a
  one-replica fleet, so its snapshots are the same class
  (``cluster_router.ClusterSnapshot`` names it too).  It composes the
  shared-clock part :class:`ClockSnapshot` (clock, timeline cursor,
  heap rows with their owners, and the request store as
  :class:`StoreChunks`, which share unchanged chunks with the previous
  capture), one :class:`EngineSnapshot` per replica (queues, workers,
  in-flight jobs, stats windows, monitor + PID state, cache incl. IVF
  index, and the RNG-stream counters) and the fleet's router,
  autoscaler, failure state and journal prefix.
- :class:`JournalReplayer` — drives a restored run forward from a
  journal's ARRIVAL suffix alone.
- :class:`SnapCounter` — a drop-in replacement for ``itertools.count``
  whose position can be read and restored.  The engine's id streams
  (cache entry ids, image ids) seed content noise draws, so restoring a
  replica means restoring these counters exactly.

Journaling is opt-in (``ClusterRoutingConfig.journal``, a failure plan,
or, for an engine run alone, ``MoDMConfig.journal``); with it off every
code path is byte-identical to the journal-free engine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import IntEnum
from itertools import chain
from operator import attrgetter, is_
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster_router import FailureRecord, TransferEvent
    from repro.core.request import RequestStore

# NOTE: ``repro.core.request`` is imported lazily inside the functions
# that need it.  Both ``cache`` and ``diffusion.model`` import
# :class:`SnapCounter` from this module, and ``request`` transitively
# imports ``diffusion`` — a module-level import here would be circular.

# ----------------------------------------------------------------------
# Journal event kinds
# ----------------------------------------------------------------------
class JournalKind(IntEnum):
    """Named journal event kinds, and what each row's payload holds.

    Values are the journal's wire format: the ``kind`` column is int8 and
    every committed golden digest covers it, so existing values are
    frozen forever — new kinds append at the end, nothing renumbers.
    ``tests/core/test_journal.py`` pins each value explicitly.

    A row is ``(time, kind, a, b, x, owner)``.  ``owner`` is the index
    of the replica that wrote the row, or -1 for the fleet's own rows;
    an unused payload is 0 (``x``: 0.0).

    ========  =====  ================  =================  ==============
    kind      owner  a                 b                  x
    ========  =====  ================  =================  ==============
    ARRIVAL   -1     first request id  trace cohort size
    ARRIVAL   r      first request id  group routed to r
    DECISION  r      request id        hit: k; miss: -1   similarity
    DISPATCH  r      request id        worker id          steps run
    COMPLETE  r      request id        worker id
    SHED      r      request id
    ALLOC     r      large workers     small workers
    SNAPSHOT  -1     fleet completed   fleet shed
    SNAPSHOT  r      r's completed     r's shed
    ROUTE     -1     first request id  records routed
    KILL      -1     killed replica    orphans re-routed
    RESTART   -1     replica           1 warm, 0 cold
    TRANSFER  -1     worker id         receiving replica  giving replica
    PROMOTE   r      cache entry id    cache slot
    DEMOTE    r      cache entry id    cache slot
    MIGRATE   -1     adopting replica  entries adopted    dead replica
    ========  =====  ================  =================  ==============

    A fleet ARRIVAL row is a trace cohort (the replayer's input); its
    ROUTE row follows it, and a failure re-route writes a ROUTE row
    only.  ``x`` holds a replica index (``TRANSFER``, ``MIGRATE``) as
    a float.
    """

    ARRIVAL = 0  # an arrival cohort entered the fleet / a replica
    DECISION = 1  # one request's cache decision (hit k / miss)
    DISPATCH = 2  # a request started service on a worker
    COMPLETE = 3  # a request finished service
    SHED = 4  # SLO admission rejected a request
    ALLOC = 5  # the Global Monitor re-split the worker pool
    SNAPSHOT = 6  # a periodic state snapshot was marked
    ROUTE = 7  # cluster: a group of records was routed
    KILL = 8  # cluster: a replica was killed
    RESTART = 9  # cluster: a replica was restarted
    TRANSFER = 10  # cluster: the autoscaler moved a worker
    PROMOTE = 11  # tiered cache: an entry's row promoted to the hot tier
    DEMOTE = 12  # tiered cache: an entry's row demoted to cold-only
    MIGRATE = 13  # cluster: a dead replica's cache shard adopted


KIND_NAMES: Tuple[str, ...] = tuple(
    kind.name.lower() for kind in JournalKind
)


class SnapCounter:
    """``itertools.count`` with a readable, restorable position.

    The engine's id streams double as RNG streams (an image id seeds its
    content noise draw; a cache entry id keys staleness checks), so a
    restored replica must continue each stream exactly where the
    snapshot left it.  Iterator protocol matches ``count()`` — callers
    use ``next(...)`` and never notice the difference.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0) -> None:
        self.value = int(start)

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __iter__(self) -> "SnapCounter":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapCounter({self.value})"


_COLUMNS = ("_time", "_kind", "_a", "_b", "_x", "_owner")

#: A journal row: ``(time, kind, a, b, x, owner)``.
Row = Tuple[float, int, int, int, float, int]


class EventJournal:
    """Append-only columnar journal of a run's events.

    Each row is ``(time, kind, a, b, x, owner)``: the integer payloads
    ``a``/``b`` and the float payload ``x`` are kind-specific (request
    id, worker id, similarity, ... — :class:`JournalKind` lists them),
    and ``owner`` is the replica that wrote the row, or -1 for the
    fleet's own rows.  Storage follows the engine's columnar idiom:
    parallel numpy arrays, amortised doubling, no per-event objects.
    """

    __slots__ = ("_time", "_kind", "_a", "_b", "_x", "_owner", "_n")

    def __init__(self, initial: int = 1024) -> None:
        initial = max(8, int(initial))
        self._time = np.zeros(initial, dtype=np.float64)
        self._kind = np.zeros(initial, dtype=np.int8)
        self._a = np.zeros(initial, dtype=np.int64)
        self._b = np.zeros(initial, dtype=np.int64)
        self._x = np.zeros(initial, dtype=np.float64)
        self._owner = np.zeros(initial, dtype=np.int16)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self) -> None:
        # Always into fresh arrays: the old ones may back a captured
        # prefix, so growing is what makes a prefix copy-on-write.
        cap = max(8, 2 * len(self._time))
        for name in _COLUMNS:
            col = getattr(self, name)
            grown = np.zeros(cap, dtype=col.dtype)
            grown[: self._n] = col[: self._n]
            setattr(self, name, grown)

    def append(
        self,
        time: float,
        kind: int,
        a: int = 0,
        b: int = 0,
        x: float = 0.0,
        owner: int = -1,
    ) -> None:
        n = self._n
        if n == len(self._time):
            self._grow()
        self._time[n] = time
        self._kind[n] = kind
        self._a[n] = a
        self._b[n] = b
        self._x[n] = x
        self._owner[n] = owner
        self._n = n + 1

    def prefix(self) -> "EventJournal":
        """A journal over read-only views of the live rows ``[0, n)``.

        O(1): no copy and no per-row work.  Safe because the journal is
        append-only — rows below ``n`` are never written again, and
        :meth:`_grow` moves the live journal into new arrays instead of
        resizing the old ones.  The prefix is exactly full, so its own
        first append grows it into a private copy: appending to a
        prefix never writes to the columns it shares.  Snapshots keep a
        prefix, and restore installs a prefix of that, so every
        restored run appends into its own copy.
        """
        n = self._n
        clone = EventJournal.__new__(EventJournal)
        for name in _COLUMNS:
            view = getattr(self, name)[:n]
            view.flags.writeable = False
            setattr(clone, name, view)
        clone._n = n
        return clone

    def diverges_at(self, other: "EventJournal") -> Optional[int]:
        """First row where the two journals differ, ``None`` if equal.

        Rows compare by their column bytes (floats bit for bit, as the
        digest sees them).  When one journal is a strict prefix of the
        other the answer is the shorter length.
        """
        n = min(self._n, other._n)
        differs = np.zeros(n, dtype=bool)
        for name in _COLUMNS:
            mine = getattr(self, name)[:n]
            theirs = getattr(other, name)[:n]
            if mine.dtype.kind == "f":
                mine = mine.view(np.int64)
                theirs = theirs.view(np.int64)
            differs |= mine != theirs
        if differs.any():
            return int(np.argmax(differs))
        return None if self._n == other._n else n

    def entries(self, start: int = 0, stop: Optional[int] = None) -> List[Row]:
        """Rows ``[start, stop)`` (``stop`` defaults to ``n``) as plain
        ``(time, kind, a, b, x, owner)`` tuples (readable row asserts)."""
        n = self._n if stop is None else min(stop, self._n)
        return [
            (
                float(self._time[i]),
                int(self._kind[i]),
                int(self._a[i]),
                int(self._b[i]),
                float(self._x[i]),
                int(self._owner[i]),
            )
            for i in range(start, n)
        ]

    def digest(self) -> str:
        """sha256 over the live rows — two equal paths share a digest."""
        h = hashlib.sha256()
        n = self._n
        for name in _COLUMNS:
            h.update(np.ascontiguousarray(getattr(self, name)[:n]).tobytes())
        return h.hexdigest()

    def kind_counts(self) -> Dict[str, int]:
        """Event count per kind name (reporting/debugging)."""
        counts = np.bincount(
            self._kind[: self._n].astype(np.int64),
            minlength=len(KIND_NAMES),
        )
        return {
            KIND_NAMES[k]: int(counts[k])
            for k in range(len(KIND_NAMES))
            if counts[k]
        }

    @classmethod
    def from_entries(cls, entries: List[Row]) -> "EventJournal":
        journal = cls(initial=max(8, len(entries)))
        for time, kind, a, b, x, owner in entries:
            journal.append(time, kind, a, b, x, owner)
        return journal


# ----------------------------------------------------------------------
# Request-store capture: fixed-size chunks shared between captures
# ----------------------------------------------------------------------
#: Rows per request-store chunk.  Between two periodic captures only the
#: rows of requests that arrived, ran or finished change, so most chunks
#: of a long run's store are byte-identical to the previous capture's.
STORE_CHUNK_ROWS = 256

#: The chunk of a row-keyed payload dict with no rows in its range.
_NO_ROWS: Mapping[int, object] = MappingProxyType({})


def _column_chunks(
    live: np.ndarray, n: int, previous: Tuple[np.ndarray, ...]
) -> Tuple[np.ndarray, ...]:
    """Rows ``[0, n)`` of ``live`` as read-only chunks; a chunk whose
    bytes equal ``previous``'s chunk at the same index is that chunk.

    Bytes, not values, decide equality, so NaN and -0.0 rows compare
    exactly; a grown (partial) last chunk differs in length.
    """
    chunks = []
    for index, start in enumerate(range(0, n, STORE_CHUNK_ROWS)):
        data = live[start : min(n, start + STORE_CHUNK_ROWS)].tobytes()
        if index < len(previous) and previous[index].tobytes() == data:
            chunks.append(previous[index])
        else:
            chunks.append(np.frombuffer(data, dtype=live.dtype))
    return tuple(chunks)


def _list_chunks(
    live: List[object], previous: Tuple[tuple, ...]
) -> Tuple[tuple, ...]:
    """``live`` as tuples of ``STORE_CHUNK_ROWS`` items; a chunk holding
    the very objects of ``previous``'s chunk at its index is that
    chunk."""
    chunks = []
    for index, start in enumerate(range(0, len(live), STORE_CHUNK_ROWS)):
        items = live[start : start + STORE_CHUNK_ROWS]
        old = previous[index] if index < len(previous) else None
        if (
            old is not None
            and len(old) == len(items)
            and all(map(is_, items, old))
        ):
            chunks.append(old)
        else:
            chunks.append(tuple(items))
    return tuple(chunks)


def _dict_chunks(
    live: Dict[int, object],
    n_chunks: int,
    previous: Tuple[Mapping[int, object], ...],
) -> Tuple[Mapping[int, object], ...]:
    """Row-keyed ``live`` split into one read-only mapping per chunk of
    rows (rows ascending); a chunk mapping the same rows to the very
    objects of ``previous``'s chunk at its index is that chunk."""
    buckets: Dict[int, Dict[int, object]] = {}
    for row in sorted(live):
        buckets.setdefault(row // STORE_CHUNK_ROWS, {})[row] = live[row]
    chunks = []
    for index in range(n_chunks):
        rows = buckets.get(index, {})
        old = previous[index] if index < len(previous) else None
        if (
            old is not None
            and len(old) == len(rows)
            and all(old.get(row) is value for row, value in rows.items())
        ):
            chunks.append(old)
        else:
            chunks.append(MappingProxyType(rows) if rows else _NO_ROWS)
    return tuple(chunks)


@dataclass(frozen=True)
class StoreChunks:
    """A :class:`RequestStore` captured as read-only chunks of
    :data:`STORE_CHUNK_ROWS` rows.

    Each of the ``COLUMNS`` arrays, the dense ``prompts``/``decisions``
    lists and the row-keyed payload dicts is chunked on its own.  A
    capture given the owner's previous capture keeps every chunk that
    is unchanged since then *by reference* — byte-equal for columns,
    the identical objects for payloads — and copies only the rest, so
    a run's periodic snapshots together hold roughly one store plus
    what changed between them.  Chunks are immutable (read-only arrays,
    tuples, mapping proxies), so sharing them across snapshots is safe.
    Payload objects themselves are shared with the live run, as they
    are immutable once attached.

    :meth:`restore` builds a fresh, private store: columns over the
    live rows only (at least one row, the store's minimum capacity);
    rows past them hold column defaults, which a later append
    re-creates when it grows the store.
    """

    n: int
    columns: Dict[str, Tuple[np.ndarray, ...]]
    prompts: Tuple[tuple, ...]
    decisions: Tuple[tuple, ...]
    images: Tuple[Mapping[int, object], ...]
    degrade_sources: Tuple[Mapping[int, object], ...]
    rejections: Tuple[Mapping[int, object], ...]
    # Intern tables; the codes are the names' positions.
    slo_names: Tuple[str, ...]
    model_names: Tuple[str, ...]

    @classmethod
    def capture(
        cls,
        store: "RequestStore",
        previous: Optional["StoreChunks"] = None,
    ) -> "StoreChunks":
        """Chunk ``store``, sharing the chunks ``previous`` (the owner's
        last capture in this run, if any) already holds."""
        from repro.core.request import COLUMNS

        n = store._n
        n_chunks = -(-n // STORE_CHUNK_ROWS)
        old_columns = previous.columns if previous is not None else {}

        def before(name: str) -> tuple:
            return () if previous is None else getattr(previous, name)

        return cls(
            n=n,
            columns={
                name: _column_chunks(
                    getattr(store, name), n, old_columns.get(name, ())
                )
                for name in COLUMNS
            },
            prompts=_list_chunks(store.prompts, before("prompts")),
            decisions=_list_chunks(store.decisions, before("decisions")),
            images=_dict_chunks(store.images, n_chunks, before("images")),
            degrade_sources=_dict_chunks(
                store.degrade_sources, n_chunks, before("degrade_sources")
            ),
            rejections=_dict_chunks(
                store.rejections, n_chunks, before("rejections")
            ),
            slo_names=tuple(store._slo_names),
            model_names=tuple(store._model_names),
        )

    def restore(self) -> "RequestStore":
        """A fresh, private :class:`RequestStore` equal to the captured
        one over its live rows; nothing in it is shared with the
        chunks except the immutable payload objects."""
        from repro.core.request import COLUMNS, RequestStore

        n = self.n
        store = RequestStore(capacity=max(1, n))
        store._n = n
        if n:
            for name in COLUMNS:
                np.concatenate(
                    self.columns[name], out=getattr(store, name)[:n]
                )
        store.prompts = list(chain.from_iterable(self.prompts))
        store.decisions = list(chain.from_iterable(self.decisions))
        for rows, chunks in (
            (store.images, self.images),
            (store.degrade_sources, self.degrade_sources),
            (store.rejections, self.rejections),
        ):
            for chunk in chunks:
                rows.update(chunk)
        store._slo_names = list(self.slo_names)
        store._slo_codes = {s: i for i, s in enumerate(self.slo_names)}
        store._model_names = list(self.model_names)
        store._model_codes = {m: i for i, m in enumerate(self.model_names)}
        return store


# ----------------------------------------------------------------------
# Recovery state: one shared-clock part, one engine-local part
# ----------------------------------------------------------------------
# Pending heap events are captured by *kind*, not by closure: every
# event an engine (or the fleet around it) schedules is a bound method,
# so a snapshot stores ``(time, owner, kind)`` rows and restore re-binds
# them against the fresh systems.  ``owner`` indexes the fleet's
# replicas (a lone engine is owner 0); -1 is the fleet itself, for the
# kinds it names (its ticks).  Rows keep the heap's firing order, so
# re-pushing them with fresh sequence numbers reproduces it.
_HEAP_KINDS: Dict[str, str] = {
    "_complete_cohort": "complete",
    "_monitor_tick": "monitor",
    "_dispatch_wakeup": "wakeup",
    "_snapshot_tick": "snapshot",
}
# The fleet's own events (owner -1).
_FLEET_HEAP_KINDS: Dict[str, str] = {
    "_autoscale_tick": "autoscale",
    "_failure_tick": "failure",
    "_probe_tick": "probe",
    "_cluster_snapshot_tick": "snapshot",
}

_WORKER_FIELDS = (
    "worker_id",
    "model_name",
    "target_model",
    "available_at",
    "busy_seconds",
    "load_seconds",
    "energy_joules",
    "jobs_completed",
    "switches",
    "current_job",
)
_worker_tuple = attrgetter(*_WORKER_FIELDS)


def _fingerprint(system) -> str:
    """Configuration identity an engine's state refuses to cross.

    Frozen-dataclass reprs are deterministic, so ``repr(config)`` pins
    every knob (including the journal config itself); systems without a
    config fall back to the SLO gate's own fingerprint.  The worker
    count is the *configured* one (``ClusterConfig.n_workers``):
    autoscaler transfers move workers between fleet replicas mid-run,
    and a snapshot restores into systems built from the same configs,
    not the same instantaneous split.
    """
    gate = system._slo_gate
    parts = [
        type(system).__name__,
        system._seed,
        str(system._cluster.n_workers),
        gate.config_fingerprint() if gate is not None else "no-slo",
    ]
    config = getattr(system, "config", None)
    if config is not None:
        parts.append(repr(config))
    return "|".join(parts)


@dataclass
class ClockSnapshot:
    """The shared-clock part of a snapshot: what the fleet holds.

    The fleet (one replica for a lone engine) owns the event loop, the
    request store and the arrival timeline, and its replicas' pending
    events sit in that one heap.
    """

    time_s: float
    tl_idx: int
    has_timeline: bool
    heap: List[Tuple[float, int, str]]
    chunks: StoreChunks

    @classmethod
    def capture(cls, fleet) -> "ClockSnapshot":
        """The request store's unchanged chunks are shared with the
        fleet's last capture (``fleet.snapshots[-1]``), if it has one."""
        loop = fleet.loop
        heap: List[Tuple[float, int, str]] = []
        for time, _seq, callback in loop.heap_entries():
            bound = getattr(callback, "__self__", None)
            func = getattr(callback, "__func__", None)
            name = getattr(func, "__name__", "")
            if bound is fleet and name in _FLEET_HEAP_KINDS:
                heap.append((time, -1, _FLEET_HEAP_KINDS[name]))
                continue
            index = next(
                (
                    i
                    for i, replica in enumerate(fleet.replicas)
                    if replica is bound
                ),
                -1,
            )
            if name not in _HEAP_KINDS or index < 0:
                raise ValueError(
                    "cannot snapshot: pending event "
                    f"{callback!r} at t={time:.6f} is not a recognised "
                    "engine or fleet event"
                )
            heap.append((time, index, _HEAP_KINDS[name]))
        return cls(
            time_s=loop.now,
            tl_idx=loop.timeline_index,
            has_timeline=loop._tl_times is not None,
            heap=heap,
            chunks=StoreChunks.capture(
                fleet.request_store,
                fleet.snapshots[-1].clock.chunks if fleet.snapshots else None,
            ),
        )

    def restore(
        self,
        fleet,
        states: List["EngineSnapshot"],
        install_timeline: bool,
    ) -> None:
        """Install the store, every replica's state, then the clock.

        ``fleet`` and its replicas must already be reset onto one fresh
        loop.  The arrival timeline is reinstalled while that clock
        still reads zero (``schedule_timeline`` validates times against
        ``now``); then the clock and cursor jump to the capture instant.
        """
        from repro.core.request import RequestRecord

        store = fleet.request_store = self.chunks.restore()
        fleet.records = [
            RequestRecord._view(store, i) for i in range(len(store))
        ]
        for replica, state in zip(fleet.replicas, states):
            state.restore(replica, store)
        loop = fleet.loop
        if install_timeline and self.has_timeline and fleet.records:
            fleet._schedule_trace_arrivals(fleet.records)
            loop.restore_clock(self.time_s, self.tl_idx)
        else:
            loop.restore_clock(self.time_s, 0)
        engine_names = {kind: name for name, kind in _HEAP_KINDS.items()}
        fleet_names = {
            kind: name for name, kind in _FLEET_HEAP_KINDS.items()
        }
        for time, index, kind in self.heap:
            if index < 0:
                handler = getattr(fleet, fleet_names[kind])
            else:
                handler = getattr(fleet.replicas[index], engine_names[kind])
            loop.schedule(time, handler)


@dataclass
class EngineSnapshot:
    """The engine-local part of a snapshot: one fleet replica's state.

    Worker tuples are authoritative (count and ids included):
    autoscaler transfers move workers between replicas, so restore
    rebuilds the worker list from them.  A freshly reset engine's
    workers are default-constructed, so rebuilding them equals
    matching them in place.
    """

    # Store rows of the engine's records, in order (read-only).
    record_rows: np.ndarray
    n_expected: int
    n_completed: int
    n_shed: int
    dead: bool
    in_service: List[Tuple[int, int, str, int, int, Optional[object]]]
    buckets: List[Tuple[float, List[int]]]
    workers: List[tuple]
    idle_workers: List[int]
    pending_wakeups: List[float]
    next_monitor_tick_s: float
    next_snapshot_tick_s: float
    stats_state: Dict[str, Any]
    # Cache states kept for a fleet replica's warm restart.
    cache_snapshots: List[Tuple[float, object]]
    # MoDM-specific (None for other engines)
    miss_queue_state: Optional[tuple] = None
    hit_queue_state: Optional[tuple] = None
    hit_backlog_frac: float = 0.0
    n_large_workers: int = 0
    allocations: Optional[list] = None
    monitor_state: Optional[tuple] = None
    cache_state: Optional[object] = None
    model_counters: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, system) -> "EngineSnapshot":
        """Side-effect-free: no memo builds, no window trims."""
        records = system.records
        rows = np.fromiter(
            (r._row for r in records), np.int64, count=len(records)
        )
        rows.flags.writeable = False
        state = cls(
            record_rows=rows,
            n_expected=system._n_expected,
            n_completed=system._n_completed,
            n_shed=system._n_shed,
            dead=system._dead,
            in_service=[
                (
                    rid,
                    item.record._row,
                    item.model.spec.name,
                    item.steps,
                    item.skipped_steps,
                    item.source_image,
                )
                for rid, item in sorted(system._in_service.items())
            ],
            buckets=[
                (finish, [w.worker_id for w in bucket])
                for finish, bucket in sorted(
                    system._completion_buckets.items()
                )
            ],
            workers=[_worker_tuple(w) for w in system.workers],
            idle_workers=sorted(system._idle_workers),
            pending_wakeups=sorted(system._pending_wakeups),
            next_monitor_tick_s=getattr(
                system, "_next_monitor_tick_s", -1.0
            ),
            next_snapshot_tick_s=system._next_snapshot_tick_s,
            stats_state=system.stats.snapshot_state(),
            cache_snapshots=list(system._cache_snapshots),
        )
        if hasattr(system, "cache"):
            state.miss_queue_state = system._miss_queue.snapshot_state()
            state.hit_queue_state = system._hit_queue.snapshot_state()
            state.hit_backlog_frac = system._hit_backlog_frac
            state.n_large_workers = system._n_large_workers
            state.allocations = list(system.allocations)
            state.monitor_state = system.monitor.snapshot_state()
            state.cache_state = system.cache.snapshot()
        state.model_counters = {
            name: sim._counter.value
            for name, sim in sorted(system._model_sims.items())
        }
        return state

    # ------------------------------------------------------------------
    def restore(self, system, store: "RequestStore") -> None:
        """Rebuild freshly reset ``system`` into this state; its records
        are views into ``store``, the fleet's."""
        from repro.cluster.worker import GPUWorker
        from repro.core.request import RequestRecord
        from repro.core.serving import _WorkItem

        system.records = [
            RequestRecord._view(store, row)
            for row in self.record_rows.tolist()
        ]
        system._n_expected = self.n_expected
        system.workers = [
            GPUWorker(gpu=system._gpu, **dict(zip(_WORKER_FIELDS, state)))
            for state in self.workers
        ]
        by_id = system._workers_by_id = {
            w.worker_id: w for w in system.workers
        }
        system._idle_workers = set(self.idle_workers)
        system._pending_wakeups = set(self.pending_wakeups)
        system._in_service = {
            rid: _WorkItem(
                record=RequestRecord._view(store, row),
                model=system.model_sim(model_name),
                steps=steps,
                skipped_steps=skipped,
                source_image=source_image,
            )
            for rid, row, model_name, steps, skipped, source_image in (
                self.in_service
            )
        }
        system._completion_buckets = {
            finish: [by_id[wid] for wid in worker_ids]
            for finish, worker_ids in self.buckets
        }
        system._n_completed = self.n_completed
        system._n_shed = self.n_shed
        system._dead = self.dead
        system._next_monitor_tick_s = self.next_monitor_tick_s
        system._next_snapshot_tick_s = self.next_snapshot_tick_s
        system.stats.restore_state(self.stats_state)
        system._cache_snapshots = list(self.cache_snapshots)
        if hasattr(system, "cache"):
            system._miss_queue.restore_state(self.miss_queue_state, store)
            system._hit_queue.restore_state(self.hit_queue_state, store)
            system._hit_backlog_frac = self.hit_backlog_frac
            system._n_large_workers = self.n_large_workers
            system.allocations = list(self.allocations or [])
            system.monitor.restore_state(self.monitor_state)
            system.cache.restore(self.cache_state)
        for name, value in self.model_counters.items():
            system.model_sim(name)._counter.value = value


def _check_restorable(
    expected: str, fingerprint: str, engines: List, states: List
) -> None:
    """Refuse a snapshot that cannot restore exactly, before any state
    is installed.

    Raises ``ValueError`` when ``fingerprint`` (the target's) differs
    from ``expected`` (the snapshot's), and
    :class:`~repro.core.tiering.ColdExtentError` when an engine's tiered
    cache state (live, or kept for a warm restart) needs more cold rows
    than that engine's cold file holds.
    """
    if fingerprint != expected:
        raise ValueError(
            "snapshot/configuration mismatch:\n"
            f"  snapshot: {expected}\n"
            f"  system:   {fingerprint}"
        )
    from repro.core.tiering import check_cold_extents

    for engine, state in zip(engines, states):
        check_cold_extents(
            getattr(engine, "cache", None),
            [state.cache_state]
            + [snap for _, snap in state.cache_snapshots],
        )


def _fleet_of(system):
    """``system`` itself when it is a fleet, else the one-replica fleet
    that runs the engine alone."""
    solo_fleet = getattr(system, "_solo_fleet", None)
    return system if solo_fleet is None else solo_fleet()


def _fleet_fingerprint(cluster) -> str:
    """Configuration identity a snapshot refuses to cross.

    The frozen routing config's repr pins every fleet knob (policy,
    failure plan, migration policy, snapshot cadence) and each replica
    contributes its own configured fingerprint, so a snapshot only
    restores into a fleet built exactly like the one that captured it —
    a lone engine's only into an identically built lone engine.
    """
    parts = [
        type(cluster).__name__,
        cluster.name,
        repr(cluster.routing),
    ]
    parts.extend(_fingerprint(replica) for replica in cluster.replicas)
    return "|".join(parts)


@dataclass
class Snapshot:
    """Full state of a running fleet at one instant.

    The shared-clock part (:class:`ClockSnapshot`: clock, timeline
    cursor, fleet store, heap rows with replica owners), one
    :class:`EngineSnapshot` per replica, and the fleet's own state:
    router policy state, autoscaler PID state, the failure and probe
    schedules and the run's journal.  A single engine runs as a
    one-replica fleet, so its snapshots are these too: ``capture`` and
    ``restore`` take either the fleet or the lone engine.

    ``restore`` rebuilds a freshly constructed, identically configured
    system into this exact state so ``resume()`` continues
    bit-identically; with ``install_timeline=False`` the remaining
    arrivals are left out and a :class:`JournalReplayer` drives the run
    forward from the journal suffix instead.
    """

    fingerprint: str
    clock: ClockSnapshot
    expected: int
    routed_counts: List[int]
    transfers: List["TransferEvent"]
    failures: List["FailureRecord"]
    failure_schedule: Dict[float, List[int]]
    probe_schedule: Dict[float, List[int]]
    policy_state: object
    autoscaler_state: Optional[Dict[str, Any]]
    # A read-only prefix of the run's journal; None when the fleet
    # keeps none.
    journal: Optional[EventJournal]
    next_snapshot_s: float
    replica_states: List[EngineSnapshot]

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, system) -> "Snapshot":
        cluster = _fleet_of(system)
        return cls(
            fingerprint=_fleet_fingerprint(cluster),
            clock=ClockSnapshot.capture(cluster),
            expected=cluster._expected,
            routed_counts=list(cluster.routed_counts),
            transfers=list(cluster.transfers),
            failures=[replace(rec) for rec in cluster._failures],
            failure_schedule={
                t: list(v)
                for t, v in sorted(cluster._failure_schedule.items())
            },
            probe_schedule={
                t: list(v)
                for t, v in sorted(cluster._probe_schedule.items())
            },
            policy_state=cluster.router.policy.snapshot_state(),
            autoscaler_state=(
                cluster._autoscaler.snapshot_state()
                if cluster._autoscaler is not None
                else None
            ),
            journal=(
                None if cluster._journal is None
                else cluster._journal.prefix()
            ),
            next_snapshot_s=cluster._next_snapshot_s,
            replica_states=[
                EngineSnapshot.capture(replica)
                for replica in cluster.replicas
            ],
        )

    @property
    def time_s(self) -> float:
        return self.clock.time_s

    @property
    def store(self) -> "RequestStore":
        """A fresh, private copy of the captured request store."""
        return self.clock.chunks.restore()

    # ------------------------------------------------------------------
    def restore(self, system, install_timeline: bool = True) -> None:
        """Rebuild ``system`` (a fleet or a lone engine) into this
        snapshot's state.

        ``system`` must be freshly constructed with the same
        configuration (enforced via the fingerprint); any prior runtime
        state it holds is discarded.  With ``install_timeline=False``
        the clock jumps to the snapshot instant with no future arrivals
        scheduled — journal-suffix replay then re-injects them from
        ARRIVAL rows (the store already holds every trace row, so no
        trace file is needed).

        Raises (:func:`_check_restorable`) before any state is
        installed, e.g. :class:`~repro.core.tiering.ColdExtentError` for
        a tiered fleet restored into one with ``cold_dir=None``.
        """
        from repro.cluster.events import EventLoop

        cluster = _fleet_of(system)
        _check_restorable(
            self.fingerprint,
            _fleet_fingerprint(cluster),
            cluster.replicas,
            self.replica_states,
        )
        cluster.loop = EventLoop()
        cluster.routed_counts = list(self.routed_counts)
        cluster.transfers = list(self.transfers)
        cluster._failures = [replace(rec) for rec in self.failures]
        cluster._failure_schedule = {
            t: list(v) for t, v in self.failure_schedule.items()
        }
        cluster._probe_schedule = {
            t: list(v) for t, v in self.probe_schedule.items()
        }
        cluster.router.reset()
        cluster.router.policy.restore_state(self.policy_state)
        cluster._make_autoscaler()
        if self.autoscaler_state is not None:
            if cluster._autoscaler is None:
                raise ValueError(
                    "snapshot carries autoscaler state but the fleet "
                    "has no autoscaler"
                )
            cluster._autoscaler.restore_state(self.autoscaler_state)
        cluster._journal = (
            None if self.journal is None else self.journal.prefix()
        )
        cluster._next_snapshot_s = self.next_snapshot_s
        cluster.snapshots = []
        cluster._expected = self.expected
        # Replica worker ids come back from the state tuples already
        # fleet-offset (and possibly autoscaler-moved), so restore never
        # calls _offset_worker_ids.
        cluster._bind_replicas()
        self.clock.restore(cluster, self.replica_states, install_timeline)


class JournalDivergenceError(ValueError):
    """A journal is not the reference record it must reproduce.

    ``row`` is the first row where the two differ; ``replayed`` and
    ``reference`` are that row of each journal as a ``(time, kind, a,
    b, x, owner)`` tuple, or ``None`` where the journal ends before it.
    """

    def __init__(
        self,
        message: str,
        row: int,
        replayed: Optional[Row],
        reference: Optional[Row],
    ) -> None:
        super().__init__(message)
        self.row = row
        self.replayed = replayed
        self.reference = reference

    @classmethod
    def between(
        cls,
        journal: EventJournal,
        reference: EventJournal,
        row: int,
        what: str,
    ) -> "JournalDivergenceError":
        def at(rows: EventJournal):
            found = rows.entries(row, row + 1)
            return found[0] if found else None

        return cls(
            f"{what} at row {row} ({len(journal)} replayed vs "
            f"{len(reference)} reference rows)",
            row,
            at(journal),
            at(reference),
        )


class _TraceStub:
    """Stands in for a :class:`Trace` during journal-suffix replay.

    Report builders consume only ``trace.name`` — the restored store
    already holds every request row — so the replayer never needs the
    original trace object.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class JournalReplayer:
    """Drive a restored system forward from a journal suffix alone.

    The journal is a *sufficient* record of a run's inputs: runs
    bulk-load the whole trace into the request store up front, so a
    snapshot's store copy already holds every future request — the only
    thing a restored system is missing without the trace file is *when
    each arrival cohort fires*.  The fleet's ARRIVAL rows (owner -1)
    record exactly that (``(time, ARRIVAL, first_request_id,
    cohort_size)``); a replica's ARRIVAL rows record the groups routed
    to it, which the replay regenerates.  The replayer verifies the
    restored journal is a bit-exact prefix of the reference record,
    re-installs the suffix's trace cohorts as a fresh event-loop
    timeline, and lets the engine regenerate every downstream decision
    deterministically.

    ``system`` is a fleet or a lone engine (a :class:`Snapshot` restored
    into it with ``install_timeline=False``); either way the record is
    its fleet's journal, replica rows included.  The replayed cohorts
    arrive through the fleet's ``_arrive_cohort``, and everything else
    (completions, monitor/snapshot ticks, failure injections, autoscale
    periods) fires from the restored heap.
    """

    def __init__(self, system, reference: EventJournal) -> None:
        self._system = system
        self._fleet = _fleet_of(system)
        journal = self._fleet._journal
        if journal is None:
            raise ValueError(
                "journal-suffix replay needs a journaled system "
                "(enable MoDMConfig.journal / ClusterRoutingConfig"
                ".journal)"
            )
        self._start = start = len(journal)
        # A read-only prefix: later appends to the reference journal
        # cannot move the record this replay is checked against.
        self._reference = reference = reference.prefix()
        diverged = journal.diverges_at(reference)
        if diverged is not None and diverged < start:
            raise JournalDivergenceError.between(
                journal,
                reference,
                diverged,
                "journal prefix mismatch: the restored system's "
                f"{start} journal rows are not a prefix of the "
                "reference record (wrong snapshot or wrong run); first "
                "difference",
            )
        rows = start + np.flatnonzero(
            (reference._kind[start:] == JournalKind.ARRIVAL)
            & (reference._owner[start:] == -1)
        )
        self.n_cohorts = len(rows)
        self._install(
            reference._time[rows], reference._a[rows], reference._b[rows]
        )

    def _install(
        self, times: np.ndarray, first_rids: np.ndarray, counts: np.ndarray
    ) -> None:
        if not len(times):
            return
        from repro.core.request import RequestRecord

        fleet = self._fleet
        store = fleet.request_store
        rid_col = store.column("request_id")
        row_of = {int(rid_col[i]): i for i in range(len(store))}
        cohorts = []
        for first_rid, count in zip(first_rids.tolist(), counts.tolist()):
            row = row_of[first_rid]
            cohorts.append(
                [
                    RequestRecord._view(store, r)
                    for r in range(row, row + count)
                ]
            )

        def fire(now: float, i: int) -> None:
            fleet._arrive_cohort(cohorts[i], now)

        fleet.loop.schedule_timeline(times, fire)

    def replay(
        self,
        until: Optional[float] = None,
        trace_name: str = "journal-replay",
    ):
        """Run the suffix to completion; returns the system's report."""
        return self._system.resume(_TraceStub(trace_name), until=until)

    def verify(self) -> None:
        """Raise :class:`JournalDivergenceError` unless the replay
        regenerated the reference record exactly."""
        regenerated = self._fleet._journal
        diverged = regenerated.diverges_at(self._reference)
        if diverged is not None:
            raise JournalDivergenceError.between(
                regenerated,
                self._reference,
                diverged,
                "replayed journal diverged from the reference",
            )
