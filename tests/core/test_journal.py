"""Event journal, state snapshots, and replay determinism."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro._rng import rng_for, unit_vector
from repro.core.cache import IVFParams, VectorCache
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    JournalConfig,
    MoDMConfig,
)
from repro.core.journal import (
    KIND_NAMES,
    EventJournal,
    JournalKind,
    JournalReplayer,
    SnapCounter,
    STORE_CHUNK_ROWS,
    Snapshot,
    StoreChunks,
)
from repro.core.cluster_router import modm_cluster
from repro.core.request import (
    COLUMNS,
    Decision,
    RequestRecord,
    RequestStore,
)
from repro.core.serving import MoDMSystem
from repro.core.tiering import ColdExtentError, TieredCacheConfig
from repro.workloads import DiffusionDBConfig, diffusiondb_trace


_COLUMN_NAMES = ("_time", "_kind", "_a", "_b", "_x", "_owner")


def _owned(journal, owner):
    """The rows of ``journal`` that ``owner`` wrote, as a journal."""
    return EventJournal.from_entries(
        [row for row in journal.entries() if row[5] == owner]
    )


def _config(journal=None, seed="journal-tests", n_workers=4):
    return MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=n_workers),
        cache_capacity=200,
        small_models=("sdxl",),
        seed=seed,
        journal=journal,
    )


def _trace(space, n=100, rate=40.0, seed="journal-trace"):
    return diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=n, request_rate_per_min=rate, seed=seed
        ),
    )


def _run_payload(report):
    """Everything a bit-identical pair of runs must agree on."""
    times = np.sort(report.completion_times())
    decisions = [
        (r.request_id, r.decision.hit, r.decision.k_steps)
        for r in report.records
        if r.decision is not None
    ]
    return (
        report.n_completed,
        report.hit_rate,
        hashlib.sha256(times.tobytes()).hexdigest(),
        decisions,
    )


# ----------------------------------------------------------------------
# SnapCounter
# ----------------------------------------------------------------------
class TestSnapCounter:
    def test_matches_itertools_count(self):
        counter = SnapCounter()
        assert [next(counter) for _ in range(4)] == [0, 1, 2, 3]
        assert counter.value == 4

    def test_position_restores_exactly(self):
        counter = SnapCounter()
        for _ in range(7):
            next(counter)
        resumed = SnapCounter(counter.value)
        assert next(resumed) == next(counter)

    def test_iter_protocol(self):
        counter = SnapCounter(5)
        assert iter(counter) is counter
        assert list(zip(range(3), counter)) == [(0, 5), (1, 6), (2, 7)]


# ----------------------------------------------------------------------
# EventJournal
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_append_and_entries_round_trip(self):
        journal = EventJournal()
        rows = [
            (0.5, JournalKind.ARRIVAL, 0, 3, 0.0, -1),
            (1.0, JournalKind.DECISION, 1, 25, 0.93, 2),
            (2.5, JournalKind.COMPLETE, 1, 0, 0.0, 0),
        ]
        for time, kind, a, b, x, owner in rows:
            journal.append(time, kind, a=a, b=b, x=x, owner=owner)
        assert len(journal) == 3
        assert journal.entries() == rows
        assert journal.entries(start=2) == rows[2:]

    def test_owner_defaults_to_the_fleet(self):
        journal = EventJournal()
        journal.append(1.0, JournalKind.ARRIVAL, a=4, b=2)
        assert journal.entries() == [
            (1.0, JournalKind.ARRIVAL, 4, 2, 0.0, -1)
        ]

    def test_from_entries_preserves_digest(self):
        journal = EventJournal()
        for i in range(20):
            journal.append(
                float(i), i % len(KIND_NAMES), a=i, x=0.5 * i, owner=i % 3 - 1
            )
        clone = EventJournal.from_entries(journal.entries())
        assert clone.digest() == journal.digest()
        assert len(clone) == len(journal)

    def test_digest_tracks_content(self):
        one, two = EventJournal(), EventJournal()
        one.append(1.0, JournalKind.ARRIVAL, a=1)
        two.append(1.0, JournalKind.ARRIVAL, a=1)
        assert one.digest() == two.digest()
        two.append(2.0, JournalKind.COMPLETE, a=1)
        assert one.digest() != two.digest()

    def test_digest_and_divergence_cover_the_owner(self):
        one, two = EventJournal(), EventJournal()
        one.append(1.0, JournalKind.COMPLETE, a=1, owner=0)
        two.append(1.0, JournalKind.COMPLETE, a=1, owner=1)
        assert one.digest() != two.digest()
        assert one.diverges_at(two) == 0

    def test_growth_beyond_initial_capacity(self):
        journal = EventJournal(initial=8)
        for i in range(100):
            journal.append(float(i), JournalKind.COMPLETE, a=i)
        assert len(journal) == 100
        assert journal.entries()[99] == (
            99.0, JournalKind.COMPLETE, 99, 0, 0.0, -1
        )

    def test_kind_counts(self):
        journal = EventJournal()
        journal.append(0.0, JournalKind.ARRIVAL)
        journal.append(1.0, JournalKind.DECISION, owner=0)
        journal.append(1.5, JournalKind.DECISION, owner=1)
        assert journal.kind_counts() == {"arrival": 1, "decision": 2}


# ----------------------------------------------------------------------
# Journaling is behavior-neutral
# ----------------------------------------------------------------------
class TestJournalKind:
    # The kind column is int8 and every committed golden digest covers
    # it, so these values are wire format: frozen forever.
    PINNED = {
        "ARRIVAL": 0,
        "DECISION": 1,
        "DISPATCH": 2,
        "COMPLETE": 3,
        "SHED": 4,
        "ALLOC": 5,
        "SNAPSHOT": 6,
        "ROUTE": 7,
        "KILL": 8,
        "RESTART": 9,
        "TRANSFER": 10,
        "PROMOTE": 11,
        "DEMOTE": 12,
        "MIGRATE": 13,
    }

    def test_values_are_pinned(self):
        assert {k.name: int(k) for k in JournalKind} == self.PINNED

    def test_kind_names_mirror_the_enum(self):
        assert KIND_NAMES == tuple(
            k.name.lower() for k in JournalKind
        )
        assert len(KIND_NAMES) == len(self.PINNED)

    def test_int8_round_trip(self):
        # The journal stores kinds in an int8 column; every member must
        # survive the narrowing and come back as the same member.
        for kind in JournalKind:
            assert JournalKind(int(np.int8(kind))) is kind

    def test_members_are_ints_for_journal_append(self):
        journal = EventJournal()
        journal.append(1.0, JournalKind.MIGRATE, a=2, b=30, x=1.0)
        assert journal.entries() == [(1.0, 13, 2, 30, 1.0, -1)]
        assert journal.kind_counts() == {"migrate": 1}


class TestJournalNeutrality:
    def test_journal_off_by_default(self, space):
        system = MoDMSystem(space, _config())
        assert system._solo_fleet().journal is None
        system.run(_trace(space, n=20))
        assert system._fleet.journal is None
        assert system._journal_owner is None
        assert system.snapshots == []

    def test_journal_on_is_bit_identical(self, space):
        trace = _trace(space)
        plain = MoDMSystem(space, _config())
        journaled = MoDMSystem(
            space, _config(journal=JournalConfig(snapshot_period_s=60.0))
        )
        plain_report = plain.run(trace)
        journaled_report = journaled.run(trace)
        assert _run_payload(plain_report) == _run_payload(
            journaled_report
        )
        # ... and the journaled run actually recorded its path: the
        # engine's rows (owner 0) and its fleet's (owner -1), one fleet
        # ARRIVAL and ROUTE row per replica ARRIVAL row, and one SNAPSHOT
        # row of each owner per capture.
        journal = journaled._fleet.journal
        counts = _owned(journal, 0).kind_counts()
        assert counts["arrival"] > 0
        assert counts["decision"] == len(trace)
        assert counts["complete"] == journaled_report.n_completed
        assert counts["snapshot"] == len(journaled.snapshots)
        assert journaled.snapshots
        assert _owned(journal, -1).kind_counts() == {
            "arrival": counts["arrival"],
            "route": counts["arrival"],
            "snapshot": len(journaled.snapshots),
        }
        assert len(journal) == sum(
            len(_owned(journal, owner)) for owner in (-1, 0)
        )


# ----------------------------------------------------------------------
# Snapshot capture / restore / resume
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def test_restore_and_resume_is_bit_identical(self, space):
        trace = _trace(space)
        journal = JournalConfig(snapshot_period_s=45.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight_payload = _run_payload(straight.run(trace))
        digest = straight._fleet.journal.digest()
        assert len(straight.snapshots) >= 2

        snapshot = straight.snapshots[len(straight.snapshots) // 2]
        resumed = MoDMSystem(space, _config(journal=journal))
        snapshot.restore(resumed)
        resumed_payload = _run_payload(resumed.resume(trace))
        assert resumed_payload == straight_payload
        assert resumed._fleet.journal.digest() == digest

    def test_every_snapshot_resumes_identically(self, space):
        trace = _trace(space, n=60)
        journal = JournalConfig(snapshot_period_s=60.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight_payload = _run_payload(straight.run(trace))
        for snapshot in straight.snapshots:
            resumed = MoDMSystem(space, _config(journal=journal))
            snapshot.restore(resumed)
            assert _run_payload(resumed.resume(trace)) == (
                straight_payload
            )

    def test_fingerprint_rejects_config_mismatch(self, space):
        journal = JournalConfig(snapshot_period_s=60.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight.run(_trace(space, n=40))
        snapshot = straight.snapshots[0]
        other_seed = MoDMSystem(
            space, _config(journal=journal, seed="other")
        )
        with pytest.raises(ValueError, match="configuration mismatch"):
            snapshot.restore(other_seed)

    def test_short_cold_extent_raises_before_any_state(self, space):
        config = replace(
            _config(journal=JournalConfig(snapshot_period_s=60.0)),
            retrieval_backend="ivf",
            cache_tiering=TieredCacheConfig(cold_dir=None),
        )
        straight = MoDMSystem(space, config)
        straight.run(_trace(space, n=60))
        snapshot = straight.snapshots[-1]
        fresh = MoDMSystem(space, config)
        with pytest.raises(ColdExtentError, match="snapshot needs"):
            snapshot.restore(fresh)
        assert fresh.loop.now == 0.0
        assert fresh.records == [] and fresh._solo_fleet().journal is None
        assert len(fresh.cache) == 0 and fresh.cache.cold_store.rows == 0

    def test_lone_engine_and_fleet_snapshots_do_not_cross(self, space):
        # A lone engine runs as a one-replica fleet, so its snapshot is a
        # fleet snapshot too; the fingerprint still keeps it to an
        # identically built lone engine, and a fleet's to such a fleet.
        config = _config(journal=JournalConfig(snapshot_period_s=45.0))
        trace = _trace(space)
        engine = MoDMSystem(space, config)
        engine_payload = _run_payload(engine.run(trace))
        routing = ClusterRoutingConfig(
            n_replicas=2, journal=True, snapshot_period_s=45.0
        )
        fleet = modm_cluster(space, config, routing)
        fleet.run(trace)
        assert engine.snapshots and fleet.snapshots

        fresh_fleet = modm_cluster(space, config, routing)
        with pytest.raises(ValueError, match="configuration mismatch"):
            engine.snapshots[0].restore(fresh_fleet)
        assert fresh_fleet.loop.now == 0.0
        assert fresh_fleet.records == [] and fresh_fleet.journal is None
        assert all(r.records == [] for r in fresh_fleet.replicas)

        fresh_engine = MoDMSystem(space, config)
        with pytest.raises(ValueError, match="configuration mismatch"):
            fleet.snapshots[0].restore(fresh_engine)
        assert fresh_engine.loop.now == 0.0
        assert fresh_engine.records == []
        assert fresh_engine._solo_fleet().journal is None
        assert fresh_engine.snapshots == []

        # The matching pair restores and finishes the run exactly.
        engine.snapshots[0].restore(fresh_engine)
        assert _run_payload(fresh_engine.resume(trace)) == engine_payload


# ----------------------------------------------------------------------
# Request-store capture: chunks shared between captures
# ----------------------------------------------------------------------
_PAYLOAD_LISTS = ("prompts", "decisions")
_PAYLOAD_DICTS = ("images", "degrade_sources", "rejections")


def _live_columns(store):
    return {name: store.column(name).tobytes() for name in COLUMNS}


def _full_copy(store):
    """Everything a capture must reproduce: live column bytes, and the
    payload objects row by row (compared by identity)."""
    return (
        _live_columns(store),
        {name: list(getattr(store, name)) for name in _PAYLOAD_LISTS},
        {name: dict(getattr(store, name)) for name in _PAYLOAD_DICTS},
        (list(store._slo_names), list(store._model_names)),
    )


def _assert_equals_copy(store, copy):
    columns, lists, dicts, names = copy
    assert _live_columns(store) == columns
    assert store._cap == max(1, len(store))
    for name, items in lists.items():
        mine = getattr(store, name)
        assert len(mine) == len(items)
        assert all(a is b for a, b in zip(mine, items)), name
    for name, rows in dicts.items():
        mine = getattr(store, name)
        assert mine.keys() == rows.keys(), name
        assert all(mine[row] is value for row, value in rows.items())
    assert (store._slo_names, store._model_names) == names
    assert store._slo_codes == {s: i for i, s in enumerate(names[0])}
    assert store._model_codes == {m: i for i, m in enumerate(names[1])}


def _chunk_slots(chunks):
    """``(field, index) -> chunk`` over every chunked field."""
    slots = {
        (name, i): chunk
        for name, column in chunks.columns.items()
        for i, chunk in enumerate(column)
    }
    for name in _PAYLOAD_LISTS + _PAYLOAD_DICTS:
        for i, chunk in enumerate(getattr(chunks, name)):
            slots[(name, i)] = chunk
    return slots


@pytest.fixture(scope="module")
def fleet_captures(space):
    """A 4-replica fleet run's 8 snapshots, each beside a full copy of
    the fleet store taken at its capture."""
    trace = _trace(space, n=2000, seed="journal-chunks")
    span = trace.requests[-1].arrival_s
    fleet = modm_cluster(
        space,
        _config(
            journal=JournalConfig(snapshot_period_s=span / 8),
            n_workers=16,
        ),
        ClusterRoutingConfig(
            n_replicas=4, journal=True, snapshot_period_s=span / 8
        ),
    )
    copies = []
    capture = StoreChunks.capture.__func__

    def recording(cls, store, previous=None):
        copies.append(_full_copy(store))
        return capture(cls, store, previous)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StoreChunks, "capture", classmethod(recording))
        fleet.run(trace)
    assert len(fleet.snapshots) == len(copies) == 8
    return fleet.snapshots, copies


class TestStoreChunks:
    def test_fleet_captures_share_unchanged_chunks(self, fleet_captures):
        snapshots, _copies = fleet_captures
        shared = total = 0
        for before, after in zip(snapshots, snapshots[1:]):
            old = _chunk_slots(before.clock.chunks)
            for slot, chunk in _chunk_slots(after.clock.chunks).items():
                total += 1
                shared += old.get(slot) is chunk
        assert shared >= 0.7 * total, (shared, total)

    def test_shared_chunks_reject_writes(self, fleet_captures):
        snapshots, _copies = fleet_captures
        before, after = (s.clock.chunks for s in snapshots[-2:])
        old = _chunk_slots(before)
        kinds = set()
        for (name, i), chunk in _chunk_slots(after).items():
            if old.get((name, i)) is not chunk:
                continue
            kinds.add(type(chunk))
            if isinstance(chunk, np.ndarray):
                assert not chunk.flags.writeable
                with pytest.raises(ValueError):
                    chunk[0] = chunk[0]
            elif isinstance(chunk, tuple):
                with pytest.raises(TypeError):
                    chunk[0] = None
            else:
                with pytest.raises(TypeError):
                    chunk[i * STORE_CHUNK_ROWS] = None
        assert np.ndarray in kinds and tuple in kinds

    def test_each_materialized_store_equals_its_capture(
        self, fleet_captures
    ):
        snapshots, copies = fleet_captures
        for snapshot, copy in zip(snapshots, copies):
            _assert_equals_copy(snapshot.store, copy)
            for state in snapshot.replica_states:
                assert state.record_rows.dtype == np.int64
                assert not state.record_rows.flags.writeable

    def test_restoring_twice_shares_no_writable_array(
        self, fleet_captures
    ):
        snapshots, _copies = fleet_captures
        snapshot = snapshots[len(snapshots) // 2]
        first, second = snapshot.store, snapshot.store
        chunks = [
            chunk
            for column in snapshot.clock.chunks.columns.values()
            for chunk in column
        ]
        for name in COLUMNS:
            mine, theirs = getattr(first, name), getattr(second, name)
            assert mine.flags.writeable and theirs.flags.writeable
            assert not np.shares_memory(mine, theirs)
            assert not any(np.shares_memory(mine, c) for c in chunks)
        for name in _PAYLOAD_LISTS + _PAYLOAD_DICTS:
            assert getattr(first, name) is not getattr(second, name)
        first.completion_s[0] = -1.0
        first.prompts[0] = None
        assert _live_columns(second) == _live_columns(snapshot.store)
        assert second.prompts[0] is not None

    def test_growth_and_exact_bytes_between_captures(self, space):
        store = RequestStore()
        store.extend(list(_trace(space, n=300, seed="journal-grow")))
        store.arrival_s[5] = np.nan
        record = RequestRecord._view(store, 7)
        record.decision = Decision(hit=False, similarity=0.5)
        first_copy = _full_copy(store)
        first = StoreChunks.capture(store)
        # Between captures: a new row makes the last chunk partial and
        # longer; -0.0 replaces 0.0 (equal values, different bytes); an
        # equal but distinct decision replaces the old one; an image
        # lands in the last chunk.  The NaN rows (set, and the unset
        # completion times) keep their bytes.
        store.new_record(300, None, 999.0)
        store.similarity[3] = -0.0
        record.decision = Decision(hit=False, similarity=0.5)
        store.images[300] = object()
        second_copy = _full_copy(store)
        second = StoreChunks.capture(store, first)

        def shared(name, index):
            if name in COLUMNS:
                return second.columns[name][index] is (
                    first.columns[name][index]
                )
            return getattr(second, name)[index] is (
                getattr(first, name)[index]
            )

        assert not shared("similarity", 0)
        assert shared("arrival_s", 0) and shared("completion_s", 0)
        assert not shared("arrival_s", 1) and not shared("prompts", 1)
        assert shared("prompts", 0) and not shared("decisions", 0)
        assert shared("images", 0) and not shared("images", 1)
        _assert_equals_copy(second.restore(), second_copy)
        _assert_equals_copy(first.restore(), first_copy)
        # A restored store keeps growing like the live one.
        restored = second.restore()
        for grown in (restored, store):
            grown.new_record(301, None, 1000.0)
        assert _live_columns(restored) == _live_columns(store)

    def test_empty_store_restores_one_row_and_extends(self):
        clone = StoreChunks.capture(RequestStore()).restore()
        assert len(clone) == 0 and clone._cap == 1
        assert all(getattr(clone, name).shape == (1,) for name in COLUMNS)
        fresh = RequestStore()
        for store in (clone, fresh):
            store.new_record(7, None, 1.5)
            store.new_record(8, None, 2.5)
        assert _live_columns(clone) == _live_columns(fresh)

    def test_restored_store_matches_straight_and_extends(self, space):
        trace = _trace(space)
        journal = JournalConfig(snapshot_period_s=45.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight.run(trace)
        snapshot = straight.snapshots[len(straight.snapshots) // 2]
        assert snapshot.store._cap == len(snapshot.store) == len(trace)
        resumed = MoDMSystem(space, _config(journal=journal))
        snapshot.restore(resumed)
        resumed.resume(trace)
        restored = resumed.request_store
        assert _live_columns(restored) == _live_columns(
            straight.request_store
        )
        # Extending past the restored capacity grows it with the same
        # defaults a full-capacity store already holds.
        more = list(_trace(space, n=40, seed="journal-more"))
        for store in (restored, straight.request_store):
            store.extend(more)
        assert len(restored) == len(trace) + len(more)
        assert _live_columns(restored) == _live_columns(
            straight.request_store
        )
        again = StoreChunks.capture(restored).restore()
        assert again._cap == len(again) == len(restored)
        assert _live_columns(again) == _live_columns(restored)


# ----------------------------------------------------------------------
# Journal-suffix replay: the journal is a sufficient record
# ----------------------------------------------------------------------
class TestJournalSuffixReplay:
    def _straight(self, space, trace):
        journal = JournalConfig(snapshot_period_s=45.0)
        straight = MoDMSystem(space, _config(journal=journal))
        payload = _run_payload(straight.run(trace))
        assert len(straight.snapshots) >= 2
        return straight, payload

    def test_suffix_replay_is_bit_identical(self, space):
        trace = _trace(space)
        straight, payload = self._straight(space, trace)
        reference = straight._fleet.journal

        snapshot = straight.snapshots[len(straight.snapshots) // 2]
        resumed = MoDMSystem(
            space,
            _config(journal=JournalConfig(snapshot_period_s=45.0)),
        )
        # No trace timeline: the journal's ARRIVAL suffix is the only
        # source of future arrivals.
        snapshot.restore(resumed, install_timeline=False)
        replayer = JournalReplayer(resumed, reference)
        assert replayer.n_cohorts > 0
        report = replayer.replay(trace_name=trace.name)
        replayer.verify()
        assert _run_payload(report) == payload
        assert resumed._fleet.journal.digest() == (
            straight._fleet.journal.digest()
        )

    def test_replayer_requires_a_journal(self, space):
        system = MoDMSystem(space, _config())
        system.run(_trace(space, n=10))
        with pytest.raises(ValueError, match="journaled system"):
            JournalReplayer(system, EventJournal())

    def test_replayer_rejects_prefix_mismatch(self, space):
        trace = _trace(space, n=60)
        straight, _payload_ = self._straight(space, trace)
        reference = straight._fleet.journal.entries()
        snapshot = straight.snapshots[-1]
        resumed = MoDMSystem(
            space,
            _config(journal=JournalConfig(snapshot_period_s=45.0)),
        )
        snapshot.restore(resumed, install_timeline=False)
        tampered = list(reference)
        time, kind, a, b, x, owner = tampered[0]
        tampered[0] = (time, kind, a + 1, b, x, owner)
        with pytest.raises(ValueError, match="prefix mismatch"):
            JournalReplayer(resumed, EventJournal.from_entries(tampered))


    def test_verify_reports_the_first_diverging_row(self, space):
        trace = _trace(space)
        straight, _payload_ = self._straight(space, trace)
        rows = straight._fleet.journal.entries()
        snapshot = straight.snapshots[len(straight.snapshots) // 2]
        resumed = MoDMSystem(
            space,
            _config(journal=JournalConfig(snapshot_period_s=45.0)),
        )
        snapshot.restore(resumed, install_timeline=False)
        start = len(resumed._fleet.journal)
        # Tamper the payload of the first non-ARRIVAL suffix row, so the
        # replayed cohorts stay the same and only that row diverges.
        row = next(
            i for i in range(start, len(rows)) if rows[i][1] != JournalKind.ARRIVAL
        )
        time, kind, a, b, x, owner = rows[row]
        rows[row] = (time, kind, a, b, x + 1.0, owner)
        replayer = JournalReplayer(resumed, EventJournal.from_entries(rows))
        replayer.replay(trace_name=trace.name)
        with pytest.raises(ValueError, match=f"at row {row} "):
            replayer.verify()


# ----------------------------------------------------------------------
# Journal prefix: O(1), copy-on-write snapshot capture
# ----------------------------------------------------------------------
def _filled_journal(n, initial=8):
    journal = EventJournal(initial=initial)
    for i in range(n):
        journal.append(
            0.5 * i, i % len(KIND_NAMES), a=i, b=-i, x=0.25 * i, owner=i % 3 - 1
        )
    return journal


def _no_entries(self, start=0):
    raise AssertionError("capture must not build journal rows")


class TestJournalPrefix:
    def test_prefix_is_a_read_only_view(self):
        journal = _filled_journal(5)
        prefix = journal.prefix()
        assert len(prefix) == 5
        assert prefix.digest() == journal.digest()
        for name in _COLUMN_NAMES:
            column = getattr(prefix, name)
            assert not column.flags.writeable
            assert np.shares_memory(column, getattr(journal, name))
        assert journal._time.flags.writeable

    def test_appends_after_capture_leave_the_prefix_unchanged(self):
        journal = _filled_journal(5)
        prefix = journal.prefix()
        rows, digest = prefix.entries(), prefix.digest()
        # Within capacity: the live journal writes row 5 of the shared
        # arrays, outside the prefix's view.
        journal.append(99.0, JournalKind.COMPLETE, a=99)
        assert np.shares_memory(prefix._a, journal._a)
        # Across several _grow calls: the live journal moves to new
        # arrays and the prefix keeps the old ones.
        for i in range(100):
            journal.append(100.0 + i, JournalKind.DECISION, a=i)
        assert not np.shares_memory(prefix._a, journal._a)
        assert prefix.entries() == rows
        assert prefix.digest() == digest
        assert journal.entries()[:5] == rows

    def test_prefix_appends_grow_into_a_private_copy(self):
        journal = _filled_journal(5)
        prefix = journal.prefix()
        mine = prefix.prefix()
        mine.append(7.0, JournalKind.COMPLETE, a=7)
        assert mine._time.flags.writeable
        assert not np.shares_memory(mine._time, journal._time)
        assert mine.entries() == journal.entries() + [
            (7.0, JournalKind.COMPLETE, 7, 0, 0.0, -1)
        ]
        assert len(prefix) == 5 and len(journal) == 5

    def test_zero_row_prefix_accepts_appends(self):
        empty = EventJournal().prefix()
        assert len(empty) == 0
        assert empty.digest() == EventJournal().digest()
        empty.append(1.0, JournalKind.ARRIVAL, a=0, b=2)
        empty.append(2.0, JournalKind.COMPLETE, a=0)
        assert empty.entries() == [
            (1.0, JournalKind.ARRIVAL, 0, 2, 0.0, -1),
            (2.0, JournalKind.COMPLETE, 0, 0, 0.0, -1),
        ]

    def test_diverges_at(self):
        journal = _filled_journal(20)
        assert journal.diverges_at(journal.prefix()) is None
        assert journal.diverges_at(_filled_journal(12)) == 12
        assert _filled_journal(12).diverges_at(journal) == 12
        rows = journal.entries()
        time, kind, a, b, x, owner = rows[7]
        rows[7] = (time, kind, a, b, x + 1.0, owner)
        assert journal.diverges_at(EventJournal.from_entries(rows)) == 7
        rows = journal.entries()
        rows[9] = rows[9][:5] + (rows[9][5] + 1,)
        assert journal.diverges_at(EventJournal.from_entries(rows)) == 9

    def test_engine_capture_never_builds_rows(self, space, monkeypatch):
        monkeypatch.setattr(EventJournal, "entries", _no_entries)
        config = _config(journal=JournalConfig(snapshot_period_s=45.0))
        system = MoDMSystem(space, config)
        system.run(_trace(space))
        assert len(system.snapshots) >= 2
        snap = Snapshot.capture(system)
        live = system._fleet.journal
        assert len(snap.journal) == len(live)
        assert snap.journal.digest() == live.digest()
        for name in _COLUMN_NAMES:
            column = getattr(snap.journal, name)
            assert not column.flags.writeable
            assert np.shares_memory(column, getattr(live, name))

    def test_fleet_capture_never_builds_rows(self, space, monkeypatch):
        monkeypatch.setattr(EventJournal, "entries", _no_entries)
        fleet = modm_cluster(
            space,
            _config(journal=JournalConfig(snapshot_period_s=45.0)),
            ClusterRoutingConfig(
                n_replicas=2, journal=True, snapshot_period_s=45.0
            ),
        )
        fleet.run(_trace(space))
        assert len(fleet.snapshots) >= 2
        last = fleet.snapshots[-1]
        assert np.shares_memory(last.journal._kind, fleet.journal._kind)
        assert not last.journal._owner.flags.writeable
        # The one journal holds the fleet's rows and both replicas'.
        assert set(last.journal._owner.tolist()) == {-1, 0, 1}
        assert len(last.replica_states) == 2

    def test_one_snapshot_restores_into_two_systems(self, space):
        trace = _trace(space)
        journal = JournalConfig(snapshot_period_s=45.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight.run(trace)
        snapshot = straight.snapshots[len(straight.snapshots) // 2]
        rows, digest = snapshot.journal.entries(), snapshot.journal.digest()
        first = MoDMSystem(space, _config(journal=journal))
        second = MoDMSystem(space, _config(journal=journal))
        snapshot.restore(first)
        snapshot.restore(second)
        first_journal = first._fleet.journal
        second_journal = second._fleet.journal
        assert first_journal is not second_journal
        first.resume(trace)
        second.resume(trace)
        # Both appended: each holds its own grown columns now.
        first_journal = first._fleet.journal
        second_journal = second._fleet.journal
        assert first_journal.entries() == second_journal.entries()
        assert first_journal.digest() == straight._fleet.journal.digest()
        assert not np.shares_memory(first_journal._x, second_journal._x)
        assert snapshot.journal.entries() == rows
        assert snapshot.journal.digest() == digest
        assert not snapshot.journal._time.flags.writeable


# ----------------------------------------------------------------------
# Cache snapshot / restore (IVF included)
# ----------------------------------------------------------------------
def _filled_ivf_cache(n=300, dim=12):
    cache = VectorCache(
        capacity=n,
        embed_dim=dim,
        backend="ivf",
        ann=IVFParams(nlist=8, nprobe=4, train_min=64, seed="snap-ivf"),
    )
    for i in range(n):
        cache.insert(
            i, unit_vector(rng_for("snap-ivf", i), dim), now=float(i)
        )
    return cache


class TestCacheSnapshot:
    def test_ivf_round_trip_preserves_retrieval(self):
        dim = 12
        original = _filled_ivf_cache(dim=dim)
        state = original.snapshot()
        restored = VectorCache(
            capacity=300,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=8, nprobe=4, train_min=64, seed="snap-ivf"
            ),
        )
        restored.restore(state)
        assert len(restored) == len(original)
        for i in range(50):
            query = unit_vector(rng_for("snap-ivf-q", i), dim)
            entry_a, sim_a = original.retrieve(query)
            entry_b, sim_b = restored.retrieve(query)
            assert entry_a.payload == entry_b.payload
            assert sim_a == sim_b

    def test_snapshot_is_isolated_from_later_inserts(self):
        dim = 12
        cache = _filled_ivf_cache(n=100, dim=dim)
        state = cache.snapshot()
        size_then = len(cache)
        for i in range(100, 140):
            cache.insert(
                i, unit_vector(rng_for("snap-ivf", i), dim), now=float(i)
            )
        fresh = VectorCache(
            capacity=100,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=8, nprobe=4, train_min=64, seed="snap-ivf"
            ),
        )
        fresh.restore(state)
        assert len(fresh) == size_then

    def test_clear_empties_the_cache(self):
        cache = _filled_ivf_cache(n=100)
        cache.clear()
        assert len(cache) == 0
