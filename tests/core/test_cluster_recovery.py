"""Cluster-wide crash recovery: fleet snapshots, suffix replay,
cache migration on kill, and correlated/cascading failure schedules."""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cluster_router import (
    ClusterSnapshot,
    MIGRATION_POLICY_REGISTRY,
    modm_cluster,
)
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    FailureEvent,
    FailurePlan,
    JournalConfig,
    MIGRATION_POLICIES,
    MoDMConfig,
    cascade,
    correlated_group,
)
from repro.core.journal import (
    EventJournal,
    JournalDivergenceError,
    JournalKind,
    JournalReplayer,
)
from repro.core.serving import MoDMSystem
from repro.core.tiering import ColdExtentError, TieredCacheConfig
from repro.workloads import DiffusionDBConfig, diffusiondb_trace

# 8 examples under the tier-1 profile; a sixth of the profile's budget
# when that is more (50 under ci-heavy, see tests/conftest.py).
_SLOW = settings(
    max_examples=max(8, settings.default.max_examples // 6),
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


def _modm_config(n_workers=8, journal=True):
    return MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=n_workers),
        cache_capacity=200,
        small_models=("sdxl",),
        journal=(
            JournalConfig(snapshot_period_s=40.0) if journal else None
        ),
    )


def _trace(space, n=100, seed="cluster-recovery"):
    return diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=n, request_rate_per_min=40.0, seed=seed
        ),
    )


def _owned_rows(journal, owner):
    """The rows of ``journal`` that ``owner`` wrote (-1: the fleet)."""
    return [row for row in journal.entries() if row[5] == owner]


def _payload(system, report):
    comp = system.request_store.column("completion_s")
    return {
        "n_completed": report.n_completed,
        "n_lost": report.n_lost,
        "hit_rate": report.hit_rate,
        "completion_sha": hashlib.sha256(comp.tobytes()).hexdigest(),
        "routed": tuple(report.routed),
        "cluster_journal": system.journal.digest(),
        "replica_journals": tuple(
            hashlib.sha256(
                repr(_owned_rows(system.journal, idx)).encode()
            ).hexdigest()
            for idx in range(len(system.replicas))
        ),
    }


# ----------------------------------------------------------------------
# Failure-schedule helpers (config level)
# ----------------------------------------------------------------------
class TestFailureSchedules:
    def test_correlated_group_same_instant(self):
        events = correlated_group(100.0, (1, 3), action="kill")
        assert [e.replica for e in events] == [1, 3]
        assert all(e.time_s == 100.0 for e in events)
        assert all(e.action == "kill" for e in events)

    def test_cascade_p1_staggers_by_delay(self):
        events = cascade(60.0, (0, 1, 2), delay_s=30.0, p=1.0)
        assert [(e.replica, e.time_s) for e in events] == [
            (0, 60.0),
            (1, 90.0),
            (2, 120.0),
        ]

    def test_cascade_p0_stops_after_the_first(self):
        events = cascade(60.0, (0, 1, 2), delay_s=30.0, p=0.0)
        assert [(e.replica, e.time_s) for e in events] == [(0, 60.0)]

    def test_cascade_is_seed_deterministic(self):
        a = cascade(60.0, (0, 1, 2, 3), delay_s=10.0, p=0.5, seed="x")
        b = cascade(60.0, (0, 1, 2, 3), delay_s=10.0, p=0.5, seed="x")
        assert a == b

    def test_cascade_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="p must be"):
            cascade(0.0, (0, 1), delay_s=1.0, p=1.5)

    def test_fate_group_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            FailurePlan(fate_groups=((1,),))
        with pytest.raises(ValueError, match="duplicate"):
            FailurePlan(fate_groups=((1, 1),))
        with pytest.raises(ValueError, match="n_replicas"):
            ClusterRoutingConfig(
                n_replicas=2,
                failures=FailurePlan(
                    events=(
                        FailureEvent(
                            time_s=1.0, replica=0, action="kill"
                        ),
                    ),
                    fate_groups=((0, 5),),
                ),
            )


# ----------------------------------------------------------------------
# Migration policies (pure functions)
# ----------------------------------------------------------------------
class _StubCache:
    def __init__(self, centroid):
        self._centroid = np.asarray(centroid, dtype=np.float64)

    def centroid(self):
        return self._centroid


class _StubReplica:
    def __init__(self, centroid):
        self.cache = _StubCache(centroid)


def _entry(embedding, entry_id=0):
    return (entry_id, f"payload-{entry_id}", np.asarray(embedding), 0.0)


class TestMigrationPolicies:
    def test_registry_matches_config_names(self):
        assert set(MIGRATION_POLICY_REGISTRY) == set(MIGRATION_POLICIES)

    def test_none_drops_everything(self):
        fn = MIGRATION_POLICY_REGISTRY["none"]
        assert fn([_entry([1.0, 0.0])], [0, 1], []) == []

    def test_round_robin_deals_in_turn(self):
        fn = MIGRATION_POLICY_REGISTRY["round_robin"]
        entries = [_entry([1.0, 0.0], i) for i in range(5)]
        assert fn(entries, [0, 2], []) == [0, 2, 0, 2, 0]

    def test_nearest_centroid_scores_against_survivors(self):
        fn = MIGRATION_POLICY_REGISTRY["nearest_centroid"]
        replicas = [
            _StubReplica([1.0, 0.0]),
            _StubReplica([0.0, 0.0]),  # dead, not a survivor
            _StubReplica([0.0, 1.0]),
        ]
        entries = [
            _entry([0.9, 0.1], 0),  # nearest replica 0
            _entry([0.1, 0.9], 1),  # nearest replica 2
        ]
        assert fn(entries, [0, 2], replicas) == [0, 2]

    def test_nearest_centroid_ties_keep_lowest_survivor(self):
        fn = MIGRATION_POLICY_REGISTRY["nearest_centroid"]
        same = _StubReplica([0.5, 0.5])
        other = _StubReplica([0.5, 0.5])
        assert fn(
            [_entry([1.0, 1.0])], [1, 3], [None, same, None, other]
        ) == [1]

    def test_nearest_centroid_zero_embedding_falls_back(self):
        fn = MIGRATION_POLICY_REGISTRY["nearest_centroid"]
        replicas = [_StubReplica([1.0, 0.0]), _StubReplica([0.0, 1.0])]
        entries = [_entry([0.0, 0.0], i) for i in range(3)]
        # Round-robin by entry position over the survivor list.
        assert fn(entries, [0, 1], replicas) == [0, 1, 0]


# ----------------------------------------------------------------------
# Migration + fate sharing in a live fleet
# ----------------------------------------------------------------------
class TestKillMigration:
    def _run(self, space, trace, migration, fate_groups=()):
        span = trace.requests[-1].arrival_s
        routing = ClusterRoutingConfig(
            n_replicas=4,
            policy="cache_affinity",
            migration_policy=migration,
            failures=FailurePlan(
                events=(
                    FailureEvent(
                        time_s=0.5 * span, replica=1, action="kill"
                    ),
                ),
                recovery_window_s=60.0,
                fate_groups=fate_groups,
            ),
        )
        system = modm_cluster(space, _modm_config(), routing)
        report = system.run(trace)
        return system, report

    def test_survivors_adopt_the_dead_cache(self, space):
        trace = _trace(space)
        system, report = self._run(space, trace, "nearest_centroid")
        record = report.failures[0]
        assert record.n_migrated > 0
        kinds = system.journal.kind_counts()
        assert kinds["migrate"] >= 1
        assert report.n_lost == 0
        # MIGRATE rows conserve the migrated count and never target the
        # dead replica.
        entries = system.journal.entries()
        migrate_rows = [row for row in entries if row[1] == 13]
        assert sum(row[3] for row in migrate_rows) == record.n_migrated
        assert all(row[2] != 1 for row in migrate_rows)
        assert all(row[4] == 1.0 for row in migrate_rows)

    def test_migration_off_is_journal_identical_to_seed_path(
        self, space
    ):
        trace = _trace(space)
        system_none, report_none = self._run(space, trace, "none")
        assert report_none.failures[0].n_migrated == 0
        assert "migrate" not in system_none.journal.kind_counts()

    def test_fate_group_kills_the_whole_rack(self, space):
        trace = _trace(space)
        system, report = self._run(
            space, trace, "nearest_centroid", fate_groups=((1, 2),)
        )
        assert [rec.replica for rec in report.failures] == [1, 2]
        assert system.journal.kind_counts()["kill"] == 2
        assert report.n_lost == 0
        # Migration happens after the whole group halts, so nothing
        # lands on a fate-shared sibling.
        migrate_rows = [
            row for row in system.journal.entries() if row[1] == 13
        ]
        assert migrate_rows
        assert all(row[2] not in (1, 2) for row in migrate_rows)


# ----------------------------------------------------------------------
# Fleet snapshots + suffix replay
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def straight_fleet(space):
    """One journaled, snapshotting, failure-injecting straight run."""
    trace = _trace(space)
    span = trace.requests[-1].arrival_s
    routing = ClusterRoutingConfig(
        n_replicas=2,
        policy="round_robin",
        journal=True,
        snapshot_period_s=30.0,
        migration_policy="round_robin",
        failures=FailurePlan(
            events=(
                FailureEvent(
                    time_s=0.55 * span, replica=1, action="kill"
                ),
                FailureEvent(
                    time_s=0.75 * span, replica=1, action="restart"
                ),
            ),
            recovery_window_s=60.0,
        ),
    )

    def build():
        return modm_cluster(space, _modm_config(), routing)

    system = build()
    report = system.run(trace)
    assert len(system.snapshots) >= 3
    return {
        "build": build,
        "trace": trace,
        "system": system,
        "payload": _payload(system, report),
        "reference": system.journal,
        "kill_t": 0.55 * span,
    }


class TestClusterSnapshot:
    def test_restore_resume_is_bit_identical(self, straight_fleet):
        snapshots = straight_fleet["system"].snapshots
        snap = snapshots[len(snapshots) // 2]
        resumed = straight_fleet["build"]()
        snap.restore(resumed)
        report = resumed.resume(straight_fleet["trace"])
        assert _payload(resumed, report) == straight_fleet["payload"]

    def test_fingerprint_rejects_config_mismatch(
        self, space, straight_fleet
    ):
        snap = straight_fleet["system"].snapshots[0]
        other = modm_cluster(
            space,
            _modm_config(),
            ClusterRoutingConfig(n_replicas=2, policy="round_robin"),
        )
        with pytest.raises(ValueError, match="configuration mismatch"):
            snap.restore(other)

    def test_snapshot_requires_journal(self, space):
        with pytest.raises(ValueError, match="snapshot_period_s"):
            ClusterRoutingConfig(n_replicas=2, snapshot_period_s=-1.0)
        # A period without the run journal would capture nothing: it is
        # rejected when the config is built.  The journal flag or a
        # failure plan (which implies the journal) makes it valid.
        with pytest.raises(ValueError, match="needs the run journal"):
            ClusterRoutingConfig(n_replicas=2, snapshot_period_s=10.0)
        with pytest.raises(ValueError, match="needs the run journal"):
            ClusterRoutingConfig(n_replicas=1, snapshot_period_s=10.0)
        ClusterRoutingConfig(
            n_replicas=2, journal=True, snapshot_period_s=10.0
        )
        ClusterRoutingConfig(
            n_replicas=2, failures=FailurePlan(), snapshot_period_s=10.0
        )
        # snapshot_period_s without journaling never captures: the off
        # path stays off.
        system = modm_cluster(
            space,
            _modm_config(),
            ClusterRoutingConfig(n_replicas=2),
        )
        system.run(_trace(space, n=10, seed="off-path"))
        assert system.journal is None
        assert system.snapshots == []

    def test_journal_flag_without_failures_records_the_run(self, space):
        system = modm_cluster(
            space,
            _modm_config(),
            ClusterRoutingConfig(n_replicas=2, journal=True),
        )
        report = system.run(_trace(space, n=20, seed="journal-only"))
        fleet_rows = _owned_rows(system.journal, -1)
        arrivals = [r for r in fleet_rows if r[1] == JournalKind.ARRIVAL]
        routes = [r for r in fleet_rows if r[1] == JournalKind.ROUTE]
        assert arrivals and len(routes) == len(arrivals)
        # The replicas write their rows into the same journal.
        kinds = system.journal.kind_counts()
        assert kinds["decision"] == 20
        assert report.n_completed == 20

    @_SLOW
    @given(data=st.data())
    def test_any_snapshot_restores_and_replays_identically(
        self, straight_fleet, data
    ):
        """Satellite property: an arbitrary snapshot tick, restored and
        driven by either the trace timeline or the journal suffix,
        finishes bit-for-bit equal to the straight run — including
        snapshots taken before the kill, where the replayed suffix
        re-executes the failure, migration, and restart."""
        snapshots = straight_fleet["system"].snapshots
        index = data.draw(
            st.integers(min_value=0, max_value=len(snapshots) - 1)
        )
        suffix = data.draw(st.booleans())
        snap = snapshots[index]
        resumed = straight_fleet["build"]()
        if suffix:
            snap.restore(resumed, install_timeline=False)
            replayer = JournalReplayer(
                resumed, straight_fleet["reference"]
            )
            report = replayer.replay(
                trace_name=straight_fleet["trace"].name
            )
            replayer.verify()
        else:
            snap.restore(resumed)
            report = resumed.resume(straight_fleet["trace"])
        assert _payload(resumed, report) == straight_fleet["payload"]

    def test_pre_kill_snapshot_replays_the_failure(
        self, straight_fleet
    ):
        """Explicit mid-replay kill: restore strictly before the kill
        instant and replay from the journal suffix — the kill, cache
        migration, orphan re-route, and restart all re-fire."""
        snapshots = straight_fleet["system"].snapshots
        pre_kill = [
            s for s in snapshots if s.time_s < straight_fleet["kill_t"]
        ]
        assert pre_kill, "no snapshot precedes the kill"
        snap = pre_kill[-1]
        resumed = straight_fleet["build"]()
        snap.restore(resumed, install_timeline=False)
        assert not any(rec.replica == 1 for rec in resumed._failures)
        replayer = JournalReplayer(
            resumed, straight_fleet["reference"]
        )
        report = replayer.replay(
            trace_name=straight_fleet["trace"].name
        )
        replayer.verify()
        assert _payload(resumed, report) == straight_fleet["payload"]
        assert any(rec.n_migrated > 0 for rec in resumed._failures)

    def test_tampered_replica_row_fails_verify(self, straight_fleet):
        """The replay checks the replica rows of the one journal too: a
        reference whose only difference is one replica-owned row in the
        suffix replays the same cohorts and then fails ``verify()`` at
        exactly that row."""
        snapshots = straight_fleet["system"].snapshots
        snap = snapshots[len(snapshots) // 2]
        rows = straight_fleet["reference"].entries()
        start = len(snap.journal)
        row = next(i for i in range(start, len(rows)) if rows[i][5] >= 0)
        time, kind, a, b, x, owner = rows[row]
        rows[row] = (time, kind, a, b, x + 1.0, owner)
        tampered = EventJournal.from_entries(rows)
        resumed = straight_fleet["build"]()
        snap.restore(resumed, install_timeline=False)
        replayer = JournalReplayer(resumed, tampered)
        # Cohorts come from the fleet's ARRIVAL rows only; replica
        # ARRIVAL rows would fire every cohort again.
        assert replayer.n_cohorts == sum(
            1
            for r in rows[start:]
            if r[1] == JournalKind.ARRIVAL and r[5] == -1
        )
        report = replayer.replay(trace_name=straight_fleet["trace"].name)
        assert _payload(resumed, report)["completion_sha"] == (
            straight_fleet["payload"]["completion_sha"]
        )
        with pytest.raises(JournalDivergenceError) as caught:
            replayer.verify()
        assert caught.value.row == row
        assert caught.value.reference == rows[row]


class TestReplicaJournals:
    def test_each_admitted_request_has_one_decision_row(self, space):
        """A replica journals the groups it admits (ARRIVAL rows) and one
        DECISION or SHED row per admitted request, each owned by its
        index, so the replica rows together cover every routed request —
        the requests a kill orphans once at the dead replica and again
        where they are re-routed."""
        trace = _trace(space, n=300, seed="replay-gate")
        span = trace.requests[-1].arrival_s
        routing = ClusterRoutingConfig(
            n_replicas=4,
            policy="least_loaded",
            journal=True,
            failures=FailurePlan(
                events=(
                    FailureEvent(
                        time_s=0.4 * span, replica=2, action="kill"
                    ),
                    FailureEvent(
                        time_s=0.6 * span, replica=2, action="restart"
                    ),
                ),
            ),
        )
        system = modm_cluster(space, _modm_config(n_workers=8), routing)
        report = system.run(trace)
        assert report.n_rerouted > 0 and report.n_lost == 0
        decided = []
        decision_kinds = (JournalKind.DECISION, JournalKind.SHED)
        for idx in range(len(system.replicas)):
            rows = _owned_rows(system.journal, idx)
            admitted = [row[2] for row in rows if row[1] in decision_kinds]
            grouped = sum(
                row[3] for row in rows if row[1] == JournalKind.ARRIVAL
            )
            assert len(admitted) == grouped == report.routed[idx], idx
            decided.extend(admitted)
        assert len(decided) == len(trace) + report.n_rerouted
        ids = system.request_store.column("request_id").tolist()
        assert sorted(set(decided)) == sorted(ids)
        # The fleet's own ARRIVAL rows are the trace cohorts, once each.
        fleet_rows = _owned_rows(system.journal, -1)
        assert len(trace) == sum(
            row[3] for row in fleet_rows if row[1] == JournalKind.ARRIVAL
        )
        owners = {row[5] for row in system.journal.entries()}
        assert owners == {-1, 0, 1, 2, 3}


def _check_replay():
    """``scripts/check_replay.py``, imported as a module."""
    path = Path(__file__).resolve().parents[2] / "scripts" / "check_replay.py"
    spec = importlib.util.spec_from_file_location("check_replay", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_replay"] = module
    spec.loader.exec_module(module)
    return module


def _five_column_digest(journal, owner):
    """sha256 of ``owner``'s rows over the five columns a journal had
    before it gained ``owner``, computed as ``EventJournal.digest`` did
    then."""
    n = len(journal)
    mine = journal._owner[:n] == owner
    h = hashlib.sha256()
    for name in ("_time", "_kind", "_a", "_b", "_x"):
        column = getattr(journal, name)[:n][mine]
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


class TestJournalOwners:
    """One journal per run: filtered by owner, its rows are the separate
    journals a run kept before the owner column, row for row.

    The digests were recorded from ``check_replay.py``'s runs when a
    fleet kept a journal of its own rows and one per replica, and a lone
    engine kept only its own journal.
    """

    FLEET = "5c68e57624ea6821ed7dfe9ae74e194e17693107f0988353c3787deeb901af52"
    REPLICAS = (
        "6578533d83290b0192b05a4e54f95e0bb70a74157a4ee26194247ad8e191f5a1",
        "7b10a377671e4140076f83eb3d0e3dc53fcd81ba60abf85474815f1b32122802",
        "92639f67c4d839faf71330d92df3ba195291a50f5fad448080344a07ecda71b1",
        "f90ade0a944dcea0927d678fd82153190dc9b842cbe2c80cb7a38d87af029871",
    )
    ENGINE = "e89eb13fb8ff4d00ecbe660f39b46fe7da455fc8e8ffbb0a5a2f8402cf26694a"

    def test_fleet_rows_by_owner_equal_the_separate_journals(
        self, space, tmp_path
    ):
        replay = _check_replay()
        trace = replay._trace(space, 300)
        fleet = replay.fleet_build(space, trace, str(tmp_path))()
        fleet.run(trace)
        journal = fleet.journal
        assert _five_column_digest(journal, -1) == self.FLEET
        for idx, digest in enumerate(self.REPLICAS):
            assert _five_column_digest(journal, idx) == digest, idx
        owners = journal._owner[: len(journal)]
        assert set(owners.tolist()) == {-1, 0, 1, 2, 3}
        assert all(
            not hasattr(replica, "_journal") for replica in fleet.replicas
        )

    def test_lone_engine_rows_equal_its_own_journal(self, space):
        replay = _check_replay()
        engine = MoDMSystem(space, replay._config())
        engine.run(replay._trace(space, 250))
        journal = engine._fleet.journal
        assert _five_column_digest(journal, 0) == self.ENGINE
        # Beside them, the fleet's own rows (test_journal.py's
        # TestJournalNeutrality pins which).
        assert set(journal._owner[: len(journal)].tolist()) == {-1, 0}
        assert not hasattr(engine, "_journal")
        assert not hasattr(engine, "journal")


class TestColdExtentCheck:
    """A tiered fleet's snapshot restored into a fresh fleet with
    ``cold_dir=None`` cannot be exact: the fresh fleet's anonymous cold
    files are empty.  Restore raises the typed error before it installs
    any state."""

    def test_short_cold_extent_raises_before_any_state(self, space):
        trace = diffusiondb_trace(
            space,
            DiffusionDBConfig(
                n_requests=120, request_rate_per_min=40.0, seed="alias"
            ),
        )
        span = trace.requests[-1].arrival_s
        config = MoDMConfig(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=16),
            cache_capacity=400,
            small_models=("sdxl",),
            retrieval_backend="ivf",
            cache_tiering=TieredCacheConfig(cold_dir=None),
        )
        routing = ClusterRoutingConfig(
            n_replicas=4,
            journal=True,
            snapshot_period_s=span / 8,
            failures=FailurePlan(
                events=(
                    FailureEvent(
                        time_s=0.3 * span, replica=2, action="kill"
                    ),
                    FailureEvent(
                        time_s=0.5 * span,
                        replica=2,
                        action="restart",
                        warm=False,
                    ),
                ),
            ),
        )
        system = modm_cluster(space, config, routing)
        system.run(trace)
        assert system.snapshots
        for snap in system.snapshots:
            fresh = modm_cluster(space, config, routing)
            with pytest.raises(ColdExtentError, match="snapshot needs"):
                snap.restore(fresh)
            # Still exactly as constructed: clock 0, no journal or
            # records, every cache and cold file empty.
            assert fresh.loop.now == 0.0
            assert fresh.journal is None and fresh.records == []
            assert fresh.routed_counts == [0] * 4
            for replica in fresh.replicas:
                assert len(replica.cache) == 0
                assert replica.cache.cold_store.rows == 0
                assert replica._journal_owner is None


class TestColdTierAliasing:
    """Every fleet snapshot restores bit-identically into a fresh fleet
    on the same durable ``cold_dir``.

    A replica killed at 0.3·span and cold-restarted at 0.5·span clears
    its cache and appends new cold rows; a fresh fleet on the same
    directory reattaches the files the first run wrote.  Neither may
    write over a row an earlier snapshot references.  While clear and
    restore rewound the cold cursor, the tiered cells read ``00111111``
    (round robin) and ``00000000`` (least loaded); cache affinity never
    routes to the emptied replica, so it stayed all ones.
    """

    @pytest.mark.parametrize("tiered", [True, False])
    @pytest.mark.parametrize(
        "policy", ["round_robin", "least_loaded", "cache_affinity"]
    )
    def test_every_snapshot_restores_bit_identically(
        self, space, tmp_path, policy, tiered
    ):
        trace = diffusiondb_trace(
            space,
            DiffusionDBConfig(
                n_requests=300, request_rate_per_min=40.0, seed="alias"
            ),
        )
        span = trace.requests[-1].arrival_s
        cold_dir = str(tmp_path / "cold")
        config = MoDMConfig(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=16),
            cache_capacity=400,
            small_models=("sdxl",),
            retrieval_backend="ivf",
            cache_tiering=(
                TieredCacheConfig(cold_dir=cold_dir) if tiered else None
            ),
        )
        routing = ClusterRoutingConfig(
            n_replicas=4,
            policy=policy,
            journal=True,
            snapshot_period_s=span / 8,
            failures=FailurePlan(
                events=(
                    FailureEvent(
                        time_s=0.3 * span, replica=2, action="kill"
                    ),
                    FailureEvent(
                        time_s=0.5 * span,
                        replica=2,
                        action="restart",
                        warm=False,
                    ),
                ),
            ),
        )

        def digests(system):
            comp = system.request_store.column("completion_s")
            return (
                hashlib.sha256(comp.tobytes()).hexdigest(),
                system.journal.digest(),
            )

        straight = modm_cluster(space, config, routing)
        straight.run(trace)
        expected = digests(straight)
        assert len(straight.snapshots) == 8
        bits = ""
        for snap in straight.snapshots:
            resumed = modm_cluster(space, config, routing)
            snap.restore(resumed)
            resumed.resume(trace)
            bits += "1" if digests(resumed) == expected else "0"
        assert bits == "11111111"


class TestFleetAllocationMerge:
    """The fleet report merges the replicas' allocation logs, each
    already time-ordered, into what a stable sort by time gives."""

    def test_merge_equals_stable_sort(self, space):
        trace = _trace(space, n=200, seed="alloc-merge")
        span = trace.requests[-1].arrival_s
        routing = ClusterRoutingConfig(
            n_replicas=3,
            policy="least_loaded",
            autoscale=True,
            autoscale_period_s=60.0,
            journal=True,
            snapshot_period_s=span / 4,
            failures=FailurePlan(
                events=(
                    FailureEvent(
                        time_s=0.3 * span, replica=1, action="kill"
                    ),
                    FailureEvent(
                        time_s=0.6 * span,
                        replica=1,
                        action="restart",
                        warm=False,
                    ),
                ),
            ),
        )
        system = modm_cluster(space, _modm_config(n_workers=12), routing)
        report = system.run(trace)
        assert [rec.replica for rec in report.failures] == [1]
        assert report.failures[0].restart_time_s is not None
        logs = [r.allocations for r in report.replicas]
        assert all(
            [e.time_s for e in log] == sorted(e.time_s for e in log)
            for log in logs
        )
        stable = sorted(
            (event for log in logs for event in log),
            key=lambda e: e.time_s,
        )
        assert report.fleet.allocations == stable
        # Replicas allocate at the same monitor ticks, so the merge
        # resolves cross-replica ties.
        times = [e.time_s for e in stable]
        assert len(set(times)) < len(times)

        # A restored, resumed fleet rebuilds its report the same way.
        snap = system.snapshots[len(system.snapshots) // 2]
        resumed = modm_cluster(
            space, _modm_config(n_workers=12), routing
        )
        snap.restore(resumed)
        again = resumed.resume(trace)
        assert again.fleet.allocations == report.fleet.allocations
