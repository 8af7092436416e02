#!/usr/bin/env python
"""Replay-determinism gate: snapshot + resume must equal never stopping.

Runs a journaled MoDM serving trace to completion, picks a state snapshot
from the middle of the run, restores it into a freshly constructed
(identically configured) system, resumes, and demands the resumed run be
*bit-identical* to the uninterrupted one — same completion times, same
decisions, same journal digest.  This is the property warm replica
recovery rests on, so CI gates on it.  A single engine runs as a
one-replica fleet, so its snapshot is a fleet ``Snapshot`` too:
``snapshot.restore``, ``resume`` and the replayer take the engine and
act on that fleet, and that fleet's journal, whose rows carry their
owner (the replica, or -1 for the fleet), is the record they are
checked against.

No golden file: both runs are generated here, so the gate cannot go
stale — it fails only when snapshot/restore loses state.  Reporting and
payload digests go through ``repro.analysis._cli`` so this gate, the
seed-golden gate, and the invariant analyzer all fail in the same
format.

``--suffix`` gates the stronger property: the journal is a *sufficient*
record.  The restored system gets no arrival timeline at all
(``install_timeline=False``) — a :class:`~repro.core.journal
.JournalReplayer` re-injects the remaining arrival cohorts from the
reference journal's fleet ARRIVAL suffix alone, and the regenerated
journal must equal the reference row for row, replica rows included,
on top of the payload match.

``--fleet`` gates the same properties for a whole fleet: four MoDM
replicas with IVF retrieval and a tiered cache on a durable temporary
``cold_dir``, replica 2 killed at 0.3·span and cold-restarted at
0.5·span.  *Every* fleet snapshot is restored into a fresh fleet on the
same ``cold_dir`` and resumed (or, with ``--suffix``, replayed from the
journal suffix), and each must reproduce the uninterrupted run.  The
cold restart appends new cold rows while older snapshots still
reference the first ones, so this catches any restore path that writes
over a row a snapshot needs.

Usage (repo root)::

    PYTHONPATH=src python scripts/check_replay.py [--fleet] [--suffix] \
        [--out FRESH.json]

Exit status: 0 when every resumed payload matches the uninterrupted one
byte for byte, 1 otherwise: with a unified diff of the first mismatch,
or, when a suffix replay does not regenerate the reference journal, the
snapshot time and the first diverging journal row.  ``--out`` is written
either way.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile

from repro.analysis._cli import (
    completion_digest,
    decision_digest,
    gate_fail,
    gate_ok,
    render_payload,
    write_text,
)
from repro.core.cluster_router import modm_cluster
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    FailureEvent,
    FailurePlan,
    JournalConfig,
    MoDMConfig,
)
from repro.core.journal import JournalDivergenceError, JournalReplayer
from repro.core.serving import MoDMSystem
from repro.core.tiering import TieredCacheConfig
from repro.embedding.space import SemanticSpace
from repro.workloads import DiffusionDBConfig, diffusiondb_trace

GATE = "replay"


def _config() -> MoDMConfig:
    return MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
        cache_capacity=200,
        small_models=("sdxl",),
        seed="replay-gate",
        journal=JournalConfig(snapshot_period_s=90.0),
    )


def _engine_payload(report, system) -> dict:
    """Everything that must match bit for bit.

    Snapshot *counts* are excluded by design: the resumed run only
    captures snapshots after its restore point, so the lists differ in
    length while the simulation is identical.
    """
    journal = system._fleet.journal
    times_sum, times_sha = completion_digest(report)
    return {
        "hit_rate": report.hit_rate,
        "n_completed": report.n_completed,
        "completion_times_sum": times_sum,
        "completion_times_sha": times_sha,
        "decision_sha": decision_digest(report.records),
        "journal_digest": journal.digest(),
        "journal_events": len(journal),
        "cache_size": report.cache_size,
    }


def _fleet_payload(report, system) -> dict:
    """Everything a restored fleet must match bit for bit."""
    completion = system.request_store.column("completion_s")
    return {
        "hit_rate": report.hit_rate,
        "n_completed": report.n_completed,
        "n_lost": report.n_lost,
        "completion_sha": hashlib.sha256(completion.tobytes()).hexdigest(),
        "decision_sha": decision_digest(report.fleet.records),
        "journal_digest": system.journal.digest(),
        "journal_events": len(system.journal),
        "routed": list(report.routed),
    }


def _resume(snapshot, build, reference, trace, suffix, payload):
    """Restore ``snapshot`` into ``build()``, finish the run from the
    trace timeline or (``suffix``) from the journal's ARRIVAL suffix, and
    return ``payload(report, system)`` — or, when the suffix replay does
    not regenerate ``reference``, the :class:`JournalDivergenceError`.
    A restored journal that is not a prefix of ``reference`` (wrong
    snapshot or wrong run) is a set-up error and raises."""
    resumed = build()
    if suffix:
        snapshot.restore(resumed, install_timeline=False)
        replayer = JournalReplayer(resumed, reference)
        try:
            report = replayer.replay(trace_name=trace.name)
            replayer.verify()
        except JournalDivergenceError as diverged:
            return diverged
    else:
        snapshot.restore(resumed)
        report = resumed.resume(trace)
    return payload(report, resumed)


def _trace(space, n_requests: int):
    return diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=n_requests,
            request_rate_per_min=40.0,
            seed="replay-gate",
        ),
    )


def fleet_build(space, trace, cold_dir: str):
    """``build()`` for the gate's fleet: four tiered MoDM replicas on
    ``cold_dir``, replica 2 killed at 0.3·span and cold-restarted at
    0.5·span, eight snapshots over the span."""
    span = trace.requests[-1].arrival_s
    routing = ClusterRoutingConfig(
        n_replicas=4,
        policy="least_loaded",
        journal=True,
        snapshot_period_s=span / 8,
        failures=FailurePlan(
            events=(
                FailureEvent(time_s=0.3 * span, replica=2, action="kill"),
                FailureEvent(
                    time_s=0.5 * span,
                    replica=2,
                    action="restart",
                    warm=False,
                ),
            ),
        ),
    )
    config = MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=16),
        cache_capacity=400,
        small_models=("sdxl",),
        retrieval_backend="ivf",
        cache_tiering=TieredCacheConfig(cold_dir=cold_dir),
        seed="replay-gate",
        journal=JournalConfig(snapshot_period_s=span / 8),
    )
    return lambda: modm_cluster(space, config, routing)


def run_fleet_gate(suffix: bool = False) -> tuple:
    """(uninterrupted payload, [(snapshot time, resumed payload), ...])
    over every snapshot of one tiered fleet run with a cold restart."""
    space = SemanticSpace()
    trace = _trace(space, 300)
    with tempfile.TemporaryDirectory(prefix="replay-fleet-") as cold_dir:
        build = fleet_build(space, trace, cold_dir)
        straight = build()
        straight_payload = _fleet_payload(straight.run(trace), straight)
        if not straight.snapshots:
            raise RuntimeError("fleet run captured no snapshots")
        resumed = [
            (
                snapshot.time_s,
                _resume(
                    snapshot,
                    build,
                    straight.journal,
                    trace,
                    suffix,
                    _fleet_payload,
                ),
            )
            for snapshot in straight.snapshots
        ]
    return straight_payload, resumed


def run_gate(suffix: bool = False) -> tuple:
    """(uninterrupted payload, [(snapshot time, resumed payload)]) for
    one seeded trace, restored from its middle snapshot.

    With ``suffix=True`` the restored system is driven forward by a
    :class:`JournalReplayer` from the reference journal's ARRIVAL rows
    instead of a reinstalled trace timeline, and the replayer's
    ``verify()`` additionally demands the regenerated journal equal the
    reference row for row; a replay that does not stands in the list as
    its :class:`JournalDivergenceError` instead of a payload.
    """
    space = SemanticSpace()
    trace = _trace(space, 250)

    straight = MoDMSystem(space, _config())
    straight_report = straight.run(trace)
    if not straight.snapshots:
        raise RuntimeError(
            "journaled run captured no snapshots; the trace is too "
            "short for the snapshot period"
        )
    straight_payload = _engine_payload(straight_report, straight)

    snapshot = straight.snapshots[len(straight.snapshots) // 2]
    resumed = _resume(
        snapshot,
        lambda: MoDMSystem(space, _config()),
        straight._fleet.journal,
        trace,
        suffix,
        _engine_payload,
    )
    return straight_payload, [(snapshot.time_s, resumed)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="also write the uninterrupted payload here (JSON)",
    )
    parser.add_argument(
        "--suffix",
        action="store_true",
        help=(
            "drive the restored run from the journal's ARRIVAL suffix "
            "instead of the trace timeline (journal-sufficiency gate)"
        ),
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "gate every snapshot of a 4-replica tiered fleet with a kill "
            "and a cold restart instead of one single-engine snapshot"
        ),
    )
    args = parser.parse_args(argv)

    gate = GATE + ("-fleet" if args.fleet else "")
    gate += "-suffix" if args.suffix else ""
    run = run_fleet_gate if args.fleet else run_gate
    straight, resumed = run(suffix=args.suffix)
    straight_text = render_payload(straight)
    if args.out:
        write_text(args.out, straight_text)
    how = (
        "replayed bit-identically from the journal suffix"
        if args.suffix
        else "resumed bit-identically"
    )
    for snap_time, payload in resumed:
        if isinstance(payload, JournalDivergenceError):
            return gate_fail(
                gate,
                f"replaying the journal suffix from the t={snap_time:.1f}s "
                "snapshot did not regenerate the reference journal: "
                f"{payload} -- replayed row {payload.replayed}, "
                f"reference row {payload.reference}.",
            )
        resumed_text = render_payload(payload)
        if resumed_text != straight_text:
            return gate_fail(
                gate,
                "restoring a snapshot and "
                + (
                    "replaying the journal suffix"
                    if args.suffix
                    else "resuming"
                )
                + " did not reproduce the uninterrupted run.  "
                "Snapshot/restore is losing state somewhere (see the "
                "diff above).",
                diff=(
                    straight_text,
                    resumed_text,
                    "uninterrupted run",
                    f"restored from t={snap_time:.1f}s snapshot",
                ),
            )
    if args.fleet:
        which = f"all {len(resumed)} fleet snapshots"
    else:
        which = f"run restored from the t={resumed[0][0]:.1f}s snapshot"
    return gate_ok(
        gate,
        f"{which} {how} (journal digest "
        f"{straight['journal_digest'][:16]}...)",
    )


if __name__ == "__main__":
    sys.exit(main())
