#!/usr/bin/env python
"""Replay-determinism gate: snapshot + resume must equal never stopping.

Runs a journaled MoDM serving trace to completion, picks a state snapshot
from the middle of the run, restores it into a freshly constructed
(identically configured) system, resumes, and demands the resumed run be
*bit-identical* to the uninterrupted one — same completion times, same
decisions, same journal digest.  This is the property warm replica
recovery rests on, so CI gates on it.

No golden file: both runs are generated here, so the gate cannot go
stale — it fails only when snapshot/restore loses state.  Reporting and
payload digests go through ``repro.analysis._cli`` so this gate, the
seed-golden gate, and the invariant analyzer all fail in the same
format.

``--suffix`` gates the stronger property: the journal is a *sufficient*
record.  The restored system gets no arrival timeline at all
(``install_timeline=False``) — a :class:`~repro.core.journal
.JournalReplayer` re-injects the remaining arrival cohorts from the
reference journal's ARRIVAL suffix alone, and the regenerated journal
must equal the reference row for row on top of the payload match.

Usage (repo root)::

    PYTHONPATH=src python scripts/check_replay.py [--suffix] [--out FRESH.json]

Exit status: 0 when the resumed payload matches the uninterrupted one
byte for byte, 1 otherwise (with a unified diff of the two payloads).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis._cli import (
    completion_digest,
    decision_digest,
    gate_fail,
    gate_ok,
    render_payload,
    write_text,
)
from repro.core.config import ClusterConfig, JournalConfig, MoDMConfig
from repro.core.journal import JournalReplayer
from repro.core.serving import MoDMSystem
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


def _payload(report, system) -> dict:
    """Everything that must match bit for bit.

    Snapshot *counts* are excluded by design: the resumed run only
    captures snapshots after its restore point, so the lists differ in
    length while the simulation is identical.
    """
    times_sum, times_sha = completion_digest(report)
    return {
        "hit_rate": report.hit_rate,
        "n_completed": report.n_completed,
        "completion_times_sum": times_sum,
        "completion_times_sha": times_sha,
        "decision_sha": decision_digest(report.records),
        "journal_digest": system._journal.digest(),
        "journal_events": len(system._journal),
        "cache_size": report.cache_size,
    }


def run_gate(suffix: bool = False) -> tuple:
    """(uninterrupted payload, resumed payload) for one seeded trace.

    With ``suffix=True`` the restored system is driven forward by a
    :class:`JournalReplayer` from the reference journal's ARRIVAL rows
    instead of a reinstalled trace timeline, and the replayer's
    ``verify()`` additionally demands the regenerated journal equal the
    reference row for row.
    """
    space = SemanticSpace()
    trace = diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=250,
            request_rate_per_min=40.0,
            seed="replay-gate",
        ),
    )

    straight = MoDMSystem(space, _config())
    straight_report = straight.run(trace)
    if not straight.snapshots:
        raise RuntimeError(
            "journaled run captured no snapshots; the trace is too "
            "short for the snapshot period"
        )
    straight_payload = _payload(straight_report, straight)

    snapshot = straight.snapshots[len(straight.snapshots) // 2]
    resumed = MoDMSystem(space, _config())
    if suffix:
        snapshot.restore(resumed, install_timeline=False)
        replayer = JournalReplayer(resumed, straight._journal)
        resumed_report = replayer.replay(trace_name=trace.name)
        replayer.verify()
    else:
        snapshot.restore(resumed)
        resumed_report = resumed.resume(trace)
    resumed_payload = _payload(resumed_report, resumed)
    return straight_payload, resumed_payload, snapshot.time_s


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
    args = parser.parse_args(argv)

    gate = f"{GATE}-suffix" if args.suffix else GATE
    straight, resumed, snap_time = run_gate(suffix=args.suffix)
    straight_text = render_payload(straight)
    resumed_text = render_payload(resumed)
    if args.out:
        write_text(args.out, straight_text)
    if straight_text == resumed_text:
        how = (
            "replayed bit-identically from the journal suffix"
            if args.suffix
            else "resumed bit-identically"
        )
        return gate_ok(
            gate,
            f"run restored from the t={snap_time:.1f}s snapshot "
            f"{how} (journal digest "
            f"{straight['journal_digest'][:16]}...)",
        )
    return gate_fail(
        gate,
        "restoring a snapshot and "
        + (
            "replaying the journal suffix"
            if args.suffix
            else "resuming"
        )
        + " did not reproduce the uninterrupted run.  "
        "Snapshot/restore is losing state somewhere (see the diff "
        "above).",
        diff=(
            straight_text,
            resumed_text,
            "uninterrupted run",
            f"restored from t={snap_time:.1f}s snapshot",
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
