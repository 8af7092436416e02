#!/usr/bin/env python
"""Work-counter gate: the repo benchmark's exact counts match a baseline.

Calibrated CPU time drifts between machines and runs; the traced
benchmark's work counters do not.  This gate runs one traced
measurement per workload::

    python3 perfbench/run.py --workload W --seed 1 --trace 1 --seconds 1

requires ``correct: true`` and ``failed: 0``, and compares the counters
in :data:`COUNTERS` exactly against ``scripts/counters_baseline.json``.
One extra ``seed_for`` call per request, one more cache scan or one
more event changes a count and fails the gate; a pure speed-up changes
none.  The traced CPU figures (``req_per_ref_s`` and every layer's
self time) are printed for the record, never gated.

Usage (repo root)::

    PYTHONPATH=src python scripts/check_counters.py [--update]

Exit status: 0 when every workload's counters equal the baseline, 1
otherwise.  ``--update`` re-records the baseline (do it only where a
change means to alter the work done, and say why).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

from repro.analysis._cli import gate_fail, gate_ok, render_payload, write_text

GATE = "counters"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "scripts", "counters_baseline.json")
WORKLOADS = ("engine-exact", "fleet-affinity-faults", "engine-tiered")

#: Exact work counts the gate compares; every one is deterministic for
#: a fixed workload and seed.
COUNTERS = (
    "diffusion.model.generate_calls",
    "diffusion.model.refine_calls",
    "embedding.text_rows",
    "embedding.image_rows",
    "rng.seed_for_calls",
    "rng.setup_seed_for_calls",
    "rng.unit_rows",
    "rng.units_rows",
    "core.scheduler.decide_batch_calls",
    "core.cache.scan_entries",
    "core.cache.insertions",
    "core.cache.evictions",
    "core.ann.search_calls",
    "core.tiering.read_rows_rows",
    "core.tiering.promotions",
    "core.tiering.demotions",
    "cluster.events.processed",
    "core.journal.rows",
    "core.cluster_router.route_batch_rows",
)


def measure(workload: str) -> dict:
    """The last JSON line of one traced benchmark run of ``workload``."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--trace", "1",
        "--seconds", "1",
    ]
    proc = subprocess.run(
        cmd, cwd=REPO_ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload}: benchmark exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> Dict[str, int]:
    metrics = result["metrics"]
    return {name: int(metrics[name]["value"]) for name in COUNTERS}


def print_cpu(workload: str, result: dict) -> None:
    """The traced CPU figures, for the record only."""
    metrics = result["metrics"]
    layers = sorted(
        (name[: -len(".self_ref_s")], metrics[name]["value"])
        for name in metrics
        if name.endswith(".self_ref_s")
    )
    print(
        f"{workload}: trace.req_per_ref_s "
        f"{metrics['trace.req_per_ref_s']['value']:,.0f} (not gated)"
    )
    for layer, ref_s in layers:
        print(f"  {layer:<28} self {ref_s:.3f} ref-s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-record the baseline",
    )
    args = parser.parse_args(argv)

    baseline: Dict[str, Dict[str, int]] = {}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)
    fresh: Dict[str, Dict[str, int]] = {}
    problems: List[str] = []
    for workload in WORKLOADS:
        result = measure(workload)
        if not result["correct"] or result["failed"]:
            problems.append(
                f"{workload}: correct={result['correct']} "
                f"failed={result['failed']}"
            )
        fresh[workload] = counts(result)
        print_cpu(workload, result)

    if not args.update:
        for workload in WORKLOADS:
            if fresh[workload] != baseline.get(workload):
                problems.append(f"{workload}: counters differ")
    if problems:
        return gate_fail(
            GATE,
            "; ".join(problems),
            diff=(
                render_payload(baseline),
                render_payload(fresh),
                "counters_baseline.json",
                "this run",
            ),
        )
    if args.update:
        write_text(BASELINE_PATH, render_payload(fresh) + "\n")
        return gate_ok(GATE, f"recorded {BASELINE_PATH}")
    return gate_ok(
        GATE,
        f"{len(COUNTERS)} counters exact on {len(WORKLOADS)} workloads",
    )


if __name__ == "__main__":
    sys.exit(main())
