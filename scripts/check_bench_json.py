#!/usr/bin/env python
"""Bench-artefact schema gate: every committed bench JSON is readable.

The repo-root ``BENCH_*.json`` files and their
``benchmarks/results/*.json`` twins are the machine-readable perf
trajectory — downstream tooling (and the next PR's diff review) parses
them, so a bench that silently drops its scale tag or writes an empty
rows list breaks consumers long after the producing run went green.
This gate validates every bench JSON against the minimal shared schema:

* a top-level ``"scale"`` naming a known experiment scale
  (``smoke`` / ``default`` / ``paper``);
* at least one metric surface: a non-empty ``"metrics"`` dict of
  numbers, a non-empty ``"rows"`` list, or numeric top-level fields;
* when present, ``"acceptance"`` must be a non-empty all-boolean dict
  (the pass/fail verdicts the producing bench asserted on).

The repo benchmark's history, ``perf_trajectory.json``, has its own
schema: a ``"rows"`` list with one row per change, ascending by
``"pr"``.  Each row names its ``"parent_rev"`` and holds, for every
workload that ``BENCHMARK.json`` declares, the number of alternating
parent/change ``"pairs"`` run and the ``"parent"`` and ``"change"``
medians of each :data:`TRAJECTORY_METRICS` metric; every number is
positive.

Reporting goes through ``repro.analysis._cli`` so this gate fails in
the same format as the analyzer, seed-golden, and replay gates.

Usage (repo root)::

    PYTHONPATH=src python scripts/check_bench_json.py [paths...]

With no arguments, checks ``BENCH_*.json``,
``benchmarks/results/*.json`` and ``perf_trajectory.json``.  Exit
status: 0 when every file validates, 1 otherwise (listing every
violation, not just the first).
"""

from __future__ import annotations

import glob
import json
import numbers
import os
import sys
from typing import List, Sequence

from repro.analysis._cli import gate_fail, gate_ok
from repro.experiments import SCALES

GATE = "bench-json"

#: Top-level keys that never count as metric payload.
_META_KEYS = frozenset(
    ("scale", "acceptance", "experiment_id", "title",
     "paper_reference", "notes", "benchmark")
)


#: The repo benchmark's history file, at the repo root.
TRAJECTORY = "perf_trajectory.json"

#: End-to-end metrics every trajectory row records per workload.
TRAJECTORY_METRICS = ("req_per_ref_s", "setup_s", "peak_rss_mib")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(
        value, bool
    )


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


def default_paths(root: str) -> List[str]:
    trajectory = os.path.join(root, TRAJECTORY)
    return (
        sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        + sorted(
            glob.glob(os.path.join(root, "benchmarks", "results", "*.json"))
        )
        + ([trajectory] if os.path.exists(trajectory) else [])
    )


def benchmark_workloads(root: str) -> List[str]:
    """The workload names ``BENCHMARK.json`` declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return [w["name"] for w in json.load(handle)["workloads"]]


def check_payload(payload: object) -> List[str]:
    """Schema violations of one parsed bench payload (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be a JSON object, got {type(payload).__name__}"]
    scale = payload.get("scale")
    if scale is None:
        problems.append('missing required "scale" field')
    elif scale not in SCALES:
        problems.append(
            f'unknown scale {scale!r}; expected one of {sorted(SCALES)}'
        )
    metrics = payload.get("metrics")
    rows = payload.get("rows")
    has_metrics = False
    if metrics is not None:
        if not (
            isinstance(metrics, dict)
            and metrics
            and all(_is_number(v) for v in metrics.values())
        ):
            problems.append(
                '"metrics" must be a non-empty dict of numbers'
            )
        else:
            has_metrics = True
    if rows is not None:
        if not (isinstance(rows, list) and rows):
            problems.append('"rows" must be a non-empty list')
        else:
            has_metrics = True
    if not has_metrics and not any(
        _is_number(v)
        for k, v in payload.items()
        if k not in _META_KEYS
    ):
        problems.append(
            'no metric surface: need a "metrics" dict, a "rows" '
            "list, or numeric top-level fields"
        )
    acceptance = payload.get("acceptance")
    if acceptance is not None and not (
        isinstance(acceptance, dict)
        and acceptance
        and all(isinstance(v, bool) for v in acceptance.values())
    ):
        problems.append(
            '"acceptance" must be a non-empty all-boolean dict'
        )
    return problems


def check_trajectory(
    payload: object, workloads: Sequence[str]
) -> List[str]:
    """Schema violations of a parsed ``perf_trajectory.json``."""
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not (isinstance(rows, list) and rows):
        return ['"rows" must be a non-empty list']
    problems: List[str] = []
    last_pr = 0
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"row {i}: must be a JSON object")
            continue
        pr = row.get("pr")
        where = f"row {i} (PR {pr})"
        if not (isinstance(pr, int) and _is_positive(pr)):
            problems.append(f'{where}: "pr" must be a positive integer')
        elif pr <= last_pr:
            problems.append(
                f"{where}: rows must ascend by PR (after PR {last_pr})"
            )
        else:
            last_pr = pr
        rev = row.get("parent_rev")
        if not (isinstance(rev, str) and rev):
            problems.append(f'{where}: missing "parent_rev"')
        measured = row.get("workloads")
        if not isinstance(measured, dict):
            problems.append(f'{where}: "workloads" must be an object')
            continue
        for name in workloads:
            runs = measured.get(name)
            if not isinstance(runs, dict):
                problems.append(f"{where}: workload {name!r} missing")
                continue
            pairs = runs.get("pairs")
            if not (isinstance(pairs, int) and _is_positive(pairs)):
                problems.append(
                    f'{where}: {name} "pairs" must be a positive integer'
                )
            for side in ("parent", "change"):
                medians = runs.get(side)
                if not isinstance(medians, dict):
                    problems.append(f"{where}: {name} {side!r} missing")
                    continue
                for metric in TRAJECTORY_METRICS:
                    if not _is_positive(medians.get(metric)):
                        problems.append(
                            f"{where}: {name} {side} {metric} must be "
                            "a positive number"
                        )
    return problems


def main(argv: List[str]) -> int:
    root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    paths = argv or default_paths(root)
    if not paths:
        return gate_fail(GATE, "no bench JSON files found to check")
    failures = []
    for path in paths:
        rel = os.path.relpath(path, root)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{rel}: unreadable ({exc})")
            continue
        if os.path.basename(path) == TRAJECTORY:
            problems = check_trajectory(payload, benchmark_workloads(root))
        else:
            problems = check_payload(payload)
        for problem in problems:
            failures.append(f"{rel}: {problem}")
    if failures:
        for line in failures:
            print(f"[{GATE}] {line}", file=sys.stderr)
        return gate_fail(
            GATE,
            f"{len(failures)} violation(s) across "
            f"{len(paths)} file(s)",
        )
    return gate_ok(GATE, f"{len(paths)} bench JSON file(s) conform")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
