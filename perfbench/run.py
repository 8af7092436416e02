"""Benchmark entry point: measure one workload and print its metrics.

    python3 perfbench/run.py --workload engine-exact --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root.  Each measurement is a fresh interpreter
(``child.py``) that builds the workload from ``--seed``, serves it in
calibrated slices and checks conservation.  Untraced, the script
repeats measurements until ``--seconds`` is used up (at least
``MIN_UNTRACED`` of them) and reports the median of every end-to-end
metric; traced, it runs untraced/traced pairs and reports the median of
every per-layer metric.  Either way the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it describe each measurement (kernel time, raw CPU req/s).

``correct`` is false when a deterministic metric or the per-request
outcome digest differs between measurements of one seed, or when the
traced run's outcome differs from the untraced one.  Exits non-zero,
printing no result, when the source tree is missing or a measurement
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: Fewest untraced measurements whose median a run reports.
MIN_UNTRACED = 2
#: A run gives up (and fails) rather than exceed this many seconds.
DEADLINE_S = 170.0
#: Scratch space for the children (the tiered cache's cold file).
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


class MeasurementError(RuntimeError):
    """A child run failed or the time budget ran out."""


def _child(workload, seed, traced, scratch, deadline) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 5.0:
        raise MeasurementError("time budget exhausted")
    env = dict(os.environ)
    env["TMPDIR"] = scratch
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed",
           str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise MeasurementError(f"{workload}: child timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise MeasurementError(
            f"{workload}: child exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(args, scratch, traced: bool) -> list:
    """Rounds of measurements until ``--seconds`` is used up."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    min_rounds = 1 if traced else MIN_UNTRACED
    modes = (False, True) if traced else (False,)
    rounds = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        rounds.append(
            [_child(args.workload, args.seed, m, scratch, deadline)
             for m in modes]
        )
        for result in rounds[-1]:
            print(json.dumps({
                "measurement": len(rounds), "traced": result["traced"],
                "req_per_ref_s": result["metrics"]["req_per_ref_s"],
                "setup_s": result["metrics"]["setup_s"],
                **result["diagnostics"],
            }), flush=True)
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed + longest > args.seconds:
            return rounds


def _consistent(results: list) -> bool:
    """Same outcome digest and deterministic metrics in every result."""
    first = results[0]
    return all(
        r["digest"] == first["digest"]
        and all(
            r["metrics"][name] == first["metrics"][name]
            for name in spec.DETERMINISTIC
        )
        for r in results
    )


def _median_metrics(samples: list, units: tuple) -> dict:
    return {
        name: {
            "value": statistics.median(s[name] for s in samples),
            "unit": unit,
        }
        for name, unit in units
    }


def summarize(rounds: list, traced: bool) -> dict:
    """The result object from the rounds of one run."""
    results = [r for rnd in rounds for r in rnd]
    correct = _consistent(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["attempted"] - r["completed"] for r in results)
    if not traced:
        metrics = _median_metrics(
            [r["metrics"] for r in results], spec.END_TO_END
        )
    else:
        layers = []
        for plain, trace in rounds:
            per_layer = dict(trace["per_layer"])
            per_layer["trace.overhead_share"] = (
                plain["metrics"]["req_per_ref_s"]
                / per_layer["trace.req_per_ref_s"]
                - 1.0
            )
            layers.append(per_layer)
        metrics = _median_metrics(layers, spec.PER_LAYER)
    return {
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="MoDM serving benchmark (one workload per run)"
    )
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: no program source at src/repro; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    scratch = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        rounds = _measure(args, scratch, bool(args.trace))
    except MeasurementError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(summarize(rounds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
