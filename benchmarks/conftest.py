"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures and prints
the same rows/series the paper reports.  The run scale is controlled by the
``REPRO_BENCH_SCALE`` environment variable (``smoke`` / ``default`` /
``paper``; default ``default``) — results always state the scale they ran
at.  Experiments are deterministic, so a single benchmark round is
representative; pytest-benchmark captures the wall time of regenerating
each artefact.

Run with ``--json`` to also write machine-readable
``benchmarks/results/<id>.json`` twins of every text artefact, and with
``--profile`` to wrap every measured run in :mod:`cProfile` and dump
``benchmarks/results/<id>.pstats`` profiles alongside them.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.experiments import ExperimentContext, SCALES

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import _output


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store_true",
        default=False,
        help=(
            "also write machine-readable benchmarks/results/<id>.json "
            "artefacts alongside the text tables"
        ),
    )
    parser.addoption(
        "--profile",
        action="store_true",
        default=False,
        help=(
            "wrap each measured run in cProfile and dump "
            "benchmarks/results/<id>.pstats artefacts"
        ),
    )


def pytest_configure(config):
    _output.JSON_ENABLED = config.getoption("--json", default=False)
    _output.PROFILE_ENABLED = config.getoption(
        "--profile", default=False
    )


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    if scale not in SCALES:
        raise KeyError(
            f"REPRO_BENCH_SCALE={scale!r} unknown; choose from "
            f"{sorted(SCALES)}"
        )
    return scale


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    """A fresh context per bench module.

    The context's model simulators are stateful (each generation
    advances an image-id counter), so a shared one would make a
    bench's numbers depend on which benches ran before it.
    """
    return ExperimentContext(scale=bench_scale())


RESULTS_DIR = _output.RESULTS_DIR


def run_experiment(benchmark, fn, ctx, **kwargs):
    """Run one experiment under pytest-benchmark and print its result.

    The rendered table is also written to ``benchmarks/results/<id>.txt``
    (pytest captures stdout of passing tests, so the artefacts would
    otherwise only be visible on failure), plus a JSON twin when the
    suite runs with ``--json``.
    """
    profile_id = getattr(fn, "__name__", "experiment")

    def measured():
        with _output.profiled(profile_id):
            return fn(ctx, **kwargs)

    result = benchmark.pedantic(measured, rounds=1, iterations=1)
    print()
    print(result.render())
    _output.emit(result)
    return result
