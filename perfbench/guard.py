"""Behaviour guard for the benchmark, at reduced size.

Checks that measuring changes nothing it measures:

* serving in calibrated slices through ``run(until=)`` /
  ``resume(until=)`` gives the same per-request decisions and
  completion times as one straight ``run()`` -- and, on the fleet, the
  same journal digest;
* the traced run (every layer wrapped) gives the same outcome as the
  untraced one, and its layer self times add up to its serving CPU;
* the reference kernel still computes its frozen result, and
  ``BENCHMARK.json`` lists exactly the metrics the benchmark reports.

Not collected by the repository's test suite (the file name has no
``test_`` prefix); run it explicitly from the repository root:

    python3 -m pytest perfbench/guard.py -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import spec  # noqa: E402
from repro.embedding.space import SemanticSpace  # noqa: E402

SMALL = scenarios.Sizes(n_warm=300, n_serve=1_500, n_slices=25)


def _served(workload, sliced):
    space = SemanticSpace()
    warm, serve = scenarios.make_trace(space, workload, 7, SMALL)
    system = scenarios.make_system(space, workload, serve)
    system.warm_cache(warm)
    if sliced:
        report = scenarios.serve_sliced(
            system, serve, SMALL.n_slices, lambda fn: fn()
        )
    else:
        report = system.run(serve)
    scenarios.outcome(space, report, len(serve))  # conservation
    return system, report


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_sliced_run_matches_straight_run(workload):
    straight_sys, straight = _served(workload, sliced=False)
    sliced_sys, sliced = _served(workload, sliced=True)
    assert scenarios.signature(sliced) == scenarios.signature(straight)
    assert scenarios.journal_digest(sliced_sys) == (
        scenarios.journal_digest(straight_sys)
    )
    if workload == "fleet-affinity-faults":
        assert scenarios.journal_digest(sliced_sys)
        assert sliced.n_lost == 0 and sliced.failures


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_run_matches_untraced_run(workload):
    plain = child.run(workload, 7, traced=False, sizes=SMALL)
    traced = child.run(workload, 7, traced=True, sizes=SMALL)
    assert traced["digest"] == plain["digest"]
    for name in spec.DETERMINISTIC:
        assert traced["metrics"][name] == plain["metrics"][name]
    layer_names = {name for name, _ in spec.PER_LAYER}
    # run.py adds the overhead share from the untraced/traced pair.
    assert set(traced["per_layer"]) == layer_names - {"trace.overhead_share"}
    share = traced["per_layer"]["trace.layer_sum_share"]
    assert abs(share - 1.0) <= spec.LAYER_SUM_TOLERANCE


def test_reference_kernel_is_frozen():
    refkernel.check_kernel()


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        spec.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        spec.PER_LAYER
    )


def _fake_result(digest, hit_rate):
    metrics = {name: 1.0 for name, _ in spec.END_TO_END}
    metrics["hit_rate"] = hit_rate
    return {"attempted": 10, "completed": 10, "digest": digest,
            "metrics": metrics}


def test_summary_flags_runs_that_disagree():
    same = [[_fake_result("a", 0.5)], [_fake_result("a", 0.5)]]
    assert run.summarize(same, traced=False)["correct"]
    digest = [[_fake_result("a", 0.5)], [_fake_result("b", 0.5)]]
    assert not run.summarize(digest, traced=False)["correct"]
    metric = [[_fake_result("a", 0.5)], [_fake_result("a", 0.6)]]
    assert not run.summarize(metric, traced=False)["correct"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
