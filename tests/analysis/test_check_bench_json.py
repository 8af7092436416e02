"""Bench-artefact schema gate (``scripts/check_bench_json.py``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest


@pytest.fixture
def gate(repo_root):
    path = repo_root / "scripts" / "check_bench_json.py"
    spec = importlib.util.spec_from_file_location(
        "check_bench_json", path
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_bench_json"] = module
    spec.loader.exec_module(module)
    return module


GOOD_METRICS = {
    "scale": "smoke",
    "metrics": {"recall_at_1": 0.97, "build_s": 1.5},
    "acceptance": {"recall_ok": True},
}
GOOD_ROWS = {
    "scale": "default",
    "experiment_id": "x",
    "rows": [{"entries": 1000, "ms": 0.5}],
}
GOOD_TOPLEVEL = {"scale": "paper", "speedup": 13.4, "bit_identical": "yes"}


class TestCheckPayload:
    @pytest.mark.parametrize(
        "payload", [GOOD_METRICS, GOOD_ROWS, GOOD_TOPLEVEL]
    )
    def test_valid_payloads(self, gate, payload):
        assert gate.check_payload(payload) == []

    def test_missing_scale(self, gate):
        problems = gate.check_payload({"metrics": {"x": 1.0}})
        assert any("scale" in p for p in problems)

    def test_unknown_scale(self, gate):
        problems = gate.check_payload(
            {"scale": "huge", "metrics": {"x": 1.0}}
        )
        assert any("unknown scale" in p for p in problems)

    def test_empty_metrics_rejected(self, gate):
        problems = gate.check_payload({"scale": "smoke", "metrics": {}})
        assert any("metrics" in p for p in problems)

    def test_non_numeric_metrics_rejected(self, gate):
        problems = gate.check_payload(
            {"scale": "smoke", "metrics": {"ok": True}}
        )
        # Booleans are not numbers for schema purposes.
        assert any("metrics" in p for p in problems)

    def test_empty_rows_rejected(self, gate):
        problems = gate.check_payload({"scale": "smoke", "rows": []})
        assert any("rows" in p for p in problems)

    def test_no_metric_surface_rejected(self, gate):
        problems = gate.check_payload(
            {"scale": "smoke", "title": "nothing measured"}
        )
        assert any("metric surface" in p for p in problems)

    def test_non_boolean_acceptance_rejected(self, gate):
        problems = gate.check_payload(
            {
                "scale": "smoke",
                "metrics": {"x": 1.0},
                "acceptance": {"recall": 0.97},
            }
        )
        assert any("acceptance" in p for p in problems)

    def test_non_object_rejected(self, gate):
        assert gate.check_payload([1, 2, 3])


WORKLOADS = ("engine-exact", "fleet-affinity-faults", "engine-tiered")


def _trajectory_row(pr, **overrides):
    medians = {"req_per_ref_s": 4000.0, "setup_s": 0.5, "peak_rss_mib": 120.0}
    row = {
        "pr": pr,
        "parent_rev": "181674c",
        "workloads": {
            name: {"pairs": 5, "parent": dict(medians), "change": dict(medians)}
            for name in WORKLOADS
        },
    }
    row.update(overrides)
    return row


class TestCheckTrajectory:
    def test_valid_trajectory(self, gate):
        payload = {"rows": [_trajectory_row(7), _trajectory_row(8)]}
        assert gate.check_trajectory(payload, WORKLOADS) == []

    def test_workloads_come_from_benchmark_json(self, gate, repo_root):
        assert tuple(gate.benchmark_workloads(str(repo_root))) == WORKLOADS

    @pytest.mark.parametrize("payload", [{}, {"rows": []}, [1]])
    def test_rows_required(self, gate, payload):
        problems = gate.check_trajectory(payload, WORKLOADS)
        assert any("rows" in p for p in problems)

    @pytest.mark.parametrize("prs", [(8, 7), (7, 7)])
    def test_rows_ascend_by_pr(self, gate, prs):
        payload = {"rows": [_trajectory_row(pr) for pr in prs]}
        problems = gate.check_trajectory(payload, WORKLOADS)
        assert any("ascend" in p for p in problems)

    def test_missing_workload_rejected(self, gate):
        row = _trajectory_row(7)
        del row["workloads"]["engine-tiered"]
        problems = gate.check_trajectory({"rows": [row]}, WORKLOADS)
        assert problems == [
            "row 0 (PR 7): workload 'engine-tiered' missing"
        ]

    def test_missing_parent_rev_rejected(self, gate):
        row = _trajectory_row(7, parent_rev="")
        problems = gate.check_trajectory({"rows": [row]}, WORKLOADS)
        assert any("parent_rev" in p for p in problems)

    @pytest.mark.parametrize("value", [0.0, -1.0, None, True, "0.5"])
    def test_every_median_positive(self, gate, value):
        row = _trajectory_row(7)
        row["workloads"]["engine-exact"]["change"]["setup_s"] = value
        problems = gate.check_trajectory({"rows": [row]}, WORKLOADS)
        assert problems == [
            "row 0 (PR 7): engine-exact change setup_s must be a "
            "positive number"
        ]

    @pytest.mark.parametrize("pairs", [0, 2.5, None])
    def test_pairs_positive_integer(self, gate, pairs):
        row = _trajectory_row(7)
        row["workloads"]["engine-exact"]["pairs"] = pairs
        problems = gate.check_trajectory({"rows": [row]}, WORKLOADS)
        assert any("pairs" in p for p in problems)

    def test_main_routes_the_trajectory_file(self, gate, tmp_path, capsys):
        row = _trajectory_row(7)
        del row["workloads"]["engine-exact"]["parent"]
        bad = tmp_path / "perf_trajectory.json"
        bad.write_text(json.dumps({"rows": [row]}))
        assert gate.main([str(bad)]) == 1
        assert "'parent' missing" in capsys.readouterr().err


class TestMain:
    def test_live_repo_conforms(self, gate, capsys):
        """Every committed bench JSON passes the gate."""
        assert gate.main([]) == 0
        assert "OK" in capsys.readouterr().out

    def test_violation_fails_with_path(self, gate, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"metrics": {"x": 1.0}}))
        assert gate.main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "scale" in err and "FAILED" in err

    def test_unreadable_file_fails(self, gate, tmp_path, capsys):
        bad = tmp_path / "BENCH_corrupt.json"
        bad.write_text("{not json")
        assert gate.main([str(bad)]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_default_paths_cover_root_and_results(self, gate, repo_root):
        paths = [Path(p) for p in gate.default_paths(str(repo_root))]
        names = {p.name for p in paths}
        assert "BENCH_cache_tiering.json" in names
        assert "cache_tiering.json" in names
        assert "perf_trajectory.json" in names
        assert all(p.suffix == ".json" for p in paths)
