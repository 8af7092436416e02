"""Live-tree meta-tests: the real repo is clean, and the analyzer
demonstrably catches a seeded snapshot-coverage mutation."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis.framework import ParsedModule, run_analysis
from repro.analysis.rules_snapshot import (
    CAPTURE_METHODS,
    RESTORE_METHODS,
    SnapshotCoverageRule,
    _method_map,
    _pick,
)


def test_tree_has_zero_unbaselined_findings(repo_root):
    result = run_analysis(
        repo_root,
        baseline=repo_root / "analysis_baseline.json",
    )
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )
    assert result.stale_baseline == []
    assert result.n_modules > 50  # really scanned the tree


def test_baseline_is_empty_for_core_and_cluster(repo_root):
    # The committed baseline grandfathers nothing at all, which is
    # strictly stronger than the empty-for-core+cluster requirement.
    import json

    data = json.loads(
        (repo_root / "analysis_baseline.json").read_text()
    )
    assert data["findings"] == []


def test_mutation_dropped_capture_field_turns_red(
    repo_root, tmp_path
):
    """Delete ``n_shed`` from ``Snapshot.capture`` — the exact slip the
    rule exists to catch — and the analyzer must go red."""
    source = (
        repo_root / "src" / "repro" / "core" / "journal.py"
    ).read_text()
    mutated = source.replace("n_shed=system._n_shed,\n", "")
    assert mutated != source, "mutation target not found"

    victim = tmp_path / "journal_mutated.py"
    victim.write_text(mutated)
    module = ParsedModule.parse(victim, tmp_path)
    findings = list(SnapshotCoverageRule().check_module(module))
    assert any(
        "Snapshot.n_shed" in f.message
        and "capture()" in f.message
        for f in findings
    ), [f.render() for f in findings]

    # Sanity: the unmutated file is clean.
    pristine = tmp_path / "journal_pristine.py"
    pristine.write_text(source)
    clean = ParsedModule.parse(pristine, tmp_path)
    assert list(SnapshotCoverageRule().check_module(clean)) == []


def test_event_journal_stays_under_snapshot_coverage(
    repo_root, tmp_path
):
    """The rule finds capture/restore pairs by method name; the journal
    must keep such a pair, so a new column it forgets to capture or
    restore still turns the analyzer red."""
    source = (
        repo_root / "src" / "repro" / "core" / "journal.py"
    ).read_text()
    slots = '__slots__ = ("_time", "_kind", "_a", "_b", "_x", "_owner", "_n")'
    mutated = source.replace(
        slots, slots.replace('"_n")', '"_n", "_extra")')
    )
    assert mutated != source, "mutation target not found"
    victim = tmp_path / "journal_extra_column.py"
    victim.write_text(mutated)
    module = ParsedModule.parse(victim, tmp_path)
    findings = list(SnapshotCoverageRule().check_module(module))
    assert any(
        "EventJournal._extra" in f.message for f in findings
    ), [f.render() for f in findings]


def _drop_capture_field(source: str, cls_name: str, field: str) -> str:
    """``source`` with every binding of ``field`` removed from
    ``cls_name.capture``: keyword arguments named ``field`` and
    assignments to ``<anything>.field``."""

    class Drop(ast.NodeTransformer):
        def visit_keyword(self, node):
            return None if node.arg == field else node

        def visit_Assign(self, node):
            target = node.targets[0]
            if isinstance(target, ast.Attribute) and target.attr == field:
                return None
            return self.generic_visit(node)

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls_name:
            for method in node.body:
                if getattr(method, "name", None) == "capture":
                    Drop().visit(method)
    return ast.unparse(tree)


def test_engine_snapshot_fields_are_each_load_bearing(repo_root, tmp_path):
    """The engine-local state that a single engine and every fleet
    replica share is one class under the rule's capture/restore
    pairing, so dropping any one of its fields from ``capture`` turns
    the analyzer red.
    """
    from repro.core.journal import EngineSnapshot

    source = (
        repo_root / "src" / "repro" / "core" / "journal.py"
    ).read_text()
    pristine = ast.parse(source)
    engine_cls = next(
        node
        for node in ast.walk(pristine)
        if isinstance(node, ast.ClassDef) and node.name == "EngineSnapshot"
    )
    methods = _method_map(engine_cls)
    assert _pick(methods, CAPTURE_METHODS).name == "capture"
    assert _pick(methods, RESTORE_METHODS).name == "restore"

    missed = set()
    for field in dataclasses.fields(EngineSnapshot):
        victim = tmp_path / f"journal_without_{field.name}.py"
        victim.write_text(
            _drop_capture_field(source, "EngineSnapshot", field.name)
        )
        module = ParsedModule.parse(victim, tmp_path)
        findings = SnapshotCoverageRule().check_module(module)
        if not any(
            f"EngineSnapshot.{field.name} " in f.message
            and "capture()" in f.message
            for f in findings
        ):
            missed.add(field.name)
    assert missed == set(), missed


def test_snapshot_compositions_stay_paired(repo_root):
    """The snapshot, its two parts and its chunked store keep their own
    capture/restore pair, so their fields stay under the rule too.  The
    fleet's ``ClusterSnapshot`` is the same class as ``Snapshot``."""
    from repro.core.cluster_router import ClusterSnapshot
    from repro.core.journal import Snapshot

    names = {"ClockSnapshot", "EngineSnapshot", "Snapshot", "StoreChunks"}
    tree = ast.parse(
        (repo_root / "src" / "repro" / "core" / "journal.py").read_text()
    )
    paired = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and _pick(_method_map(node), CAPTURE_METHODS) is not None
        and _pick(_method_map(node), RESTORE_METHODS) is not None
    }
    assert names <= paired, names - paired
    assert ClusterSnapshot is Snapshot


def _import_script(repo_root: Path, name: str):
    path = repo_root / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_gate_scripts_are_importable(repo_root):
    """Importing the CI gate scripts runs nothing and exposes their
    entry points (shared helpers live in repro.analysis._cli)."""
    replay = _import_script(repo_root, "check_replay")
    golden = _import_script(repo_root, "check_seed_golden")
    assert callable(replay.main) and callable(replay.run_gate)
    assert callable(golden.main) and callable(golden.build_payload)
    # Both report through the same shared helpers.
    from repro.analysis import _cli

    assert replay.gate_ok is _cli.gate_ok
    assert golden.gate_ok is _cli.gate_ok


@pytest.mark.parametrize("mode", [["--suffix"], ["--fleet", "--suffix"]])
def test_replay_gate_reports_suffix_divergence(
    repo_root, monkeypatch, capsys, tmp_path, mode
):
    """A suffix replay that cannot regenerate a tampered reference
    journal fails the gate through ``gate_fail``, naming the snapshot
    time and the first diverging row, and still writes ``--out``."""
    from repro.core.journal import EventJournal, JournalKind

    replay = _import_script(repo_root, "check_replay")
    resume = replay._resume
    tampered = []

    def against_tampered(snapshot, build, reference, trace, suffix, payload):
        # Bump the payload of the first non-ARRIVAL suffix row: the
        # replayed cohorts stay the same and only that row diverges.
        rows = reference.entries()
        row = next(
            (
                i
                for i in range(len(snapshot.journal), len(rows))
                if rows[i][1] != JournalKind.ARRIVAL
            ),
            None,
        )
        if row is not None:
            time, kind, a, b, x, owner = rows[row]
            rows[row] = (time, kind, a, b, x + 1.0, owner)
            tampered.append((snapshot.time_s, row, rows[row]))
        return resume(
            snapshot,
            build,
            EventJournal.from_entries(rows),
            trace,
            suffix,
            payload,
        )

    monkeypatch.setattr(replay, "_resume", against_tampered)
    out = tmp_path / "replay.json"
    assert replay.main(mode + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    snap_time, row, reference_row = tampered[0]
    assert "FAILED" in err
    assert f"t={snap_time:.1f}s snapshot" in err
    assert f"at row {row} " in err
    assert f"reference row {reference_row}" in err
    assert out.exists()


def test_replay_gate_raises_on_prefix_mismatch(repo_root, monkeypatch):
    """A reference journal whose prefix the restored system's journal
    does not match (wrong snapshot or wrong run) is a set-up error: the
    suffix gate raises it instead of reporting a replay divergence."""
    from repro.core.journal import EventJournal, JournalDivergenceError

    replay = _import_script(repo_root, "check_replay")
    resume = replay._resume

    def against_wrong_run(snapshot, build, reference, trace, suffix, payload):
        rows = reference.entries()
        time, kind, a, b, x, owner = rows[0]
        rows[0] = (time, kind, a, b, x + 1.0, owner)
        return resume(
            snapshot,
            build,
            EventJournal.from_entries(rows),
            trace,
            suffix,
            payload,
        )

    monkeypatch.setattr(replay, "_resume", against_wrong_run)
    with pytest.raises(JournalDivergenceError, match="prefix mismatch"):
        replay.main(["--suffix"])
