"""Live-tree meta-tests: the real repo is clean, and the analyzer
demonstrably catches a seeded snapshot-coverage mutation."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

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
    slots = '__slots__ = ("_time", "_kind", "_a", "_b", "_x", "_n")'
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
    """Both compositions and the shared-clock part keep their own
    capture/restore pair, so their fields stay under the rule too."""
    for relpath, names in (
        ("journal.py", {"ClockSnapshot", "Snapshot"}),
        ("cluster_router.py", {"ClusterSnapshot"}),
    ):
        tree = ast.parse(
            (repo_root / "src" / "repro" / "core" / relpath).read_text()
        )
        paired = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and _pick(_method_map(node), CAPTURE_METHODS) is not None
            and _pick(_method_map(node), RESTORE_METHODS) is not None
        }
        assert names <= paired, (relpath, names - paired)


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
