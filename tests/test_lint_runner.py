"""Runner-level tests: suppressions, baseline, rendering, CLI, live tree."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.exceptions import InvalidParameterError
from repro.lint import (
    Finding,
    lint_paths,
    load_baseline,
)
from repro.lint.runner import PARSE_RULE_ID, discover_files

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"
SRC_TREE = REPO_ROOT / "src" / "repro"


class TestLiveTree:
    def test_src_repro_is_clean_modulo_baseline(self, monkeypatch):
        """The acceptance gate: ``repro lint src/repro`` exits 0."""
        monkeypatch.chdir(REPO_ROOT)
        report = lint_paths([SRC_TREE], baseline_path=BASELINE)
        assert report.ok, report.render_text()
        assert report.exit_code == 0
        assert report.files_scanned > 50

    def test_baseline_entries_all_used_and_justified(self, monkeypatch):
        """Every checked-in baseline entry matches a real finding (none
        stale) and carries a justification (enforced at load)."""
        monkeypatch.chdir(REPO_ROOT)
        entries = load_baseline(BASELINE)
        assert entries, "expected the cache.py time.time() bookkeeping entries"
        assert all(entry.justification for entry in entries)
        report = lint_paths([SRC_TREE], baseline_path=BASELINE)
        assert report.stale_baseline == []
        assert report.baselined == sum(entry.count for entry in entries)

    def test_without_baseline_only_known_findings(self, monkeypatch):
        """Raw scan shows exactly the baselined findings: the cache.py
        wall-clock bookkeeping and the snapshot store's created_at stamp
        (REP002).  Shard claims are acquired and released in one
        try/finally by the cell executor, so no REP202 finding remains."""
        monkeypatch.chdir(REPO_ROOT)
        report = lint_paths([SRC_TREE], use_baseline=False)
        assert all(f.rule == "REP002" for f in report.findings)
        assert all(
            f.path.endswith(("sim/cache.py", "serve/snapshots.py"))
            for f in report.findings
        )
        assert any(f.path.endswith("serve/snapshots.py") for f in report.findings)


class TestSuppressions:
    def test_inline_ignore_counts(self):
        report = lint_paths(
            [FIXTURES / "suppressed.py"], use_baseline=False, run_contracts=False
        )
        # Two suppressed (exact id + blanket), one reported (wrong id named).
        assert report.suppressed == 2
        assert [f.rule for f in report.findings] == ["REP002"]

    def test_skip_file(self):
        report = lint_paths(
            [FIXTURES / "skipped.py"], use_baseline=False, run_contracts=False
        )
        assert report.findings == []
        assert report.files_scanned == 1


class TestBaseline:
    def _module(self, tmp_path: pathlib.Path) -> pathlib.Path:
        module = tmp_path / "clockuser.py"
        module.write_text("import time\n\nSTAMP = time.time()\n")
        return module

    def _baseline(self, tmp_path: pathlib.Path, entries) -> pathlib.Path:
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"entries": entries}))
        return path

    def test_baseline_absorbs_matching_finding(self, tmp_path):
        module = self._module(tmp_path)
        baseline = self._baseline(
            tmp_path,
            [
                {
                    "rule": "REP002",
                    "path": module.as_posix(),
                    "code": "STAMP = time.time()",
                    "justification": "test fixture",
                }
            ],
        )
        report = lint_paths(
            [module], baseline_path=baseline, run_contracts=False
        )
        assert report.ok and report.baselined == 1

    def test_edited_line_resurfaces_finding(self, tmp_path):
        """Matching is on source text: changing the flagged line re-reports."""
        module = self._module(tmp_path)
        baseline = self._baseline(
            tmp_path,
            [
                {
                    "rule": "REP002",
                    "path": module.as_posix(),
                    "code": "OLD = time.time()",
                    "justification": "stale text",
                }
            ],
        )
        report = lint_paths([module], baseline_path=baseline, run_contracts=False)
        assert [f.rule for f in report.findings] == ["REP002"]
        assert report.stale_baseline and report.exit_code == 1

    def test_count_limits_absorption(self, tmp_path):
        module = tmp_path / "clockuser.py"
        module.write_text(
            "import time\n\nA = time.time()\nB = time.time()\n"
        )
        baseline = self._baseline(
            tmp_path,
            [
                {
                    "rule": "REP002",
                    "path": module.as_posix(),
                    "code": "A = time.time()",
                    "justification": "covers exactly one occurrence",
                }
            ],
        )
        report = lint_paths([module], baseline_path=baseline, run_contracts=False)
        assert len(report.findings) == 1 and report.baselined == 1

    def test_justification_required(self, tmp_path):
        baseline = self._baseline(
            tmp_path,
            [{"rule": "REP002", "path": "x.py", "code": "y", "justification": ""}],
        )
        with pytest.raises(InvalidParameterError, match="justification"):
            load_baseline(baseline)

    def test_duplicate_entries_rejected(self, tmp_path):
        entry = {
            "rule": "REP002",
            "path": "x.py",
            "code": "y = time.time()",
            "justification": "why",
        }
        baseline = self._baseline(tmp_path, [entry, dict(entry)])
        with pytest.raises(InvalidParameterError, match="duplicates"):
            load_baseline(baseline)

    def test_missing_explicit_baseline_raises(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="not found"):
            lint_paths(
                [FIXTURES / "skipped.py"],
                baseline_path=tmp_path / "nope.json",
                run_contracts=False,
            )


class TestRunnerMechanics:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="does not exist"):
            discover_files([tmp_path / "ghost"])

    def test_discovery_is_sorted_and_deduplicated(self):
        files = discover_files([FIXTURES, FIXTURES / "rep001.py"])
        assert files == sorted(set(files))

    def test_unparseable_file_is_a_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        report = lint_paths([bad], use_baseline=False, run_contracts=False)
        assert [f.rule for f in report.findings] == [PARSE_RULE_ID]
        assert report.exit_code == 1

    def test_github_rendering_escapes_and_anchors(self):
        finding = Finding(
            path="src/x.py", line=3, col=1, rule="REP001", message="50% bad\nline"
        )
        rendered = finding.render_github()
        assert rendered.startswith("::error file=src/x.py,line=3,col=1,")
        assert "%25" in rendered and "%0A" in rendered and "\n" not in rendered

    def test_text_rendering(self):
        finding = Finding(path="a.py", line=2, col=0, rule="REP101", message="m")
        assert finding.render_text() == "a.py:2:0: REP101 m"


class TestCli:
    def test_lint_fixture_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main(
            ["lint", str(FIXTURES / "rep002.py"), "--no-baseline", "--no-contracts"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REP002" in out and "rep002.py" in out

    def test_lint_default_tree_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_github_format(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main(
            [
                "lint",
                str(FIXTURES / "rep001.py"),
                "--format",
                "github",
                "--no-baseline",
                "--no-contracts",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1 and "::error file=" in out

    def test_lint_select_and_list_rules(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "unseeded-randomness" in out
        code = main(
            [
                "lint",
                str(FIXTURES / "rep002.py"),
                "--select",
                "REP001",
                "--no-baseline",
                "--no-contracts",
            ]
        )
        assert code == 0  # REP002 findings exist, but only REP001 selected

    def test_lint_unknown_rule_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["lint", str(FIXTURES / "rep001.py"), "--select", "REP999"])
        assert code == 2
        assert "unknown lint rule" in capsys.readouterr().err
