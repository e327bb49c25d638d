"""Runner-level tests: suppressions, baseline, rendering, CLI, live tree.

Also covers the runner plumbing (tier gating, fixtures-dir skipping,
diff-aware ``changed_only``, scan determinism), SARIF 2.1.0 rendering
with its structural validator, and the occurrence-slot baseline matcher.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess

import pytest

from repro.cli import main
from repro.exceptions import InvalidParameterError
from repro.lint import (
    BaselineEntry,
    Finding,
    apply_baseline,
    lint_paths,
    load_baseline,
)
from repro.lint.runner import PARSE_RULE_ID, discover_files, file_tier
from repro.lint.sarif import sarif_document, validate_sarif

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
        (REP002)."""
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


class TestRunnerPlumbing:
    def test_fixtures_dirs_skipped_on_recursion(self):
        files = discover_files([REPO_ROOT / "tests"])
        assert files, "expected test files"
        assert not any("fixtures" in f.parts for f in files)

    def test_explicit_fixture_file_still_scans(self):
        files = discover_files([FIXTURES / "rep002.py"])
        assert len(files) == 1

    def test_fixtures_dir_as_root_still_scans(self):
        files = discover_files([FIXTURES])
        assert any(f.name == "rep002.py" for f in files)

    def test_file_tiers(self):
        assert file_tier("src/repro/sim/engine.py") == "src"
        assert file_tier("tests/test_engine.py") == "tests"
        assert file_tier("benchmarks/bench_cache.py") == "benchmarks"

    def test_tests_tier_exempt_from_contract_rules(self, tmp_path):
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        module = tests_dir / "test_clocky.py"
        module.write_text("import time\n\ndef test_x():\n    return time.time()\n")
        report = lint_paths([tests_dir], use_baseline=False, run_contracts=False)
        assert report.findings == []
        # The same file passed explicitly bypasses tier gating.
        report = lint_paths([module], use_baseline=False, run_contracts=False)
        assert [f.rule for f in report.findings] == ["REP002"]

    def test_scan_is_deterministic(self):
        """Two scans of the same tree yield identical findings."""
        first = lint_paths(
            [REPO_ROOT / "src" / "repro"], use_baseline=False, run_contracts=False
        )
        second = lint_paths(
            [REPO_ROOT / "src" / "repro"], use_baseline=False, run_contracts=False
        )
        assert first.findings == second.findings
        assert [f.code for f in first.findings] == [f.code for f in second.findings]

    @pytest.mark.skipif(shutil.which("git") is None, reason="git not on PATH")
    def test_changed_only_reports_only_changed_files(self, tmp_path, monkeypatch):
        def git(*argv):
            subprocess.run(
                ["git", *argv],
                cwd=tmp_path,
                check=True,
                capture_output=True,
                env={
                    "GIT_AUTHOR_NAME": "t",
                    "GIT_AUTHOR_EMAIL": "t@example.invalid",
                    "GIT_COMMITTER_NAME": "t",
                    "GIT_COMMITTER_EMAIL": "t@example.invalid",
                    "HOME": str(tmp_path),
                    "PATH": "/usr/bin:/bin:/usr/local/bin",
                },
            )

        git("init", "-q")
        (tmp_path / "old.py").write_text("import time\nSTAMP = time.time()\n")
        git("add", "old.py")
        git("commit", "-qm", "seed")
        (tmp_path / "new.py").write_text("import time\nSTAMP = time.time()\n")
        monkeypatch.chdir(tmp_path)
        full = lint_paths([tmp_path], use_baseline=False, run_contracts=False)
        assert {pathlib.Path(f.path).name for f in full.findings} == {
            "old.py",
            "new.py",
        }
        diffed = lint_paths(
            [tmp_path],
            use_baseline=False,
            run_contracts=False,
            changed_only="HEAD",
        )
        assert {pathlib.Path(f.path).name for f in diffed.findings} == {"new.py"}
        assert diffed.files_scanned == 1

    def test_changed_only_bad_ref_raises(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        with pytest.raises(InvalidParameterError, match="changed-only"):
            lint_paths(
                [REPO_ROOT / "src" / "repro" / "_rng.py"],
                use_baseline=False,
                run_contracts=False,
                changed_only="no-such-ref-anywhere",
            )


class TestSarif:
    def _report(self):
        return lint_paths(
            [FIXTURES / "rep002.py"],
            select=["REP002"],
            use_baseline=False,
            run_contracts=False,
        )

    def test_document_validates_and_carries_findings(self):
        report = self._report()
        assert report.findings, "fixture should produce findings"
        doc = sarif_document(report)
        assert validate_sarif(doc) == []
        results = doc["runs"][0]["results"]
        assert len(results) == len(report.findings)
        rules = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert {"REP002", "REP001", "REP000"} <= rules
        first = results[0]
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_render_roundtrips_through_json(self):
        report = self._report()
        doc = json.loads(report.render("sarif"))
        assert validate_sarif(doc) == []

    def test_validator_rejects_structural_breakage(self):
        report = self._report()
        doc = sarif_document(report)
        assert validate_sarif({"version": "1.0", "runs": []})
        bad_version = json.loads(json.dumps(doc))
        bad_version["version"] = "2.0.0"
        assert any("version" in e for e in validate_sarif(bad_version))
        bad_message = json.loads(json.dumps(doc))
        bad_message["runs"][0]["results"][0]["message"] = {}
        assert any("message" in e for e in validate_sarif(bad_message))
        bad_region = json.loads(json.dumps(doc))
        bad_region["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
            "region"
        ]["startLine"] = 0
        assert any("startLine" in e for e in validate_sarif(bad_region))
        bad_rule = json.loads(json.dumps(doc))
        bad_rule["runs"][0]["results"][0]["ruleIndex"] = 9999
        assert any("ruleIndex" in e for e in validate_sarif(bad_rule))

    def test_stale_baseline_entries_become_results(self):
        report = self._report()
        report.stale_baseline = [
            BaselineEntry(
                rule="REP002",
                path="src/gone.py",
                code="x = 1",
                justification="was real once",
            )
        ]
        doc = sarif_document(report)
        assert validate_sarif(doc) == []
        stale = [
            r for r in doc["runs"][0]["results"] if r["ruleId"] == "REP901"
        ]
        assert len(stale) == 1


def _finding(rule, path, code, line):
    return Finding(path=path, line=line, col=0, rule=rule, message="m", code=code)


class TestBaselineOccurrences:
    def test_one_entry_cannot_absorb_two_occurrences(self):
        findings = [
            _finding("REP002", "a.py", "t = time.time()", 3),
            _finding("REP002", "a.py", "t = time.time()", 9),
        ]
        entry = BaselineEntry("REP002", "a.py", "t = time.time()", "why")
        kept, stale = apply_baseline(findings, [entry])
        assert [f.line for f in kept] == [9]
        assert stale == []

    def test_occurrence_index_targets_a_specific_slot(self):
        findings = [
            _finding("REP002", "a.py", "t = time.time()", 3),
            _finding("REP002", "a.py", "t = time.time()", 9),
        ]
        entry = BaselineEntry(
            "REP002", "a.py", "t = time.time()", "second copy only", occurrence=1
        )
        kept, stale = apply_baseline(findings, [entry])
        assert [f.line for f in kept] == [3]
        assert stale == []

    def test_partially_matched_entry_is_stale(self):
        """count=2 with one surviving occurrence is stale — the old budget
        matcher would silently keep absorbing."""
        findings = [_finding("REP002", "a.py", "t = time.time()", 3)]
        entry = BaselineEntry("REP002", "a.py", "t = time.time()", "why", count=2)
        kept, stale = apply_baseline(findings, [entry])
        assert kept == []
        assert stale == [entry]

    def test_disjoint_entries_cover_disjoint_slots(self):
        findings = [
            _finding("REP002", "a.py", "t = time.time()", 3),
            _finding("REP002", "a.py", "t = time.time()", 9),
        ]
        entries = [
            BaselineEntry("REP002", "a.py", "t = time.time()", "first"),
            BaselineEntry(
                "REP002", "a.py", "t = time.time()", "second", occurrence=1
            ),
        ]
        kept, stale = apply_baseline(findings, entries)
        assert kept == [] and stale == []

    def test_overlapping_slots_rejected_at_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "REP002",
                            "path": "a.py",
                            "code": "x",
                            "justification": "one",
                            "count": 2,
                        },
                        {
                            "rule": "REP002",
                            "path": "a.py",
                            "code": "x",
                            "justification": "two",
                            "occurrence": 1,
                        },
                    ]
                }
            )
        )
        with pytest.raises(InvalidParameterError, match="duplicates"):
            load_baseline(path)

    def test_invalid_occurrence_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "REP002",
                            "path": "a.py",
                            "code": "x",
                            "justification": "why",
                            "occurrence": -1,
                        }
                    ]
                }
            )
        )
        with pytest.raises(InvalidParameterError, match="occurrence"):
            load_baseline(path)
