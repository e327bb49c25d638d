"""The lint driver: file discovery, rule execution, baseline, rendering.

:func:`lint_paths` is the one entry point the CLI and the tests share.
It walks the requested files/directories in sorted order (the runner
practices the determinism it preaches), builds one
:class:`~repro.lint.context.ModuleContext` per module, executes every
selected registered rule over it, folds in the runtime contract scan
(:mod:`repro.lint.contracts`) when REP003 is in play, honors inline
suppressions, and finally subtracts the checked-in baseline.

Directory walks are **tiered**: a file under ``tests/`` only receives
findings from rules that opt into the ``"tests"`` tier (hygiene and
picklability), while ``src``/``benchmarks`` get the full contract set.
Files passed explicitly bypass tier gating — the fixture harness lints
single files with every rule.  ``fixtures`` directories encountered
*below* a requested root are skipped entirely: planted violations are
test data, not tree debt.

``changed_only`` narrows the scan to files touched since a git ref
(plus untracked files).  Every rule reads one module at a time, so the
unchanged files are never parsed, and only stale-baseline debt
attributable to the changed files fails the run.

The resulting :class:`LintReport` renders as plain text, GitHub workflow
annotations, or SARIF 2.1.0 (:mod:`repro.lint.sarif`) and knows its own
exit code: findings (or a stale baseline entry, or an unparseable file)
mean failure.
"""

from __future__ import annotations

import pathlib
import subprocess
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, resolve_rules

# Importing the checkers registers every rule as a side effect.
import repro.lint.checks  # noqa: F401  (registration import)

#: Rule id used for files the scanner cannot parse at all.
PARSE_RULE_ID = "REP000"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding]
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: tuple[str, ...] = ()
    baselined: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """Clean run: nothing to report and no stale baseline debt."""
        return not self.findings and not self.stale_baseline

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render_text(self) -> str:
        """Human-readable report: one ``path:line:col`` line per finding,
        stale-baseline notices, then a one-line summary."""
        lines = [finding.render_text() for finding in self.findings]
        for entry in self.stale_baseline:
            lines.append(
                f"{entry.path}: stale baseline entry for {entry.rule} "
                f"({entry.code!r}) — the tree no longer produces it; delete it"
            )
        noun = "file" if self.files_scanned == 1 else "files"
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_scanned} {noun} "
            f"({len(self.rules_run)} rules"
        )
        if self.baselined:
            summary += f", {self.baselined} baselined"
        if self.suppressed:
            summary += f", {self.suppressed} suppressed inline"
        summary += ")"
        lines.append(summary)
        return "\n".join(lines)

    def render_github(self) -> str:
        """CI report: one ``::error`` workflow annotation per finding (and
        per stale baseline entry), surfacing inline on the PR diff."""
        lines = [finding.render_github() for finding in self.findings]
        for entry in self.stale_baseline:
            message = (
                f"stale baseline entry for {entry.rule} ({entry.code}); "
                "the tree no longer produces it - delete it"
            ).replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
            lines.append(
                f"::error file={entry.path},title=repro-lint baseline::{message}"
            )
        return "\n".join(lines)

    def render_sarif(self) -> str:
        """The SARIF 2.1.0 rendering (see :mod:`repro.lint.sarif`)."""
        from repro.lint.sarif import render_sarif

        return render_sarif(self)

    def render(self, fmt: str) -> str:
        """Render as ``"text"``, ``"github"`` or ``"sarif"`` (``--format``)."""
        if fmt == "text":
            return self.render_text()
        if fmt == "github":
            return self.render_github()
        if fmt == "sarif":
            return self.render_sarif()
        raise InvalidParameterError(f"unknown lint output format {fmt!r}")


def discover_files(paths: Sequence[str | pathlib.Path]) -> list[pathlib.Path]:
    """The sorted ``.py`` files under the requested paths.

    Directories recurse, skipping anything under a ``fixtures`` directory
    *below* the requested root (planted lint violations are test data);
    naming a fixtures directory — or a file inside one — explicitly still
    scans it.  Explicit files are taken as given (and may be non-``.py``
    if the caller insists).  Missing paths raise — a typo'd path silently
    scanning nothing is how lint rot starts.
    """
    out: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if "fixtures" in found.relative_to(path).parts[:-1]:
                    continue
                out.append(found)
        elif path.is_file():
            out.append(path)
        else:
            raise InvalidParameterError(f"lint path does not exist: {path}")
    unique: dict[pathlib.Path, None] = {}
    for path in out:
        unique.setdefault(path.resolve(), None)
    return sorted(unique)


def _display_path(path: pathlib.Path) -> str:
    try:
        return path.relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def file_tier(display: str) -> str:
    """The walk tier of a scanned file: ``tests``/``benchmarks``/``src``.

    Classified from the (repo-relative) path components, so a test helper
    in ``tests/helpers/`` and the suite itself land in the same tier.
    """
    parts = pathlib.PurePosixPath(display).parts
    if "tests" in parts:
        return "tests"
    if "benchmarks" in parts:
        return "benchmarks"
    return "src"


def changed_files(
    ref: str, root: Optional[pathlib.Path] = None
) -> set[pathlib.Path]:
    """Resolved paths git reports as changed since ``ref``, plus untracked.

    Uses ``git diff --name-only <ref>`` (worktree vs. ref, so staged and
    unstaged edits both count) and ``git ls-files --others
    --exclude-standard`` for files git does not track yet.  Raises when
    git is unavailable or the ref does not resolve — a diff-aware run
    silently scanning nothing would defeat its purpose.
    """
    base = (root or pathlib.Path.cwd()).resolve()
    changed: set[pathlib.Path] = set()
    for cmd in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, cwd=base, capture_output=True, text=True, check=True
            )
        except FileNotFoundError as exc:
            raise InvalidParameterError(
                "--changed-only requires git on PATH"
            ) from exc
        except subprocess.CalledProcessError as exc:
            detail = (exc.stderr or "").strip() or f"exit code {exc.returncode}"
            raise InvalidParameterError(
                f"--changed-only: {' '.join(cmd)} failed: {detail}"
            ) from exc
        for line in proc.stdout.splitlines():
            name = line.strip()
            if name:
                changed.add((base / name).resolve())
    return changed


def lint_paths(
    paths: Sequence[str | pathlib.Path],
    *,
    select: Optional[Iterable[str]] = None,
    baseline_path: Optional[pathlib.Path] = None,
    use_baseline: bool = True,
    run_contracts: bool = True,
    changed_only: Optional[str] = None,
) -> LintReport:
    """Lint ``paths`` with the selected rules and return the report.

    ``baseline_path=None`` with ``use_baseline=True`` looks for
    ``.repro-lint-baseline.json`` in the current directory; a missing
    default baseline simply means "no accepted findings".  The runtime
    contract scan runs when REP003 is selected and ``run_contracts`` is
    true; its findings are kept only when they anchor inside a scanned
    file, so linting a fixture directory does not drag in the live tree.
    ``changed_only`` is a git ref: only the discovered files changed
    since it are scanned.
    """
    rules: tuple[LintRule, ...] = resolve_rules(select)
    files = discover_files(paths)
    if changed_only is not None:
        changed = changed_files(changed_only)
        files = [path for path in files if path in changed]
    explicit = {
        pathlib.Path(raw).resolve()
        for raw in paths
        if pathlib.Path(raw).is_file()
    }
    scanned = set(files)

    findings: list[Finding] = []
    suppressed = 0
    for path in files:
        display = _display_path(path)
        source = path.read_text(encoding="utf-8")
        try:
            ctx = ModuleContext(path, source, display)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule=PARSE_RULE_ID,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        if ctx.skip_file:
            continue
        tier = file_tier(display)
        for rule in rules:
            if tier not in rule.tiers and path not in explicit:
                continue
            for finding in rule.check(ctx):
                if ctx.is_suppressed(finding.rule, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)

    if run_contracts and any(rule.id == "REP003" for rule in rules):
        from repro.lint.contracts import check_contracts

        for finding in check_contracts():
            anchor = pathlib.Path(finding.path)
            if not anchor.is_absolute():
                anchor = pathlib.Path.cwd() / anchor
            if anchor.resolve() in scanned:
                findings.append(finding)

    findings.sort()

    stale: list[BaselineEntry] = []
    baselined = 0
    if use_baseline:
        resolved_baseline = baseline_path or pathlib.Path(DEFAULT_BASELINE_NAME)
        if baseline_path is not None and not resolved_baseline.is_file():
            raise InvalidParameterError(f"baseline file not found: {resolved_baseline}")
        if resolved_baseline.is_file():
            entries = load_baseline(resolved_baseline)
            before = len(findings)
            findings, stale = apply_baseline(findings, entries)
            baselined = before - len(findings)
            # A stale entry for a file outside this scan is not evidence of
            # anything — keep only staleness the scan could have refuted.
            stale = [
                entry
                for entry in stale
                if pathlib.Path(entry.path).resolve() in scanned
            ]

    return LintReport(
        findings=findings,
        stale_baseline=stale,
        files_scanned=len(files),
        rules_run=tuple(rule.id for rule in rules),
        baselined=baselined,
        suppressed=suppressed,
    )
