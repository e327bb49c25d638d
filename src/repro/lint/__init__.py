"""repro-lint: the AST-based determinism & cache-contract analyzer.

The simulation stack's guarantees — bit-identical results for any worker
count, content-addressed cell caching that is sound across machines —
rest on code-level invariants no unit test can pin forever: randomness
flows only through :mod:`repro._rng`, wall clocks never leak into specs,
every result-shaping attribute enters the cache fingerprint, trial tasks
pickle, emitted orders are sorted.  This subpackage turns each invariant
into a named, registered, documented lint rule and ships the runner that
enforces them in CI (``repro lint``).

Layout:

* :mod:`~repro.lint.registry` — :class:`LintRule` + :func:`register_rule`
  (the scenario-registry pattern applied to contracts), including each
  rule's tier set (src/tests/benchmarks);
* :mod:`~repro.lint.checks` — the per-module AST checkers (REP001–REP005
  plus the REP101/REP102 hygiene rules), registered at import;
* :mod:`~repro.lint.contracts` — REP003's runtime half: live
  fingerprint-coverage cross-referencing of the real classes;
* :mod:`~repro.lint.context` — per-module AST context (import-alias
  resolution, parent links, ``# repro-lint: ignore[...]`` suppressions);
* :mod:`~repro.lint.baseline` — the checked-in accepted-findings file,
  justification-required, matched slot-exactly on source text (one
  entry covers one numbered occurrence, never a budget);
* :mod:`~repro.lint.runner` — discovery, tier gating, diff-aware
  ``changed_only`` execution, rendering
  (:func:`lint_paths` / :class:`LintReport`);
* :mod:`~repro.lint.sarif` — SARIF 2.1.0 rendering plus the structural
  validator CI runs over the emitted document;
* :mod:`~repro.lint.findings` — the :class:`Finding` record and its
  text / GitHub-annotation renderings.
"""

from repro.lint.baseline import BaselineEntry, apply_baseline, load_baseline
from repro.lint.context import ModuleContext, package_relpath
from repro.lint.findings import Finding
from repro.lint.registry import RULES, LintRule, register_rule, resolve_rules, rule_ids
from repro.lint.runner import (
    LintReport,
    changed_files,
    discover_files,
    file_tier,
    lint_paths,
)
from repro.lint.sarif import render_sarif, sarif_document, validate_sarif

# Importing the runner imported the checkers, so RULES is fully populated
# here.

__all__ = [
    "BaselineEntry",
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "RULES",
    "apply_baseline",
    "changed_files",
    "discover_files",
    "file_tier",
    "lint_paths",
    "load_baseline",
    "package_relpath",
    "register_rule",
    "render_sarif",
    "resolve_rules",
    "rule_ids",
    "sarif_document",
    "validate_sarif",
]
