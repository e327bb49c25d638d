"""The lint-rule registry: named, documented, individually selectable rules.

Mirrors the scenario registry (:func:`repro.sim.scenarios.register_scenario`):
every determinism/cache contract the repo enforces is one registered
:class:`LintRule` — an id (``REPnnn``), a slug, a one-line summary, a
rationale paragraph (rendered into ``docs/lint.rst``'s rule catalog), and
a checker callable.  The runner (:mod:`repro.lint.runner`) executes every
registered rule over each module; adding a new contract is one
:func:`register_rule` call, not a fork of the runner.

Checkers come in two shapes:

* **AST checkers** receive a :class:`repro.lint.context.ModuleContext`
  (parsed tree + import-alias map + parent links) and yield
  :class:`~repro.lint.findings.Finding` objects for one module;
* the **contract checker** of REP003 additionally has a runtime half
  (:mod:`repro.lint.contracts`) that imports the real classes and
  cross-references live ``vars()`` against the cache fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.exceptions import InvalidParameterError
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding

#: The walk tiers a file can belong to.  Contract rules run over the
#: product and benchmark trees; test code is held to the hygiene and
#: picklability rules but may freely seed RNGs, read clocks, etc.
ALL_TIERS = frozenset({"src", "tests", "benchmarks"})

#: Tier set for determinism/cache contract rules (everything but tests).
CONTRACT_TIERS = frozenset({"src", "benchmarks"})


@dataclass(frozen=True)
class LintRule:
    """One registered determinism/cache contract.

    ``id`` is the stable code suppressions and baselines reference
    (``REPnnn``), ``name`` a kebab-case slug, ``summary`` the one-liner
    shown by ``lint --list-rules``, ``rationale`` the invariant the rule
    guards (rendered in the docs catalog), and ``check`` the checker.

    ``tiers`` scopes where findings apply when walking directories:
    a finding in a ``tests/`` file is dropped unless the rule lists the
    ``"tests"`` tier.  Explicitly-passed files bypass tier gating (the
    fixture harness depends on that).
    """

    id: str
    name: str
    summary: str
    rationale: str
    check: Callable[[ModuleContext], Iterable[Finding]]
    tiers: frozenset[str] = field(default=CONTRACT_TIERS)


#: Registered rules by id, in registration order (the order reports use).
RULES: dict[str, LintRule] = {}


def register_rule(rule: LintRule) -> LintRule:
    """Add ``rule`` to :data:`RULES`; ids must be unique.

    Returns the rule so modules can keep a handle on what they register.
    """
    if rule.id in RULES:
        raise InvalidParameterError(f"lint rule id {rule.id!r} is already taken")
    RULES[rule.id] = rule
    return rule


def rule_ids() -> tuple[str, ...]:
    """Registered rule ids, in registration order."""
    return tuple(RULES)


def resolve_rules(select: Iterable[str] | None = None) -> tuple[LintRule, ...]:
    """The rules a run should execute: all of them, or the ``select`` ids.

    Unknown ids raise so a typo in ``--select`` (or in a test) fails
    loudly instead of silently checking nothing.
    """
    if select is None:
        return tuple(RULES.values())
    out = []
    for rule_id in select:
        if rule_id not in RULES:
            raise InvalidParameterError(
                f"unknown lint rule {rule_id!r}; known: {', '.join(RULES)}"
            )
        out.append(RULES[rule_id])
    return tuple(out)
