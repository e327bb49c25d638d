"""Command-line interface: regenerate any of the paper's exhibits.

Examples::

    ldprecover list
    ldprecover run --figure fig3 --dataset ipums --workers 4
    ldprecover run --figure fig5 --parameter beta --workers 0
    ldprecover run --figure fig7 --chunk-users 200000
    ldprecover run --figure fig7 --chunk-users 200000 --olh-cohort 256
    ldprecover run --figure table1 --trials 3 --cache-stats
    ldprecover run --figure fig6 --no-cache
    ldprecover run --figure fig8 --trials 2 --target-ci 1e-3 --max-trials 20
    ldprecover run --exhibit kv --trials 3
    ldprecover run --exhibit heavyhitter --workers 0
    ldprecover demo --protocol oue --beta 0.1
    ldprecover serve --protocol grr --epsilon 1.0 --domain-size 128 --port 8080
    ldprecover serve --protocol olh --olh-cohort 256 --retain-reports
    ldprecover lint src/repro tests benchmarks
    ldprecover lint --list-rules
    ldprecover lint --format github --select REP001,REP002
    ldprecover lint --format sarif > repro-lint.sarif
    ldprecover lint --changed-only origin/main
    ldprecover cache ls
    ldprecover cache verify
    ldprecover cache prune --older-than-days 30
    ldprecover shard run --figure fig8 --shard-index 0 --shard-count 2
    ldprecover shard run --figure fig8 --claims
    ldprecover shard status --figure fig8
    ldprecover shard merge --figure fig8 --output fig8.json

Completed experiment cells are cached on disk (see
:mod:`repro.sim.cache`) under ``--cache-dir`` — by default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ldprecover`` — so interrupted
sweeps resume from where they stopped and warm reruns cost zero
simulation time.  ``--no-cache`` bypasses the store, ``--cache-stats``
prints the hit/miss summary after a run, and the ``cache`` subcommand
inspects (``ls``), garbage-collects (``prune``) and integrity-checks
(``verify``) the store.  With ``--target-ci`` (adaptive CI-targeted
trial allocation, see :class:`repro.sim.engine.TrialBudget`) cells also
persist appendable per-trial blocks, so a later run with a higher
``--max-trials`` resumes every cell from its stored trials instead of
recomputing; ``cache ls`` then shows per-cell block counts and achieved
half-widths, and ``cache verify`` checks block-chain integrity.

The ``shard`` subcommand splits one sweep across machines that share a
cache directory (see :mod:`repro.sim.shard`): ``shard run`` executes one
shard's cells — statically partitioned via ``--shard-index/--shard-count``
or work-stealing via ``--claims`` — ``shard status`` reports progress,
and ``shard merge`` renders the final rows from the fully populated
cache, bit-identical to an unsharded run.

The ``lint`` subcommand runs the determinism & cache-contract analyzer
(:mod:`repro.lint`) over a source tree: every registered ``REPnnn`` rule
(unseeded randomness, wall-clock leaks, fingerprint coverage, trial-task
picklability, unordered iteration, plus the REP2xx whole-program flow
rules: seed provenance, claim leaks, fingerprint mutation, unordered
reductions, entropy re-exports) and the runtime fingerprint contract
scan.  ``--format github`` emits CI workflow annotations, ``--format
sarif`` a SARIF 2.1.0 log for code-scanning upload, ``--changed-only
REF`` narrows reporting to files changed since a git ref, and the
checked-in ``.repro-lint-baseline.json`` absorbs reviewed findings.

The ``serve`` subcommand boots the online recovery service
(:mod:`repro.serve`): an asyncio HTTP endpoint that ingests perturbed
report batches per epoch (``POST /ingest``), serves raw / LDPRecover /
LDPRecover* / Detection frequency views with lazy dirty-epoch
recomputation (``GET /frequencies``), and exposes ``/healthz`` and
``/stats``; ``--snapshot-dir`` enables crash-safe state snapshots
(``POST /snapshot``) that ``--resume`` restores on the next boot.

Beyond the paper's figures, registered *scenario exhibits*
(:mod:`repro.sim.scenarios`) — key-value recovery (``--exhibit kv``) and
heavy-hitter promotion/repair (``--exhibit heavyhitter``) — dispatch
through the same ``run``/``shard`` machinery, caches included.

The same functions back the ``benchmarks/`` suite; the CLI simply prints
the row tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError, ReproError, ShardIncompleteError
from repro.sim.cache import resolve_cache
from repro.sim.experiment import format_table
from repro.sim.scenarios import SCENARIOS
from repro.sim.shard import (
    DEFAULT_CLAIM_TTL,
    SweepConfig,
    merge_sweep,
    run_shard,
    sweep_status,
)

def _exhibits() -> tuple[str, ...]:
    """The regenerable exhibits (``--figure``/``--exhibit`` choices of
    ``run`` and ``shard``): every exhibit registered *at call time* —
    computed lazily so an exhibit registered after this module imported
    still dispatches through the CLI."""
    return SweepConfig.exhibit_names()


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    """The :class:`SweepConfig` described by parsed ``run``/``shard`` flags."""
    return SweepConfig(
        figure=args.figure,
        dataset=args.dataset,
        parameter=args.parameter,
        num_users=args.num_users,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        chunk_users=args.chunk_users,
        olh_cohort=args.olh_cohort,
        target_ci=args.target_ci,
        max_trials=args.max_trials,
        trial_batch=args.trial_batch,
    )

def _chunkless() -> tuple[str, ...]:
    """Exhibits for which ``--chunk-users`` cannot apply: those whose cell
    generator takes no ``chunk_users`` (the report-level figures and the
    scenario sweeps that never run the chunked simulation)."""
    return tuple(
        name for name, exhibit in SCENARIOS.items() if "chunk_users" not in exhibit.knobs()
    )


def _demo(args: argparse.Namespace) -> int:
    """Single end-to-end poisoning + recovery round, verbosely."""
    import repro
    from repro.sim import figures

    data = figures.load_dataset(args.dataset, args.num_users or 50_000)
    protocol = repro.make_protocol(args.protocol, epsilon=args.epsilon, domain_size=data.domain_size)
    attack = repro.MGAAttack(domain_size=data.domain_size, r=10, rng=args.seed)
    mode = "chunked" if args.chunk_users is not None else "fast"
    trial = repro.run_trial(
        data, protocol, attack, beta=args.beta, mode=mode, rng=args.seed,
        chunk_users=args.chunk_users,
    )
    recovery = repro.recover_frequencies(trial.poisoned_frequencies, protocol)
    star = repro.recover_frequencies(
        trial.poisoned_frequencies, protocol, target_items=attack.target_items
    )
    print(f"dataset={data.name} protocol={protocol.name} beta={args.beta} m={trial.m}")
    print(f"MSE before recovery     : {repro.mse(trial.true_frequencies, trial.poisoned_frequencies):.3e}")
    print(f"MSE after LDPRecover    : {repro.mse(trial.true_frequencies, recovery.frequencies):.3e}")
    print(f"MSE after LDPRecover*   : {repro.mse(trial.true_frequencies, star.frequencies):.3e}")
    fg = repro.frequency_gain(trial.genuine_frequencies, trial.poisoned_frequencies, attack.target_items)
    fg_rec = repro.frequency_gain(trial.genuine_frequencies, recovery.frequencies, attack.target_items)
    print(f"frequency gain          : {fg:+.3f} -> {fg_rec:+.3f} after recovery")
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: boot the online LDP recovery service."""
    import repro
    from repro.serve import RecoveryService, SnapshotStore, run_server

    kwargs: dict[str, object] = {}
    if args.olh_cohort is not None:
        if args.protocol not in ("olh", "blh"):
            print("error: --olh-cohort requires --protocol olh or blh", file=sys.stderr)
            return 2
        kwargs["cohort"] = args.olh_cohort
    protocol = repro.make_protocol(
        args.protocol, epsilon=args.epsilon, domain_size=args.domain_size, **kwargs
    )
    store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    snapshot = store.latest() if store is not None and args.resume else None
    if snapshot is not None:
        try:
            service = RecoveryService.restore(
                snapshot,
                protocol,
                chunk_users=args.chunk_users,
                retain_reports=args.retain_reports,
            )
        except ReproError as exc:
            print(f"error: cannot resume from snapshot: {exc}", file=sys.stderr)
            return 2
        print(
            f"resumed {service.ingested_reports} reports across "
            f"{len(service.state.epochs)} epochs from {args.snapshot_dir}",
            flush=True,
        )
    else:
        service = RecoveryService(
            protocol,
            eta=args.eta,
            chunk_users=args.chunk_users,
            retain_reports=args.retain_reports,
        )
    run_server(service, host=args.host, port=args.port, snapshot_store=store)
    return 0


def _cache_command(args: argparse.Namespace) -> int:
    """The ``cache`` subcommand: ls / prune / verify the cell store."""
    cache = resolve_cache(cache_dir=args.cache_dir)
    assert cache is not None  # no_cache is not offered on this subcommand
    if args.action == "ls":
        base = cache.cache_dir if args.all_versions else cache.root
        entries = cache.entries(all_tags=args.all_versions)
        if not entries:
            print(f"(no cached cells under {base})")
            return 0
        print(format_table([e.summary_row() for e in entries], float_format="{:g}"))
        total = sum(e.size_bytes for e in entries)
        print(f"{len(entries)} cells, {total} bytes under {base}")
        return 0
    if args.action == "prune":
        removed = cache.prune(
            older_than_days=args.older_than_days, all_tags=args.all_versions
        )
        print(f"pruned {removed} cached cells from {cache.cache_dir}")
        return 0
    if args.action == "verify":
        problems = cache.verify(delete=args.delete)
        healthy = cache.count() - (0 if args.delete else len(problems))
        if not problems:
            print(f"ok: {healthy} cells verified under {cache.root}")
            return 0
        for path, problem in problems:
            print(f"BAD  {path}: {problem}", file=sys.stderr)
        action = "deleted" if args.delete else "found (rerun with --delete to remove)"
        print(f"{len(problems)} bad entries {action}; {healthy} healthy", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled cache action {args.action!r}")  # pragma: no cover


def _shard_command(args: argparse.Namespace) -> int:
    """The ``shard`` subcommand: run / status / merge a sharded sweep."""
    config = _sweep_config(args)
    cache = resolve_cache(cache_dir=args.cache_dir)
    assert cache is not None  # no_cache is not offered on this subcommand
    if args.action == "run":
        try:
            report = run_shard(
                config,
                cache,
                shard_index=args.shard_index,
                shard_count=args.shard_count,
                claims=args.claims,
                claim_ttl=args.claim_ttl,
                label=args.label,
            )
        except InvalidParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.summary())
        if args.cache_stats:
            print(cache.stats.summary())
        return 0
    if args.action == "status":
        try:
            status = sweep_status(config, cache, claim_ttl=args.claim_ttl)
        except InvalidParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(status.summary())
        for report in status.reports:
            print(f"  {report.summary()}")
        return 0 if status.complete else 1
    if args.action == "merge":
        try:
            rows = merge_sweep(config, cache, require_complete=not args.allow_missing)
        except ShardIncompleteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except InvalidParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_table(rows))
        if args.cache_stats:
            print(cache.stats.summary())
        if args.output:
            _write_rows(rows, args.output)
        return 0
    raise AssertionError(f"unhandled shard action {args.action!r}")  # pragma: no cover


def _lint_command(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand: run the determinism/cache-contract rules."""
    import pathlib

    from repro.lint import RULES, lint_paths

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.name:28s} {rule.summary}")
        return 0
    paths = args.paths
    if not paths:
        # Default to the working tree's src/repro (plus the tests and
        # benchmarks tiers when present) in a checkout, else the
        # installed package directory.
        src = pathlib.Path("src/repro")
        if src.is_dir():
            paths = [src]
            for tier in (pathlib.Path("tests"), pathlib.Path("benchmarks")):
                if tier.is_dir():
                    paths.append(tier)
        else:
            import repro

            paths = [pathlib.Path(repro.__file__).parent]
    select = None
    if args.select:
        select = [
            part.strip()
            for chunk in args.select
            for part in chunk.split(",")
            if part.strip()
        ]
    try:
        report = lint_paths(
            paths,
            select=select,
            baseline_path=pathlib.Path(args.baseline) if args.baseline else None,
            use_baseline=not args.no_baseline,
            run_contracts=not args.no_contracts,
            changed_only=args.changed_only,
        )
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = report.render(args.format)
    if output:
        print(output)
    return report.exit_code


def _write_rows(rows: list[dict[str, object]], path: str) -> None:
    """Persist ``rows`` to ``path`` (.json or .csv, by extension)."""
    from repro.sim.reporting import write_csv, write_json

    writer = write_json if str(path).endswith(".json") else write_csv
    written = writer(rows, path)
    print(f"rows written to {written}")


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the sweep-defining flags shared by ``run`` and ``shard``."""
    parser.add_argument("--figure", "--exhibit", dest="figure", required=True,
                        choices=sorted(_exhibits()),
                        help="paper figure or scenario exhibit to regenerate "
                             "(--exhibit is an alias: scenario sweeps like "
                             "'kv'/'heavyhitter' dispatch identically)")
    parser.add_argument("--dataset", default="ipums", choices=["ipums", "fire"])
    parser.add_argument("--parameter", default="beta", choices=["beta", "epsilon", "eta"],
                        help="swept parameter (fig5/fig6 only)")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--target-ci", type=float, default=None, dest="target_ci",
                        help="adaptive trial allocation: per cell, keep running "
                             "trial batches until every metric's 95%% CI "
                             "half-width is at or below this target (checked at "
                             "--trials, then every --trial-batch up to "
                             "--max-trials); results are bit-identical to a "
                             "fixed --trials run at the final trial count")
    parser.add_argument("--max-trials", type=int, default=None, dest="max_trials",
                        help="adaptive trial allocation: hard per-cell trial cap "
                             "(default: 10x --trials when --target-ci/"
                             "--trial-batch is set); raising it later tops "
                             "cached cells up from their stored trial blocks")
    parser.add_argument("--trial-batch", type=int, default=None, dest="trial_batch",
                        help="adaptive trial allocation: trials added between "
                             "convergence checks (default: --trials)")
    parser.add_argument("--num-users", type=int, default=None, dest="num_users",
                        help="override population (default: exhibit-specific)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="trial-level process parallelism (0 = all cores "
                             "available to this process); results are "
                             "bit-identical to --workers 1")
    parser.add_argument("--chunk-users", type=int, default=None, dest="chunk_users",
                        help="run fast-mode exhibits through the bounded-memory "
                             "exact simulation, this many users per chunk")
    parser.add_argument("--olh-cohort", type=int, default=None, dest="olh_cohort",
                        help="OLH cells draw hash keys from cohorts of this many "
                             "shared seeds per chunk: report-level aggregation "
                             "drops from O(n*d) to O(K*d + n); changes the report "
                             "distribution, so cohort cells cache separately")
    parser.add_argument("--cache-dir", default=None, dest="cache_dir",
                        help="cell cache directory (default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro-ldprecover); completed cells are "
                             "reused across runs")
    parser.add_argument("--cache-stats", action="store_true", dest="cache_stats",
                        help="print cache hit/miss statistics after the run")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``ldprecover`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="ldprecover",
        description="LDPRecover (ICDE 2024) reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures/tables")

    run = sub.add_parser("run", help="regenerate one figure/table")
    _add_sweep_arguments(run)
    run.add_argument("--no-cache", action="store_true", dest="no_cache",
                     help="neither read nor write the cell cache")
    run.add_argument("--output", default=None,
                     help="also write the rows to this .csv or .json file")

    shard = sub.add_parser(
        "shard",
        help="split one sweep across machines sharing a cache directory",
    )
    shard.add_argument("action", choices=["run", "status", "merge"],
                       help="run: execute this shard's cells; status: report "
                            "done/claimed/missing cells; merge: render the "
                            "final rows from the fully populated cache")
    _add_sweep_arguments(shard)
    shard.add_argument("--shard-index", type=int, default=None, dest="shard_index",
                       help="static partitioning: this shard's index in "
                            "[0, shard-count)")
    shard.add_argument("--shard-count", type=int, default=None, dest="shard_count",
                       help="static partitioning: total number of shards "
                            "(cells are assigned by canonical-key hash mod N)")
    shard.add_argument("--claims", action="store_true",
                       help="dynamic partitioning: claim cells first-come-"
                            "first-served via atomic .claim files in the "
                            "shared cache dir (work stealing)")
    shard.add_argument("--claim-ttl", type=float, default=DEFAULT_CLAIM_TTL,
                       dest="claim_ttl",
                       help="seconds after which an unreleased claim counts "
                            "as crashed and may be stolen (pick larger than "
                            "the slowest cell)")
    shard.add_argument("--label", default=None,
                       help="shard identity for claims and the status report "
                            "(default: static index or host-pid; in claims "
                            "mode the process identity is appended, so "
                            "duplicate labels still contend correctly)")
    shard.add_argument("--allow-missing", action="store_true", dest="allow_missing",
                       help="merge only: compute missing cells locally instead "
                            "of failing when the cache is incomplete")
    shard.add_argument("--output", default=None,
                       help="merge only: also write the rows to this .csv or "
                            ".json file")

    demo = sub.add_parser("demo", help="one verbose poisoning+recovery round")
    demo.add_argument("--protocol", default="grr", choices=["grr", "oue", "olh"])
    demo.add_argument("--dataset", default="ipums", choices=["ipums", "fire"])
    demo.add_argument("--epsilon", type=float, default=0.5)
    demo.add_argument("--beta", type=float, default=0.05)
    demo.add_argument("--num-users", type=int, default=None, dest="num_users")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--chunk-users", type=int, default=None, dest="chunk_users",
                     help="simulate the round report-exactly in chunks of this size")

    serve = sub.add_parser(
        "serve",
        help="boot the online LDP recovery service (repro.serve)",
    )
    serve.add_argument("--protocol", default="grr",
                       choices=["grr", "oue", "olh", "sue", "blh"],
                       help="frequency oracle the clients perturb with")
    serve.add_argument("--epsilon", type=float, default=1.0,
                       help="privacy budget of the served protocol")
    serve.add_argument("--domain-size", type=int, default=128, dest="domain_size",
                       help="item domain size d")
    serve.add_argument("--eta", type=float, default=0.2,
                       help="LDPRecover frequency-sum tuning parameter")
    serve.add_argument("--olh-cohort", type=int, default=None, dest="olh_cohort",
                       help="OLH/BLH only: draw hash keys from cohorts of this "
                            "many shared seeds per ingest batch (enables the "
                            "grouped O(K*d + n) aggregation path)")
    serve.add_argument("--chunk-users", type=int, default=None, dest="chunk_users",
                       help="reports folded per slice during ingest (bounds "
                            "transient memory; cannot change results)")
    serve.add_argument("--retain-reports", action="store_true", dest="retain_reports",
                       help="keep raw reports in memory so the detection view "
                            "is available (O(total reports) memory)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 binds an ephemeral port, announced "
                            "on stdout as 'serving on http://HOST:PORT'")
    serve.add_argument("--snapshot-dir", default=None, dest="snapshot_dir",
                       help="directory for POST /snapshot persistence "
                            "(atomic-replace JSON files)")
    serve.add_argument("--resume", action="store_true",
                       help="restore the latest snapshot from --snapshot-dir "
                            "before serving (never double-counts: snapshots "
                            "hold folded partial sums, not batches)")

    lint = sub.add_parser(
        "lint",
        help="run the determinism & cache-contract analyzer (repro.lint)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to scan (default: src/repro in a "
                           "checkout, else the installed repro package)")
    lint.add_argument("--format", default="text",
                      choices=["text", "github", "sarif"],
                      help="text: path:line:col lines for humans; github: "
                           "::error workflow annotations for CI; sarif: "
                           "a SARIF 2.1.0 log for code-scanning upload")
    lint.add_argument("--changed-only", default=None, metavar="REF",
                      dest="changed_only",
                      help="only report findings in files changed since the "
                           "given git ref (plus untracked files); analysis "
                           "still spans the full tree so cross-module flow "
                           "rules see every alias")
    lint.add_argument("--select", action="append", default=None, metavar="RULES",
                      help="comma-separated rule ids to run (default: all); "
                           "may repeat")
    lint.add_argument("--baseline", default=None,
                      help="baseline file of accepted findings (default: "
                           ".repro-lint-baseline.json if present)")
    lint.add_argument("--no-baseline", action="store_true", dest="no_baseline",
                      help="report findings the baseline would absorb")
    lint.add_argument("--no-contracts", action="store_true", dest="no_contracts",
                      help="skip the runtime fingerprint-coverage scan "
                           "(REP003's live half)")
    lint.add_argument("--list-rules", action="store_true", dest="list_rules",
                      help="print the registered rule catalog and exit")

    cache = sub.add_parser("cache", help="inspect or clean the cell cache")
    cache.add_argument("action", choices=["ls", "prune", "verify"],
                       help="ls: list cached cells; prune: delete cells; "
                            "verify: integrity-check every entry")
    cache.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="cell cache directory (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-ldprecover)")
    cache.add_argument("--older-than-days", type=float, default=None,
                       dest="older_than_days",
                       help="prune only: keep cells younger than this horizon")
    cache.add_argument("--all-versions", action="store_true", dest="all_versions",
                       help="extend ls/prune to entries of other cache/package "
                            "versions")
    cache.add_argument("--delete", action="store_true",
                       help="verify only: delete entries that fail the check")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(_exhibits()):
            print(f"{name:12s} {SCENARIOS[name].description}")
        return 0
    if args.command == "demo":
        return _demo(args)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "cache":
        return _cache_command(args)
    if args.command == "lint":
        return _lint_command(args)
    if args.chunk_users is not None and args.figure in _chunkless():
        print(
            f"note: --chunk-users is ignored for {args.figure} "
            f"(this exhibit never runs the chunked report-level simulation)",
            file=sys.stderr,
        )
    if args.command == "shard":
        return _shard_command(args)
    cache = resolve_cache(cache_dir=args.cache_dir, no_cache=args.no_cache)
    rows = _sweep_config(args).run(cache)
    print(format_table(rows))
    if cache is not None and args.cache_stats:
        print(cache.stats.summary())
    if args.output:
        _write_rows(rows, args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
