"""Experiment harness: multi-trial recovery evaluation and sweeps.

This is the layer the benchmarks and CLI sit on.  One call to
:func:`evaluate_recovery` reproduces one cell of the paper's figures:
it runs ``trials`` independent poisoning rounds, applies every recovery
method under evaluation (before-recovery, LDPRecover, LDPRecover*,
Detection) and averages the metrics — exactly the paper's protocol of
averaging MSE/FG over 10 trials (Section VI-B).

The cell is declared by :func:`recovery_cell` and executed by the cell
executor of :mod:`repro.sim.cells`: trials become picklable
:class:`~repro.sim.engine.TrialTask` units with ``SeedSequence``-spawned
child streams, run inline (``workers=1``) or across a fork-safe process
pool (``workers=N``) with bit-identical results, and metrics accumulate
through streaming :class:`~repro.sim.engine.Welford` statistics so every
cell also carries variance/CI information.

Completed cells can persist across runs: pass a
:class:`repro.sim.cache.CellCache` and :func:`evaluate_recovery` keys the
cell by the canonical hash of its full spec (dataset, protocol, attack,
``beta``, ``eta``, ``trials``, mode, seeds — but *not* ``workers`` or
``chunk_users``, which cannot change results) and serves repeat calls
from disk without running a single trial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable, Optional, Sequence

from repro._rng import RngLike, spawn
from repro.attacks.base import PoisoningAttack
from repro.datasets.base import Dataset
from repro.exceptions import InvalidParameterError
from repro.protocols.base import FrequencyOracle
from repro.sim.cache import (
    CellCache,
    evaluation_cell_spec,
    evaluation_to_payload,
    payload_to_evaluation,
    resolved_cohort_chunk,
)
from repro.sim.cells import Cell, run_cell, trial_seeds
from repro.sim.engine import (
    MetricStats,
    TrialBudget,
    TrialTask,
    resolve_star_targets,
    trial_metrics,
)
from repro.sim.pipeline import SimulationMode, malicious_count

__all__ = [
    "RecoveryEvaluation",
    "SweepResult",
    "evaluate_recovery",
    "format_table",
    "recovery_cell",
    "resolve_star_targets",
    "sweep_parameter",
]


@dataclass
class RecoveryEvaluation:
    """Averaged metrics of one experimental cell (one figure bar/point)."""

    dataset: str
    protocol: str
    attack: str
    beta: float
    eta: float
    trials: int
    #: MSE vs. the true frequencies (Eq. 36), averaged over trials.
    mse_before: float = 0.0
    mse_recover: float = 0.0
    mse_recover_star: Optional[float] = None
    mse_detection: Optional[float] = None
    #: Frequency gain of the target items (Eq. 37 convention; targeted only).
    fg_before: Optional[float] = None
    fg_recover: Optional[float] = None
    fg_recover_star: Optional[float] = None
    fg_detection: Optional[float] = None
    #: MSE of the estimated vs. true malicious frequencies (Figure 7).
    mse_malicious_estimate: Optional[float] = None
    mse_malicious_estimate_star: Optional[float] = None
    #: Streaming per-metric statistics (mean/variance/stderr/count) keyed by
    #: metric name, for confidence intervals over the trial average.
    stats: dict[str, MetricStats] = field(default_factory=dict)

    #: Metric columns emitted by :meth:`as_row`, in output order.
    METRIC_COLUMNS: ClassVar[tuple[str, ...]] = (
        "mse_before",
        "mse_recover",
        "mse_recover_star",
        "mse_detection",
        "fg_before",
        "fg_recover",
        "fg_recover_star",
        "fg_detection",
        "mse_malicious_estimate",
        "mse_malicious_estimate_star",
    )

    def ci95(self, metric: str) -> Optional[float]:
        """95% CI half-width of a metric's trial average, if estimable."""
        entry = self.stats.get(metric)
        return entry.ci95_halfwidth if entry is not None else None

    def as_row(self, ci: bool = False) -> dict[str, object]:
        """Flat dict for table printing / CSV dumps (every metric column).

        With ``ci=True`` every metric column is followed by a ``<metric>±``
        column carrying the 95% confidence half-width of its trial average
        (``None`` when fewer than two trials contributed).
        """
        row: dict[str, object] = {
            "dataset": self.dataset,
            "protocol": self.protocol,
            "attack": self.attack,
            "beta": self.beta,
            "eta": self.eta,
            "trials": self.trials,
        }
        for metric in self.METRIC_COLUMNS:
            row[metric] = getattr(self, metric)
            if ci:
                row[f"{metric}±"] = self.ci95(metric)
        return row


def recovery_cell(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: Optional[PoisoningAttack],
    beta: float = 0.05,
    eta: float = 0.2,
    trials: int = 10,
    mode: SimulationMode = "fast",
    with_star: bool = True,
    with_detection: bool = False,
    aa_top_k: int = 5,
    rng: RngLike = None,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    strict_beta: bool = False,
    budget: Optional[TrialBudget] = None,
    rows: Callable[[dict[str, Any]], Any] = payload_to_evaluation,
) -> Cell:
    """The :class:`~repro.sim.cells.Cell` of one :func:`evaluate_recovery` call.

    ``dataset``, ``protocol``, ``attack``, ``beta``, ``eta``, ``trials``,
    ``mode``, ``with_star``, ``with_detection``, ``aa_top_k``, ``rng``,
    ``chunk_users``, ``olh_cohort``, ``strict_beta`` and ``budget`` mean
    what they mean there, and are validated the same way.  The cell's
    payload is the serialized :class:`RecoveryEvaluation`; ``rows`` decodes
    it (by default back into the :class:`RecoveryEvaluation`, which is
    what :func:`evaluate_recovery` returns), so the figure generators pass
    their own column mapping instead.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if with_detection and mode != "sampled":
        raise InvalidParameterError("Detection requires mode='sampled'")
    if chunk_users is not None and mode == "fast":
        mode = "chunked"
    if chunk_users is not None and mode == "sampled":
        raise InvalidParameterError(
            "chunk_users is incompatible with mode='sampled' (chunked simulation "
            "does not retain reports); use mode='chunked' without detection"
        )
    if olh_cohort is not None:
        with_cohort = getattr(protocol, "with_cohort", None)
        if with_cohort is None:
            raise InvalidParameterError(
                f"olh_cohort requires a cohort-capable protocol (OLH/BLH), "
                f"got {protocol.name!r}"
            )
        # The cohort-configured copy is used everywhere below, including
        # the cache spec: cohort mode changes the report distribution, so
        # it must (and does, via the protocol fingerprint) change the key.
        # In mode="fast" the distributional sampler is cohort-independent,
        # so the knob is a deliberate no-op there: fast cells keep sharing
        # the per-user-seed cache entry instead of re-simulating identical
        # rows under a forked key.  The copy is still built first so an
        # invalid cohort size raises in every mode.
        cohorted = with_cohort(olh_cohort)
        if mode != "fast":
            protocol = cohorted
    if attack is not None:
        # Surface the m=0 rounding problem at the cell level — under
        # strict_beta this fails fast before any worker spawns, and the
        # warning fires here even when pooled workers' stderr is lost.
        # (Trials may re-warn from run_trial in their own processes.)
        malicious_count(dataset.num_users, beta, strict=strict_beta)
    seeds = trial_seeds(rng, trials, budget)
    spec = evaluation_cell_spec(
        dataset,
        protocol,
        attack,
        beta=beta,
        eta=eta,
        trials=len(seeds),
        mode=mode,
        with_star=with_star,
        with_detection=with_detection,
        aa_top_k=aa_top_k,
        seeds=seeds,
        cohort_chunk_users=resolved_cohort_chunk(protocol, mode, chunk_users),
    )
    task_for = functools.partial(
        TrialTask,
        dataset,
        protocol,
        attack,
        beta=beta,
        eta=eta,
        mode=mode,
        with_star=with_star,
        with_detection=with_detection,
        aa_top_k=aa_top_k,
        chunk_users=chunk_users,
    )
    attack_name = attack.describe() if attack is not None else "none"
    payload = functools.partial(
        _evaluation_payload, dataset.name, protocol.name, attack_name, beta, eta
    )
    return Cell(spec, seeds, task_for, trial_metrics, payload, rows)


def _evaluation_payload(
    dataset: str,
    protocol: str,
    attack: str,
    beta: float,
    eta: float,
    stats: dict[str, MetricStats],
    trials: int,
) -> dict[str, Any]:
    """The cached payload of a :func:`recovery_cell`: its evaluation."""
    means = {
        metric: stats[metric].mean if metric in stats else None
        for metric in RecoveryEvaluation.METRIC_COLUMNS
    }
    evaluation = RecoveryEvaluation(
        dataset=dataset,
        protocol=protocol,
        attack=attack,
        beta=beta,
        eta=eta,
        trials=trials,
        stats=stats,
        **{**means, "mse_before": means["mse_before"] or 0.0,
           "mse_recover": means["mse_recover"] or 0.0},
    )
    return evaluation_to_payload(evaluation)


def evaluate_recovery(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: Optional[PoisoningAttack],
    beta: float = 0.05,
    eta: float = 0.2,
    trials: int = 10,
    mode: SimulationMode = "fast",
    with_star: bool = True,
    with_detection: bool = False,
    aa_top_k: int = 5,
    rng: RngLike = None,
    workers: Optional[int] = 1,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    strict_beta: bool = False,
    cache: Optional[CellCache] = None,
    budget: Optional[TrialBudget] = None,
) -> RecoveryEvaluation:
    """Run one experimental cell and average over ``trials``.

    Parameters
    ----------
    dataset:
        Genuine population (histogram) of the cell.
    protocol:
        The LDP frequency oracle under attack.
    attack:
        Poisoning attack, or ``None`` for an unpoisoned cell.
    beta:
        Malicious user fraction ``m / (n + m)`` (paper default 0.05).
    eta:
        Server-side zero-threshold parameter of LDPRecover.
    trials:
        Independent poisoning rounds averaged into the cell.
    mode:
        Simulation mode per :func:`repro.sim.pipeline.run_trial`;
        ``with_detection`` requires ``mode="sampled"`` because the
        Detection baseline filters individual reports.
    with_star:
        Also evaluate LDPRecover* (the partial-knowledge variant).
    with_detection:
        Also evaluate the Detection baseline (needs ``mode="sampled"``).
    aa_top_k:
        Number of top-increase items LDPRecover* assumes for untargeted
        attacks (the AA rule of Section VI-A4).
    rng:
        Seed or generator; per-trial streams are ``SeedSequence`` children
        spawned from it.
    workers:
        Trial fan-out over a process pool (``None``/``0`` = all cores);
        results are bit-identical to the serial ``workers=1`` path under
        the same seed, so this never affects the cell's cache key.
    chunk_users:
        Users simulated per chunk in the bounded-memory exact path;
        passing it upgrades ``mode="fast"`` to ``"chunked"``.  Like
        ``workers`` it is an execution knob excluded from the cache key.
    olh_cohort:
        Run a cohort-capable protocol (OLH) in seed-cohort mode: each
        perturb batch draws this many shared hash seeds, enabling the
        O(K*d + n) grouped aggregation.  Unlike ``workers`` /
        ``chunk_users`` this *changes the report distribution* (shared
        seeds correlate users' support sets), so for report-level cells
        the cohort size — and, in chunked mode, the resolved chunk size,
        which sets the cohort schedule — is part of the cell's cache key.
        A no-op in ``mode="fast"``, whose distributional sampler is
        cohort-independent (those cells keep their per-user-seed cache
        entry).  Raises for protocols without cohort support.
    strict_beta:
        Turn the "beta rounds to zero malicious users" warning into an
        error before any trial runs.
    cache:
        Optional :class:`repro.sim.cache.CellCache`.  On a hit the cached
        :class:`RecoveryEvaluation` is returned without running any
        trials; on a miss the freshly computed cell is stored.
    budget:
        Optional :class:`repro.sim.engine.TrialBudget`.  When given,
        ``trials`` is superseded: the cell runs adaptive trial batches
        through :func:`repro.sim.engine.run_adaptive_trials` until every
        metric's 95% CI half-width reaches the budget's target (or its
        ``max_trials`` cap), and — with a ``cache`` — trials persist as
        appendable blocks so a later, larger budget resumes instead of
        recomputing.  The result is bit-identical to a fixed-budget call
        at the achieved trial count under the same ``rng``.
    """
    cell = recovery_cell(
        dataset, protocol, attack, beta=beta, eta=eta, trials=trials, mode=mode,
        with_star=with_star, with_detection=with_detection, aa_top_k=aa_top_k,
        rng=rng, chunk_users=chunk_users, olh_cohort=olh_cohort,
        strict_beta=strict_beta, budget=budget,
    )
    evaluation: RecoveryEvaluation = run_cell(
        cell, cache=cache, workers=workers, budget=budget
    )[1]
    return evaluation


@dataclass
class SweepResult:
    """One varied parameter value and its evaluation."""

    parameter: str
    value: float
    evaluation: RecoveryEvaluation


def sweep_parameter(
    parameter: str,
    values: Iterable[float],
    evaluate: Callable[[float, RngLike], RecoveryEvaluation],
    rng: RngLike = None,
) -> list[SweepResult]:
    """Evaluate over a parameter grid with independent child RNGs.

    ``parameter`` names the swept knob (recorded in each
    :class:`SweepResult`), ``values`` is its grid, and
    ``evaluate(value, rng)`` builds and runs one cell — Figures 5-6's
    beta/epsilon/eta sweeps are thin closures over
    :func:`evaluate_recovery`.  Each grid point receives an independent
    child of ``rng``, so inserting or removing values never perturbs the
    other cells' streams.
    """
    values = list(values)
    rngs = spawn(rng, len(values))
    return [
        SweepResult(parameter=parameter, value=float(v), evaluation=evaluate(v, child))
        for v, child in zip(values, rngs)
    ]


def format_table(rows: Sequence[dict[str, object]], float_format: str = "{:.3e}") -> str:
    """Render ``rows`` as an aligned text table (the benches' format).

    ``float_format`` is the format string applied to float cells;
    ``None`` cells render as ``-``.
    """
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col)
            if value is None:
                cells.append("-")
            elif isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    divider = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rendered)
    return f"{header}\n{divider}\n{body}"
