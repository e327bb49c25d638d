"""Regeneration of every table and figure in the paper's evaluation.

Each exhibit of Section VI / VII is a generator of
:class:`~repro.sim.cells.Cell` values registered with
:func:`~repro.sim.cells.exhibit`, which makes the ``figure*_rows`` /
``table1_rows`` names its rows functions: they return a list of flat row
dicts (printable with :func:`repro.sim.experiment.format_table`).  The
benchmark suite and the CLI are thin wrappers over these functions;
``docs/exhibits.md`` maps each exhibit to its function, regenerating CLI
command, and emitted columns.

Scale notes: the paper runs 10 trials at full population.  The defaults
here are tuned so the full suite finishes in minutes on a laptop —
``sampled``-mode exhibits (those needing the Detection baseline or raw
reports) run at a scaled population, pure-aggregate exhibits run in
``fast`` mode.  Pass ``num_users=None`` for the paper's full populations.

Every exhibit takes ``workers=`` (trial fan-out over the process pool of
:mod:`repro.sim.engine`; ``None``/``0`` = all cores, results bit-identical
to ``workers=1``), and the fast-mode exhibits take ``chunk_users=`` to
switch to the bounded-memory exact simulation path.  Every exhibit also
takes ``olh_cohort=``: its OLH cells then draw hash keys from cohorts of
that many shared seeds, collapsing report-level aggregation from O(n*d)
to O(K*d + n) per chunk (a different report distribution, hence a
different cache key — see :class:`repro.protocols.OLH`).

Every exhibit also takes ``cache=`` (a
:class:`repro.sim.cache.CellCache`): completed cells are keyed by the
canonical hash of their full spec and served from disk on repeat runs, so
an interrupted sweep resumes from where it stopped and warm regeneration
performs zero simulation trials.  That warm path is also how
:mod:`repro.sim.shard` merges multi-machine sweeps: against a fully
populated cache every exhibit renders its rows purely from cached
payloads, bit-identical to the run that produced them.  Each metric
column is accompanied by a ``<column>±`` companion holding the 95%
confidence half-width of the trial average (``None``/``-`` when a single
trial contributed).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from repro._rng import RngLike, as_generator, spawn
from repro.attacks import (
    AdaptiveAttack,
    InputPoisoningAttack,
    MGAAttack,
    MultiAttacker,
)
from repro.core.kmeans import KMeansDefense, recover_with_kmeans
from repro.core.recover import recover_frequencies
from repro.datasets import Dataset, fire_like, ipums_like
from repro.exceptions import InvalidParameterError
from repro.protocols import PROTOCOL_NAMES, FrequencyOracle
from repro.sim.cache import payload_to_evaluation, row_cell_spec
from repro.sim.cells import (
    DEFAULT_R,
    Cell,
    cell_protocol,
    exhibit,
    exhibit_rows,
    make_attack,
    row_cell_params,
    stat_row,
    trial_seeds,
)
from repro.sim.engine import TrialBudget
from repro.sim.experiment import recovery_cell
from repro.sim.metrics import mse
from repro.sim.pipeline import SimulationMode, run_trial

#: Paper defaults (Section VI-A): epsilon, malicious fraction, server-side
#: eta; the number of target items, ``DEFAULT_R``, comes from
#: :mod:`repro.sim.cells`.
DEFAULT_EPSILON = 0.5
DEFAULT_BETA = 0.05
DEFAULT_ETA = 0.2


def load_dataset(name: str, num_users: Optional[int]) -> Dataset:
    """The two paper workloads by ``name`` (``"ipums"`` / ``"fire"``).

    ``num_users`` rescales the population while preserving the frequency
    profile; ``None`` keeps the paper's full population.
    """
    key = name.strip().lower()
    if key in ("ipums", "ipums-like"):
        return ipums_like(num_users=num_users)
    if key in ("fire", "fire-like"):
        return fire_like(num_users=num_users)
    raise InvalidParameterError(f"unknown dataset {name!r}; use 'ipums' or 'fire'")


def _cohort_for(protocol: object, olh_cohort: Optional[int]) -> Optional[int]:
    """``olh_cohort`` when ``protocol`` supports seed cohorts, else ``None``.

    The fast-capable exhibits pass this to
    :func:`~repro.sim.experiment.recovery_cell`, which applies the cohort
    only when the cell actually materializes reports.
    """
    if olh_cohort is None or not hasattr(protocol, "with_cohort"):
        return None
    return olh_cohort


def _evaluation_columns(
    head: dict[str, object], mapping: dict[str, str], payload: dict[str, Any]
) -> list[dict[str, object]]:
    """The row of an evaluation cell: ``head``, then ``{col: value, col±: ci95}``.

    ``mapping`` maps output column names to
    :class:`~repro.sim.experiment.RecoveryEvaluation` metric names; each
    column is immediately followed by its ``±`` confidence companion.
    """
    evaluation = payload_to_evaluation(payload)
    row = dict(head)
    for column, metric in mapping.items():
        row[column] = getattr(evaluation, metric)
        row[f"{column}±"] = evaluation.ci95(metric)
    return [row]


def _columns(
    head: dict[str, object], mapping: dict[str, str]
) -> Callable[[dict[str, Any]], list[dict[str, object]]]:
    """:attr:`~repro.sim.cells.Cell.rows` of an evaluation cell (see
    :func:`_evaluation_columns`)."""
    return functools.partial(_evaluation_columns, head, mapping)


#: The (attack, protocol) cells of Figures 3-4: Manip is shown on GRR only
#: (matching the paper's x-axis), MGA and AA on all three protocols.
FIG3_CELLS: tuple[tuple[str, str], ...] = (
    ("manip", "grr"),
    ("mga", "grr"),
    ("mga", "oue"),
    ("mga", "olh"),
    ("aa", "grr"),
    ("aa", "oue"),
    ("aa", "olh"),
)


@exhibit("fig3", "MSE of LDPRecover / LDPRecover* / Detection per attack-protocol cell")
def figure3_rows(
    dataset_name: str = "ipums",
    num_users: Optional[int] = 40_000,
    trials: int = 5,
    epsilon: float = DEFAULT_EPSILON,
    beta: float = DEFAULT_BETA,
    eta: float = DEFAULT_ETA,
    rng: RngLike = 3,
    *,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figure 3: MSE of LDPRecover/LDPRecover*/Detection per cell.

    Parameters
    ----------
    dataset_name:
        Workload for :func:`load_dataset` (``"ipums"`` or ``"fire"``).
    num_users:
        Population rescale (``None`` = paper scale); sampled-mode cost is
        O(``num_users``) so the default is reduced.
    trials:
        Independent rounds averaged per cell.
    epsilon:
        Privacy budget of every protocol cell.
    beta:
        Malicious fraction.
    eta:
        LDPRecover zero-threshold.
    rng:
        Seed or generator; one independent child per cell.
    workers:
        Trial-level process fan-out (``None``/``0`` = all cores).
    olh_cohort:
        Seed-cohort size for the OLH cells (shared hash seeds per perturb
        batch; changes those cells' cache keys).
    cache:
        Optional cell cache; completed cells are reused across runs.
    budget:
        Optional :class:`~repro.sim.engine.TrialBudget`; each cell then
        runs trials adaptively until its CI target is met (``trials`` is
        superseded by the budget's checkpoints).
    """
    dataset = load_dataset(dataset_name, num_users)
    rngs = spawn(rng, len(FIG3_CELLS))
    mapping = {
        "mse_before": "mse_before",
        "mse_detection": "mse_detection",
        "mse_ldprecover": "mse_recover",
        "mse_ldprecover_star": "mse_recover_star",
    }
    for (attack_kind, protocol_name), cell_rng in zip(FIG3_CELLS, rngs):
        gen = as_generator(cell_rng)
        protocol = cell_protocol(protocol_name, epsilon, dataset.domain_size, olh_cohort)
        attack = make_attack(attack_kind, dataset.domain_size, gen)
        yield recovery_cell(
            dataset, protocol, attack, beta=beta, eta=eta, trials=trials,
            mode="sampled", with_detection=True, aa_top_k=DEFAULT_R // 2,
            rng=gen, budget=budget,
            rows=_columns({"cell": f"{attack_kind}-{protocol_name}"}, mapping),
        )


@exhibit("fig4", "frequency gain of MGA before/after recovery")
def figure4_rows(
    dataset_name: str = "ipums",
    num_users: Optional[int] = 40_000,
    trials: int = 5,
    epsilon: float = DEFAULT_EPSILON,
    beta: float = DEFAULT_BETA,
    eta: float = DEFAULT_ETA,
    rng: RngLike = 4,
    *,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figure 4: frequency gain of MGA per protocol, before/after.

    Parameters match :func:`figure3_rows`: ``dataset_name`` /
    ``num_users`` pick and rescale the workload, ``trials`` rounds are
    averaged per cell at privacy budget ``epsilon`` with malicious
    fraction ``beta`` and recovery threshold ``eta``; ``rng`` seeds the
    cells, ``workers`` fans trials out, ``olh_cohort`` switches the OLH
    cell to seed-cohort perturbation, ``cache`` reuses completed cells,
    and ``budget`` switches the cells to adaptive CI-targeted trial
    allocation.
    """
    dataset = load_dataset(dataset_name, num_users)
    rngs = spawn(rng, len(PROTOCOL_NAMES))
    mapping = {
        "fg_before": "fg_before",
        "fg_detection": "fg_detection",
        "fg_ldprecover": "fg_recover",
        "fg_ldprecover_star": "fg_recover_star",
    }
    for protocol_name, cell_rng in zip(PROTOCOL_NAMES, rngs):
        gen = as_generator(cell_rng)
        protocol = cell_protocol(protocol_name, epsilon, dataset.domain_size, olh_cohort)
        attack = MGAAttack(domain_size=dataset.domain_size, r=DEFAULT_R, rng=gen)
        yield recovery_cell(
            dataset, protocol, attack, beta=beta, eta=eta, trials=trials,
            mode="sampled", with_detection=True, rng=gen, budget=budget,
            rows=_columns({"cell": f"mga-{protocol_name}"}, mapping),
        )


#: Parameter grids of Figures 5-6 (Section VI-D).
BETA_GRID = (0.001, 0.005, 0.01, 0.05, 0.1)
EPSILON_GRID = (0.1, 0.2, 0.4, 0.8, 1.6)
ETA_GRID = (0.01, 0.05, 0.1, 0.2, 0.4)


def _sweep_cells(
    dataset_name: str,
    parameter: str,
    values: Iterable[float],
    num_users: Optional[int],
    trials: int,
    rng: RngLike,
    chunk_users: Optional[int],
    olh_cohort: Optional[int],
    budget: Optional[TrialBudget],
) -> Iterator[Cell]:
    """The cells of :func:`sweep_rows` (same parameters)."""
    grids = {"beta": BETA_GRID, "epsilon": EPSILON_GRID, "eta": ETA_GRID}
    if parameter not in grids:
        raise InvalidParameterError(
            f"parameter must be one of {sorted(grids)}, got {parameter!r}"
        )
    values = tuple(values) or grids[parameter]
    dataset = load_dataset(dataset_name, num_users)
    rngs = iter(spawn(rng, len(PROTOCOL_NAMES) * len(values)))
    mapping = {
        "mse_before": "mse_before",
        "mse_ldprecover": "mse_recover",
        "mse_ldprecover_star": "mse_recover_star",
    }
    for protocol_name in PROTOCOL_NAMES:
        for value in values:
            gen = as_generator(next(rngs))
            epsilon = value if parameter == "epsilon" else DEFAULT_EPSILON
            protocol = cell_protocol(protocol_name, epsilon, dataset.domain_size)
            attack = AdaptiveAttack(domain_size=dataset.domain_size, rng=gen)
            yield recovery_cell(
                dataset, protocol, attack,
                beta=value if parameter == "beta" else DEFAULT_BETA,
                eta=value if parameter == "eta" else DEFAULT_ETA,
                trials=trials, mode="fast", aa_top_k=DEFAULT_R // 2, rng=gen,
                chunk_users=chunk_users, olh_cohort=_cohort_for(protocol, olh_cohort),
                budget=budget,
                rows=_columns({"cell": f"aa-{protocol_name}", parameter: value}, mapping),
            )


@exhibit_rows
def sweep_rows(
    dataset_name: str,
    parameter: str,
    values: Iterable[float] = (),
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 5,
    *,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figures 5-6: MSE under AA while one of (beta, epsilon, eta) varies.

    Parameters
    ----------
    dataset_name:
        Workload (``"ipums"`` for Figure 5, ``"fire"`` for Figure 6).
    parameter:
        The swept knob: ``"beta"``, ``"epsilon"`` or ``"eta"``; the
        remaining two stay at the paper defaults.
    values:
        Grid override; empty selects the paper grid of ``parameter``.
    num_users:
        Population rescale (``None`` = paper scale).
    trials:
        Independent rounds averaged per cell.
    rng:
        Seed or generator; one independent child per (protocol, value).
    workers:
        Trial-level process fan-out (``None``/``0`` = all cores).
    chunk_users:
        Switch the ``fast`` cells to the bounded-memory exact simulation,
        this many users per chunk.
    olh_cohort:
        Seed-cohort size for the OLH cells (shared hash seeds per perturb
        batch; changes those cells' cache keys).
    cache:
        Optional cell cache — this is the exhibit where resumable sweeps
        pay off most: an interrupted grid rerun skips completed cells.
    budget:
        Optional :class:`~repro.sim.engine.TrialBudget`; each grid cell
        then stops as soon as its 95% CI half-widths reach the target.
    """
    return _sweep_cells(
        dataset_name, parameter, values, num_users, trials, rng,
        chunk_users, olh_cohort, budget,
    )


@exhibit("fig5", "parameter sweeps (beta / epsilon / eta) under AA on IPUMS")
def figure5_rows(
    parameter: str = "beta",
    values: Iterable[float] = (),
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 5,
    *,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figure 5: :func:`sweep_rows` on IPUMS.

    ``parameter``, ``values``, ``num_users``, ``trials``, ``rng``,
    ``workers``, ``chunk_users``, ``olh_cohort``, ``cache`` and ``budget``
    mean what they mean there.
    """
    return _sweep_cells(
        "ipums", parameter, values, num_users, trials, rng,
        chunk_users, olh_cohort, budget,
    )


@exhibit("fig6", "parameter sweeps (beta / epsilon / eta) under AA on Fire")
def figure6_rows(
    parameter: str = "beta",
    values: Iterable[float] = (),
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 5,
    *,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figure 6: :func:`sweep_rows` on Fire.

    ``parameter``, ``values``, ``num_users``, ``trials``, ``rng``,
    ``workers``, ``chunk_users``, ``olh_cohort``, ``cache`` and ``budget``
    mean what they mean there.
    """
    return _sweep_cells(
        "fire", parameter, values, num_users, trials, rng,
        chunk_users, olh_cohort, budget,
    )


FIG7_BETAS = (0.05, 0.1, 0.15, 0.2, 0.25)


@exhibit("fig7", "MSE of estimated vs true malicious frequencies")
def figure7_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 7,
    *,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figure 7: MSE of estimated vs. true malicious frequencies (IPUMS).

    ``num_users`` rescales the population, ``trials`` rounds are averaged
    per (protocol, beta) cell, ``rng`` seeds the cells, ``workers`` fans
    trials over a process pool, ``chunk_users`` selects the bounded-memory
    exact path, ``olh_cohort`` switches the OLH cells to seed-cohort
    perturbation, ``cache`` reuses completed cells across runs, and
    ``budget`` switches the cells to adaptive CI-targeted trial
    allocation.
    """
    dataset = load_dataset("ipums", num_users)
    rngs = iter(spawn(rng, len(PROTOCOL_NAMES) * len(FIG7_BETAS)))
    mapping = {
        "malicious_mse_ldprecover": "mse_malicious_estimate",
        "malicious_mse_ldprecover_star": "mse_malicious_estimate_star",
    }
    for protocol_name in PROTOCOL_NAMES:
        for beta in FIG7_BETAS:
            gen = as_generator(next(rngs))
            protocol = cell_protocol(protocol_name, DEFAULT_EPSILON, dataset.domain_size)
            attack = MGAAttack(domain_size=dataset.domain_size, r=DEFAULT_R, rng=gen)
            yield recovery_cell(
                dataset, protocol, attack, beta=beta, eta=DEFAULT_ETA,
                trials=trials, mode="fast", rng=gen, chunk_users=chunk_users,
                olh_cohort=_cohort_for(protocol, olh_cohort), budget=budget,
                rows=_columns({"cell": f"mga-{protocol_name}", "beta": beta}, mapping),
            )


FIG8_BETAS = (0.05, 0.1, 0.15, 0.2, 0.25)


@dataclass(frozen=True)
class _Fig8Task:
    """Picklable per-trial unit of Figure 8 (one MGA + one IPA round)."""

    dataset: Dataset
    protocol: FrequencyOracle
    mga: MGAAttack
    ipa: InputPoisoningAttack
    beta: float
    mode: SimulationMode
    chunk_users: Optional[int]
    seed: np.random.SeedSequence


def _figure8_trial(task: _Fig8Task) -> dict[str, float]:
    """One Figure 8 trial: poisoned MSE of MGA and of its IPA variant."""
    gen = np.random.default_rng(task.seed)
    t1 = run_trial(
        task.dataset, task.protocol, task.mga, beta=task.beta, mode=task.mode,
        rng=gen, chunk_users=task.chunk_users,
    )
    t2 = run_trial(
        task.dataset, task.protocol, task.ipa, beta=task.beta, mode=task.mode,
        rng=gen, chunk_users=task.chunk_users,
    )
    return {
        "mse_mga": mse(t1.true_frequencies, t1.poisoned_frequencies),
        "mse_mga_ipa": mse(t2.true_frequencies, t2.poisoned_frequencies),
    }


@exhibit("fig8", "MGA vs MGA-IPA poisoning strength")
def figure8_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 8,
    *,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figure 8: poisoning strength of MGA vs. MGA-IPA (no recovery).

    ``num_users`` rescales the IPUMS population, ``trials`` MGA+IPA round
    pairs are averaged per (protocol, beta) cell, ``rng`` seeds the cells,
    ``workers`` fans trials out, ``chunk_users`` selects the chunked exact
    simulation, ``olh_cohort`` switches the OLH cells to seed-cohort
    perturbation, ``cache`` reuses completed cells, and ``budget``
    switches the cells to adaptive CI-targeted trial allocation over the
    same canonical seed stream (cached trial blocks are resumed and
    extended rather than recomputed).
    """
    dataset = load_dataset("ipums", num_users)
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    rngs = iter(spawn(rng, len(PROTOCOL_NAMES) * len(FIG8_BETAS)))
    for protocol_name in PROTOCOL_NAMES:
        for beta in FIG8_BETAS:
            gen = as_generator(next(rngs))
            # Cohort mode only exists at the report level: fast-mode cells
            # sample marginals, so the knob is a no-op (and key-neutral).
            protocol = cell_protocol(
                protocol_name, DEFAULT_EPSILON, dataset.domain_size,
                olh_cohort if mode == "chunked" else None,
            )
            mga = MGAAttack(domain_size=dataset.domain_size, r=DEFAULT_R, rng=gen)
            ipa = InputPoisoningAttack(mga)
            seeds = trial_seeds(gen, trials, budget)
            params = row_cell_params(protocol, mode, chunk_users, beta=beta, mode=mode)
            yield Cell(
                row_cell_spec("figure8", dataset, protocol, (mga, ipa), params, seeds),
                seeds,
                functools.partial(
                    _Fig8Task, dataset, protocol, mga, ipa, beta, mode, chunk_users
                ),
                _figure8_trial,
                functools.partial(
                    stat_row, {"cell": protocol_name, "beta": beta},
                    ("mse_mga", "mse_mga_ipa"),
                ),
            )


FIG9_XIS = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG9_NUM_SUBSETS = 10


@dataclass(frozen=True)
class _Fig9Task:
    """Picklable per-trial unit of Figure 9 (one k-means defense round)."""

    dataset: Dataset
    protocol: FrequencyOracle
    attack: InputPoisoningAttack
    beta: float
    xi: float
    seed: np.random.SeedSequence


def _figure9_trial(task: _Fig9Task) -> dict[str, float]:
    """One Figure 9 trial: before / k-means-only / LDPRecover-KM MSE."""
    gen = np.random.default_rng(task.seed)
    trial = run_trial(
        task.dataset, task.protocol, task.attack, beta=task.beta, mode="sampled", rng=gen
    )
    truth = trial.true_frequencies
    defense = KMeansDefense(sample_rate=task.xi, num_subsets=FIG9_NUM_SUBSETS)
    recovery, km_result = recover_with_kmeans(
        task.protocol, trial.reports, defense=defense, rng=gen
    )
    return {
        "mse_before": mse(truth, trial.poisoned_frequencies),
        "mse_kmeans": mse(truth, km_result.frequencies),
        "mse_ldprecover_km": mse(truth, recovery.frequencies),
    }


@exhibit("fig9", "LDPRecover-KM vs plain k-means under MGA-IPA")
def figure9_rows(
    num_users: Optional[int] = 20_000,
    trials: int = 3,
    beta: float = DEFAULT_BETA,
    rng: RngLike = 9,
    *,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figure 9: LDPRecover-KM vs. plain k-means under MGA-IPA (IPUMS).

    ``num_users`` rescales the population (sampled mode, so reduced by
    default), ``trials`` rounds are averaged per (protocol, xi) cell at
    malicious fraction ``beta``, ``rng`` seeds the cells, ``workers``
    fans trials out, ``olh_cohort`` switches the OLH cells to seed-cohort
    perturbation, ``cache`` reuses completed cells, and ``budget``
    switches the cells to adaptive CI-targeted trial allocation.
    """
    dataset = load_dataset("ipums", num_users)
    rngs = iter(spawn(rng, len(PROTOCOL_NAMES) * len(FIG9_XIS)))
    for protocol_name in PROTOCOL_NAMES:
        for xi in FIG9_XIS:
            gen = as_generator(next(rngs))
            protocol = cell_protocol(
                protocol_name, DEFAULT_EPSILON, dataset.domain_size, olh_cohort
            )
            mga = MGAAttack(domain_size=dataset.domain_size, r=DEFAULT_R, rng=gen)
            attack = InputPoisoningAttack(mga)
            seeds = trial_seeds(gen, trials, budget)
            params = {
                "beta": beta, "xi": xi, "num_subsets": FIG9_NUM_SUBSETS, "mode": "sampled",
            }
            yield Cell(
                row_cell_spec("figure9", dataset, protocol, (attack,), params, seeds),
                seeds,
                functools.partial(_Fig9Task, dataset, protocol, attack, beta, xi),
                _figure9_trial,
                functools.partial(
                    stat_row, {"cell": protocol_name, "xi": xi},
                    ("mse_before", "mse_kmeans", "mse_ldprecover_km"),
                ),
            )


FIG10_BETAS = (0.05, 0.1, 0.15, 0.2, 0.25)
FIG10_NUM_ATTACKERS = 5


@exhibit("fig10", "multi-attacker adaptive attacks")
def figure10_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 10,
    *,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Figure 10: LDPRecover against 5 independent adaptive attackers.

    ``num_users`` rescales the IPUMS population, ``trials`` rounds are
    averaged per (protocol, beta) cell, ``rng`` seeds the cells (and the
    independent attackers), ``workers`` fans trials out, ``chunk_users``
    selects the chunked exact simulation, ``olh_cohort`` switches the OLH
    cells to seed-cohort perturbation, ``cache`` reuses completed cells,
    and ``budget`` switches the cells to adaptive CI-targeted trial
    allocation.
    """
    dataset = load_dataset("ipums", num_users)
    rngs = iter(spawn(rng, len(PROTOCOL_NAMES) * len(FIG10_BETAS)))
    mapping = {"mse_before": "mse_before", "mse_ldprecover": "mse_recover"}
    for protocol_name in PROTOCOL_NAMES:
        for beta in FIG10_BETAS:
            gen = as_generator(next(rngs))
            protocol = cell_protocol(protocol_name, DEFAULT_EPSILON, dataset.domain_size)
            attack = MultiAttacker([
                AdaptiveAttack(domain_size=dataset.domain_size, rng=child)
                for child in spawn(gen, FIG10_NUM_ATTACKERS)
            ])
            yield recovery_cell(
                dataset, protocol, attack, beta=beta, eta=DEFAULT_ETA,
                trials=trials, mode="fast", with_star=False, rng=gen,
                chunk_users=chunk_users, olh_cohort=_cohort_for(protocol, olh_cohort),
                budget=budget,
                rows=_columns({"cell": f"mul-aa-{protocol_name}", "beta": beta}, mapping),
            )


@dataclass(frozen=True)
class _Table1Task:
    """Picklable per-trial unit of Table I (one unpoisoned recovery round)."""

    dataset: Dataset
    protocol: FrequencyOracle
    mode: SimulationMode
    chunk_users: Optional[int]
    seed: np.random.SeedSequence


def _table1_trial(task: _Table1Task) -> dict[str, float]:
    """One Table I trial: MSE before and after recovery, beta=0."""
    gen = np.random.default_rng(task.seed)
    trial = run_trial(
        task.dataset, task.protocol, None, beta=0.0, mode=task.mode,
        rng=gen, chunk_users=task.chunk_users,
    )
    truth = trial.true_frequencies
    before = mse(truth, trial.poisoned_frequencies)
    recovery = recover_frequencies(trial.poisoned_frequencies, task.protocol, eta=DEFAULT_ETA)
    return {
        "mse_before_recovery": before,
        "mse_after_recovery": mse(truth, recovery.frequencies),
    }


@exhibit("table1", "LDPRecover on unpoisoned frequencies")
def table1_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 1,
    *,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Table I: LDPRecover executed on *unpoisoned* frequencies (beta=0).

    ``num_users`` rescales both workloads, ``trials`` rounds are averaged
    per (dataset, protocol) cell, ``rng`` seeds the cells, ``workers``
    fans trials out, ``chunk_users`` selects the chunked exact simulation,
    ``olh_cohort`` switches the OLH cells to seed-cohort perturbation,
    ``cache`` reuses completed cells, and ``budget`` switches the cells
    to adaptive CI-targeted trial allocation.
    """
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    datasets = [load_dataset("ipums", num_users), load_dataset("fire", num_users)]
    rngs = iter(spawn(rng, len(datasets) * len(PROTOCOL_NAMES)))
    for dataset in datasets:
        for protocol_name in PROTOCOL_NAMES:
            gen = as_generator(next(rngs))
            # Cohort mode only exists at the report level (see figure8_rows).
            protocol = cell_protocol(
                protocol_name, DEFAULT_EPSILON, dataset.domain_size,
                olh_cohort if mode == "chunked" else None,
            )
            seeds = trial_seeds(gen, trials, budget)
            params = row_cell_params(
                protocol, mode, chunk_users, beta=0.0, eta=DEFAULT_ETA, mode=mode
            )
            yield Cell(
                row_cell_spec("table1", dataset, protocol, (), params, seeds),
                seeds,
                functools.partial(_Table1Task, dataset, protocol, mode, chunk_users),
                _table1_trial,
                functools.partial(
                    stat_row, {"dataset": dataset.name, "protocol": protocol_name},
                    ("mse_before_recovery", "mse_after_recovery"),
                ),
            )
