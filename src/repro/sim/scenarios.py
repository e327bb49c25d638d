"""Scenario exhibits: first-class sweeps beyond the paper's figures.

The paper's conclusion names poisoning of "more complex tasks, such as
key-value pairs collection" as future work, and heavy hitters are what
targeted promotion actually attacks (MGA's stated goal is promoting its
targets into the popular list).  This module promotes both workloads
from library sketches to first-class *scenario exhibits* that ride the
full experiment stack:

* **Engine** — every cell fans its trials out as picklable tasks through
  :func:`repro.sim.engine.parallel_map` with per-trial
  :class:`~numpy.random.SeedSequence` streams (``workers=N`` is
  bit-identical to ``workers=1``), and metrics accumulate through
  streaming Welford statistics into
  :class:`~repro.sim.engine.MetricStats`, so every column carries a
  ``±`` 95%-CI companion.
* **Cache** — each cell emits one cacheable row payload keyed by a
  canonical :func:`repro.sim.cache.scenario_cell_spec`, so interrupted
  sweeps resume and warm reruns execute zero simulation tasks.
* **Sharding** — scenarios register in the :data:`SCENARIOS` registry
  consumed by :class:`repro.sim.shard.SweepConfig`, so ``ldprecover run
  --exhibit kv|heavyhitter`` and ``shard run|status|merge`` dispatch
  them exactly like any paper figure, and a sharded scenario sweep
  merges bit-identical to the unsharded run.

Each scenario, like each paper figure, is a generator of
:class:`~repro.sim.cells.Cell` values registered once with
:func:`~repro.sim.cells.exhibit`; adding a new workload is one more such
generator (see :mod:`repro.sim.cells`), not a fork of the executor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, cast

import numpy as np

from repro._rng import RngLike, as_generator, spawn
from repro.attacks import MGAAttack, ScheduledAttack
from repro.core.detection import detect_and_aggregate
from repro.core.heavyhitters import promoted_items, tail_items, top_k_precision
from repro.core.kmeans import recover_with_kmeans
from repro.core.projection import project_onto_simplex_sort
from repro.core.recover import DEFAULT_ETA, recover_frequencies
from repro.datasets.base import Dataset
from repro.datasets.synthetic import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.kv import KeyValueProtocol, KVPoisoningAttack, recover_key_value
from repro.sim.cache import fingerprint_attack_schedule, scenario_cell_spec
from repro.sim.cells import (  # the exhibit registry, re-exported here
    SCENARIOS,
    ScenarioExhibit,
    register_scenario,
    scenario_names,
)
from repro.sim.cells import (
    Cell,
    cell_protocol,
    exhibit,
    make_attack,
    row_cell_params,
    stat_columns,
    stat_row,
    trial_seeds,
    trial_stats,
)
from repro.sim.engine import (
    MetricStats,
    TrialBlockStore,
    TrialBudget,
    resolve_star_targets,
)
from repro.sim.figures import DEFAULT_EPSILON, load_dataset
from repro.sim.history import AttackSchedule, drift_dataset
from repro.sim.metrics import frequency_gain, mse
from repro.sim.outliers import ZScoreOutlierDetector
from repro.sim.pipeline import SimulationMode, malicious_count, run_trial
from repro.sim.streaming import AggregatorState, fan_in
from repro.protocols import PROTOCOL_NAMES, FrequencyOracle
from repro.protocols.base import counts_to_items

__all__ = [
    "DEFENSE_ATTACKS",
    "DEFENSE_BETAS",
    "DEFENSE_EPSILONS",
    "DEFENSE_METHODS",
    "EPOCH_COLLECTORS",
    "EPOCH_COUNT",
    "EPOCH_DRIFT",
    "EPOCH_HISTORY_MIN",
    "EPOCH_SCHEDULES",
    "EPOCH_TARGET_COUNT",
    "HH_BETAS",
    "HH_KS",
    "HH_TARGET_COUNT",
    "KV_BETAS",
    "KV_EPSILONS",
    "KV_NUM_KEYS",
    "KV_TARGET_COUNT",
    "KVPopulation",
    "KVTrialTask",
    "SCENARIOS",
    "ScenarioExhibit",
    "defenses_rows",
    "detection_f1",
    "epochs_rows",
    "evaluate_kv_recovery",
    "heavyhitter_rows",
    "kv_population",
    "kv_rows",
    "kv_trial_metrics",
    "register_scenario",
    "scenario_names",
]


# ----------------------------------------------------------------------
# Key-value population model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KVPopulation:
    """A key-value population: key frequencies plus per-key value means.

    Each user holds one ``(key, value)`` pair.  Keys follow
    ``frequencies``; the value of a key-``k`` user is a two-point draw
    ``+1`` with probability ``(1 + means[k]) / 2`` else ``-1``, so the
    per-key expected value equals ``means[k]`` *exactly* (the extreme
    -point decomposition every ``[-1, 1]``-valued distribution reduces
    to under stochastic rounding).  That keeps the population's ``means``
    an analytic ground truth for unbiasedness tests and recovery error
    metrics — no clipping bias, no empirical re-estimation per trial.
    """

    #: Population name (enters the cache fingerprint).
    name: str
    #: Key-frequency vector (sums to one).
    frequencies: np.ndarray
    #: Per-key expected values in ``[-1, 1]``.
    means: np.ndarray
    #: Number of genuine users.
    num_users: int

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequencies, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        if freq.ndim != 1 or freq.size < 2 or freq.shape != means.shape:
            raise InvalidParameterError(
                f"frequencies/means must be equal-length 1-D vectors with >= 2 "
                f"keys, got shapes {freq.shape} and {means.shape}"
            )
        if freq.min() < 0 or not np.isclose(freq.sum(), 1.0):
            raise InvalidParameterError("frequencies must be non-negative and sum to 1")
        if means.min() < -1.0 or means.max() > 1.0:
            raise InvalidParameterError("means must lie in [-1, 1]")
        if self.num_users < 1:
            raise InvalidParameterError(f"num_users must be >= 1, got {self.num_users}")
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "num_users", int(self.num_users))

    @property
    def num_keys(self) -> int:
        """Size of the key domain."""
        return int(self.frequencies.size)

    def sample(self, rng: RngLike = None) -> tuple[np.ndarray, np.ndarray]:
        """Draw one population of ``(keys, values)`` user pairs off ``rng``."""
        gen = as_generator(rng)
        keys = gen.choice(self.num_keys, size=self.num_users, p=self.frequencies)
        up = gen.random(self.num_users) < (1.0 + self.means[keys]) / 2.0
        return keys.astype(np.int64), np.where(up, 1.0, -1.0)


def kv_population(
    num_keys: int = 32,
    num_users: int = 100_000,
    exponent: float = 1.0,
    name: str = "kv-zipf",
) -> KVPopulation:
    """The deterministic synthetic key-value workload of the ``kv`` exhibit.

    Key frequencies follow a Zipf profile over ``num_keys`` keys with the
    given ``exponent`` (rank equals key id — no shuffle, so the same
    arguments always produce the same population and hence the same cache
    fingerprints); per-key means fall linearly from ``+0.9`` (the hottest
    key) to ``-0.9`` (the coldest), so the tail keys the canonical attack
    targets have strongly negative means for ``target_bit=1`` to drag
    upward.  ``num_users`` sizes the genuine population and ``name``
    labels it in rows and cache fingerprints.
    """
    profile = zipf_dataset(
        domain_size=num_keys, num_users=max(num_keys, 10_000),
        exponent=exponent, shuffle=False,
    )
    return KVPopulation(
        name=name,
        frequencies=profile.frequencies,
        means=np.linspace(0.9, -0.9, num_keys),
        num_users=num_users,
    )


# ----------------------------------------------------------------------
# Key-value recovery: the engine path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KVTrialTask:
    """One picklable trial of a key-value poisoning + recovery cell.

    Carries the population, protocol, attack, the cell parameters and the
    trial's own :class:`~numpy.random.SeedSequence` child, so pool workers
    share no state and placement cannot change results.
    """

    population: KVPopulation
    protocol: KeyValueProtocol
    attack: KVPoisoningAttack
    seed: np.random.SeedSequence
    beta: float = 0.05
    eta: float = DEFAULT_ETA


def kv_trial_metrics(task: KVTrialTask) -> dict[str, float]:
    """Run one key-value trial ``task`` and compute every cell metric.

    One round: sample the genuine population, perturb it through the
    protocol, craft the ``beta``-fraction of malicious reports, aggregate,
    then recover both without attack knowledge and with the attacker's
    target keys (the LDPRecover* analogue).  Returns a flat
    ``{metric: value}`` dict — key-frequency MSE and per-key mean error
    (mean absolute error against the population's analytic means, over
    all keys and over the attacked keys alone) for the poisoned /
    recovered / target-aware estimates, plus the target-key frequency
    gain relative to the clean aggregate before and after recovery.
    """
    gen = np.random.default_rng(task.seed)
    population, protocol, attack = task.population, task.protocol, task.attack
    n = population.num_users
    m = malicious_count(n, task.beta)
    keys, values = population.sample(gen)
    genuine = protocol.perturb(keys, values, gen)
    clean = protocol.aggregate(genuine)
    if m > 0:
        malicious = attack.craft(protocol, m, gen)
        poisoned = protocol.aggregate(KeyValueProtocol.concat(genuine, malicious))
    else:
        poisoned = clean
    total = n + m

    recovered = recover_key_value(protocol, poisoned, total, eta=task.eta)
    star = recover_key_value(
        protocol,
        poisoned,
        total,
        eta=task.eta,
        target_keys=attack.target_keys,
        malicious_bit=attack.target_bit,
    )

    truth_freq, truth_means = population.frequencies, population.means
    targets = attack.target_keys

    def target_mae(estimate: np.ndarray) -> float:
        return float(np.abs(estimate[targets] - truth_means[targets]).mean())

    return {
        "freq_mse_before": mse(truth_freq, poisoned.frequencies),
        "freq_mse_recover": mse(truth_freq, recovered.frequencies),
        "freq_mse_recover_star": mse(truth_freq, star.frequencies),
        "mean_mae_before": float(np.abs(poisoned.means - truth_means).mean()),
        "mean_mae_recover": float(np.abs(recovered.means - truth_means).mean()),
        "mean_mae_recover_star": float(np.abs(star.means - truth_means).mean()),
        "target_mean_mae_before": target_mae(poisoned.means),
        "target_mean_mae_recover": target_mae(recovered.means),
        "target_mean_mae_recover_star": target_mae(star.means),
        "fg_before": frequency_gain(clean.frequencies, poisoned.frequencies, targets),
        "fg_recover": frequency_gain(clean.frequencies, recovered.frequencies, targets),
        "fg_recover_star": frequency_gain(clean.frequencies, star.frequencies, targets),
    }


def evaluate_kv_recovery(
    population: KVPopulation,
    protocol: KeyValueProtocol,
    attack: KVPoisoningAttack,
    beta: float = 0.05,
    eta: float = DEFAULT_ETA,
    trials: int = 10,
    rng: RngLike = None,
    workers: Optional[int] = 1,
    seeds: Optional[Sequence[np.random.SeedSequence]] = None,
    budget: Optional[TrialBudget] = None,
    store: Optional[TrialBlockStore] = None,
) -> dict[str, MetricStats]:
    """Run one key-value recovery cell and average over ``trials``.

    The key-value analogue of
    :func:`repro.sim.experiment.evaluate_recovery`: ``trials``
    independent poisoning rounds of ``attack`` against ``protocol`` over
    ``population`` at malicious fraction ``beta`` become picklable
    :class:`KVTrialTask` units — each owning a
    :class:`~numpy.random.SeedSequence` child spawned from ``rng`` (or
    taken from ``seeds``, which overrides ``rng``/``trials`` when the
    caller pre-spawned them for a cache spec) — fanned out through
    :func:`repro.sim.engine.parallel_map` over ``workers`` processes and
    folded into streaming per-metric statistics.  ``eta`` is the
    server-side ratio knob of both recovery variants.  With a
    :class:`~repro.sim.engine.TrialBudget` in ``budget`` the cell instead
    runs adaptively over the first ``budget.max_trials`` seeds of the
    same canonical stream (``trials`` is superseded), stopping at the
    first checkpoint whose 95% CI half-widths meet the target and
    resuming from ``store`` (a trial-block store) when one is given.
    Returns the ``{metric: MetricStats}`` aggregation of
    :func:`kv_trial_metrics` (mean / variance / stderr / count per
    metric); results are bit-identical for any ``workers``.
    """
    if seeds is None:
        if trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {trials}")
        seeds = trial_seeds(rng, trials, budget)
    elif not len(seeds):
        raise InvalidParameterError("seeds must be non-empty when provided")
    malicious_count(population.num_users, beta)  # surface m == 0 rounding early
    task_for = functools.partial(
        KVTrialTask, population, protocol, attack, beta=beta, eta=eta
    )
    stats, _, _ = trial_stats(kv_trial_metrics, task_for, seeds, workers, budget, store)
    return stats


#: Total privacy budgets of the ``kv`` sweep (split evenly key/value).
KV_EPSILONS = (2.0, 4.0)
#: Malicious fractions of the ``kv`` sweep.
KV_BETAS = (0.01, 0.05, 0.1, 0.15, 0.2)
#: Key-domain size of the ``kv`` sweep's population.
KV_NUM_KEYS = 32
#: Number of (least frequent) target keys the canonical attack promotes.
KV_TARGET_COUNT = 3

#: Default genuine population of the ``kv`` exhibit (``num_users=None``).
_KV_DEFAULT_USERS = 100_000

_KV_COLUMNS = (
    "freq_mse_before",
    "freq_mse_recover",
    "freq_mse_recover_star",
    "mean_mae_before",
    "mean_mae_recover",
    "mean_mae_recover_star",
    "target_mean_mae_before",
    "target_mean_mae_recover",
    "target_mean_mae_recover_star",
    "fg_before",
    "fg_recover",
    "fg_recover_star",
)


@exhibit("kv", "key-value poisoning recovery across epsilon and beta")
def kv_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 11,
    *,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Scenario ``kv``: key-value recovery across privacy budget and beta.

    One cell per (epsilon, beta) on the :data:`KV_EPSILONS` ×
    :data:`KV_BETAS` grid: the canonical targeted key-value attack (fake
    users report a tail key with the maximal value bit) poisons a
    PrivKV-style protocol over the deterministic :func:`kv_population`
    workload, and both recovery variants run —
    :func:`repro.kv.recover_key_value` without attack knowledge and with
    the attacker's target keys.  ``num_users`` sizes the genuine
    population (``None`` = 100k), ``trials`` rounds are averaged per cell
    through :func:`evaluate_kv_recovery`, ``rng`` seeds the cells
    independently, ``workers`` fans trials over the process pool,
    ``cache`` serves completed cells across runs (row payloads keyed by
    :func:`repro.sim.cache.scenario_cell_spec`), and ``budget`` switches
    the cells to adaptive CI-targeted trial allocation over the same
    canonical seed stream (cached trial blocks are resumed and extended
    rather than recomputed).
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    population = kv_population(
        num_keys=KV_NUM_KEYS,
        num_users=_KV_DEFAULT_USERS if num_users is None else int(num_users),
    )
    targets = tail_items(population.frequencies, KV_TARGET_COUNT)
    rngs = iter(spawn(rng, len(KV_EPSILONS) * len(KV_BETAS)))
    for epsilon in KV_EPSILONS:
        for beta in KV_BETAS:
            gen = as_generator(next(rngs))
            protocol = KeyValueProtocol(
                eps_key=epsilon / 2.0, eps_value=epsilon / 2.0, num_keys=KV_NUM_KEYS
            )
            attack = KVPoisoningAttack(
                num_keys=KV_NUM_KEYS, targets=targets, target_bit=1
            )
            seeds = trial_seeds(gen, trials, budget)
            params = {"beta": beta, "epsilon": epsilon, "eta": DEFAULT_ETA}
            head: dict[str, object] = {
                "cell": attack.describe(), "epsilon": epsilon, "beta": beta,
            }
            yield Cell(
                scenario_cell_spec("kv", population, protocol, (attack,), params, seeds),
                seeds,
                functools.partial(
                    KVTrialTask, population, protocol, attack, beta=beta, eta=DEFAULT_ETA
                ),
                kv_trial_metrics,
                functools.partial(stat_row, head, _KV_COLUMNS),
            )


# ----------------------------------------------------------------------
# Heavy-hitter promotion / repair sweep
# ----------------------------------------------------------------------
#: Malicious fractions of the ``heavyhitter`` sweep.
HH_BETAS = (0.05, 0.1, 0.15)
#: Top-k sizes of the ``heavyhitter`` sweep.
HH_KS = (5, 10)
#: Number of (least frequent) items the attack tries to promote.
HH_TARGET_COUNT = 5

_HH_COLUMNS = (
    "precision_poisoned",
    "precision_recovered",
    "precision_recovered_star",
    "promoted_poisoned",
    "promoted_recovered",
    "promoted_recovered_star",
)


@dataclass(frozen=True)
class _HHTask:
    """Picklable per-trial unit of the heavy-hitter scenario.

    One simulated trial serves *every* ``ks`` entry: the poisoning round
    and both recoveries are independent of ``k``, which only selects
    which top-k metrics are read off the recovered vectors.
    """

    dataset: Dataset
    protocol: FrequencyOracle
    attack: MGAAttack
    beta: float
    ks: tuple[int, ...]
    eta: float
    mode: SimulationMode
    chunk_users: Optional[int]
    seed: np.random.SeedSequence


def _heavyhitter_trial(task: _HHTask) -> dict[str, float]:
    """One heavy-hitter trial: top-k quality before/after recovery.

    ``precision_*`` is top-k precision against the true heavy hitters
    (equal to recall for equal-size sets — one column reports both);
    ``promoted_*`` counts non-heavy-hitter items occupying the estimated
    top-k (the attacker's planted items when the attack succeeds).  Each
    metric is emitted once per ``k`` in ``task.ks`` under a ``_k<k>``
    suffix — simulation and recovery run once regardless of how many
    ``k`` values the sweep reports.
    """
    gen = np.random.default_rng(task.seed)
    trial = run_trial(
        task.dataset, task.protocol, task.attack, beta=task.beta, mode=task.mode,
        rng=gen, chunk_users=task.chunk_users,
    )
    truth = trial.true_frequencies
    recovery = recover_frequencies(trial.poisoned_frequencies, task.protocol, eta=task.eta)
    star = recover_frequencies(
        trial.poisoned_frequencies, task.protocol, eta=task.eta,
        target_items=task.attack.target_items,
    )
    estimates = {
        "poisoned": trial.poisoned_frequencies,
        "recovered": recovery.frequencies,
        "recovered_star": star.frequencies,
    }
    out: dict[str, float] = {}
    for k in task.ks:
        for label, estimate in estimates.items():
            out[f"precision_{label}_k{k}"] = top_k_precision(truth, estimate, k)
            out[f"promoted_{label}_k{k}"] = float(promoted_items(truth, estimate, k).size)
    return out


def _heavyhitter_payload(
    head: dict[str, object], stats: dict[str, MetricStats], trials: int
) -> dict[str, Any]:
    """One heavy-hitter cell's payload: ``head`` plus every ``k``'s columns.

    The trials do not depend on ``k``, so every :data:`HH_KS` entry is
    read off the same ``stats`` and the payload carries all of them.
    """
    per_k = {
        str(k): stat_columns(
            {metric: stats[f"{metric}_k{k}"] for metric in _HH_COLUMNS}, _HH_COLUMNS
        )
        for k in HH_KS
    }
    return {**head, "per_k": per_k}


def _heavyhitter_rows(payload: dict[str, Any]) -> list[dict[str, object]]:
    """One heavy-hitter ``payload`` expanded into one row per ``k``."""
    per_k = cast("dict[str, dict[str, object]]", payload["per_k"])
    return [
        {"cell": payload["cell"], "beta": payload["beta"], "k": k, **per_k[str(k)]}
        for k in HH_KS
    ]


@exhibit(
    "heavyhitter",
    "top-k heavy-hitter promotion and repair across protocols, beta and k",
)
def heavyhitter_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 12,
    *,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Scenario ``heavyhitter``: top-k promotion and repair per cell.

    One simulated cell per (protocol, beta) over all three frequency
    oracles and :data:`HH_BETAS` — the trials do not depend on ``k``, so
    every :data:`HH_KS` entry is read off the same recovered vectors and
    the cell expands into one output row per ``k``.  MGA targets the
    :data:`HH_TARGET_COUNT` least frequent IPUMS items (deterministic
    targets, so cells cache stably) and each row reports top-k
    precision (= recall for equal-size sets) and promoted-item counts of
    the poisoned, LDPRecover and LDPRecover* estimates.  ``num_users``
    rescales the population (``None`` = paper scale), ``trials`` rounds
    average per cell, ``rng`` seeds the cells, ``workers`` fans trials
    out, ``chunk_users`` switches to the bounded-memory exact simulation,
    ``olh_cohort`` applies seed-cohort perturbation to the OLH cells in
    chunked mode, ``cache`` serves completed cells across runs, and
    ``budget`` switches the cells to adaptive CI-targeted trial
    allocation.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    dataset = load_dataset("ipums", num_users)
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    targets = tail_items(dataset.frequencies, HH_TARGET_COUNT)
    rngs = iter(spawn(rng, len(PROTOCOL_NAMES) * len(HH_BETAS)))
    for protocol_name in PROTOCOL_NAMES:
        for beta in HH_BETAS:
            gen = as_generator(next(rngs))
            # Cohort mode only exists at the report level (see figure8_rows).
            protocol = cell_protocol(
                protocol_name, DEFAULT_EPSILON, dataset.domain_size,
                olh_cohort if mode == "chunked" else None,
            )
            attack = MGAAttack(domain_size=dataset.domain_size, targets=targets)
            seeds = trial_seeds(gen, trials, budget)
            params = row_cell_params(
                protocol, mode, chunk_users,
                beta=beta, ks=list(HH_KS), eta=DEFAULT_ETA, mode=mode,
            )
            yield Cell(
                scenario_cell_spec("heavyhitter", dataset, protocol, (attack,), params, seeds),
                seeds,
                functools.partial(
                    _HHTask, dataset, protocol, attack, beta, HH_KS, DEFAULT_ETA,
                    mode, chunk_users,
                ),
                _heavyhitter_trial,
                functools.partial(
                    _heavyhitter_payload, {"cell": f"mga-{protocol_name}", "beta": beta}
                ),
                _heavyhitter_rows,
            )


# ----------------------------------------------------------------------
# Evolving-population epoch sweep
# ----------------------------------------------------------------------
#: Collection epochs per ``epochs`` cell.
EPOCH_COUNT = 6
#: Per-epoch relative population drift of the ``epochs`` sweep.
EPOCH_DRIFT = 0.05
#: Number of (least frequent) items the scheduled MGA promotes.
EPOCH_TARGET_COUNT = 5
#: Collectors in the fan-in cells (reports split round-robin, states merged).
EPOCH_COLLECTORS = 3
#: Epochs of history the cross-epoch detector needs before it can fit.
EPOCH_HISTORY_MIN = 2
#: The mid-stream attack shapes of the ``epochs`` sweep: always-on,
#: bursting on mid-stream (clean history for the detector to fit on),
#: and adversary-fraction drift from nothing to full strength.
EPOCH_SCHEDULES: tuple[AttackSchedule, ...] = (
    AttackSchedule.constant(0.05),
    AttackSchedule.burst(0.15, at=3),
    AttackSchedule.ramp(0.0, 0.15),
)

#: Default genuine population of the ``epochs`` exhibit (``num_users=None``):
#: reduced below paper scale because every trial materializes
#: :data:`EPOCH_COUNT` report batches.
_EPOCH_DEFAULT_USERS = 20_000

_EPOCH_COLUMNS = (
    "mse_before",
    "mse_recover",
    "mse_star",
    "fg_before",
    "fg_recover",
    "fg_star",
)


def detection_f1(flagged: Sequence[int], truth: Sequence[int]) -> float:
    """F1 of a detector's flagged item set against the true target set.

    Clean epochs have an empty ``truth``: a silent detector scores a
    perfect ``1.0`` there and any false alarm scores ``0.0``, so the
    per-epoch F1 column penalizes both missed bursts and spurious flags.
    """
    flagged_set, truth_set = set(map(int, flagged)), set(map(int, truth))
    if not truth_set:
        return 1.0 if not flagged_set else 0.0
    true_positives = len(flagged_set & truth_set)
    if true_positives == 0:
        return 0.0
    precision = true_positives / len(flagged_set)
    recall = true_positives / len(truth_set)
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class _EpochTask:
    """Picklable per-trial unit of the evolving-population scenario.

    One trial is a full multi-epoch collection: the population drifts
    epoch to epoch, the scheduled attack injects its per-epoch malicious
    batches, and every epoch's reports stream through the online
    :class:`repro.serve.RecoveryService` — directly, or via
    ``collectors`` round-robin :class:`~repro.sim.streaming.AggregatorState`
    instances fanned in through
    :func:`~repro.sim.streaming.fan_in` / ``absorb`` (byte-equal by the
    merge arithmetic, which the fan-in cells demonstrate).
    """

    dataset: Dataset
    protocol: FrequencyOracle
    scheduled: ScheduledAttack
    drift: float
    eta: float
    collectors: int
    chunk_users: Optional[int]
    seed: np.random.SeedSequence


def _epoch_trial(task: _EpochTask) -> dict[str, float]:
    """One evolving-population trial: recovery quality per epoch.

    RNG discipline matches :func:`repro.sim.history.simulate_history`:
    child stream 0 drives the population drift and children ``1..epochs``
    the per-epoch collection + crafting, so the epoch-``e`` draws are
    invariant to the horizon.  Emits per-epoch ``_e<e>``-suffixed
    metrics: MSE of the raw / LDPRecover / LDPRecover* views against the
    epoch's true (drifted) frequencies, target frequency gain before and
    after recovery, and — once :data:`EPOCH_HISTORY_MIN` epochs of
    history exist — the F1 of a z-score detector fitted on the *prior*
    epochs' raw views against the attack's true per-epoch activity.
    """
    from repro.serve.service import RecoveryService  # deferred: serve builds on sim

    gen = np.random.default_rng(task.seed)
    protocol, scheduled = task.protocol, task.scheduled
    num_epochs = scheduled.num_epochs
    streams = spawn(gen, num_epochs + 1)
    drift_gen, epoch_gens = streams[0], streams[1:]
    service = RecoveryService(protocol, eta=task.eta, chunk_users=task.chunk_users)
    states = [
        AggregatorState(protocol, chunk_users=task.chunk_users)
        for _ in range(task.collectors)
    ]
    targets = [int(t) for t in np.asarray(scheduled.target_items)]
    current = task.dataset
    truths: list[np.ndarray] = []
    genuine_freqs: list[np.ndarray] = []
    injected: list[int] = []
    for epoch, child in enumerate(epoch_gens):
        name = f"e{epoch}"
        n = current.num_users
        items = counts_to_items(current.counts, child)
        genuine = protocol.perturb(items, child)
        m, malicious = scheduled.craft_epoch(protocol, epoch, n, child)
        reports = (
            genuine if malicious is None else protocol.concat_reports(genuine, malicious)
        )
        if task.collectors == 1:
            service.ingest(name, reports)
        else:
            lanes = np.arange(protocol.num_reports(reports)) % task.collectors
            for lane, state in enumerate(states):
                state.ingest(name, protocol.select_reports(reports, lanes == lane))
        truths.append(current.frequencies)
        genuine_freqs.append(
            protocol.estimate_frequencies(protocol.support_counts(genuine), n)
        )
        injected.append(m)
        if task.drift > 0.0:
            current = drift_dataset(current, task.drift, drift_gen)
    if task.collectors > 1:
        service.absorb(fan_in(states))
    raw = [
        service.frequencies(f"e{epoch}").frequencies for epoch in range(num_epochs)
    ]
    out: dict[str, float] = {}
    for epoch in range(num_epochs):
        name = f"e{epoch}"
        recovered = service.frequencies(name, "recover").frequencies
        star = service.frequencies(name, "recover_star", targets).frequencies
        out[f"mse_before_e{epoch}"] = mse(truths[epoch], raw[epoch])
        out[f"mse_recover_e{epoch}"] = mse(truths[epoch], recovered)
        out[f"mse_star_e{epoch}"] = mse(truths[epoch], star)
        out[f"fg_before_e{epoch}"] = frequency_gain(
            genuine_freqs[epoch], raw[epoch], targets
        )
        out[f"fg_recover_e{epoch}"] = frequency_gain(
            genuine_freqs[epoch], recovered, targets
        )
        out[f"fg_star_e{epoch}"] = frequency_gain(genuine_freqs[epoch], star, targets)
        if epoch >= EPOCH_HISTORY_MIN:
            detector = ZScoreOutlierDetector().fit(np.stack(raw[:epoch]))
            flagged = detector.detect(raw[epoch])
            truth = targets if injected[epoch] > 0 else []
            out[f"detection_f1_e{epoch}"] = detection_f1(flagged, truth)
    return out


def _epoch_columns(epoch: int) -> tuple[str, ...]:
    """The metric columns epoch ``epoch``'s row carries."""
    if epoch >= EPOCH_HISTORY_MIN:
        return _EPOCH_COLUMNS + ("detection_f1",)
    return _EPOCH_COLUMNS


def _epochs_payload(
    head: dict[str, object], stats: dict[str, MetricStats], trials: int
) -> dict[str, Any]:
    """One epochs cell's payload: ``head`` plus every epoch's columns.

    Every epoch is read off the same streamed trials, so the payload
    carries all of them (the ``per_k`` pattern of the heavy-hitter sweep).
    """
    per_epoch = {
        str(epoch): stat_columns(
            {metric: stats[f"{metric}_e{epoch}"] for metric in _epoch_columns(epoch)},
            _epoch_columns(epoch),
        )
        for epoch in range(EPOCH_COUNT)
    }
    return {**head, "per_epoch": per_epoch}


def _epochs_rows(payload: dict[str, Any]) -> list[dict[str, object]]:
    """One epochs ``payload`` expanded into one row per epoch."""
    per_epoch = cast("dict[str, dict[str, object]]", payload["per_epoch"])
    betas = cast("list[float]", payload["betas"])
    rows: list[dict[str, object]] = []
    for epoch in range(EPOCH_COUNT):
        row: dict[str, object] = {
            "cell": payload["cell"],
            "schedule": payload["schedule"],
            "collectors": payload["collectors"],
            "epoch": epoch,
            "beta": betas[epoch],
            **per_epoch[str(epoch)],
        }
        if epoch < EPOCH_HISTORY_MIN:
            # The exporters require uniform columns across rows, so
            # warm-up epochs (no usable history yet) carry null
            # detection scores instead of omitting the columns.
            row["detection_f1"] = None
            row["detection_f1±"] = None
        rows.append(row)
    return rows


@exhibit(
    "epochs",
    "evolving-population recovery per epoch under drift and "
    "mid-stream attack schedules, streamed through the recovery service",
)
def epochs_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 13,
    *,
    chunk_users: Optional[int] = None,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Scenario ``epochs``: per-epoch recovery quality under drift + schedules.

    One simulated cell per (protocol, schedule) over all three frequency
    oracles and :data:`EPOCH_SCHEDULES`, plus one fan-in cell per
    protocol (the burst schedule split round-robin across
    :data:`EPOCH_COLLECTORS` collectors and merged) — each cell expands
    into one output row per epoch.  The population drifts
    :data:`EPOCH_DRIFT` per epoch off a dedicated stream
    (:func:`repro.sim.history.drift_dataset` semantics), MGA promotes the
    :data:`EPOCH_TARGET_COUNT` least frequent IPUMS items at the
    schedule's per-epoch fraction, and every epoch's reports stream
    through the online :class:`repro.serve.RecoveryService` — the exact
    numbers a live deployment would serve, cached/sharded like any batch
    cell.  ``num_users`` sizes each epoch's genuine population (``None``
    = 20k), ``trials`` rounds average per cell, ``rng`` seeds the cells,
    ``workers`` fans trials out, ``chunk_users`` bounds the streaming
    fold's slice size (execution-only: it cannot change results and
    stays out of cache keys), ``cache`` serves completed cells across
    runs, and ``budget`` switches the cells to adaptive CI-targeted
    trial allocation.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    dataset = load_dataset(
        "ipums", _EPOCH_DEFAULT_USERS if num_users is None else int(num_users)
    )
    targets = tail_items(dataset.frequencies, EPOCH_TARGET_COUNT)
    cells = [
        (protocol_name, schedule, 1)
        for protocol_name in PROTOCOL_NAMES
        for schedule in EPOCH_SCHEDULES
    ] + [
        (protocol_name, EPOCH_SCHEDULES[1], EPOCH_COLLECTORS)
        for protocol_name in PROTOCOL_NAMES
    ]
    rngs = spawn(rng, len(cells))
    for (protocol_name, schedule, collectors), cell_rng in zip(cells, rngs):
        gen = as_generator(cell_rng)
        protocol = cell_protocol(protocol_name, DEFAULT_EPSILON, dataset.domain_size)
        scheduled = ScheduledAttack(
            MGAAttack(domain_size=dataset.domain_size, targets=targets),
            schedule,
            EPOCH_COUNT,
        )
        seeds = trial_seeds(gen, trials, budget)
        params = {
            "schedule": fingerprint_attack_schedule(schedule),
            "epochs": EPOCH_COUNT,
            "drift": EPOCH_DRIFT,
            "eta": DEFAULT_ETA,
            "collectors": collectors,
        }
        head: dict[str, object] = {
            "cell": f"{schedule.kind}-{protocol_name}-c{collectors}",
            "protocol": protocol_name,
            "schedule": schedule.describe(),
            "collectors": collectors,
            "betas": list(schedule.betas(EPOCH_COUNT)),
        }
        yield Cell(
            scenario_cell_spec(
                "epochs", dataset, protocol, (scheduled.attack,), params, seeds
            ),
            seeds,
            functools.partial(
                _EpochTask, dataset, protocol, scheduled, EPOCH_DRIFT, DEFAULT_ETA,
                collectors, chunk_users,
            ),
            _epoch_trial,
            functools.partial(_epochs_payload, head),
            _epochs_rows,
        )


# ----------------------------------------------------------------------
# Defense shoot-out sweep
# ----------------------------------------------------------------------
#: The attack kinds of the ``defenses`` sweep (targeted and adaptive).
DEFENSE_ATTACKS = ("mga", "aa")
#: Privacy budgets of the ``defenses`` sweep.
DEFENSE_EPSILONS = (0.5, 2.0)
#: Malicious fractions of the ``defenses`` sweep.
DEFENSE_BETAS = (0.05, 0.15)
#: The competing defenses, in the order the winner column considers them.
DEFENSE_METHODS = (
    "normalization",
    "detection",
    "kmeans",
    "recover",
    "recover_star",
)

#: Default genuine population of the ``defenses`` exhibit
#: (``num_users=None``); sampled-mode cost is O(``num_users``).
_DEFENSE_DEFAULT_USERS = 40_000

_DEFENSE_COLUMNS = ("mse_before",) + tuple(
    f"mse_{method}" for method in DEFENSE_METHODS
) + ("fg_before",) + tuple(f"fg_{method}" for method in DEFENSE_METHODS)


@dataclass(frozen=True)
class _DefenseTask:
    """Picklable per-trial unit of the defense shoot-out scenario.

    One ``sampled``-mode poisoning round serves every competitor: the
    report-level defenses (Detection, k-means) rescan the same raw
    reports the estimate-level ones (normalization, LDPRecover,
    LDPRecover*) never need.
    """

    dataset: Dataset
    protocol: FrequencyOracle
    attack: MGAAttack
    beta: float
    eta: float
    aa_top_k: int
    seed: np.random.SeedSequence


def _defense_trial(task: _DefenseTask) -> dict[str, float]:
    """One shoot-out trial: every defense against the same poisoned round.

    The target items feeding Detection and LDPRecover* come from
    :func:`repro.sim.engine.resolve_star_targets` — explicit for MGA, the
    top-increase rule for the adaptive attack — exactly the paper's
    Section VI-A4 setup.  Emits ``mse_*`` against the true frequencies
    and ``fg_*`` target frequency gain against the clean aggregate for
    the undefended estimate and each :data:`DEFENSE_METHODS` entry.
    """
    gen = np.random.default_rng(task.seed)
    trial = run_trial(
        task.dataset, task.protocol, task.attack, beta=task.beta, mode="sampled",
        rng=gen,
    )
    truth = trial.true_frequencies
    poisoned = trial.poisoned_frequencies
    targets = resolve_star_targets(task.attack, trial, task.aa_top_k)
    target_list = [] if targets is None else [int(t) for t in targets]
    kmeans_recovery, _defense = recover_with_kmeans(
        task.protocol, trial.reports, rng=gen
    )
    estimates = {
        "before": poisoned,
        "normalization": project_onto_simplex_sort(poisoned),
        "detection": detect_and_aggregate(
            task.protocol, trial.reports, target_list
        ).frequencies,
        "kmeans": kmeans_recovery.frequencies,
        "recover": recover_frequencies(
            poisoned, task.protocol, eta=task.eta
        ).frequencies,
        "recover_star": recover_frequencies(
            poisoned, task.protocol, eta=task.eta, target_items=target_list
        ).frequencies,
    }
    out: dict[str, float] = {}
    for label, estimate in estimates.items():
        out[f"mse_{label}"] = mse(truth, estimate)
        out[f"fg_{label}"] = frequency_gain(
            trial.genuine_frequencies, estimate, target_list
        )
    return out


def _defenses_payload(
    head: dict[str, object], stats: dict[str, MetricStats], trials: int
) -> dict[str, object]:
    """One shoot-out cell's row: ``head``, the winning defense, the columns."""
    winner = min(DEFENSE_METHODS, key=lambda m: stats[f"mse_{m}"].mean)
    return {**head, "winner": winner, **stat_columns(stats, _DEFENSE_COLUMNS)}


@exhibit(
    "defenses",
    "defense shoot-out: Detection, k-means, normalization, LDPRecover "
    "and LDPRecover* on one (attack, epsilon, beta) grid with a winner "
    "per regime",
)
def defenses_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 14,
    *,
    budget: Optional[TrialBudget] = None,
) -> Iterator[Cell]:
    """Scenario ``defenses``: the defense shoot-out with a winner per regime.

    One cell per (attack, epsilon, beta) regime on the
    :data:`DEFENSE_ATTACKS` × :data:`DEFENSE_EPSILONS` ×
    :data:`DEFENSE_BETAS` grid, all over OUE on the IPUMS workload:
    Detection, the k-means defense (LDPRecover-KM), simplex-projection
    normalization, LDPRecover and LDPRecover* each repair the *same*
    ``sampled``-mode poisoned rounds, so their columns are paired
    comparisons.  Every ``mse_*`` / ``fg_*`` column carries its ``±``
    95%-CI companion, and the ``winner`` column names the
    :data:`DEFENSE_METHODS` entry with the lowest mean MSE in that
    regime — the winner-per-regime table reviewers ask for.
    ``num_users`` sizes the genuine population (``None`` = 40k),
    ``trials`` rounds average per cell, ``rng`` seeds the cells,
    ``workers`` fans trials out, ``cache`` serves completed cells across
    runs, and ``budget`` switches the cells to adaptive CI-targeted
    trial allocation.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    dataset = load_dataset(
        "ipums", _DEFENSE_DEFAULT_USERS if num_users is None else int(num_users)
    )
    cells = [
        (attack_kind, epsilon, beta)
        for attack_kind in DEFENSE_ATTACKS
        for epsilon in DEFENSE_EPSILONS
        for beta in DEFENSE_BETAS
    ]
    rngs = spawn(rng, len(cells))
    for (attack_kind, epsilon, beta), cell_rng in zip(cells, rngs):
        gen = as_generator(cell_rng)
        protocol = cell_protocol("oue", epsilon, dataset.domain_size)
        attack = make_attack(attack_kind, dataset.domain_size, gen)
        seeds = trial_seeds(gen, trials, budget)
        params = {
            "beta": beta, "epsilon": epsilon, "eta": DEFAULT_ETA, "aa_top_k": 5,
            "mode": "sampled",
        }
        head: dict[str, object] = {
            "cell": f"{attack_kind}-oue", "attack": attack_kind, "epsilon": epsilon,
            "beta": beta,
        }
        yield Cell(
            scenario_cell_spec("defenses", dataset, protocol, (attack,), params, seeds),
            seeds,
            functools.partial(
                _DefenseTask, dataset, protocol, attack, beta, DEFAULT_ETA, 5
            ),
            _defense_trial,
            functools.partial(_defenses_payload, head),
        )
