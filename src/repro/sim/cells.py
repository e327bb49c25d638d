"""Declarative experimental cells and the one executor that runs them.

Every exhibit — the paper's Figures 3-10 and Table I as much as the
scenario sweeps — is a grid of independent cells.  An exhibit is a
generator function that yields :class:`Cell` values; decorating it with
:func:`exhibit` registers it in :data:`SCENARIOS` (so ``ldprecover
run|shard`` and :class:`repro.sim.shard.SweepConfig` dispatch it) and
turns it into its rows function.  Which sweep knobs the exhibit consumes
is read from the generator's signature.

The executor (:func:`run_cell`, :func:`run_cells`) owns everything a cell
needs besides its definition:

* the cache lookup and store (:class:`repro.sim.cache.CellCache`),
  exactly one counted lookup per cell;
* fixed trials through :func:`repro.sim.engine.parallel_map` or
  adaptive ones through :func:`repro.sim.engine.run_adaptive_trials`
  with the cell's appendable trial-block store (:func:`trial_stats`);
* shard ownership (:class:`ShardPolicy`): acquire, compute, store and
  release in one ``try``/``finally``.

Because a generator only declares its cells, listing a sweep's cell
keys (:func:`repro.sim.shard.enumerate_cells`) iterates the generator
and simulates nothing.  The cell builders shared by the figure and
scenario generators (:func:`cell_protocol`, :func:`make_attack`,
:func:`row_cell_params`, :func:`stat_columns`) live here too.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from repro._rng import RngLike, as_generator, spawn_sequences
from repro.attacks import AdaptiveAttack, ManipAttack, MGAAttack
from repro.attacks.base import PoisoningAttack
from repro.exceptions import InvalidParameterError
from repro.protocols import FrequencyOracle, make_protocol
from repro.sim.cache import (
    CellBlockStore,
    CellCache,
    resolved_cohort_chunk,
    trial_stream_spec,
)
from repro.sim.engine import (
    MetricStats,
    TrialBlockStore,
    TrialBudget,
    aggregate_metrics,
    parallel_map,
    run_adaptive_trials,
)
from repro.sim.pipeline import SimulationMode

__all__ = [
    "DEFAULT_R",
    "SCENARIOS",
    "Cell",
    "ScenarioExhibit",
    "ShardPolicy",
    "cell_protocol",
    "exhibit",
    "exhibit_rows",
    "make_attack",
    "register_scenario",
    "row_cell_params",
    "run_cell",
    "run_cells",
    "scenario_names",
    "stat_columns",
    "stat_row",
    "trial_seeds",
    "trial_stats",
]

#: The paper's number of MGA target items (Section VI-A).
DEFAULT_R = 10

Stats = dict[str, MetricStats]
Row = dict[str, object]


def _one_row(payload: dict[str, Any]) -> list[Row]:
    """The default :attr:`Cell.rows`: the ``payload`` is the cell's one row."""
    return [payload]


@dataclass(frozen=True)
class Cell:
    """One experimental cell, declared for the executor.

    ``spec`` is the cell's canonical cache spec (built by one of the
    :mod:`repro.sim.cache` spec builders), ``seeds`` its per-trial
    :class:`~numpy.random.SeedSequence` children (see :func:`trial_seeds`),
    ``task_for`` builds the picklable trial task of one seed and
    ``metrics_fn`` runs it.  ``payload`` turns the aggregated trial
    statistics and the achieved trial count into the cached payload, and
    ``rows`` turns a payload, fresh or cached, into what the cell
    contributes to its exhibit (one row, several rows, or any decoded
    value).  A cached payload for which ``rows`` raises ``KeyError``,
    ``TypeError`` or ``ValueError`` is a stale entry: it counts as a
    miss and the cell is recomputed.
    """

    spec: dict[str, Any]
    seeds: Sequence[np.random.SeedSequence]
    task_for: Callable[[np.random.SeedSequence], Any]
    metrics_fn: Callable[[Any], dict[str, float]]
    payload: Callable[[Stats, int], dict[str, Any]]
    rows: Callable[[dict[str, Any]], Any] = _one_row

    def spec_for(self, budget: Optional[TrialBudget]) -> dict[str, Any]:
        """The spec the cell is cached under when run with ``budget``.

        An adaptive budget's fingerprint joins the spec, so budgeted and
        fixed runs of the same cell never share a summary entry.
        """
        return self.spec if budget is None else {**self.spec, "budget": budget.fingerprint()}


def trial_seeds(
    rng: RngLike, trials: int, budget: Optional[TrialBudget]
) -> list[np.random.SeedSequence]:
    """A cell's per-trial seeds: ``trials`` children of ``rng``.

    Under an adaptive ``budget`` the cell spawns ``budget.max_trials``
    children instead; their first ``trials`` equal a fixed run's seeds,
    which is what makes adaptive results bit-identical to fixed ones.
    """
    return spawn_sequences(rng, trials if budget is None else budget.max_trials)


def trial_stats(
    metrics_fn: Callable[[Any], dict[str, float]],
    task_for: Callable[[np.random.SeedSequence], Any],
    seeds: Sequence[np.random.SeedSequence],
    workers: Optional[int] = 1,
    budget: Optional[TrialBudget] = None,
    store: Optional[TrialBlockStore] = None,
) -> tuple[Stats, int, Optional[dict[str, Any]]]:
    """Run one cell's trials; return ``(stats, trials, meta)``.

    Without a ``budget`` every seed in ``seeds`` becomes one task via
    ``task_for``, and the tasks run through :func:`parallel_map` with
    ``metrics_fn`` over ``workers`` processes.  With a
    :class:`~repro.sim.engine.TrialBudget` the trials run in batches until
    its stopping rule is met, resuming from (and appending to) ``store``
    when one is given; ``meta`` then carries the adaptive outcome (trial
    and block counts, achieved half-width) for the cache entry.
    """
    if budget is None:
        tasks = [task_for(seed) for seed in seeds]
        per_trial = parallel_map(metrics_fn, tasks, workers=workers)
        return aggregate_metrics(per_trial), len(tasks), None
    outcome = run_adaptive_trials(
        budget, metrics_fn, task_for, seeds, workers=workers, store=store
    )
    return outcome.stats, outcome.trials, outcome.meta()


class ShardPolicy(Protocol):
    """Cell ownership consulted by :func:`run_cell` for sharded sweeps.

    ``acquire`` decides whether this shard computes a missing cell and
    ``release`` returns ownership once the cell is stored or abandoned.
    ``rechecks`` declares whether a peer may complete the cell between the
    cache miss and a successful acquire (the store is then consulted
    again), and ``blocks`` wraps an adaptive cell's trial-block store for
    block-grained arbitration.
    """

    rechecks: bool

    def acquire(self, key: str) -> bool:
        """Whether this shard should compute the missing cell ``key``."""
        ...

    def release(self, key: str) -> None:
        """Return ownership of ``key``."""
        ...

    def blocks(self, store: CellBlockStore) -> TrialBlockStore:
        """The trial-block ``store`` of an owned cell, as this shard uses it."""
        ...


def _compute(
    cell: Cell,
    spec: dict[str, Any],
    cache: Optional[CellCache],
    workers: Optional[int],
    budget: Optional[TrialBudget],
    policy: Optional[ShardPolicy],
) -> Any:
    """Simulate ``cell``, store its payload under ``spec``, return its rows."""
    store: Optional[TrialBlockStore] = None
    if cache is not None and budget is not None:
        blocks = cache.block_store(trial_stream_spec(spec))
        store = blocks if policy is None else policy.blocks(blocks)
    stats, trials, meta = trial_stats(
        cell.metrics_fn, cell.task_for, cell.seeds, workers, budget, store
    )
    payload = cell.payload(stats, trials)
    if cache is not None:
        cache.put(spec, payload, meta=meta)
    return cell.rows(payload)


def _probe(
    cache: CellCache, key: str, spec: dict[str, Any], cell: Cell
) -> tuple[Any, bool]:
    """``(value, looked_up)``: the cached value of an existing entry.

    Existence is probed outside the stats, so a cell that turns out to be
    another shard's touches no counter; ``looked_up`` reports whether a
    counted lookup was made (an unreadable entry counts one miss).
    """
    if not cache.contains(key):
        return None, False
    return cache.get(spec, decode=cell.rows), True


def run_cell(
    cell: Cell,
    *,
    cache: Optional[CellCache] = None,
    workers: Optional[int] = 1,
    budget: Optional[TrialBudget] = None,
    policy: Optional[ShardPolicy] = None,
) -> tuple[str, Any]:
    """Execute one ``cell``; return ``(status, value)``.

    ``status`` is ``"served"`` (the value came out of ``cache``),
    ``"ran"`` (simulated here and stored in ``cache``) or ``"skipped"``
    (a sharded run whose ``policy`` gives the missing cell to a peer;
    the value is then ``None``).  ``workers`` fans the trials out and
    ``budget`` selects adaptive trials; its fingerprint joins the cell's
    spec.  Every cell makes exactly one counted cache lookup, and a shard
    releases the cells it acquires even when the computation raises.
    """
    spec = cell.spec_for(budget)
    if cache is None or policy is None:
        value = None if cache is None else cache.get(spec, decode=cell.rows)
        if value is not None:
            return "served", value
        return "ran", _compute(cell, spec, cache, workers, budget, None)
    key = cache.key_for(spec)
    value, looked_up = _probe(cache, key, spec, cell)
    if value is not None:
        return "served", value
    if not policy.acquire(key):
        return "skipped", None
    try:
        # A peer may finish the cell between the probe and the acquire.
        if policy.rechecks and not looked_up:
            value, looked_up = _probe(cache, key, spec, cell)
            if value is not None:
                return "served", value
        if not looked_up:
            cache.stats.misses += 1
        return "ran", _compute(cell, spec, cache, workers, budget, policy)
    finally:
        policy.release(key)


def run_cells(
    cells: Iterable[Cell],
    *,
    cache: Optional[CellCache] = None,
    workers: Optional[int] = 1,
    budget: Optional[TrialBudget] = None,
) -> list[Row]:
    """Execute ``cells`` in order and concatenate their rows.

    ``cache``, ``workers`` and ``budget`` apply to every cell as in
    :func:`run_cell`.
    """
    rows: list[Row] = []
    for cell in cells:
        rows.extend(run_cell(cell, cache=cache, workers=workers, budget=budget)[1])
    return rows


# ----------------------------------------------------------------------
# The exhibit registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioExhibit:
    """One registered exhibit: a cell generator and its description.

    ``name`` is the registry key (the CLI's ``--figure``/``--exhibit``
    value), ``description`` the one-liner ``ldprecover list`` prints, and
    ``cells`` the generator function yielding the exhibit's
    :class:`Cell` values.  The sweep knobs it consumes are its parameter
    names, among ``dataset_name``, ``parameter``, ``num_users``,
    ``trials``, ``rng``, ``chunk_users``, ``olh_cohort`` and ``budget``;
    :class:`repro.sim.shard.SweepConfig` passes only those and leaves the
    others out of the sweep digest.
    """

    name: str
    description: str
    cells: Callable[..., Iterable[Cell]]

    def knobs(self) -> tuple[str, ...]:
        """The parameter names of :attr:`cells`."""
        return tuple(inspect.signature(self.cells).parameters)

    def generate(self, **knobs: object) -> Iterable[Cell]:
        """The exhibit's cells under those ``knobs`` its generator takes."""
        accepted = self.knobs()
        return self.cells(**{k: v for k, v in knobs.items() if k in accepted})


#: Every registered exhibit by name, in registration order: the paper's
#: figures (:mod:`repro.sim.figures`), then the scenario sweeps
#: (:mod:`repro.sim.scenarios`), then anything registered later.
SCENARIOS: dict[str, ScenarioExhibit] = {}


def scenario_names() -> tuple[str, ...]:
    """Registered exhibit names, in registration order."""
    return tuple(SCENARIOS)


def register_scenario(exhibit: ScenarioExhibit) -> None:
    """Add ``exhibit`` to the :data:`SCENARIOS` registry.

    The name must not be taken; once registered,
    ``SweepConfig(figure=exhibit.name)`` (and therefore ``ldprecover
    run|shard --exhibit <name>``) runs, enumerates, shards and merges it
    like any built-in exhibit.
    """
    if exhibit.name in SCENARIOS:
        raise InvalidParameterError(f"exhibit name {exhibit.name!r} is already taken")
    SCENARIOS[exhibit.name] = exhibit


def exhibit_rows(
    cells: Callable[..., Iterable[Cell]],
) -> Callable[..., list[Row]]:
    """The rows function of the cell generator ``cells``.

    It takes the generator's parameters plus keyword-only ``workers`` and
    ``cache``, runs the cells through :func:`run_cells` (forwarding the
    generator's ``budget`` argument, if any) and returns the rows.
    """
    signature = inspect.signature(cells)

    def rows(
        *args: Any,
        workers: Optional[int] = 1,
        cache: Optional[CellCache] = None,
        **kwargs: Any,
    ) -> list[Row]:
        budget = signature.bind(*args, **kwargs).arguments.get("budget")
        return run_cells(cells(*args, **kwargs), cache=cache, workers=workers, budget=budget)

    functools.update_wrapper(
        rows, cells, assigned=("__module__", "__name__", "__qualname__", "__doc__")
    )
    keyword = inspect.Parameter.KEYWORD_ONLY
    executor_knobs = [
        inspect.Parameter("workers", keyword, default=1, annotation="Optional[int]"),
        inspect.Parameter("cache", keyword, default=None, annotation="Optional[CellCache]"),
    ]
    setattr(rows, "__signature__", signature.replace(
        parameters=[*signature.parameters.values(), *executor_knobs],
        return_annotation="list[dict[str, object]]",
    ))
    return rows


def exhibit(
    name: str, description: str
) -> Callable[[Callable[..., Iterable[Cell]]], Callable[..., list[Row]]]:
    """Decorator registering a cell generator as exhibit ``name``.

    The generator joins :data:`SCENARIOS` with ``description`` and the
    decorated name becomes its :func:`exhibit_rows` function.
    """

    def register(cells: Callable[..., Iterable[Cell]]) -> Callable[..., list[Row]]:
        register_scenario(ScenarioExhibit(name, description, cells))
        return exhibit_rows(cells)

    return register


# ----------------------------------------------------------------------
# Cell builders shared by the figure and scenario generators
# ----------------------------------------------------------------------
def cell_protocol(
    name: str, epsilon: float, domain_size: int, olh_cohort: Optional[int] = None
) -> FrequencyOracle:
    """The protocol ``name`` of one cell at ``epsilon`` over ``domain_size``.

    ``olh_cohort`` applies to cohort-capable protocols (those with a
    ``with_cohort`` hook, i.e. OLH/BLH) only, so generators that iterate
    every protocol forward it unconditionally and only the hashing-based
    cells pick it up (entering their cache keys through the protocol
    fingerprint).
    """
    protocol = make_protocol(name, epsilon=epsilon, domain_size=domain_size)
    with_cohort = getattr(protocol, "with_cohort", None)
    if olh_cohort is None or with_cohort is None:
        return protocol
    cohorted: FrequencyOracle = with_cohort(olh_cohort)
    return cohorted


def make_attack(kind: str, domain_size: int, rng: RngLike) -> PoisoningAttack:
    """The attack ``kind`` (``"manip"``, ``"mga"`` or ``"aa"``) of one cell.

    ``domain_size`` sizes it and ``rng`` seeds its construction; MGA
    targets :data:`DEFAULT_R` items.
    """
    gen = as_generator(rng)
    if kind == "manip":
        return ManipAttack(domain_size=domain_size, rng=gen)
    if kind == "mga":
        return MGAAttack(domain_size=domain_size, r=DEFAULT_R, rng=gen)
    if kind == "aa":
        return AdaptiveAttack(domain_size=domain_size, rng=gen)
    raise InvalidParameterError(f"unknown attack {kind!r}")


def row_cell_params(
    protocol: FrequencyOracle,
    mode: SimulationMode,
    chunk_users: Optional[int],
    /,
    **base: object,
) -> dict[str, object]:
    """Spec params of one row cell: ``base`` plus the cohort chunk size.

    Adds ``cohort_chunk_users`` (the resolved chunk schedule) exactly when
    :func:`repro.sim.cache.resolved_cohort_chunk` says ``protocol`` in
    ``mode`` with ``chunk_users`` shapes the cell's report distribution.
    The leading arguments are positional-only so ``base`` may itself carry
    a ``mode`` spec field.
    """
    params: dict[str, object] = dict(base)
    cohort_chunk = resolved_cohort_chunk(protocol, mode, chunk_users)
    if cohort_chunk is not None:
        params["cohort_chunk_users"] = cohort_chunk
    return params


def stat_columns(stats: Stats, columns: Iterable[str]) -> dict[str, object]:
    """Columns ``{col: mean, col±: ci95}`` of ``columns`` from ``stats``."""
    out: dict[str, object] = {}
    for column in columns:
        entry = stats[column]
        out[column] = entry.mean
        out[f"{column}±"] = entry.ci95_halfwidth
    return out


def stat_row(
    head: dict[str, object], columns: Sequence[str], stats: Stats, trials: int
) -> dict[str, object]:
    """A :attr:`Cell.payload`: ``head`` followed by :func:`stat_columns`.

    Bind ``head`` and ``columns`` with :func:`functools.partial`; ``stats``
    and ``trials`` (unused) come from the executor.
    """
    return {**head, **stat_columns(stats, columns)}
