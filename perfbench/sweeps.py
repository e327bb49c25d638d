"""The batch workloads: the cold exhibit sweep and chunked paper trials.

Each run repeats whole passes until ``--seconds`` have gone by, so every
rate is a median of per-pass rates over identical work.  A pass runs
every registered exhibit (``SweepConfig.exhibit_names()``, so exhibits
added through ``register_scenario`` join automatically) or, for
``chunked-paper``, the fig7 sweep at the full IPUMS population.  A
reference kernel shaped like the workload's hot path is timed around
each stretch of passes, and reported rates are per reference second
(see :mod:`perfbench.reference`).

With ``--trace 1`` the run measures untraced passes for half the time,
then installs the layer wrappers and measures traced passes; the traced
rows must equal the untraced ones byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from perfbench import layers, reference
from perfbench.common import Context, Outcome, ledger, overhead, peak_rss_mb, setup_seconds, timed
from perfbench.spans import Tracer, rebind

#: sweep-cold: the researcher's "regenerate everything" scale; one trial
#: per cell keeps a pass near 8 s, so a run holds several passes.
COLD_USERS, COLD_TRIALS = 20_000, 1
#: chunked-paper: fig7 at the full IPUMS population, chunked.
CHUNK_TRIALS, CHUNK_USERS, OLH_COHORT = 1, 65_536, 64
#: Longest stretch of passes measured between two host-speed samples.
CALIBRATE_EVERY_S = 1.0
#: Per-layer metrics of the server, which the batch workloads never start.
NO_SERVER = ("serve.", "bench.generator.", "bench.read.")


@dataclass
class Pass:
    """One pass over the exhibits: a digest of each exhibit's rows, seconds each.

    Rows are kept as sha256 digests of their canonical JSON, so repeated
    passes do not grow the heap (and with it RSS and GC time).
    ``speed`` is the host-speed factor measured around the pass.
    """

    rows: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    failed: int = 0
    units: float = 0.0  # cells served, or reports simulated (chunked-paper)
    speed: float = 1.0

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    @property
    def rate(self) -> float:
        return self.units / self.wall


def digest(rows: list) -> str:
    """Digest of the byte-comparable (canonical JSON) form of an exhibit's rows."""
    return hashlib.sha256(json.dumps(rows, sort_keys=True, default=repr).encode()).hexdigest()


def run_pass(names: tuple, cache: Optional[object], **config: object) -> Pass:
    from repro.sim import SweepConfig

    out = Pass()
    for name in names:
        start = time.perf_counter()
        try:
            out.rows[name] = digest(SweepConfig(name, workers=1, **config).run(cache))
        except Exception:  # a raised exhibit is a counted failure, not a crash
            traceback.print_exc()
            out.rows[name] = None
            out.failed += 1
        out.seconds[name] = time.perf_counter() - start
    if cache is not None:
        out.units = float(cache.stats.lookups)
    return out


def repeat(one: Callable[[], Pass], seconds: float, minimum: int,
           speed: Callable[[], float]) -> list[Pass]:
    """Whole passes until ``seconds`` have elapsed (at least ``minimum``).

    ``speed()`` samples the host speed before the first pass and after
    every stretch of at least :data:`CALIBRATE_EVERY_S`; each pass gets
    the mean of the two samples around its stretch.
    """
    passes: list[Pass] = []
    stretch: list[Pass] = []
    before = speed()
    start = last = time.perf_counter()
    while True:
        stretch.append(one())
        passes.append(stretch[-1])
        done = len(passes) >= minimum and time.perf_counter() - start >= seconds
        if done or time.perf_counter() - last >= CALIBRATE_EVERY_S:
            after = speed()
            for p in stretch:
                p.speed = (before + after) / 2
            before, stretch, last = after, [], time.perf_counter()
        if done:
            return passes


def traced(ctx: Context, one: Callable[[], Pass], seconds: float,
           speed: Callable[[], float]) -> tuple[list[Pass], dict]:
    """Traced passes, their per-pass ledger, and the spans written as JSONL."""
    from repro.sim import TASK_COUNTER, cache

    tracer = Tracer()
    layers.install(tracer)
    # Forget the memoized source digest so the traced phase pays it once,
    # as a fresh process would; later passes must reuse it.
    cache._DEFAULT_SOURCE_DIGEST = None
    tasks = TASK_COUNTER.count
    try:
        passes = repeat(one, seconds, 1, speed)
    finally:
        tracer.unpatch()
    tracer.write_jsonl(f"{ctx.outdir}/{ctx.workload}.spans.jsonl")
    book = ledger(tracer.spans, ctx.per_layer, tracer.names, per=len(passes))
    book["sim.engine.trials"] = (TASK_COUNTER.count - tasks) / len(passes)
    book["bench.traced_pass_s"] = statistics.median([p.wall for p in passes])
    return passes, book


def measure(ctx: Context, out: Outcome, one: Callable[[], Pass], minimum: int) -> list[Pass]:
    """Untraced passes; with tracing, also traced ones and their ledger."""
    with reference.Calibrator(ctx.workload) as calibrator:
        if not ctx.trace:
            passes = repeat(one, ctx.seconds, minimum, calibrator.speed)
        else:
            passes = repeat(one, ctx.seconds / 2, 1, calibrator.speed)
            traced_passes, book = traced(ctx, one, ctx.seconds / 2, calibrator.speed)
            out.layers.update(book)
            out.layers["bench.trace.overhead_frac"] = overhead(
                statistics.median([p.wall / p.speed for p in traced_passes]),
                statistics.median([p.wall / p.speed for p in passes]),
            )
            for p in traced_passes:
                same_rows(out, passes[0], p, "traced rows equal untraced rows")
    for p in passes:
        out.attempted += len(p.rows)
        out.failed += p.failed
    for p in passes[1:]:
        same_rows(out, passes[0], p, "repeated pass rows equal the first pass")
    return passes


def same_rows(out: Outcome, ref: Pass, other: Pass, what: str) -> None:
    for name, rows in ref.rows.items():
        out.check(rows is not None and other.rows.get(name) == rows, f"{what} ({name})")


def report(out: Outcome, passes: list[Pass], setup: tuple[float, float]) -> None:
    out.metrics.update(
        setup_s=setup[0],
        work_per_s=statistics.median([p.rate * p.speed for p in passes]),
        peak_rss_mb=peak_rss_mb(),
    )
    out.layers["bench.raw.setup_s"] = setup[1]
    out.layers["bench.speed_factor"] = statistics.median([p.speed for p in passes])
    out.layers["bench.raw.work_per_s"] = statistics.median([p.rate for p in passes])
    for name in passes[0].seconds:
        out.layers[f"sim.exhibit.{name}.s"] = statistics.median([p.seconds[name] for p in passes])
    out.layers["bench.pass_s"] = statistics.median([p.wall for p in passes])


def fresh_digest() -> float:
    """Seconds to hash the simulation source tree, bypassing the memo."""
    import pathlib

    from repro.sim import cache

    root = pathlib.Path(cache.__file__).resolve().parent.parent
    return timed(lambda: cache._compute_source_digest(root))[0]


def sweep_cold(ctx: Context) -> Outcome:
    """Every exhibit against a fresh, empty cache per pass."""
    from repro.sim import CellCache, SweepConfig

    out = Outcome(idle=NO_SERVER)
    names = SweepConfig.exhibit_names()
    setup = setup_seconds(fresh_digest)
    config = dict(num_users=COLD_USERS, trials=COLD_TRIALS, seed=ctx.seed)
    dirs: list[str] = []

    def one() -> Pass:
        dirs.append(ctx.path("cold", str(len(dirs))))
        return run_pass(names, CellCache(dirs[-1]), **config)

    passes = measure(ctx, out, one, 1)
    report(out, passes, setup)
    # The last cold pass's cache must serve the same rows warm; the warm
    # pass also gives each exhibit's warm time for the ledger.
    warm = run_pass(names, CellCache(dirs[-1]), **config)
    out.attempted += len(warm.rows)
    out.failed += warm.failed
    same_rows(out, passes[0], warm, "warm rows equal cold rows")
    for name, seconds in warm.seconds.items():
        out.layers[f"sim.exhibit.{name}.warm_s"] = seconds
    return out


def chunked_paper(ctx: Context) -> Outcome:
    """fig7 with exact report-level trials over the full IPUMS population."""
    from repro.datasets import ipums_like
    from repro.sim import engine

    # Only fig7 runs, and never warm.
    out = Outcome(idle=NO_SERVER + ("sim.exhibit.",))
    setup = setup_seconds(lambda: fresh_digest() + timed(ipums_like)[0])
    reports = [0]
    original = engine.run_chunked_trial

    def counted(*args: object, **kwargs: object) -> object:
        # Counts the reports each trial simulated; records no span.
        result = original(*args, **kwargs)
        reports[0] += result.n + result.m
        return result

    def one() -> Pass:
        reports[0] = 0
        p = run_pass(
            ("fig7",), None,
            num_users=None, trials=CHUNK_TRIALS, seed=ctx.seed,
            chunk_users=CHUNK_USERS, olh_cohort=OLH_COHORT,
        )
        p.units = float(reports[0])
        return p

    restore = rebind(original, counted)
    try:
        passes = measure(ctx, out, one, 2)
    finally:
        for module, attr, value in restore:
            setattr(module, attr, value)
    report(out, passes, setup)
    return out
