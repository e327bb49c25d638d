"""What every workload returns, and the per-layer ledger built from spans."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Optional

from perfbench.spans import Span, layer_totals

#: Set-up steps, and fresh-interpreter imports, are repeated this many
#: times; medians are reported.
SETUP_REPS, IMPORT_REPS = 3, 5

#: Thread-count variables pinned to 1 before numpy is imported.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class Context:
    """Arguments and scratch locations shared by every workload."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: str
    outdir: str
    per_layer: tuple  # the per-layer metric names BENCHMARK.json declares

    @property
    def name(self) -> str:
        return f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"

    def path(self, *parts: str) -> str:
        target = os.path.join(self.workdir, *parts)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        return target


@dataclass
class Outcome:
    """One workload run: end-to-end metrics, per-layer ledger and failures.

    ``attempted`` counts operations (exhibit runs, trials, requests) plus
    correctness-gate comparisons; ``failed`` counts the ones that raised,
    returned a non-200 status, or did not match their reference.
    ``idle`` holds prefixes of per-layer metrics for work the workload
    does not do (a batch workload has no server); those it leaves out
    read 0, while any other declared metric it leaves out fails the run.
    """

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    idle: tuple = ()
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one gate comparison; note it when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"gate failed: {what}")


def env_record() -> dict:
    """CPU, thread and version facts the numbers depend on."""
    import numpy
    from repro.sim.engine import available_cpu_count

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "available_cpu_count": available_cpu_count(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


#: Standard-library modules a fresh interpreter imports as the set-up
#: reference: the same kind of work as importing the program (interpreter
#: start-up, module lookup, unmarshalling), never touching it.
REFERENCE_IMPORTS = (
    "asyncio, json, email.mime.multipart, http.server, decimal, argparse, logging, "
    "unittest, xml.dom.minidom, sqlite3, csv, tarfile, zipfile, inspect, "
    "concurrent.futures, urllib.request, statistics, fractions"
)
#: Seconds the reference imports take on an unloaded 2-core x86_64 host
#: (Python 3.11).  Only a scale: the same for every run.
REFERENCE_IMPORT_S = 0.15


def import_seconds(modules: str) -> float:
    """Seconds a fresh interpreter spends importing ``modules``."""
    code = (
        f"import time; t = time.perf_counter(); import {modules}; "
        "print(time.perf_counter() - t)"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def setup_seconds(step: Callable[[], float]) -> tuple[float, float]:
    """Set-up time: ``(reference seconds, raw seconds)``.

    Raw is the median import time of the program in a fresh interpreter
    plus the median of ``step()``, the workload's own set-up, which
    returns its seconds.  Both are repeated, so one slow start does not
    move the figure.  Host speed drifts from minute to minute, so the
    program's imports alternate with :data:`REFERENCE_IMPORTS`, and the
    reported figure is raw scaled by :data:`REFERENCE_IMPORT_S` over the
    reference's median.
    """
    program, reference = [], []
    for _ in range(IMPORT_REPS):
        program.append(import_seconds("repro.sim, repro.serve"))
        reference.append(import_seconds(REFERENCE_IMPORTS))
    raw = statistics.median(program) + statistics.median([step() for _ in range(SETUP_REPS)])
    return raw * REFERENCE_IMPORT_S / statistics.median(reference), raw


def ledger(spans: Iterable[Span], declared: Iterable[str], span_names: Collection[str],
           per: float = 1.0) -> dict:
    """The ``declared`` per-layer metrics that come from ``spans``.

    A name ``<span>.<field>`` whose ``<span>`` is in ``span_names`` (the
    spans the wrappers record) reads that span's call count (``calls``),
    self seconds (``self_s``) or a counter its wrapper records, divided
    by ``per``; a span that never ran reads 0, and a field the span does
    not record raises.  Batch workloads pass their number of traced
    passes as ``per``, so counts read per pass and repeat exactly from
    run to run.  Two ratios are derived: seconds per hash and the cache
    hit ratio.  Names of other spans are left to the workload.
    """
    totals = layer_totals(spans)
    hashing, lookups = totals.get("protocols.hashing.hash_items"), totals.get("sim.cache.get")
    derived = {
        "protocols.hashing.hash_items.ns_per_hash":
            hashing.self_s * 1e9 / hashing.counters["hashes"]
            if hashing and hashing.counters["hashes"] else 0.0,
        "sim.cache.hit_ratio": lookups.counters["hits"] / lookups.calls if lookups else 0.0,
    }
    out = {}
    for name in declared:
        span, _, field_name = name.rpartition(".")
        entry = totals.get(span)
        if name in derived:
            out[name] = derived[name]
        elif span not in span_names:
            continue
        elif entry is None:
            out[name] = 0.0
        elif field_name in ("calls", "self_s"):
            out[name] = float(getattr(entry, field_name)) / per
        elif field_name in entry.counters:
            out[name] = entry.counters[field_name] / per
        else:
            raise KeyError(f"per-layer metric {name}: span {span} records no {field_name!r}")
    return out


def overhead(traced: float, untraced: Optional[float]) -> float:
    """Fractional slowdown of the traced phase against the untraced one."""
    return traced / untraced - 1.0 if untraced else 0.0
