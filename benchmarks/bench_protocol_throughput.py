"""Microbenchmarks: protocol kernel throughput and the experiment engine.

Not a paper exhibit, but the substrate the whole evaluation stands on:
perturbation, support counting and the fast distributional path for each
protocol, plus the recovery itself and the parallel/chunked experiment
engine.  Kernels use pytest-benchmark's normal repeated timing; the engine
smoke tests time one fig3-sized cell serially vs. across a worker pool and
report the wall-clock speedup in the exhibit summary.  The compiled
kernel's OUE loops are timed against their numpy references on the same
generator seeds, with identical output asserted.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_trials, bench_users, bench_workers, show
from repro.attacks import MGAAttack
from repro.core.recover import recover_frequencies
from repro.datasets import ipums_like
from repro.protocols import kernel, make_protocol
from repro.sim.engine import run_chunked_trial
from repro.sim.experiment import evaluate_recovery

N_USERS = 20_000
DATASET = ipums_like(num_users=N_USERS)
D = DATASET.domain_size


@pytest.fixture(params=["grr", "oue", "olh"])
def protocol(request):
    return make_protocol(request.param, epsilon=0.5, domain_size=D)


def test_perturb_throughput(benchmark, protocol):
    items = np.random.default_rng(0).integers(0, D, size=N_USERS)
    benchmark(lambda: protocol.perturb(items, 1))


def test_support_counts_throughput(benchmark, protocol):
    items = np.random.default_rng(0).integers(0, D, size=N_USERS)
    reports = protocol.perturb(items, 1)
    benchmark(lambda: protocol.support_counts(reports))


def test_fast_path_throughput(benchmark, protocol):
    counts = DATASET.counts
    benchmark(lambda: protocol.sample_genuine_counts(counts, 1))


def test_recovery_throughput(benchmark, protocol):
    rng = np.random.default_rng(2)
    poisoned = rng.normal(1.0 / D, 0.05, size=D)
    benchmark(lambda: recover_frequencies(poisoned, protocol))


def _best_of(fn, repeats=9):
    """The fastest of ``repeats`` wall-clock runs of ``fn``, and its result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_oue_kernel_speedup(monkeypatch):
    """The compiled OUE loops against their numpy references at
    ``N_USERS``: OUE ``perturb`` of the genuine users and MGA's padded OUE
    ``craft`` of as many reports, one engine chunk of an OUE/MGA cell.
    Both paths must give identical reports; the kernel must be >=1.5x
    faster on the chunk and on the crafting.  ``perturb`` alone is bound
    by numpy's own draw rate (the kernel draws the same uniforms; it saves
    the float matrix and the compare pass), so it must only be faster."""
    if kernel.load() is None:
        pytest.skip("no C compiler: the compiled kernel is unavailable")
    proto = make_protocol("oue", epsilon=0.5, domain_size=D)
    attack = MGAAttack(domain_size=D, r=10, rng=0)
    items = np.random.default_rng(0).integers(0, D, size=N_USERS)
    steps = {
        "OUE perturb": lambda: proto.perturb(items, 1),
        "MGA-OUE craft": lambda: attack.craft(proto, N_USERS, 1),
    }
    compiled = {name: _best_of(step) for name, step in steps.items()}
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "load", lambda: None)
        reference = {name: _best_of(step) for name, step in steps.items()}

    rows = []
    for name in steps:
        np.testing.assert_array_equal(compiled[name][1], reference[name][1])
        rows.append({"step": name, "reference_s": reference[name][0],
                     "kernel_s": compiled[name][0]})
    rows.append({"step": "chunk (perturb + craft)",
                 "reference_s": sum(row["reference_s"] for row in rows),
                 "kernel_s": sum(row["kernel_s"] for row in rows)})
    for row in rows:
        row["speedup"] = row["reference_s"] / row["kernel_s"]
    show(f"Compiled OUE loops vs numpy references (n=m={N_USERS}, d={D})", rows)
    perturb, craft, chunk = (row["speedup"] for row in rows)
    assert chunk >= 1.5 and craft >= 1.5, rows
    assert perturb > 1.0, rows


def test_fast_path_at_paper_scale(benchmark):
    """The headline cost claim: a full-population IPUMS trial in the fast
    path is milliseconds, which is what makes the paper-scale sweeps
    tractable."""
    full = ipums_like()  # 389,894 users
    proto = make_protocol("oue", epsilon=0.5, domain_size=full.domain_size)
    benchmark(lambda: proto.sample_genuine_counts(full.counts, 1))


def test_engine_parallel_speedup(benchmark):
    """Smoke the parallel engine on one fig3-sized cell: time workers=1 vs
    a 4-way pool (override with REPRO_BENCH_WORKERS), assert the results
    are bit-identical, and report the wall-clock speedup."""
    dataset = ipums_like(num_users=bench_users(40_000))
    proto = make_protocol("oue", epsilon=0.5, domain_size=dataset.domain_size)
    attack = MGAAttack(domain_size=dataset.domain_size, r=10, rng=0)
    trials = bench_trials(8)
    pool_workers = bench_workers(4)

    def cell(workers):
        return evaluate_recovery(
            dataset, proto, attack, beta=0.05, trials=trials, mode="sampled",
            rng=3, workers=workers,
        )

    start = time.perf_counter()
    serial = cell(1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled = benchmark.pedantic(lambda: cell(pool_workers), rounds=1, iterations=1)
    pooled_s = time.perf_counter() - start

    assert serial.mse_before == pooled.mse_before
    assert serial.mse_recover == pooled.mse_recover
    assert serial.mse_recover_star == pooled.mse_recover_star
    assert serial.fg_before == pooled.fg_before
    speedup = serial_s / pooled_s if pooled_s else float("nan")
    show(
        f"Engine parallel smoke (fig3-sized cell, {trials} trials)",
        [
            {"workers": 1, "seconds": serial_s, "speedup": 1.0},
            {"workers": pool_workers, "seconds": pooled_s, "speedup": speedup},
        ],
    )


def test_engine_chunked_memory_bound(benchmark):
    """The chunked exact path at paper scale: a full-population OUE trial
    whose live report matrix never exceeds chunk_users x d booleans (the
    unchunked matrix would be n x d)."""
    full = ipums_like(num_users=bench_users(0) or None)  # default: paper scale
    proto = make_protocol("oue", epsilon=0.5, domain_size=full.domain_size)
    attack = MGAAttack(domain_size=full.domain_size, r=10, rng=0)
    trial = benchmark.pedantic(
        lambda: run_chunked_trial(full, proto, attack, beta=0.05, rng=1, chunk_users=65_536),
        rounds=1,
        iterations=1,
    )
    assert trial.m > 0
    genuine_mse = float(np.mean((trial.true_frequencies - trial.genuine_frequencies) ** 2))
    # An unbiased estimator's MSE is its variance; allow 3x the theory value.
    expected = proto.theoretical_variance(trial.n) / trial.n**2
    assert genuine_mse < 3.0 * expected
