"""Tests for the persistent experiment-cell cache (repro.sim.cache).

The contract under test (ISSUE 2 acceptance criteria):

* cache keys are the canonical hash of the *full* cell spec — changing
  any spec field (dataset content, protocol/attack parameters, beta, eta,
  trials, mode, seeds, evaluation switches) changes the key;
* execution knobs that cannot change results (``workers``,
  ``chunk_users``) do NOT change the key;
* re-running any figure generation against a warm cache performs zero
  simulation trials (asserted through the engine's task counter);
* the store survives interruption artifacts: truncated/corrupt entries
  read as misses, ``verify`` flags them, ``prune`` reclaims space.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.attacks import AdaptiveAttack, MGAAttack, MultiAttacker
from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.protocols import GRR, OLH, OUE
from repro.sim import figures
from repro.sim.cache import (
    CellCache,
    cache_tag,
    canonical_key,
    default_cache_dir,
    evaluation_cell_spec,
    fingerprint_dataset,
    fingerprint_object,
    fingerprint_seed_sequences,
    resolve_cache,
    source_digest,
)
from repro.sim.engine import TASK_COUNTER
from repro.sim.experiment import evaluate_recovery

D = 16
DATASET = zipf_dataset(domain_size=D, num_users=5_000, exponent=1.0, rng=7)


def _spec(**overrides):
    """A baseline evaluation spec with optional field overrides."""
    base = dict(
        dataset=DATASET,
        protocol=GRR(epsilon=0.5, domain_size=D),
        attack=MGAAttack(domain_size=D, r=3, rng=0),
        beta=0.05,
        eta=0.2,
        trials=3,
        mode="fast",
        with_star=True,
        with_detection=False,
        aa_top_k=5,
        seeds=np.random.SeedSequence(1).spawn(3),
    )
    base.update(overrides)
    dataset = base.pop("dataset")
    protocol = base.pop("protocol")
    attack = base.pop("attack")
    return evaluation_cell_spec(dataset, protocol, attack, **base)


class TestCanonicalKey:
    def test_key_is_deterministic(self):
        assert canonical_key(_spec()) == canonical_key(_spec())

    @pytest.mark.parametrize(
        "override",
        [
            {"beta": 0.1},
            {"eta": 0.4},
            {"trials": 4, "seeds": np.random.SeedSequence(1).spawn(4)},
            {"mode": "chunked"},
            {"with_star": False},
            {"with_detection": True},
            {"aa_top_k": 7},
            {"seeds": np.random.SeedSequence(2).spawn(3)},
            {"dataset": zipf_dataset(domain_size=D, num_users=5_001, exponent=1.0, rng=7)},
            {"protocol": GRR(epsilon=0.6, domain_size=D)},
            {"protocol": OUE(epsilon=0.5, domain_size=D)},
            {"attack": MGAAttack(domain_size=D, r=4, rng=0)},
            {"attack": MGAAttack(domain_size=D, r=3, rng=1)},  # different targets
            {"attack": AdaptiveAttack(domain_size=D, rng=0)},
            {"attack": None},
        ],
    )
    def test_key_sensitive_to_every_spec_field(self, override):
        assert canonical_key(_spec(**override)) != canonical_key(_spec())

    def test_key_invariant_to_seed_order_changes_is_false(self):
        seeds = np.random.SeedSequence(1).spawn(3)
        reordered = [seeds[1], seeds[0], seeds[2]]
        assert canonical_key(_spec(seeds=reordered)) != canonical_key(_spec())

    def test_protocol_class_disambiguates(self):
        # OLH and OUE at the same epsilon produce distinct fingerprints via
        # both the class name and the (p, q, g) attributes.
        a = fingerprint_object(OLH(epsilon=0.5, domain_size=D))
        b = fingerprint_object(OUE(epsilon=0.5, domain_size=D))
        assert a["__type__"] != b["__type__"]

    def test_multi_attacker_fingerprint_recurses(self):
        children = [AdaptiveAttack(domain_size=D, rng=i) for i in range(2)]
        fp = fingerprint_object(MultiAttacker(children))
        assert len(fp["attacks"]) == 2
        assert fp["attacks"][0] != fp["attacks"][1]

    def test_rng_state_is_not_part_of_identity(self):
        # Two attack instances with identical parameters but different
        # leftover construction generators fingerprint identically.
        a = MGAAttack(domain_size=D, targets=[1, 2, 3], rng=0)
        b = MGAAttack(domain_size=D, targets=[1, 2, 3], rng=99)
        assert fingerprint_object(a) == fingerprint_object(b)

    def test_dataset_fingerprint_hashes_content(self):
        same = zipf_dataset(domain_size=D, num_users=5_000, exponent=1.0, rng=7)
        assert fingerprint_dataset(same) == fingerprint_dataset(DATASET)

    def test_seed_fingerprint_captures_spawn_key(self):
        parent = np.random.SeedSequence(5)
        first, second = parent.spawn(1), parent.spawn(1)
        assert fingerprint_seed_sequences(first) != fingerprint_seed_sequences(second)


class TestEvaluateRecoveryCaching:
    def test_roundtrip_is_exact(self, tmp_path):
        cache = CellCache(tmp_path)
        kwargs = dict(beta=0.05, eta=0.2, trials=3, rng=1)
        cold = evaluate_recovery(
            DATASET, GRR(epsilon=0.5, domain_size=D),
            MGAAttack(domain_size=D, r=3, rng=0), cache=cache, **kwargs,
        )
        warm = evaluate_recovery(
            DATASET, GRR(epsilon=0.5, domain_size=D),
            MGAAttack(domain_size=D, r=3, rng=0), cache=cache, **kwargs,
        )
        assert warm == cold  # includes the full per-metric stats dict
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_warm_hit_runs_zero_trials(self, tmp_path):
        cache = CellCache(tmp_path)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=3, rng=1, cache=cache)
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=3, rng=1, cache=cache)
        assert TASK_COUNTER.count == 0

    def test_key_invariant_to_workers(self, tmp_path):
        cache = CellCache(tmp_path)
        serial = evaluate_recovery(DATASET, OUE(epsilon=0.5, domain_size=D), None,
                                   trials=2, rng=3, workers=1, cache=cache)
        TASK_COUNTER.reset()
        pooled = evaluate_recovery(DATASET, OUE(epsilon=0.5, domain_size=D), None,
                                   trials=2, rng=3, workers=2, cache=cache)
        assert TASK_COUNTER.count == 0, "workers must not change the cache key"
        assert pooled == serial

    def test_key_invariant_to_chunk_size_but_not_mode(self, tmp_path):
        cache = CellCache(tmp_path)
        chunked = evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                                    trials=2, rng=3, chunk_users=500, cache=cache)
        TASK_COUNTER.reset()
        rechunked = evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                                      trials=2, rng=3, chunk_users=2_000, cache=cache)
        assert TASK_COUNTER.count == 0, "chunk_users must not change the cache key"
        assert rechunked == chunked
        # ...but fast mode is a different spec field, hence a different cell.
        fast = evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                                 trials=2, rng=3, cache=cache)
        assert cache.stats.misses == 2
        assert fast.mse_before != chunked.mse_before

    def test_rng_generator_spawn_position_matters(self, tmp_path):
        # The same generator passed twice spawns different children, so the
        # second call is a different cell — no false hits.
        cache = CellCache(tmp_path)
        gen = np.random.default_rng(11)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=gen, cache=cache)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=gen, cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses == 2


FIG_KWARGS = dict(num_users=4_000, trials=2, rng=0)


class TestFigureCaching:
    @pytest.mark.parametrize(
        "generate",
        [
            lambda cache: figures.sweep_rows(
                "ipums", "beta", values=(0.01, 0.05), cache=cache, **FIG_KWARGS
            ),
            lambda cache: figures.figure7_rows(cache=cache, **FIG_KWARGS),
            lambda cache: figures.figure8_rows(cache=cache, **FIG_KWARGS),
            lambda cache: figures.figure9_rows(cache=cache, **FIG_KWARGS),
            lambda cache: figures.figure10_rows(cache=cache, **FIG_KWARGS),
            lambda cache: figures.table1_rows(cache=cache, **FIG_KWARGS),
        ],
        ids=["sweep", "fig7", "fig8", "fig9", "fig10", "table1"],
    )
    def test_warm_cache_regenerates_without_simulation(self, tmp_path, generate):
        cache = CellCache(tmp_path)
        cold = generate(cache)
        assert cache.stats.stores == len(cold)
        TASK_COUNTER.reset()
        warm = generate(cache)
        assert TASK_COUNTER.count == 0, "warm figure must perform zero trials"
        assert warm == cold

    def test_interrupted_sweep_resumes_from_completed_cells(self, tmp_path):
        """A rerun after interruption only simulates the missing cells."""
        cache = CellCache(tmp_path)
        run = lambda: figures.sweep_rows(
            "ipums", "beta", values=(0.01, 0.05), cache=cache, **FIG_KWARGS
        )
        full = run()
        # Simulate a Ctrl-C that landed after 4 of the 6 cells completed.
        entries = cache.entries()
        for entry in entries[:2]:
            entry.path.unlink()
        resumed = run()
        assert resumed == full
        assert cache.stats.stores == len(full) + 2  # only the missing cells re-ran

    def test_ci_columns_follow_metric_columns(self, tmp_path):
        rows = figures.table1_rows(cache=None, **FIG_KWARGS)
        cols = list(rows[0].keys())
        assert cols.index("mse_before_recovery±") == cols.index("mse_before_recovery") + 1
        assert all(row["mse_before_recovery±"] > 0 for row in rows)


class TestStoreMaintenance:
    def _fill(self, tmp_path, n=3):
        cache = CellCache(tmp_path)
        for seed in range(n):
            evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                              trials=2, rng=seed, cache=cache)
        return cache

    def test_entries_and_summary_rows(self, tmp_path):
        cache = self._fill(tmp_path)
        entries = cache.entries()
        assert len(entries) == 3
        row = entries[0].summary_row()
        assert row["dataset"] == "zipf" and row["trials"] == 2

    def test_prune_all(self, tmp_path):
        cache = self._fill(tmp_path)
        assert cache.prune() == 3
        assert cache.entries() == []

    def test_prune_respects_age_horizon(self, tmp_path):
        cache = self._fill(tmp_path)
        assert cache.prune(older_than_days=1.0) == 0  # all entries are fresh
        assert len(cache.entries()) == 3

    def test_prune_rejects_negative_horizon(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            CellCache(tmp_path).prune(older_than_days=-1)

    def test_prune_all_tags_sweeps_other_versions(self, tmp_path):
        self._fill(tmp_path)
        stale = CellCache(tmp_path, tag="v0-repro-0.9.9")
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=9, cache=stale)
        fresh = CellCache(tmp_path)
        assert fresh.prune() == 3  # current tag only
        assert fresh.prune(all_tags=True) == 1  # the stale tag's entry

    def test_corrupt_entry_is_a_miss_and_verify_flags_it(self, tmp_path):
        cache = self._fill(tmp_path, n=1)
        [entry] = cache.entries()
        entry.path.write_text("{ truncated", encoding="utf-8")
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=0, cache=cache)
        assert TASK_COUNTER.count > 0  # recomputed, not served from garbage
        assert cache.stats.errors == 1

        # The recompute healed the entry; corrupt it again and verify.
        entry.path.write_text("{ truncated", encoding="utf-8")
        problems = cache.verify()
        assert len(problems) == 1 and "unreadable" in problems[0][1]
        assert cache.verify(delete=True) == problems
        assert cache.verify() == []

    def test_stale_payload_shape_is_a_miss(self, tmp_path):
        """A same-tag entry whose payload predates a RecoveryEvaluation
        field rename is recomputed, not raised (the in-place-edit caveat
        documented in the README)."""
        cache = self._fill(tmp_path, n=1)
        [entry] = cache.entries()
        data = json.loads(entry.path.read_text(encoding="utf-8"))
        data["payload"]["metric_from_the_future"] = data["payload"].pop("mse_before")
        entry.path.write_text(json.dumps(data), encoding="utf-8")
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=0, cache=cache)
        assert TASK_COUNTER.count > 0  # recomputed
        assert cache.stats.hits == 0 and cache.stats.errors == 1

    def test_verify_detects_tampered_spec(self, tmp_path):
        cache = self._fill(tmp_path, n=1)
        [entry] = cache.entries()
        data = json.loads(entry.path.read_text(encoding="utf-8"))
        data["spec"]["beta"] = 0.99
        entry.path.write_text(json.dumps(data), encoding="utf-8")
        problems = cache.verify()
        assert len(problems) == 1 and "key does not match" in problems[0][1]

    def test_version_tag_isolates_schema_changes(self, tmp_path):
        old = CellCache(tmp_path, tag="v0-repro-0.0.1")
        new = CellCache(tmp_path)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, cache=old)
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, cache=new)
        assert TASK_COUNTER.count > 0  # other version's entries are invisible
        assert new.stats.misses == 1


class TestTrialBlockIntegrity:
    """Appendable trial blocks (ISSUE 7): integrity of the block chain.

    A budgeted cell's trials persist as contiguous ``[start, stop)``
    blocks; any violation — corrupt file, gap, overlap, tampered Welford
    payload — must turn the *whole cell* into a miss (never a partial
    hit), be reported by ``verify``, and never break the summary-entry
    store the blocks live beside.
    """

    SPEC = {"kind": "trial-stream", "suite": "block-integrity"}

    def _store(self, root):
        cache = CellCache(root)
        return cache, cache.block_store(self.SPEC)

    def _fill(self, store, stop=6, batch=2):
        for start in range(0, stop, batch):
            per_trial = [{"x": float(i)} for i in range(start, start + batch)]
            assert store.append(start, start + batch, per_trial) is not None

    def test_roundtrip_preserves_trials_and_counts_reuse(self, tmp_path):
        cache, store = self._store(tmp_path)
        self._fill(store)
        chain = store.load()
        assert [(start, stop) for start, stop, _ in chain] == [(0, 2), (2, 4), (4, 6)]
        values = [m["x"] for _, _, chunk in chain for m in chunk]
        assert values == [float(i) for i in range(6)]
        assert cache.stats.block_hits == 3
        assert cache.stats.block_trials_reused == 6
        assert cache.stats.block_stores == 3

    def test_corrupt_block_is_a_whole_cell_miss(self, tmp_path):
        _, store = self._store(tmp_path)
        self._fill(store)
        store._block_path(2, 4).write_text("{ truncated", encoding="utf-8")
        cache, store = self._store(tmp_path)  # fresh stats
        assert store.load() == []
        assert cache.stats.errors == 1
        assert cache.stats.block_hits == 0, "no partial hit from the valid blocks"

    def test_gapped_chain_is_a_whole_cell_miss(self, tmp_path):
        _, store = self._store(tmp_path)
        self._fill(store)
        store._block_path(0, 2).unlink()
        cache, store = self._store(tmp_path)
        assert store.load() == []
        assert cache.stats.errors == 1

    def test_overlapping_chain_is_a_whole_cell_miss(self, tmp_path):
        # append refuses overlaps, so forge one: build the [1, 3) block in
        # a scratch cache (same spec => same stream key => valid content)
        # and drop its file into the real chain.
        scratch_cache, scratch = self._store(tmp_path / "scratch")
        scratch.append(0, 1, [{"x": 0.5}])
        scratch.append(1, 3, [{"x": 1.5}, {"x": 2.5}])
        _, store = self._store(tmp_path / "real")
        self._fill(store)
        overlap = scratch._block_path(1, 3)
        (store._block_path(1, 3)).write_text(
            overlap.read_text(encoding="utf-8"), encoding="utf-8"
        )
        cache, store = self._store(tmp_path / "real")
        assert store.load() == []
        assert cache.stats.errors == 1

    def test_tampered_welford_payload_is_rejected(self, tmp_path):
        _, store = self._store(tmp_path)
        self._fill(store)
        path = store._block_path(4, 6)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["welford"]["x"]["mean"] += 1.0  # stats no longer refold
        path.write_text(json.dumps(data), encoding="utf-8")
        cache, store = self._store(tmp_path)
        assert store.peek(4, 6) is None
        assert store.load() == []
        assert cache.stats.errors == 2  # one per failed read path

    def test_append_refuses_gaps_and_invalid_ranges(self, tmp_path):
        _, store = self._store(tmp_path)
        assert store.append(2, 4, [{"x": 0.0}, {"x": 1.0}]) is None  # gap at 0
        assert store.append(0, 2, [{"x": 0.0}, {"x": 1.0}]) is not None
        assert store.append(4, 6, [{"x": 0.0}, {"x": 1.0}]) is None  # gap at 2
        assert store.append(0, 2, [{"x": 9.0}, {"x": 9.0}]) is None  # re-append
        assert [(s, t) for s, t, _ in store.load()] == [(0, 2)]
        with pytest.raises(InvalidParameterError):
            store.append(2, 2, [])
        with pytest.raises(InvalidParameterError):
            store.append(2, 4, [{"x": 0.0}])  # wrong trial count

    def test_verify_walks_block_problems_to_a_clean_store(self, tmp_path):
        cache, store = self._store(tmp_path)
        self._fill(store)
        store._block_path(2, 4).write_text("{ truncated", encoding="utf-8")
        # One pass reports the corrupt block AND the chain gap it leaves:
        # the valid tail no longer connects to the valid head.
        problems = dict(cache.verify())
        assert len(problems) == 2
        assert any("unreadable or inconsistent trial block" in p for p in problems.values())
        assert any("gapped trial blocks" in p for p in problems.values())
        # Deleting both offenders yields a clean (short) chain.
        assert dict(cache.verify(delete=True)) == problems
        assert cache.verify() == []
        assert [(s, t) for s, t, _ in store.load()] == [(0, 2)]

    def test_blocks_are_invisible_to_entries_and_count(self, tmp_path):
        cache, store = self._store(tmp_path)
        self._fill(store)
        assert cache.entries() == []
        assert cache.count() == 0
        assert cache.verify() == []

    def test_prune_sweeps_aged_blocks(self, tmp_path):
        cache, store = self._store(tmp_path)
        self._fill(store)
        assert cache.prune(older_than_days=1.0) == 0  # all fresh
        old = time.time() - 2 * 86_400.0
        for _, _, _ in store.load():
            pass
        for path in sorted(store.directory.glob("*.json")):
            os.utime(path, (old, old))
        assert cache.prune(older_than_days=1.0) == 3
        assert store.load() == []

    def test_corrupt_block_recovers_bit_identically(self, tmp_path):
        """End to end through evaluate_recovery: a corrupt block voids the
        chain (the cell-level load is a miss, never a partial chain), the
        adaptive driver re-simulates the corrupt range — reusing only
        blocks that individually revalidate (range, stream key, Welford
        refold) — and the result equals the uncached run bit for bit."""
        from repro.sim.engine import TrialBudget

        budget = TrialBudget(target_halfwidth=1e-12, min_trials=2, max_trials=4, batch=2)

        def run(cache):
            return evaluate_recovery(
                DATASET, GRR(epsilon=0.5, domain_size=D),
                MGAAttack(domain_size=D, r=3, rng=0),
                trials=2, rng=4, cache=cache, budget=budget,
            )

        cache = CellCache(tmp_path)
        reference = run(cache)
        block_dirs = sorted(tmp_path.rglob("*.blocks"))
        assert len(block_dirs) == 1
        victim, survivor = sorted(block_dirs[0].glob("*.json"))
        victim.write_text("{ truncated", encoding="utf-8")
        [entry] = cache.entries()
        entry.path.unlink()  # force the rerun past the summary entry
        fresh = CellCache(tmp_path)
        TASK_COUNTER.reset()
        healed = run(fresh)
        # Trials [0, 2) re-simulate; the [2, 4) block revalidates and is
        # reused — never the voided chain as a whole.
        assert TASK_COUNTER.count == 2
        assert fresh.stats.errors >= 1
        assert fresh.stats.block_trials_reused == 2
        assert healed == reference
        assert survivor.exists()


class TestSourceDigest:
    """In-place source edits auto-invalidate the cache (ROADMAP PR 2
    follow-up): the version tag mixes in a content hash of the
    simulation-relevant source tree."""

    def test_tag_carries_source_digest(self):
        digest = source_digest()
        assert len(digest) == 12
        assert cache_tag().endswith(f"-{digest}")

    def test_default_digest_is_memoized(self):
        assert source_digest() == source_digest()

    def test_digest_tracks_file_content(self, tmp_path):
        module = tmp_path / "sim" / "engine.py"
        module.parent.mkdir()
        module.write_text("A = 1\n", encoding="utf-8")
        original = source_digest(tmp_path)
        module.write_text("A = 2\n", encoding="utf-8")
        assert source_digest(tmp_path) != original
        module.write_text("A = 1\n", encoding="utf-8")
        assert source_digest(tmp_path) == original

    def test_digest_tracks_new_files_in_every_package(self, tmp_path):
        seen = {source_digest(tmp_path)}
        for package in ("sim", "core", "protocols", "attacks"):
            sub = tmp_path / package
            sub.mkdir()
            (sub / "x.py").write_text(f"# {package}\n", encoding="utf-8")
            digest = source_digest(tmp_path)
            assert digest not in seen
            seen.add(digest)

    def test_digest_ignores_non_python_and_foreign_dirs(self, tmp_path):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "a.py").write_text("A = 1\n", encoding="utf-8")
        original = source_digest(tmp_path)
        (tmp_path / "sim" / "notes.txt").write_text("x", encoding="utf-8")
        (tmp_path / "lint").mkdir()
        (tmp_path / "lint" / "b.py").write_text("B = 1\n", encoding="utf-8")
        assert source_digest(tmp_path) == original

    def test_every_module_a_cell_loads_is_hashed(self):
        """Regression: the digest once hashed only sim/core/protocols/
        attacks, so edits to code trials run (``_rng``, ``datasets``,
        ``kv``, ``serve`` for the epochs scenario) served stale rows.
        One tiny cell of every exhibit runs in a fresh interpreter; every
        ``repro`` module file it loaded must be in the digest's file set."""
        import repro.sim.cache as cache_module

        script = textwrap.dedent(
            """
            import json, sys
            from repro.sim.cells import run_cell
            from repro.sim.shard import SweepConfig
            for name in SweepConfig.exhibit_names():
                config = SweepConfig(name, num_users=2_000, trials=1)
                run_cell(next(iter(config.cells())))
            modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "repro"]
            print(json.dumps(sorted(m.__file__ for m in modules)))
            """
        )
        root = pathlib.Path(cache_module.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(root.parent)},
        )
        loaded = {pathlib.Path(p).resolve() for p in json.loads(result.stdout.splitlines()[-1])}
        assert any(path.parts[-2:] == ("serve", "service.py") for path in loaded)
        hashed = {path.resolve() for path in cache_module._source_files(root)}
        assert loaded <= hashed, sorted(map(str, loaded - hashed))

    def test_digest_tracks_trial_code_outside_sim_but_not_lint(self, tmp_path):
        import repro.sim.cache as cache_module

        tree = tmp_path / "repro"
        shutil.copytree(
            pathlib.Path(cache_module.__file__).resolve().parent.parent, tree,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        original = source_digest(tree)
        lint_module = tree / "lint" / "runner.py"
        lint_module.write_text(lint_module.read_text(encoding="utf-8") + "# edit\n")
        assert source_digest(tree) == original
        for module in ("kv/recover.py", "_rng.py", "datasets/ipums.py", "serve/service.py"):
            path = tree / module
            before = source_digest(tree)
            path.write_text(path.read_text(encoding="utf-8") + "# edit\n")
            assert source_digest(tree) != before, module

    def test_digest_change_invalidates_entries(self, tmp_path, monkeypatch):
        import repro.sim.cache as cache_module

        warm = CellCache(tmp_path)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, cache=warm)
        # Simulate an in-place source edit: the memoized default digest
        # changes, so a fresh CellCache resolves to a different tag and
        # the old entry is invisible.
        monkeypatch.setattr(cache_module, "_DEFAULT_SOURCE_DIGEST", "deadbeef0123")
        edited = CellCache(tmp_path)
        assert edited.tag != warm.tag
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, cache=edited)
        assert TASK_COUNTER.count > 0
        assert edited.stats.misses == 1


class TestGetEvaluationStatsCounting:
    """Shape-mismatch lookups count once, after decoding — never the
    hits-then-rollback dance that could report negative hit counts."""

    def test_first_access_mismatch_never_goes_negative(self, tmp_path):
        warm = CellCache(tmp_path)
        spec = _spec()
        evaluation = evaluate_recovery(
            DATASET, GRR(epsilon=0.5, domain_size=D),
            MGAAttack(domain_size=D, r=3, rng=0),
            beta=0.05, eta=0.2, trials=3, rng=1, cache=warm,
        )
        assert evaluation is not None
        # Corrupt the payload shape of the stored entry (field renamed by
        # a hypothetical in-place edit under the same tag).
        [entry] = warm.entries()
        data = json.loads(entry.path.read_text(encoding="utf-8"))
        data["payload"]["renamed"] = data["payload"].pop("trials")
        entry.path.write_text(json.dumps(data), encoding="utf-8")
        # A *fresh* cache whose very first access is the mismatch: the old
        # rollback produced hits == -1 here.
        fresh = CellCache(tmp_path)
        assert fresh.get_evaluation(data["spec"]) is None
        assert fresh.stats.hits == 0
        assert fresh.stats.misses == 1
        assert fresh.stats.errors == 1
        assert fresh.stats.hit_rate == 0.0
        assert "-" not in fresh.stats.summary().split("(")[0]

    def test_clean_hit_still_counts_once(self, tmp_path):
        cache = CellCache(tmp_path)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, cache=cache)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, cache=cache)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.errors) == (1, 1, 0)


class TestOrphanTmpSweep:
    def _orphan(self, cache, age_seconds):
        cache.root.mkdir(parents=True, exist_ok=True)
        path = cache.root / "ab" / "tmp_killed_writer.tmp"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ half-written", encoding="utf-8")
        stamp = time.time() - age_seconds
        os.utime(path, (stamp, stamp))
        return path

    def test_prune_sweeps_old_tmp_files(self, tmp_path):
        cache = CellCache(tmp_path)
        orphan = self._orphan(cache, age_seconds=2 * cache.TMP_ORPHAN_SECONDS)
        assert cache.prune() == 1
        assert not orphan.exists()

    def test_fresh_tmp_files_survive(self, tmp_path):
        """A young .tmp may belong to a live writer mid-put."""
        cache = CellCache(tmp_path)
        inflight = self._orphan(cache, age_seconds=0)
        assert cache.prune() == 0
        assert inflight.exists()

    def test_tmp_files_are_invisible_to_entries_and_verify(self, tmp_path):
        cache = CellCache(tmp_path)
        self._orphan(cache, age_seconds=0)
        assert cache.entries() == []
        assert cache.verify() == []
        assert cache.count() == 0


def _cache_churn_worker(cache_dir, tag, worker_id, cells, failures_path):
    """One process of the concurrent-access test: interleaves puts, gets,
    and every maintenance operation against the shared store, recording
    any broken invariant into ``failures_path``."""
    import pathlib

    failures = []
    cache = CellCache(cache_dir, tag=tag)
    for i in range(cells):
        spec = {"kind": "row", "worker": worker_id, "i": i}
        cache.put(spec, {"worker": worker_id, "i": i})
        got = cache.get(spec)
        if got != {"worker": worker_id, "i": i}:
            failures.append(f"lost own cell {worker_id}/{i}: {got!r}")
        # Maintenance racing the other worker's writes: must neither
        # crash nor flag healthy entries.
        if i % 3 == 0:
            problems = cache.verify()
            if problems:
                failures.append(f"verify flagged {problems!r}")
        if i % 4 == 0:
            cache.entries()
            cache.prune(older_than_days=1.0)  # fresh entries: removes none
        # Churn: delete one of our own older entries directly, simulating
        # a peer's prune racing the other process's iteration.
        if i % 5 == 4:
            victim = {"kind": "row", "worker": worker_id, "i": i - 2}
            try:
                cache._path(cache.key_for(victim)).unlink()
            except FileNotFoundError:
                pass
    pathlib.Path(failures_path).write_text("\n".join(failures), encoding="utf-8")


class TestConcurrentAccess:
    """Two processes put/get/prune/verify against one cache directory —
    the invariant multi-machine sharding relies on: no corrupt entries,
    no lost completed cells, maintenance races are invisible."""

    CELLS = 40

    def test_two_process_churn_keeps_store_consistent(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        outputs = [tmp_path / f"failures-{i}.txt" for i in range(2)]
        workers = [
            ctx.Process(
                target=_cache_churn_worker,
                args=(str(tmp_path / "store"), "shared", i, self.CELLS, str(out)),
            )
            for i, out in enumerate(outputs)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        for out in outputs:
            assert out.read_text(encoding="utf-8") == ""

        # Every cell that was not deliberately deleted is intact.
        cache = CellCache(tmp_path / "store", tag="shared")
        assert cache.verify() == []
        deleted = {
            (w, i - 2) for w in range(2) for i in range(self.CELLS) if i % 5 == 4
        }
        for worker_id in range(2):
            for i in range(self.CELLS):
                if (worker_id, i) in deleted:
                    continue
                spec = {"kind": "row", "worker": worker_id, "i": i}
                assert cache.get(spec) == {"worker": worker_id, "i": i}, (
                    f"completed cell {worker_id}/{i} was lost"
                )
        assert cache.stats.errors == 0


class TestResolveCache:
    def test_no_cache_wins(self, tmp_path):
        assert resolve_cache(cache_dir=tmp_path, no_cache=True) is None

    def test_explicit_dir(self, tmp_path):
        cache = resolve_cache(cache_dir=tmp_path)
        assert cache is not None and cache.cache_dir == tmp_path

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        cache = resolve_cache()
        assert cache is not None and cache.cache_dir == tmp_path / "env"
