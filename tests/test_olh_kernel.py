"""The compiled kernel's OLH scans, and the kernel loader.

The kernel must count exactly what the numpy references in
:mod:`repro.protocols.hashing` count, for every input the scans accept,
and the loader must fall back to those references — never raise — when
no kernel can be built.  The unary-encoding loops are pinned in
``test_oue_kernel.py``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.protocols import OLH, hashing, kernel

SRC = pathlib.Path(kernel.__file__).resolve().parents[2]

#: Hash keys over the full uint64 range, values ≥ 2**63 included.
SEEDS = st.integers(0, 2**64 - 1)
#: Reported values, including negative ones and ones ≥ g (never supported).
VALUES = st.one_of(st.integers(-3, 45), st.sampled_from([-(2**63), 2**63 - 1]))
RANGES = st.integers(2, 40)
CHUNK_CELLS = st.integers(1, 5_000)


@pytest.fixture(scope="module")
def compiled():
    if kernel.load() is None:
        pytest.skip("no C compiler: the compiled kernel is unavailable")


def _reports(n):
    return st.tuples(
        hnp.arrays(np.uint64, n, elements=SEEDS), hnp.arrays(np.int64, n, elements=VALUES)
    )


@pytest.mark.usefixtures("compiled")
class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 300), d=st.integers(1, 2_000),
           g=RANGES, chunk_cells=CHUNK_CELLS)
    def test_support_scan(self, data, n, d, g, chunk_cells):
        seeds, values = data.draw(_reports(n))
        np.testing.assert_array_equal(
            hashing.support_scan(seeds, values, d, g, chunk_cells),
            hashing.support_scan_reference(seeds, values, d, g, chunk_cells),
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 300), g=RANGES, chunk_cells=CHUNK_CELLS,
           targets=st.lists(SEEDS, max_size=60))
    def test_target_scan(self, data, n, g, chunk_cells, targets):
        seeds, values = data.draw(_reports(n))
        idx = np.asarray(targets, dtype=np.uint64)
        np.testing.assert_array_equal(
            hashing.target_scan(seeds, values, idx, g, chunk_cells),
            hashing.target_scan_reference(seeds, values, idx, g, chunk_cells),
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(0, 40), d=st.integers(1, 2_000),
           g=RANGES, chunk_cells=CHUNK_CELLS)
    def test_cohort_fold(self, data, k, d, g, chunk_cells):
        seeds = data.draw(hnp.arrays(np.uint64, k, elements=SEEDS))
        hist = data.draw(hnp.arrays(np.int64, (k, g), elements=st.integers(0, 10**6)))
        np.testing.assert_array_equal(
            hashing.cohort_fold(seeds, hist, d, g, chunk_cells),
            hashing.cohort_fold_reference(seeds, hist, d, g, chunk_cells),
        )

    def test_scans_reject_shapes_the_kernel_would_overrun(self):
        seeds = np.arange(3, dtype=np.uint64)
        with pytest.raises(ValueError):
            hashing.support_scan(seeds, np.zeros(2, dtype=np.int64), 8, 3, 100)
        with pytest.raises(ValueError):
            hashing.cohort_fold(seeds, np.zeros((3, 2), dtype=np.int64), 8, 3, 100)
        with pytest.raises(ValueError):
            hashing.target_scan(seeds, np.zeros(3, dtype=np.int64), seeds, 1, 100)


def _fallback_matches_reference(protocol: OLH) -> None:
    """Both OLH scans run (on the numpy path) and count like the references."""
    items = np.random.default_rng(0).integers(0, protocol.domain_size, size=500)
    reports = protocol.perturb(items, np.random.default_rng(1))
    np.testing.assert_array_equal(
        protocol.support_counts(reports),
        hashing.support_scan_reference(
            reports.seeds, reports.values, protocol.domain_size, protocol.g, 10_000
        ),
    )
    targets = np.array([1, 5, 9], dtype=np.uint64)
    np.testing.assert_array_equal(
        protocol.target_support_counts(reports, [1, 5, 9]),
        hashing.target_scan_reference(reports.seeds, reports.values, targets, protocol.g, 64),
    )


class TestLoader:
    @pytest.fixture()
    def fresh_loader(self, monkeypatch, tmp_path):
        """A loader with nothing memoized, building into ``tmp_path``."""
        monkeypatch.setattr(kernel, "_KERNEL", kernel._UNSET)
        monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "__pycache__")
        return tmp_path

    def test_no_compiler_on_path_falls_back_to_numpy(self, fresh_loader, monkeypatch):
        empty = fresh_loader / "bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        assert kernel.load() is None
        _fallback_matches_reference(OLH(epsilon=1.0, domain_size=32))
        assert not (fresh_loader / "__pycache__").exists()

    def test_unwritable_cache_dir_falls_back_to_numpy(self, fresh_loader, monkeypatch):
        # A regular file where the directory should be: not writable even
        # for root, unlike a chmod-ed directory.
        blocker = fresh_loader / "blocker"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setattr(kernel, "CACHE_DIR", blocker / "__pycache__")
        with pytest.warns(RuntimeWarning, match="compiled kernel unavailable, using the numpy references"):
            assert kernel.load() is None
        assert kernel.load() is None  # memoized: warned once
        _fallback_matches_reference(OLH(epsilon=1.0, domain_size=32))

    @pytest.mark.usefixtures("compiled")
    def test_failed_compile_warns_and_falls_back(self, fresh_loader, monkeypatch):
        broken = fresh_loader / "_kernel.c"
        broken.write_text("this is not C\n", encoding="utf-8")
        monkeypatch.setattr(kernel, "SOURCE", broken)
        with pytest.warns(RuntimeWarning, match="CalledProcessError"):
            assert kernel.load() is None
        assert list((fresh_loader / "__pycache__").iterdir()) == []
        _fallback_matches_reference(OLH(epsilon=1.0, domain_size=32))

    @pytest.mark.usefixtures("compiled")
    def test_load_is_memoized(self, fresh_loader):
        first = kernel.load()
        assert first is not None and kernel.load() is first
        assert first.path.parent == fresh_loader / "__pycache__"
        assert first.path.name.startswith("_kernel-")

    @pytest.mark.usefixtures("compiled")
    def test_concurrent_builds_leave_one_library(self, tmp_path):
        """Two processes building into one cache directory at once both
        load a working library; one ``.so`` remains, no temporaries."""
        cache = tmp_path / "__pycache__"
        go = tmp_path / "go"
        script = textwrap.dedent(
            f"""
            import os, pathlib, time
            import numpy as np
            from repro.protocols import hashing, kernel
            while not os.path.exists({str(go)!r}):
                time.sleep(0.001)
            kernel.CACHE_DIR = pathlib.Path({str(cache)!r})
            lib = kernel.load()
            seeds = np.arange(50, dtype=np.uint64) * np.uint64(2**58 + 1)
            values = np.arange(50, dtype=np.int64) % 5
            same = np.array_equal(hashing.support_scan(seeds, values, 300, 5, 10**6),
                                  hashing.support_scan_reference(seeds, values, 300, 5, 10**6))
            print(lib.path, same)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        procs = [
            subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, env=env)
            for _ in range(2)
        ]
        go.write_text("", encoding="utf-8")
        outputs = [proc.communicate(timeout=120) for proc in procs]
        assert all(proc.returncode == 0 for proc in procs), outputs
        lines = {out.strip() for out, _ in outputs}
        assert len(lines) == 1, lines
        path, same = lines.pop().rsplit(" ", 1)
        assert same == "True"
        assert sorted(p.name for p in cache.iterdir()) == [pathlib.Path(path).name]


def test_import_neither_builds_nor_loads_the_kernel():
    """Importing the simulation and serving layers compiles and loads
    nothing: the kernel is built on the first scan call, not at import."""
    script = textwrap.dedent(
        """
        import sys
        import repro.sim, repro.serve
        with open("/proc/self/maps", encoding="utf-8") as maps:
            mapped = "protocols/__pycache__/_kernel-" in maps.read()
        print("repro.protocols.kernel" in sys.modules, mapped)
        """
    )
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.stdout.split() == ["False", "False"]
