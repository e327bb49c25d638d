"""The compiled kernel's unary-encoding loops.

OUE/SUE perturbation and crafting, MGA's OUE padding and OUE support
counts must return exactly what their numpy references in
:mod:`repro.protocols.unary` return, and leave the generator in exactly
the state the references leave it in, for every bit generator: the
kernel draws numpy's own stream, one uniform at a time, in the
references' order.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks import MGAAttack
from repro.protocols import OUE, SUE, kernel, unary

BIT_GENERATORS = st.sampled_from(
    [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64]
)
SEEDS = st.integers(0, 2**64 - 1)
EPSILONS = st.floats(0.1, 5.0)
PROTOCOLS = st.sampled_from([OUE, SUE])
#: Raw bytes behind a bool view: 0, 1, 2, 255 and every other single bit.
BYTES = st.sampled_from([0, 1, 2, 4, 8, 16, 32, 64, 128, 255])


@pytest.fixture(scope="module")
def lib():
    loaded = kernel.load()
    if loaded is None:
        pytest.skip("no C compiler: the compiled kernel is unavailable")
    return loaded


@contextlib.contextmanager
def numpy_references():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "load", lambda: None)
        yield


def assert_paired(bit_generator, seed, draw):
    """``draw(gen)`` gives the same bool array on the kernel and on the
    numpy references, and leaves equal generators in the same state."""
    fast_gen = np.random.Generator(bit_generator(seed))
    fast = draw(fast_gen)
    ref_gen = np.random.Generator(bit_generator(seed))
    with numpy_references():
        ref = draw(ref_gen)
    assert fast.dtype == ref.dtype == np.bool_
    np.testing.assert_array_equal(fast, ref)
    assert fast_gen.random() == ref_gen.random()


def test_kernel_exposes_the_unary_loops(lib):
    for name in ("oue_perturb", "mga_pad", "column_counts"):
        assert callable(getattr(lib, name))


@pytest.mark.usefixtures("lib")
class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), protocol=PROTOCOLS, epsilon=EPSILONS, n=st.integers(0, 500),
           d=st.integers(2, 300), bit_generator=BIT_GENERATORS, seed=SEEDS)
    def test_perturb(self, data, protocol, epsilon, n, d, bit_generator, seed):
        oracle = protocol(epsilon=epsilon, domain_size=d)
        items = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, d - 1)))
        assert_paired(bit_generator, seed, lambda gen: oracle.perturb(items, gen))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), protocol=PROTOCOLS, epsilon=EPSILONS, n=st.integers(0, 500),
           d=st.integers(2, 300), bit_generator=BIT_GENERATORS, seed=SEEDS)
    def test_craft_supporting(self, data, protocol, epsilon, n, d, bit_generator, seed):
        oracle = protocol(epsilon=epsilon, domain_size=d)
        items = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, d - 1)))
        assert_paired(bit_generator, seed, lambda gen: oracle.craft_supporting(items, gen))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), protocol=PROTOCOLS, epsilon=EPSILONS, m=st.integers(0, 400),
           d=st.integers(2, 300), pad_oue=st.booleans(), bit_generator=BIT_GENERATORS,
           seed=SEEDS)
    def test_mga_craft_oue(self, data, protocol, epsilon, m, d, pad_oue, bit_generator, seed):
        oracle = protocol(epsilon=epsilon, domain_size=d)
        r = data.draw(st.integers(1, min(d, 12)))
        attack = MGAAttack(domain_size=d, r=r, pad_oue=pad_oue, rng=seed % 2**32)
        assert_paired(bit_generator, seed, lambda gen: attack.craft(oracle, m, gen))

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(0, 200), d=st.integers(2, 120), r=st.integers(1, 5),
           bit_generator=BIT_GENERATORS, seed=SEEDS)
    def test_mga_padding_every_non_target_bit(self, m, d, r, bit_generator, seed):
        """``pad == d - r``: the rates are raised until the padding claims
        every non-target bit (argpartition's kth is the last key)."""
        oracle = OUE(epsilon=1.0, domain_size=d)
        oracle.p = oracle.q = 1.0
        attack = MGAAttack(domain_size=d, r=min(r, d - 1), rng=seed % 2**32)
        crafted = attack.craft(oracle, m, np.random.default_rng(0))
        assert crafted.all()
        assert_paired(bit_generator, seed, lambda gen: attack.craft(oracle, m, gen))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(0, 200), d=st.integers(2, 300),
           bit_generator=BIT_GENERATORS, seed=SEEDS)
    def test_pad_rows(self, data, m, d, bit_generator, seed):
        cols = np.asarray(data.draw(st.permutations(range(d)))[: data.draw(st.integers(1, d))])
        pad = data.draw(st.integers(1, cols.size))

        def draw(gen):
            bits = np.zeros((m, d), dtype=bool)
            unary.pad_rows(gen, bits, cols, pad)
            return bits

        assert_paired(bit_generator, seed, draw)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 500), d=st.integers(2, 300), epsilon=EPSILONS, seed=SEEDS)
    def test_support_counts(self, n, d, epsilon, seed):
        oracle = OUE(epsilon=epsilon, domain_size=d)
        reports = oracle.perturb(np.arange(n) % d, seed)
        with numpy_references():
            expected = oracle.support_counts(reports)
        counts = oracle.support_counts(reports)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)


@pytest.mark.usefixtures("lib")
class TestSupportCountsLayouts:
    """Column counts read any bool layout the way numpy's sum reads it."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 300), d=st.integers(2, 70))
    def test_bool_views_of_arbitrary_bytes(self, data, n, d):
        raw = data.draw(hnp.arrays(np.uint8, (n, d), elements=BYTES))
        reports = raw.view(bool)
        oracle = OUE(epsilon=1.0, domain_size=d)
        expected = reports.sum(axis=0).astype(np.int64)
        np.testing.assert_array_equal(expected, (raw != 0).sum(axis=0))
        np.testing.assert_array_equal(oracle.support_counts(reports), expected)

    @pytest.mark.parametrize("byte", [1, 255])
    def test_full_columns_past_a_byte_counter(self, byte):
        """Counts far above 255 per column, tail columns included."""
        d = 8 * 33 + 5
        reports = np.full((1_000, d), byte, dtype=np.uint8).view(bool)
        counts = OUE(epsilon=1.0, domain_size=d).support_counts(reports)
        np.testing.assert_array_equal(counts, np.full(d, 1_000))

    @pytest.mark.parametrize("layout", ["fortran", "row-stride", "reversed-columns", "transposed"])
    def test_non_contiguous_input(self, layout):
        d = 37
        oracle = OUE(epsilon=1.0, domain_size=d)
        base = oracle.perturb(np.arange(1_001) % d, 3)
        reports = {
            "fortran": np.asfortranarray(base),
            "row-stride": base[::3],
            "reversed-columns": base[:, ::-1],
            "transposed": np.ascontiguousarray(base.T).T,
        }[layout]
        assert not reports.flags.c_contiguous
        np.testing.assert_array_equal(
            oracle.support_counts(reports), reports.sum(axis=0).astype(np.int64)
        )


#: ``double next_double(void *state)``, the C signature of a bit
#: generator's uniform draw.
NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


def scripted_stream(keys):
    """A C stream yielding ``keys`` in row-major order, and its callback
    (which must stay referenced while the stream is in use)."""
    flat = iter(np.asarray(keys, dtype=np.float64).ravel().tolist())
    callback = NEXT_DOUBLE(lambda state: next(flat))
    return (ctypes.cast(callback, ctypes.c_void_p).value, None), callback


def argpartition_rows(keys, cols, pad, d):
    """The reference choice, ``np.argpartition`` applied row by row."""
    bits = np.zeros((keys.shape[0], d), dtype=bool)
    for row, row_keys in enumerate(keys):
        bits[row, cols[np.argpartition(row_keys, pad - 1)[:pad]]] = True
    return bits


@pytest.mark.usefixtures("lib")
class TestTiePath:
    """Rows whose keys tie at the selection boundary are resolved by
    numpy's argpartition, so the kernel agrees with it on any keys."""

    def test_kernel_stops_at_the_first_boundary_tie(self, lib):
        cols = np.arange(2, 8, dtype=np.int64)
        keys = np.array([
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],  # no tie
            [0.5, 0.5, 0.5, 0.1, 0.9, 0.2],  # 3rd and 4th smallest tie
            [0.7, 0.1, 0.2, 0.3, 0.9, 0.8],
        ])
        stream, callback = scripted_stream(keys)
        bits = np.zeros((3, 8), dtype=bool)
        key_buf, work = np.empty(6), np.empty(6)
        stop = lib.mga_pad(*stream, 0, 3, 8, cols.ctypes.data, 6, 3,
                           key_buf.ctypes.data, work.ctypes.data, bits.ctypes.data)
        assert stop == 1
        np.testing.assert_array_equal(key_buf, keys[1])
        np.testing.assert_array_equal(bits[0], [0, 0, 1, 1, 1, 0, 0, 0])
        assert not bits[1:].any()
        del callback

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 40), d=st.integers(2, 40))
    def test_tied_keys_match_argpartition(self, lib, data, m, d):
        cols = np.asarray(data.draw(st.permutations(range(d)))[: data.draw(st.integers(1, d))],
                          dtype=np.int64)
        pad = data.draw(st.integers(1, cols.size))
        # Keys from a handful of values: ties everywhere, at the boundary too.
        keys = data.draw(hnp.arrays(np.float64, (m, cols.size),
                                    elements=st.sampled_from([0.0, 0.125, 0.5, 0.5 + 2**-53])))
        stream, callback = scripted_stream(keys)
        bits = np.zeros((m, d), dtype=bool)
        unary._pad_rows(lib, stream, bits, cols, pad)
        np.testing.assert_array_equal(bits, argpartition_rows(keys, cols, pad, d))
        del callback

    def test_every_row_tied(self, lib):
        cols = np.arange(5, dtype=np.int64)
        keys = np.full((6, 5), 0.25)
        stream, callback = scripted_stream(keys)
        bits = np.zeros((6, 5), dtype=bool)
        unary._pad_rows(lib, stream, bits, cols, 2)
        np.testing.assert_array_equal(bits, argpartition_rows(keys, cols, 2, 5))
        assert (bits.sum(axis=1) == 2).all()
        del callback


class TestValidation:
    """Inputs the loops could overrun are refused before any pointer
    reaches C (and on the numpy path alike)."""

    def test_draw_bits(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            unary.draw_bits(gen, 3, 4, 0.5, np.array([0, 1]), 0.5)
        with pytest.raises(ValueError):
            unary.draw_bits(gen, 2, 4, 0.5, np.array([0, 4]), 0.5)
        with pytest.raises(ValueError):
            unary.draw_bits(gen, 2, 4, 0.5, np.array([-1, 0]), 0.5)
        with pytest.raises(ValueError):
            unary.draw_bits(gen, -1, 4, 0.5)

    def test_pad_rows(self):
        gen = np.random.default_rng(0)
        bits = np.zeros((3, 6), dtype=bool)
        cols = np.array([1, 2, 3])
        for bad_bits in (bits[:, ::2], bits.astype(np.uint8), np.zeros(6, dtype=bool)):
            with pytest.raises(ValueError):
                unary.pad_rows(gen, bad_bits, np.array([0, 1]), 1)
        for bad_pad in (0, 4):
            with pytest.raises(ValueError):
                unary.pad_rows(gen, bits, cols, bad_pad)
        for bad_cols in (np.array([1, 6]), np.array([-1, 2])):
            with pytest.raises(ValueError):
                unary.pad_rows(gen, bits, bad_cols, 1)
        assert not bits.any()

    def test_column_counts(self):
        with pytest.raises(ValueError):
            unary.column_counts(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            unary.column_counts(np.zeros(3, dtype=bool))
