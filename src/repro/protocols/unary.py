"""Bit-matrix loops of the unary encodings (OUE, SUE) and of MGA's padding.

Three operations, each the single dispatch point between the compiled
kernel (:mod:`repro.protocols.kernel`) and its numpy reference
(``*_reference``):

* :func:`draw_bits` — ``gen.random((n, d)) < q``, optionally followed by
  each row's own bit redrawn at rate ``p``: OUE/SUE perturbation and
  crafting;
* :func:`pad_rows` — per row, the ``pad`` columns with the smallest of
  ``len(cols)`` random keys switched on: MGA's OUE padding;
* :func:`column_counts` — on-bits per column: OUE/SUE support counts.

The kernel draws every uniform from the caller's generator through its
bit generator's published C interface (``bit_generator.ctypes``), under
the bit generator's lock, one draw at a time in the references' order.
The stream is numpy's own for any bit generator, so both paths return the
same arrays and leave the generator in the same state; the kernel just
never builds the float matrix.  The references are the fallback when no
kernel can be built.  Inputs are validated here, before any pointer
reaches C.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.protocols.hashing import _kernel

if TYPE_CHECKING:
    from repro.protocols.kernel import Kernel

#: ``(next_double, state)`` addresses of a bit generator's C interface.
Stream = tuple[Optional[int], Optional[int]]


@contextlib.contextmanager
def _stream(gen: np.random.Generator) -> Iterator[Stream]:
    """``gen``'s bit generator as a C stream, held under its lock."""
    bit_generator = gen.bit_generator
    iface = bit_generator.ctypes
    with bit_generator.lock:
        yield ctypes.cast(iface.next_double, ctypes.c_void_p).value, iface.state_address


def draw_bits(
    gen: np.random.Generator, n: int, d: int, q: float,
    items: Optional[np.ndarray] = None, p: float = 0.0,
) -> np.ndarray:
    """``gen.random((n, d)) < q`` as an ``(n, d)`` bool matrix; with
    ``items``, bit ``[i, items[i]]`` is then redrawn as ``gen.random() < p``
    for each row in order (OUE/SUE perturbation).

    Kernel or :func:`draw_bits_reference`: same bits, same draws.
    """
    n, d, q, p = int(n), int(d), float(q), float(p)
    if n < 0 or d < 1:
        raise ValueError(f"bit matrix needs n >= 0 rows and d >= 1 columns, got {(n, d)}")
    if items is not None:
        items = np.ascontiguousarray(items, dtype=np.int64)
        if items.shape != (n,):
            raise ValueError(f"items must have shape ({n},), got {items.shape}")
        if n and (items.min() < 0 or items.max() >= d):
            raise ValueError(f"items must lie in [0, {d})")
    lib = _kernel()
    if lib is None:
        return draw_bits_reference(gen, n, d, q, items, p)
    bits = np.empty((n, d), dtype=bool)
    with _stream(gen) as (next_double, state):
        lib.oue_perturb(
            next_double, state, n, d, q,
            None if items is None else items.ctypes.data, p, bits.ctypes.data,
        )
    return bits


def draw_bits_reference(
    gen: np.random.Generator, n: int, d: int, q: float,
    items: Optional[np.ndarray] = None, p: float = 0.0,
) -> np.ndarray:
    """numpy :func:`draw_bits`: the ``(n, d)`` float matrix, compared."""
    bits = gen.random((n, d)) < q
    if items is not None and n:
        bits[np.arange(n), items] = gen.random(n) < p
    return bits


def pad_rows(gen: np.random.Generator, bits: np.ndarray, cols: np.ndarray, pad: int) -> None:
    """Per row of ``bits`` (in place), switch on the ``pad`` entries of
    ``cols`` with the smallest keys of one row of
    ``gen.random((len(bits), len(cols)))``.

    The chosen set is ``np.argpartition(keys, pad - 1)[:pad]``; it is
    unique unless the ``pad``-th and ``(pad + 1)``-th smallest keys tie,
    and then numpy's ``argpartition`` picks it on both paths.  ``bits``
    must be a C-contiguous bool matrix, ``cols`` column indices,
    ``1 <= pad <= len(cols)``.  Kernel or :func:`pad_rows_reference`.
    """
    if bits.dtype != np.bool_ or bits.ndim != 2 or not bits.flags.c_contiguous:
        raise ValueError("bits must be a C-contiguous 2-D bool matrix")
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    pad = int(pad)
    if cols.ndim != 1 or not 1 <= pad <= cols.size:
        raise ValueError(f"pad must lie in [1, len(cols)] for 1-D cols, got {pad}, {cols.shape}")
    if cols.min() < 0 or cols.max() >= bits.shape[1]:
        raise ValueError(f"cols must be column indices in [0, {bits.shape[1]})")
    lib = _kernel()
    if lib is None:
        pad_rows_reference(gen, bits, cols, pad)
        return
    with _stream(gen) as stream:
        _pad_rows(lib, stream, bits, cols, pad)


def _pad_rows(lib: "Kernel", stream: Stream, bits: np.ndarray, cols: np.ndarray, pad: int) -> None:
    """The kernel's ``mga_pad`` over every row of ``bits``, resolving each
    row whose keys tie at the selection boundary with ``argpartition``."""
    m, d = bits.shape
    keys = np.empty(cols.size)
    work = np.empty(cols.size)
    row = 0
    while row < m:
        row = lib.mga_pad(
            *stream, row, m, d, cols.ctypes.data, cols.size, pad,
            keys.ctypes.data, work.ctypes.data, bits.ctypes.data,
        )
        if row < m:
            bits[row, cols[np.argpartition(keys, pad - 1)[:pad]]] = True
            row += 1


def pad_rows_reference(
    gen: np.random.Generator, bits: np.ndarray, cols: np.ndarray, pad: int
) -> None:
    """numpy :func:`pad_rows`: the ``(m, len(cols))`` key matrix and a
    row-wise ``argpartition`` (vectorized sampling without replacement)."""
    m = bits.shape[0]
    keys = gen.random((m, cols.size))
    chosen = np.argpartition(keys, pad - 1, axis=1)[:, :pad]
    bits[np.repeat(np.arange(m), pad), cols[chosen].ravel()] = True


def column_counts(bits: np.ndarray) -> np.ndarray:
    """int64 count of the ``True`` entries in each column of a 2-D bool
    matrix (any nonzero byte counts, as in numpy).  Kernel or
    :func:`column_counts_reference`."""
    if bits.dtype != np.bool_ or bits.ndim != 2:
        raise ValueError("bits must be a 2-D bool matrix")
    lib = _kernel()
    if lib is None:
        return column_counts_reference(bits)
    bits = np.ascontiguousarray(bits)
    n, d = bits.shape
    out = np.empty(d, dtype=np.int64)
    lib.column_counts(bits.ctypes.data, n, d, out.ctypes.data)
    return out


def column_counts_reference(bits: np.ndarray) -> np.ndarray:
    """numpy :func:`column_counts`: the bool column sum."""
    return bits.sum(axis=0).astype(np.int64)
