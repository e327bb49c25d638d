"""Keyed hash family used by Optimized Local Hashing (OLH).

The paper uses xxhash; OLH only requires a family ``H`` such that for a
random member the hash of each item is uniform over ``{0, .., g-1}`` and
(approximately) independent across items (Section III-B of the paper).  We
implement a splitmix64-based keyed hash, which passes both requirements for
the domain sizes used here, needs no dependency, and vectorizes over numpy
arrays of seeds and items.

The map is ``H_seed(x) = mix64(mix64(x) XOR seed) mod g`` where ``mix64``
is the splitmix64 finalizer.  Each user draws a fresh 64-bit ``seed``; the
pair ``(seed, y)`` is the OLH report.

The three OLH support scans — :func:`support_scan`, :func:`target_scan`
and :func:`cohort_fold` — are the single dispatch point between the
compiled kernel (:mod:`repro.protocols.kernel`), which fuses hash,
compare and count in one allocation-free pass, and their numpy
references (``*_reference``), which walk the (reports x items) hash grid
in slices of at most ``chunk_cells`` cells.  The references are the
fallback when no kernel can be built; both compute the same integers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.protocols.kernel import Kernel

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: Upper bound (exclusive) for seeds drawn for the family.
SEED_SPACE = 2**63 - 1


def mix64(x: np.ndarray) -> np.ndarray:
    """Apply the splitmix64 finalizer elementwise to a uint64 array."""
    z = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def hash_items(seeds: np.ndarray, items: np.ndarray, g: int) -> np.ndarray:
    """Hash ``items`` under per-element ``seeds`` into ``{0, .., g-1}``.

    ``seeds`` and ``items`` broadcast against each other, so callers can
    evaluate a single seed over the whole domain (``seeds`` scalar-like,
    ``items`` 1-D), one item under many seeds, or elementwise pairs.

    Parameters
    ----------
    seeds:
        uint64-convertible array of hash-function keys.
    items:
        integer array of item identifiers (non-negative).
    g:
        size of the hash range; must be >= 2.

    Returns
    -------
    numpy.ndarray
        uint64 array of hash values in ``[0, g)`` with the broadcast shape
        of ``seeds`` and ``items``.
    """
    if g < 2:
        raise ValueError(f"hash range g must be >= 2, got {g}")
    s = np.asarray(seeds, dtype=np.uint64)
    x = np.asarray(items, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = mix64(mix64(x) ^ s)
    return h % np.uint64(g)


def hash_domain(seed: int, domain_size: int, g: int) -> np.ndarray:
    """Hash the full domain ``0..domain_size-1`` under one ``seed``."""
    items = np.arange(domain_size, dtype=np.uint64)
    return hash_items(np.uint64(seed), items, g)


def hash_domains(seeds: np.ndarray, domain_size: int, g: int) -> np.ndarray:
    """Hash the full domain under each of several ``seeds`` at once.

    The batched kernel behind cohort-mode OLH aggregation: the inner
    ``mix64`` of the domain is evaluated once and broadcast against every
    seed, so hashing ``K`` seeds costs one domain pre-mix plus ``K *
    domain_size`` finalizer applications.

    Parameters
    ----------
    seeds:
        1-D uint64-convertible array of ``K`` hash-function keys.
    domain_size:
        Number of items ``0..domain_size-1`` to hash under every seed.
    g:
        Size of the hash range; must be >= 2.

    Returns
    -------
    numpy.ndarray
        uint64 array of shape ``(K, domain_size)``; row ``i`` equals
        ``hash_domain(seeds[i], domain_size, g)``.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    if s.ndim != 1:
        raise ValueError(f"seeds must be 1-D, got shape {s.shape}")
    items = np.arange(domain_size, dtype=np.uint64)
    return hash_items(s[:, None], items[None, :], g)


def value_histograms(
    groups: np.ndarray, values: np.ndarray, num_groups: int, g: int
) -> np.ndarray:
    """Per-group histograms of hash values in ``[0, g)``.

    One fused ``bincount`` over ``groups * g + values``: entry ``[k, y]``
    counts the positions where ``groups == k`` and ``values == y``.  This
    is the O(n) reported-value tally of cohort-mode OLH aggregation —
    ``groups`` is each report's cohort-seed index, ``values`` its reported
    hash value.

    Parameters
    ----------
    groups:
        Integer array of group indices in ``[0, num_groups)``.
    values:
        Integer array (same shape) of hash values in ``[0, g)``.
    num_groups:
        Number of histogram rows.
    g:
        Size of the hash range (histogram row width).

    Returns
    -------
    numpy.ndarray
        int64 array of shape ``(num_groups, g)``.
    """
    keys = np.asarray(groups, dtype=np.int64) * np.int64(g) + np.asarray(
        values, dtype=np.int64
    )
    return np.bincount(keys.ravel(), minlength=num_groups * g).reshape(
        num_groups, g
    ).astype(np.int64)


def _check_range(g: int) -> int:
    g = int(g)
    if not 2 <= g < 2**64:
        raise ValueError(f"hash range g must be in [2, 2**64), got {g}")
    return g


def _reports(seeds: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous uint64 seeds and int64 values of one 1-D report batch."""
    s = np.ascontiguousarray(seeds, dtype=np.uint64)
    y = np.ascontiguousarray(values, dtype=np.int64)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError(f"seeds/values must be equal-length 1-D arrays, got {s.shape}, {y.shape}")
    return s, y


def _kernel() -> Optional["Kernel"]:
    """The compiled scans, or ``None``.  The loader is imported on the
    first scan, so importing this module neither builds nor loads it."""
    from repro.protocols import kernel

    return kernel.load()


def _run(
    scan: Callable[..., None], items: np.ndarray, seeds: np.ndarray, data: np.ndarray,
    g: int, out: np.ndarray,
) -> np.ndarray:
    """Call one kernel scan over ``mix64(items)`` and return ``out``."""
    premix = mix64(items)
    scan(
        premix.ctypes.data, premix.size, seeds.ctypes.data, data.ctypes.data,
        seeds.size, g, out.ctypes.data,
    )
    return out


def support_scan(
    seeds: np.ndarray, values: np.ndarray, domain_size: int, g: int, chunk_cells: int
) -> np.ndarray:
    """``C(v) = #{j : H_{seeds[j]}(v) = values[j]}`` for ``v < domain_size``.

    Per-user OLH support counts (int64, length ``domain_size``).  Runs
    the compiled kernel when it loads, else :func:`support_scan_reference`;
    ``chunk_cells`` bounds the reference's grid slices only.
    """
    g = _check_range(g)
    seeds, values = _reports(seeds, values)
    lib = _kernel()
    if lib is None:
        return support_scan_reference(seeds, values, domain_size, g, chunk_cells)
    counts = np.zeros(domain_size, dtype=np.int64)
    return _run(lib.support_scan, np.arange(domain_size, dtype=np.uint64), seeds, values, g, counts)


def support_scan_reference(
    seeds: np.ndarray, values: np.ndarray, domain_size: int, g: int, chunk_cells: int
) -> np.ndarray:
    """numpy :func:`support_scan`: the (reports x domain) hash grid in
    slices of at most ``chunk_cells`` cells."""
    counts = np.zeros(domain_size, dtype=np.int64)
    chunk = max(1, chunk_cells // domain_size)
    domain = np.arange(domain_size, dtype=np.uint64)
    for start in range(0, seeds.size, chunk):
        grid = hash_items(seeds[start : start + chunk, None], domain[None, :], g)
        matches = grid == values[start : start + chunk, None].astype(np.uint64)
        counts += matches.sum(axis=0)
    return counts


def target_scan(
    seeds: np.ndarray, values: np.ndarray, targets: np.ndarray, g: int, chunk_cells: int
) -> np.ndarray:
    """Per report ``j``, the number of ``targets`` ``t`` with ``H_{seeds[j]}(t) = values[j]``.

    int64, one entry per report.  Kernel or :func:`target_scan_reference`,
    like :func:`support_scan`.
    """
    g = _check_range(g)
    seeds, values = _reports(seeds, values)
    targets = np.ascontiguousarray(targets, dtype=np.uint64)
    lib = _kernel()
    if lib is None:
        return target_scan_reference(seeds, values, targets, g, chunk_cells)
    return _run(lib.target_scan, targets, seeds, values, g, np.zeros(seeds.size, dtype=np.int64))


def target_scan_reference(
    seeds: np.ndarray, values: np.ndarray, targets: np.ndarray, g: int, chunk_cells: int
) -> np.ndarray:
    """numpy :func:`target_scan`: the (reports x targets) hash grid in
    slices of at most ``chunk_cells`` cells."""
    out = np.zeros(seeds.size, dtype=np.int64)
    chunk = max(1, chunk_cells // max(1, targets.size))
    for start in range(0, seeds.size, chunk):
        grid = hash_items(seeds[start : start + chunk, None], targets[None, :], g)
        matches = grid == values[start : start + chunk, None].astype(np.uint64)
        out[start : start + chunk] = matches.sum(axis=1)
    return out


def cohort_fold(
    seeds: np.ndarray, histograms: np.ndarray, domain_size: int, g: int, chunk_cells: int
) -> np.ndarray:
    """``counts[v] = sum_k histograms[k, H_{seeds[k]}(v)]`` for ``v < domain_size``.

    The fold of cohort-mode OLH aggregation: ``seeds`` are the ``K``
    distinct cohort seeds, ``histograms`` their ``(K, g)`` reported-value
    tallies (:func:`value_histograms`).  Kernel or
    :func:`cohort_fold_reference`, like :func:`support_scan`.
    """
    g = _check_range(g)
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    histograms = np.ascontiguousarray(histograms, dtype=np.int64)
    if seeds.ndim != 1 or histograms.shape != (seeds.size, g):
        raise ValueError(
            f"histograms must have shape (len(seeds), g) = {(seeds.size, g)}, "
            f"got {histograms.shape}"
        )
    lib = _kernel()
    if lib is None:
        return cohort_fold_reference(seeds, histograms, domain_size, g, chunk_cells)
    counts = np.zeros(domain_size, dtype=np.int64)
    return _run(lib.cohort_fold, np.arange(domain_size, dtype=np.uint64), seeds, histograms, g, counts)


def cohort_fold_reference(
    seeds: np.ndarray, histograms: np.ndarray, domain_size: int, g: int, chunk_cells: int
) -> np.ndarray:
    """numpy :func:`cohort_fold`: one :func:`hash_domains` grid per slice
    of seeds (at most ``chunk_cells`` cells), gathered through the
    histograms."""
    counts = np.zeros(domain_size, dtype=np.int64)
    chunk = max(1, chunk_cells // domain_size)
    for start in range(0, seeds.size, chunk):
        grid = hash_domains(seeds[start : start + chunk], domain_size, g).astype(np.int64)
        counts += np.take_along_axis(histograms[start : start + chunk], grid, axis=1).sum(axis=0)
    return counts


def target_histograms(
    seeds: np.ndarray, targets: np.ndarray, g: int, chunk_cells: int
) -> np.ndarray:
    """``(K, g)`` table: entry ``[k, y]`` counts the targets ``t`` with
    ``H_{seeds[k]}(t) = y``.

    The per-seed buckets of cohort-mode target counting (a report's count
    is its seed row's entry at its value).  O(K * len(targets)) hashes,
    in slices of at most ``chunk_cells`` cells.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    targets = np.asarray(targets, dtype=np.uint64)
    buckets = np.zeros((seeds.size, g), dtype=np.int64)
    chunk = max(1, chunk_cells // max(1, targets.size))
    for start in range(0, seeds.size, chunk):
        grid = hash_items(seeds[start : start + chunk, None], targets[None, :], g)
        rows = np.repeat(np.arange(grid.shape[0]), targets.size)
        buckets[start : start + chunk] = value_histograms(rows, grid.ravel(), grid.shape[0], g)
    return buckets


def draw_seeds(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent hash-function keys."""
    return rng.integers(0, SEED_SPACE, size=n, dtype=np.int64).astype(np.uint64)
