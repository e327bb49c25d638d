"""MGA: the Maximal Gain Attack of Cao, Jia & Gong (USENIX Security'21).

A targeted poisoning attack that maximizes the frequency gain of the
attacker-chosen target items ``T`` (``|T| = r``).  The crafted report is
protocol specific:

* **GRR** — each malicious user reports a uniformly chosen target item.
* **OUE** — each malicious user sends a bit vector with all target bits on;
  to evade count-based detection the total number of on-bits is padded with
  random non-target bits up to the expected genuine count
  ``round(p + (d-1)*q)``.
* **OLH** — each malicious user picks a hash key whose induced hash maps as
  many targets as possible to one value, and reports that ``(key, value)``
  pair, so a single report supports many targets at once.

The item-level distribution (uniform over targets, the paper's Section
VI-A3 description) backs the IPA variant and analysis code.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro._rng import RngLike, as_generator
from repro.attacks.base import ItemSamplingAttack, resolve_target_items
from repro.exceptions import AttackError
from repro.protocols import hashing, unary
from repro.protocols.base import FrequencyOracle
from repro.protocols.grr import GRR
from repro.protocols.olh import OLH, OLHReports
from repro.protocols.oue import OUE


class MGAAttack(ItemSamplingAttack):
    """Maximal Gain Attack promoting ``r`` target items.

    Parameters
    ----------
    domain_size:
        Size of the item domain.
    targets:
        Explicit target items; mutually exclusive with random selection.
    r:
        Number of random target items to select when ``targets`` is omitted
        (paper default: 10).
    pad_oue:
        Whether the OUE crafted vectors are padded to the expected genuine
        on-bit count (MGA's detection evasion; default True).  Each
        vector's padding bits are the non-target bits with the smallest
        of one uniform key each (:func:`repro.protocols.unary.pad_rows`:
        compiled when the kernel loads, so no ``(m, d - r)`` key matrix
        is built).
    seed_candidates:
        Number of candidate hash keys scanned for the OLH report search.
    rng:
        Randomness for random target selection.
    """

    name = "mga"
    targeted = True

    def __init__(
        self,
        domain_size: int,
        targets: Optional[Sequence[int]] = None,
        r: Optional[int] = 10,
        pad_oue: bool = True,
        seed_candidates: int = 256,
        rng: RngLike = None,
    ) -> None:
        if domain_size < 2:
            raise AttackError(f"domain_size must be >= 2, got {domain_size}")
        self.domain_size = int(domain_size)
        self._targets = resolve_target_items(
            None if targets is None else np.asarray(list(targets)),
            r,
            self.domain_size,
            rng,
        )
        self.pad_oue = bool(pad_oue)
        if seed_candidates < 1:
            raise AttackError(f"seed_candidates must be >= 1, got {seed_candidates}")
        self.seed_candidates = int(seed_candidates)

    @property
    def target_items(self) -> np.ndarray:
        return self._targets

    @property
    def r(self) -> int:
        """Number of target items."""
        return int(self._targets.size)

    def item_distribution(self, protocol: FrequencyOracle) -> np.ndarray:
        if protocol.domain_size != self.domain_size:
            raise AttackError(
                f"attack built for domain size {self.domain_size}, protocol has "
                f"{protocol.domain_size}"
            )
        probs = np.zeros(self.domain_size, dtype=np.float64)
        probs[self._targets] = 1.0 / self._targets.size
        return probs

    # ------------------------------------------------------------------
    # Protocol-specific crafting
    # ------------------------------------------------------------------
    def craft(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> Any:
        m = self._validate_m(m)
        gen = as_generator(rng)
        if isinstance(protocol, OLH):
            return self._craft_olh(protocol, m, gen)
        if isinstance(protocol, OUE):
            return self._craft_oue(protocol, m, gen)
        if isinstance(protocol, GRR):
            return protocol.craft_supporting(self.sample_items(protocol, m, gen), gen)
        # Unknown pure protocol: fall back to the generic sampling template.
        return super().craft(protocol, m, gen)

    def _craft_oue(self, protocol: OUE, m: int, gen: np.random.Generator) -> np.ndarray:
        d = protocol.domain_size
        bits = np.zeros((m, d), dtype=bool)
        bits[:, self._targets] = True
        if not self.pad_oue:
            return bits
        expected_ones = int(round(protocol.p + (d - 1) * protocol.q))
        pad = max(0, expected_ones - self._targets.size)
        if pad == 0:
            return bits
        non_targets = np.setdiff1d(np.arange(d, dtype=np.int64), self._targets)
        pad = min(pad, non_targets.size)
        if pad and m:
            # Per-report sample of `pad` distinct non-target bits: the
            # smallest of one random key per non-target bit.
            unary.pad_rows(gen, bits, non_targets, pad)
        return bits

    def _craft_olh(self, protocol: OLH, m: int, gen: np.random.Generator) -> OLHReports:
        best_seeds, best_values = self._search_olh_reports(protocol, gen)
        pick = gen.integers(0, best_seeds.size, size=m)
        return OLHReports(seeds=best_seeds[pick], values=best_values[pick])

    def _search_olh_reports(
        self, protocol: OLH, gen: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scan candidate hash keys; keep the (key, value) pairs covering
        the most targets.  Each malicious user then samples a winner, which
        matches MGA's per-user maximization at a fraction of the cost."""
        seeds = hashing.draw_seeds(self.seed_candidates, gen)
        grid = hashing.hash_items(
            seeds[:, None], self._targets.astype(np.uint64)[None, :], protocol.g
        ).astype(np.int64)
        coverage = np.zeros(self.seed_candidates, dtype=np.int64)
        best_value = np.zeros(self.seed_candidates, dtype=np.int64)
        for i in range(self.seed_candidates):
            buckets = np.bincount(grid[i], minlength=protocol.g)
            best_value[i] = int(buckets.argmax())
            coverage[i] = int(buckets.max())
        winners = coverage == coverage.max()
        return seeds[winners], best_value[winners]

    def describe(self) -> str:
        return f"mga(r={self.r}, pad_oue={self.pad_oue})"
