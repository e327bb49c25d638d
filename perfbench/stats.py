"""Percentiles and open-loop request accounting.

Pure functions over recorded samples, kept apart from the workloads so
that the rules the reported numbers rest on are tested directly.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples.

    Integer arithmetic in tenths of a percent, so that e.g. p90 of 100
    samples is rank 90 exactly, free of float rounding.
    """
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``samples``.

    ``inf`` samples (failed requests) sort last, so they count as
    missing every latency limit.
    """
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def supported_percentile(n: int) -> Optional[float]:
    """p99, or the highest lower percentile with ``TAIL_SAMPLES`` samples beyond it.

    Tries 99, 95, 90, 75 and 50; ``None`` when even the median has
    fewer than ``TAIL_SAMPLES`` samples above it.
    """
    for p in (99.0, 95.0, 90.0, 75.0, 50.0):
        if n - _rank(p, n) >= TAIL_SAMPLES:
            return p
    return None


@dataclass(frozen=True)
class Tail:
    """A reported percentile with the sample count it rests on."""

    p: Optional[float]
    value: float
    samples: int

    def label(self) -> str:
        name = "unsupported" if self.p is None else f"p{self.p:g}"
        return f"{name}={self.value:.3f} (n={self.samples})"


def tail(samples: Sequence[float]) -> Tail:
    """The highest supported percentile, at most p99, of ``samples``."""
    p = supported_percentile(len(samples))
    value = percentile(samples, p) if p is not None else math.nan
    return Tail(p, value, len(samples))


@dataclass(frozen=True)
class Sample:
    """One open-loop request: when it was due, sent and completed."""

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Completion minus due time; a failed request is ``inf``."""
        return self.done - self.due if self.ok else math.inf

    @property
    def late(self) -> float:
        """How late the generator sent this request."""
        return self.sent - self.due


def open_loop(
    due_offsets: Sequence[float],
    request: Callable[[int], bool],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Issue ``request(i)`` at ``start + due_offsets[i]``, one at a time.

    Requests share one connection, so a request due while an earlier one
    is still in flight is sent as soon as that one completes; its latency
    still counts from its due time, so a stall is charged to every
    request scheduled during it.
    """
    start = clock()
    samples = []
    for i, offset in enumerate(due_offsets):
        due = start + offset
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        ok = request(i)
        samples.append(Sample(due, sent, clock(), ok))
    return samples


def max_backlog(samples: Sequence[Sample]) -> int:
    """Most requests ever due but not yet completed, seen at each send."""
    dues = [s.due for s in samples]
    worst = 0
    for i, sample in enumerate(samples):
        # Requests 0..i-1 have completed when request i is sent.
        worst = max(worst, bisect.bisect_right(dues, sample.sent) - i)
    return worst
