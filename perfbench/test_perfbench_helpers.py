"""Tests of the benchmark's own helpers: self time, percentiles, due-time latency, ledger."""

from __future__ import annotations

import math

import pytest

from perfbench.common import ledger
from perfbench.spans import Span, Tracer, layer_totals, merged_length, self_times
from perfbench.stats import (
    Sample,
    max_backlog,
    open_loop,
    percentile,
    supported_percentile,
    tail,
)


class FakeClock:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- self time ------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, 0, "outer", 0.0, 10.0),
        Span(2, 1, "mid", 1.0, 5.0),
        Span(3, 2, "leaf", 2.0, 3.0),
        Span(4, 1, "mid", 6.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, 0, "parent", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),  # overlaps a on [3, 4]
        Span(4, 1, "c", 8.0, 12.0),  # outlives the parent: clipped to [8, 10]
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert merged_length([(1.0, 4.0), (3.0, 6.0), (8.0, 10.0)]) == pytest.approx(7.0)


def test_tracer_records_parents_and_skips_reentrant_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf() -> None:
        clock.sleep(1.0)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer(depth: int) -> None:
        clock.sleep(2.0)
        if depth:
            traced_outer(depth - 1)  # same layer re-entered: no new span
        traced_leaf()

    traced_outer = tracer.wrap("outer", outer, lambda a, k, r: {"depth": a[0]})
    traced_outer(1)
    totals = layer_totals(tracer.spans)
    assert totals["outer"].calls == 1
    assert totals["outer"].self_s == pytest.approx(4.0)
    assert totals["outer"].counters["depth"] == 1
    assert totals["leaf"].calls == 2
    assert totals["leaf"].self_s == pytest.approx(2.0)
    assert all(span.parent == 1 for span in tracer.spans[1:])


# -- percentile rule ------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.0)],
)
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_tail_reports_percentile_with_its_sample_count():
    samples = list(range(1, 1001))
    result = tail(samples)
    assert (result.p, result.value, result.samples) == (99.0, 990, 1000)
    assert "p99" in result.label() and "n=1000" in result.label()
    short = tail(samples[:150])
    assert short.p == 90.0 and short.samples == 150
    assert math.isnan(tail([1.0] * 5).value)


def test_failed_requests_sort_as_infinite_latency():
    samples = [1.0] * 98 + [math.inf] * 2
    assert percentile(samples, 99) == math.inf
    assert percentile(samples, 50) == 1.0


# -- due-time latency -----------------------------------------------------
def test_server_stall_inflates_latency_of_reads_scheduled_during_it():
    clock = FakeClock()
    period, service, stall = 0.020, 0.005, 0.200

    def request(i: int) -> bool:
        clock.sleep(stall if i == 10 else service)
        return True

    samples = open_loop([i * period for i in range(40)], request, clock=clock, sleep=clock.sleep)
    latency = [s.latency for s in samples]
    assert latency[:10] == pytest.approx([service] * 10)
    assert latency[10] == pytest.approx(stall)
    # Reads 11..19 fell due during the stall and queued behind it: each
    # is charged the wait from its own due time, not from when it was sent.
    stall_end = 10 * period + stall
    for i in range(11, 20):
        expected = stall_end + (i - 10) * service - i * period
        assert latency[i] == pytest.approx(expected)
        assert latency[i] > service
        assert samples[i].late > 0
    assert latency[-1] == pytest.approx(service)
    assert max_backlog(samples) == 10


def test_open_loop_sends_on_schedule_when_the_server_keeps_up():
    clock = FakeClock()
    samples = open_loop([0.0, 0.1, 0.2], lambda i: i != 1, clock=clock, sleep=clock.sleep)
    assert [s.sent for s in samples] == pytest.approx([0.0, 0.1, 0.2])
    assert [s.late for s in samples] == pytest.approx([0.0, 0.0, 0.0])
    assert samples[1].latency == math.inf
    assert max_backlog(samples) == 1
    assert Sample(0.0, 0.0, 0.5, True).latency == 0.5


# -- per-layer ledger -----------------------------------------------------
def test_ledger_reads_declared_span_fields_and_refuses_unknown_ones():
    spans = [
        Span(1, 0, "outer", 0.0, 4.0, attrs={"reports": 6}),
        Span(2, 1, "protocols.hashing.hash_items", 1.0, 3.0, attrs={"hashes": 4}),
    ]
    traced = {"outer", "protocols.hashing.hash_items", "idle"}
    book = ledger(
        spans,
        ["outer.calls", "outer.self_s", "outer.reports", "idle.calls", "idle.reports",
         "protocols.hashing.hash_items.ns_per_hash", "sim.cache.hit_ratio", "other.s"],
        traced,
        per=2,
    )
    assert book == {
        "outer.calls": 0.5, "outer.self_s": 1.0, "outer.reports": 3.0,
        "idle.calls": 0.0, "idle.reports": 0.0,
        "protocols.hashing.hash_items.ns_per_hash": 0.5e9, "sim.cache.hit_ratio": 0.0,
    }
    with pytest.raises(KeyError):
        ledger(spans, ["outer.hashes"], traced)
