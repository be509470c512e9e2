"""Unit tests for metric records and collectors."""

import pytest

from repro.bench.stats import summarize
from repro.core.metrics import (
    InsertMetric,
    MetricsCollector,
    QueryMetric,
    percentile,
)


def test_percentile_nearest_rank():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_unsorted_input():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_rounds_half_up_on_even_samples():
    # Regression: int(round(...)) rounds half to even, so the median of an
    # even-sized sample was the upper middle for n = 4, 8, 12 and the
    # lower middle for n = 2, 6, 10.
    for n in range(2, 13, 2):
        assert percentile(list(range(1, n + 1)), 50) == n // 2 + 1, n


def test_latency_summary():
    # ``summarize`` is the one latency summary (every figure bench uses it).
    s = summarize([1.0, 2.0, 3.0, 10.0])
    assert s["count"] == 4
    assert s["mean"] == 4.0
    assert s["median"] == 3.0
    assert s["max"] == 10.0


def test_insert_metric_latency():
    m = InsertMetric(op_id="x", index="i", origin="a", start=5.0)
    assert m.latency is None
    m.end = 7.5
    assert m.latency == 2.5


def test_query_metric_cost_counts_unique_nodes():
    m = QueryMetric(op_id="x", index="i", origin="a", start=0.0)
    m.nodes_visited.update({"b", "c", "b"})
    assert m.cost == 2


def test_collector_filters():
    c = MetricsCollector()
    ok = InsertMetric("1", "i", "a", 0.0, end=1.0, success=True, hops=2)
    bad = InsertMetric("2", "i", "a", 0.0, end=3.0, success=False)
    c.inserts.extend([ok, bad])
    assert c.insert_latencies() == [1.0]
    assert c.insert_latencies(successful_only=False) == [1.0, 3.0]
    assert c.insert_hops() == [2]


def test_collector_query_success_fraction():
    c = MetricsCollector()
    q1 = QueryMetric("q1", "i", "a", 0.0, end=1.0, complete=True)
    q1.record_keys = {1, 2, 3}
    q2 = QueryMetric("q2", "i", "a", 0.0, end=1.0, complete=True)
    q2.record_keys = {1}
    c.queries.extend([q1, q2])
    expected = {"q1": {1, 2}, "q2": {1, 2}}
    assert c.query_success_fraction(expected) == 0.5


def test_collector_success_fraction_requires_queries():
    c = MetricsCollector()
    with pytest.raises(ValueError):
        c.query_success_fraction({})
    c.queries.append(QueryMetric("q", "i", "a", 0.0))
    with pytest.raises(ValueError):
        c.query_success_fraction({"other": set()})


def test_collector_summaries():
    c = MetricsCollector()
    for i in range(10):
        c.inserts.append(InsertMetric(str(i), "i", "a", 0.0, end=float(i + 1), success=True))
    s = summarize(c.insert_latencies())
    assert s["count"] == 10
    assert s["max"] == 10.0
