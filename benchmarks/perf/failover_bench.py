"""Failure-handling scenario for the perf harness.

A small liveness-off cluster at replication 1 loses one node, then
answers strip queries that must complete via the retry/failover path
(with liveness disabled nothing takes the dead region over, so replica
failover is the *only* way to completeness).  The counters land in
``BENCH_PERF.json`` next to the microbench timings, so regressions in
failure handling — retries that stop firing, failovers that stop landing
on replica holders, replica results that stop merging — show up in the
same perf trajectory as latency regressions.
"""

from typing import Dict

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.metrics import MetricsCollector
from repro.core.mind_node import MindConfig
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.overlay.node import OverlayConfig


def run_failover_scenario(
    seed: int = 11,
    nodes: int = 16,
    records: int = 150,
    queries: int = 8,
) -> Dict[str, object]:
    """One dead primary, replication 1: every query must still complete."""
    overlay = OverlayConfig(liveness_enabled=False)
    mind = MindConfig(
        attempt_timeout_s=6.0,
        retry_backoff_base_s=0.25,
        retry_backoff_max_s=2.0,
    )
    config = ClusterConfig(
        seed=seed,
        overlay=overlay,
        mind=mind,
        track_ground_truth=True,
        slow_node_fraction=0.0,
    )
    cluster = MindCluster(nodes, config)
    cluster.build()
    schema = IndexSchema(
        "f",
        attributes=[
            AttributeSpec("x", 0.0, 1000.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
            AttributeSpec("v", 0.0, 100.0),
        ],
    )
    cluster.create_index(schema, replication=1)

    rng = cluster.sim.rng("bench.failover")
    observer = cluster.nodes[0].address
    for _ in range(records):
        record = Record([rng.uniform(0, 1000), rng.uniform(0, 86400), rng.uniform(0, 100)])
        cluster.insert_now("f", record, origin=observer)
    cluster.advance(10.0)  # replica stores drain

    victim = cluster.nodes[1 + int(rng.random() * (nodes - 1))].address
    cluster.failures.crash_node(victim, at_in_s=1.0)
    cluster.advance(5.0)

    strip = 1000.0 / queries
    query_metrics = []
    full_recall = 0
    for i in range(queries):
        query = RangeQuery("f", {"x": (i * strip, (i + 1) * strip)})
        expected = cluster.reference_answer(query)
        metric = cluster.query_now(query, origin=observer, timeout_s=200.0)
        query_metrics.append(metric)
        if metric.complete and expected <= metric.record_keys:
            full_recall += 1

    scoped = MetricsCollector()
    scoped.inserts = list(cluster.metrics.inserts)
    scoped.queries = query_metrics
    return {
        "nodes": nodes,
        "records": records,
        "queries": queries,
        "victim": victim,
        "complete_fraction": sum(1 for m in query_metrics if m.complete) / queries,
        "full_recall_fraction": full_recall / queries,
        "counters": scoped.failure_handling(),
    }
