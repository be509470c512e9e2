"""System test: replication keeps queries correct through node failures.

A scaled-down Figure 16: a co-located cluster (the paper used a local
cluster for controlled failures), records inserted at replication levels
0 / 1 / full, random node kills, then recall-checked queries.
"""

import pytest

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindConfig
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.replication import FULL_REPLICATION
from repro.core.schema import AttributeSpec, IndexSchema
from repro.overlay.node import OverlayConfig


def run_scenario(replication: int, kill_count: int, seed: int = 31, nodes: int = 24):
    overlay = OverlayConfig(liveness_enabled=True, hb_interval_s=2.0, hb_timeout_s=7.0, adoption_delay_s=2.0)
    config = ClusterConfig(seed=seed, overlay=overlay, track_ground_truth=True, slow_node_fraction=0.0)
    cluster = MindCluster(nodes, config)
    cluster.build()
    schema = IndexSchema(
        "r",
        attributes=[
            AttributeSpec("x", 0.0, 1000.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
            AttributeSpec("v", 0.0, 100.0),
        ],
    )
    cluster.create_index(schema, replication=replication)

    rng = cluster.sim.rng("test.workload")
    addresses = [n.address for n in cluster.nodes]
    base = cluster.sim.now
    records = []
    for i in range(200):
        record = Record([rng.uniform(0, 1000), rng.uniform(0, 86400), rng.uniform(0, 100)])
        records.append(record)
        cluster.schedule_insert("r", record, rng.choice(addresses), base + 0.05 * i)
    cluster.advance(40.0)

    queries = [
        RangeQuery("r", {"x": (lo, lo + 150), "timestamp": (0, 86400)})
        for lo in range(0, 1000, 100)
    ]
    expected = {i: cluster.reference_answer(q) for i, q in enumerate(queries)}

    victims = sorted(addresses, key=lambda a: cluster.sim.rng("test.kills").random())[:kill_count]
    for victim in victims:
        cluster.failures.crash_node(victim, at_in_s=1.0)
    cluster.advance(90.0)  # detection + takeover + adoption

    survivors = [a for a in addresses if a not in victims]
    good = 0
    for i, query in enumerate(queries):
        origin = survivors[i % len(survivors)]
        try:
            metric = cluster.query_now(query, origin=origin, timeout_s=120.0)
        except TimeoutError:
            continue
        if metric.record_keys >= expected[i]:
            good += 1
    return good / len(queries)


def test_no_failures_perfect_recall():
    assert run_scenario(replication=0, kill_count=0) == 1.0


def test_replication_one_survives_modest_failures():
    # ~12% failures with one replica: the paper reports no loss up to 15%.
    success = run_scenario(replication=1, kill_count=3)
    assert success == 1.0


def test_no_replication_loses_data():
    success = run_scenario(replication=0, kill_count=3)
    assert success < 1.0


def test_full_replication_survives_heavy_failures():
    success = run_scenario(replication=FULL_REPLICATION, kill_count=8)
    assert success >= 0.9


def test_replication_strictly_helps():
    heavy_none = run_scenario(replication=0, kill_count=6)
    heavy_full = run_scenario(replication=FULL_REPLICATION, kill_count=6)
    assert heavy_full >= heavy_none


# ---------------------------------------------------------------------------
# Stationary churn (the full Figure-16 shape, via the cluster harness)
# ---------------------------------------------------------------------------

def run_churn(replication: int, seed: int = 17, nodes: int = 16):
    overlay = OverlayConfig(
        liveness_enabled=True, hb_interval_s=2.0, hb_timeout_s=7.0, adoption_delay_s=2.0
    )
    mind = MindConfig(
        attempt_timeout_s=6.0,
        retry_backoff_base_s=0.25,
        retry_backoff_max_s=2.0,
    )
    config = ClusterConfig(
        seed=seed, overlay=overlay, mind=mind, track_ground_truth=True, slow_node_fraction=0.0
    )
    cluster = MindCluster(nodes, config)
    cluster.build()
    schema = IndexSchema(
        "r",
        attributes=[
            AttributeSpec("x", 0.0, 1000.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
            AttributeSpec("v", 0.0, 100.0),
        ],
    )
    cluster.create_index(schema, replication=replication)
    rng = cluster.sim.rng("test.churn.records")
    records = [
        Record([rng.uniform(0, 1000), rng.uniform(0, 86400), rng.uniform(0, 100)])
        for _ in range(150)
    ]
    strips = [RangeQuery("r", {"x": (float(lo), float(lo + 125))}) for lo in range(0, 1000, 125)]
    queries = strips * 2  # two sweeps, so queries overlap the failures
    return cluster.run_churn_experiment(
        "r",
        records,
        queries,
        mean_uptime_s=45.0,
        mean_downtime_s=50.0,
        max_concurrent_failures=1,
        query_spacing_s=8.0,
        settle_s=25.0,
        query_timeout_s=240.0,
    )


@pytest.mark.slow
def test_churn_with_replication_completes_every_query():
    summary = run_churn(replication=1)
    assert summary["inserts_failed"] == 0
    assert summary["crashes"] >= 1  # churn actually fired
    assert summary["complete_fraction"] == 1.0
    assert summary["failed_regions"] == {}
    assert summary["full_recall_fraction"] == 1.0


@pytest.mark.slow
def test_churn_without_replication_degrades_explicitly():
    summary = run_churn(replication=0)
    assert summary["crashes"] >= 1
    # Data lost with the dead primaries must surface explicitly: either as
    # reported missing regions or as measurably incomplete recall — never
    # as a silently "complete" result set.
    assert (
        summary["complete_fraction"] < 1.0
        or summary["full_recall_fraction"] < summary["complete_fraction"]
    )
    incomplete = summary["queries"] - summary["complete_queries"]
    assert len(summary["failed_regions"]) == incomplete
