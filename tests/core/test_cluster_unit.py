"""Unit-ish tests for the cluster driver's plumbing."""

import pytest

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindConfig
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net.topology import ABILENE_SITES


def make_schema():
    return IndexSchema(
        "u",
        attributes=[
            AttributeSpec("x", 0.0, 100.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        ],
    )


def test_int_sites_build_local_cluster():
    cluster = MindCluster(6, ClusterConfig(seed=121))
    cluster.build()
    assert len(cluster.live_nodes()) == 6
    assert cluster.sites == {}
    assert sorted(cluster.by_address) == [f"node00{i}" for i in range(6)]


def test_node_codes_partition_space():
    cluster = MindCluster(ABILENE_SITES[:7], ClusterConfig(seed=122))
    cluster.build()
    codes = cluster.node_codes()
    assert len(codes) == 7
    assert abs(sum(2.0 ** -len(bits) for bits in codes.values()) - 1.0) < 1e-9


def test_reference_answer_requires_tracking():
    cluster = MindCluster(4, ClusterConfig(seed=123))
    cluster.build()
    cluster.create_index(make_schema())
    with pytest.raises(RuntimeError):
        cluster.reference_answer(RangeQuery("u", {}))


def test_reference_answer_unknown_index():
    cluster = MindCluster(4, ClusterConfig(seed=124, track_ground_truth=True))
    cluster.build()
    with pytest.raises(KeyError):
        cluster.reference_answer(RangeQuery("ghost", {}))


def test_schedule_insert_skips_missing_index():
    # An insert scheduled at a node lacking the index is dropped silently
    # (the workload replay may race index creation); it must not crash.
    cluster = MindCluster(4, ClusterConfig(seed=125))
    cluster.build()
    cluster.schedule_insert("nope", Record([1.0, 1.0]), "node000", cluster.sim.now + 1.0)
    cluster.advance(5.0)
    assert cluster.metrics.inserts == []


def test_storage_distribution_counts_primaries():
    cluster = MindCluster(5, ClusterConfig(seed=126))
    cluster.build()
    cluster.create_index(make_schema())
    for i in range(20):
        cluster.insert_now("u", Record([i * 5.0, i * 1000.0]), origin="node000")
    dist = cluster.storage_distribution("u")
    assert sum(dist.values()) == 20
    assert set(dist) == set(cluster.by_address)


def test_slow_nodes_assigned_by_fraction():
    config = ClusterConfig(seed=127, slow_node_fraction=1.0, slow_factor=9.0)
    cluster = MindCluster(4, config)
    assert all(n.speed_factor == 9.0 for n in cluster.nodes)
    config2 = ClusterConfig(seed=127, slow_node_fraction=0.0)
    cluster2 = MindCluster(4, config2)
    assert all(n.speed_factor == 1.0 for n in cluster2.nodes)


def test_advance_moves_clock():
    cluster = MindCluster(3, ClusterConfig(seed=128))
    cluster.build()
    t0 = cluster.sim.now
    cluster.advance(12.5)
    assert cluster.sim.now == pytest.approx(t0 + 12.5)


def test_insert_now_timeout_raises():
    cluster = MindCluster(4, ClusterConfig(seed=129))
    cluster.build()
    cluster.create_index(make_schema())
    # Crash every other node so the ack can never return.
    for node in cluster.nodes[1:]:
        cluster.network.set_node_up(node.address, False)
        node.crash()
    with pytest.raises(TimeoutError):
        # Target a region owned by a dead node (origin still up).
        cluster.insert_now("u", Record([99.0, 86000.0]), origin="node000", timeout_s=5.0)


def test_rebalance_keeps_the_index_code_depth():
    cluster = MindCluster(8, ClusterConfig(seed=124, mind=MindConfig(code_depth=10)))
    cluster.build()
    schema = IndexSchema(
        "d",
        attributes=[
            AttributeSpec("x", 0.0, 100.0),
            AttributeSpec("timestamp", 0.0, 7 * 86400.0, is_time=True),
        ],
    )
    cluster.create_index(schema)
    rng = cluster.sim.rng("t.depth")
    for i in range(40):
        record = Record([rng.uniform(0, 100), rng.uniform(0, 86400.0)])
        cluster.insert_now("d", record, origin=cluster.nodes[i % 8].address)
    versions = cluster.nodes[0].indices["d"].versions
    assert versions.latest().code_depth == 10

    cluster.rebalance_daily("d", day_start=86400.0, granularity=(64, 64))

    assert len(versions.versions) == 2
    assert versions.latest().code_depth == 10
