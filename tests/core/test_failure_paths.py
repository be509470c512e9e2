"""Failure-path behaviour: timeouts, dead regions, incomplete queries."""

import pytest

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindConfig
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.overlay.node import OverlayConfig


def make_schema():
    return IndexSchema(
        "f",
        attributes=[
            AttributeSpec("x", 0.0, 1000.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        ],
    )


def build(liveness=False, seed=95, nodes=12, mind=None):
    overlay = OverlayConfig(
        liveness_enabled=liveness, hb_interval_s=2.0, hb_timeout_s=7.0, adoption_delay_s=2.0
    )
    cluster = MindCluster(
        nodes,
        ClusterConfig(seed=seed, overlay=overlay, mind=mind or MindConfig(), slow_node_fraction=0.0),
    )
    cluster.build()
    cluster.create_index(make_schema())
    return cluster


def seed_records(cluster, count=100):
    rng = cluster.sim.rng("t.fail")
    base = cluster.sim.now
    records = []
    for i in range(count):
        record = Record([rng.uniform(0, 1000), rng.uniform(0, 86400)])
        records.append(record)
        cluster.schedule_insert("f", record, cluster.nodes[i % len(cluster.nodes)].address, base + i * 0.02)
    cluster.advance(15.0)
    return records


def test_query_without_liveness_times_out_incomplete():
    # With liveness off nobody takes over a dead region: the query's
    # sub-query can never be answered and the op must time out as
    # incomplete rather than hang or claim success.
    cluster = build(liveness=False)
    seed_records(cluster)
    victim = cluster.nodes[4]
    cluster.network.set_node_up(victim.address, False)
    victim.crash()
    cluster.advance(5.0)
    origin = cluster.nodes[0].address
    metric = cluster.query_now(
        RangeQuery("f", {"timestamp": (0, 86400)}), origin=origin, timeout_s=200.0
    )
    assert not metric.complete
    # The failure is reported *before* the op timeout: ring recovery
    # exhausts and notifies the originator explicitly.
    assert metric.latency < cluster.config.mind.query_timeout_s


def test_query_with_liveness_completes_after_takeover():
    cluster = build(liveness=True, seed=96)
    seed_records(cluster)
    victim = cluster.nodes[4]
    cluster.network.set_node_up(victim.address, False)
    victim.crash()
    cluster.advance(60.0)  # detection + takeover
    origin = cluster.nodes[0].address
    metric = cluster.query_now(
        RangeQuery("f", {"timestamp": (0, 86400)}), origin=origin, timeout_s=200.0
    )
    assert metric.complete  # records may be lost (no replication), but the
    # region is re-homed and every sub-query answers.


def test_insert_toward_dead_region_fails_cleanly():
    cluster = build(liveness=False, seed=97)
    victim = cluster.nodes[3]
    cluster.network.set_node_up(victim.address, False)
    victim.crash()
    cluster.advance(5.0)
    # Spray inserts; those owned by the dead node's region must fail (or
    # time out) rather than silently disappear as successes.
    rng = cluster.sim.rng("t.fail2")
    base = cluster.sim.now
    for i in range(80):
        record = Record([rng.uniform(0, 1000), rng.uniform(0, 86400)])
        cluster.schedule_insert("f", record, cluster.nodes[0].address, base + i * 0.05)
    cluster.advance(150.0)
    inserts = cluster.metrics.inserts
    assert len(inserts) == 80
    failed = [m for m in inserts if not m.success]
    succeeded = [m for m in inserts if m.success]
    assert failed, "some inserts must fail into the dead region"
    assert succeeded, "inserts to live regions keep working"
    # The system never reports success without an ack.
    for m in succeeded:
        assert m.hops is not None


def test_ring_probe_dedup_bounds_messages():
    # Every survivor has written the victim off, but with liveness off
    # nobody takes its region over, so inserts into the region dead-end at
    # the node next to it.  Probe suppression keeps a ring's message count
    # linear in the overlay size, and the ops share one ring: one insert's
    # ring costs 176 messages here, so a ring per insert would not fit.
    # One attempt per insert, because every retry is another op on the ring.
    cluster = build(liveness=False, seed=98, nodes=16, mind=MindConfig(retry_max_attempts=1))
    victim = cluster.nodes[5]
    ranges = cluster.nodes[0].indices["f"].versions.latest().region_raw_ranges(victim.code)
    cluster.network.set_node_up(victim.address, False)
    victim.crash()
    for node in cluster.nodes:
        node.neighbors.mark_dead(victim.address)
    cluster.advance(2.0)
    before = cluster.network.messages_sent
    origin = cluster.nodes[0]
    for i in range(20):
        frac = 0.2 + 0.03 * i
        origin.insert_record("f", Record([lo + (hi - lo) * frac for lo, hi in ranges]))
    cluster.advance(60.0)
    sent = cluster.network.messages_sent - before
    assert (cluster.ring_recoveries(), cluster.ring_waits()) == (1, 19)
    assert sent < 16 * 40, f"ring recovery sent {sent} messages"
