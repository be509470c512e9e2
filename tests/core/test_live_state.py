"""Per-op and per-route state on a coalescing cluster holds only what live ops need.

A finished insert cancels its deadline and its attempt watchdog, so the
call wheel keeps no live entry for it; and a node's route state is one row
per bit of its code, whatever targets the traffic reached.
"""

import random

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindNode
from repro.core.records import Record
from repro.overlay.node import OverlayConfig
from repro.traffic.indices import index1_schema

INSERTS = 500
#: The wheel callbacks an insert op parks: its deadline and its watchdog.
_OP_TIMERS = (MindNode._finish_insert, MindNode._insert_attempt_failed)


def test_coalescing_cluster_keeps_only_live_state():
    config = ClusterConfig(
        seed=5,
        overlay=OverlayConfig(liveness_enabled=True, hb_suppress_s=10.0),
        coalesce_window_s=0.001,
    )
    cluster = MindCluster(32, config)
    cluster.build()
    cluster.create_index(index1_schema(86400.0), replication=0)
    rng = random.Random(3)
    addresses = [node.address for node in cluster.nodes]
    base = cluster.sim.now
    for i in range(INSERTS):
        record = Record(
            [rng.uniform(0, 2**32), rng.uniform(0, 86400), rng.uniform(0, 5024)], key=i + 1
        )
        cluster.schedule_insert("index1", record, rng.choice(addresses), base + i * 0.01)
    # Every insert is acknowledged long before its 30 s watchdog or 90 s
    # deadline would fire, so without cancellation both would still be parked.
    cluster.advance(10.0)
    assert len(cluster.metrics.inserts) == INSERTS
    assert all(metric.success for metric in cluster.metrics.inserts)

    live = finished = 0
    for batch in cluster.network._call_wheel.values():
        for fn, args in batch:
            if getattr(fn, "__func__", None) in _OP_TIMERS:
                if args[0] in fn.__self__._insert_ops:
                    live += 1
                else:
                    finished += 1
    assert (live, finished) == (0, 0)

    routed = 0
    for node in cluster.nodes:
        assert len(node._route_rows) <= len(node.code)
        routed += bool(node._route_rows)
    assert routed > 0
    cluster.close()


def test_heartbeat_suppression_table_holds_one_window():
    # Acks go straight to each insert's origin, so a node sends to peers
    # that are not its links; an entry older than ``hb_suppress_s``
    # suppresses nothing, and each heartbeat tick drops it.
    suppress = 10.0
    config = ClusterConfig(
        seed=7, overlay=OverlayConfig(liveness_enabled=True, hb_suppress_s=suppress)
    )
    cluster = MindCluster(16, config)
    cluster.build()
    cluster.create_index(index1_schema(86400.0), replication=0)
    ticks = []

    def watch(node):
        tick = node._heartbeat_tick

        def checked():
            tick()
            now = cluster.sim.now
            assert all(now - sent < suppress for sent in node._last_sent.values())
            ticks.append(node.address)

        node._heartbeat_tick = checked

    for node in cluster.nodes:
        watch(node)
    rng = random.Random(4)
    addresses = [node.address for node in cluster.nodes]
    base = cluster.sim.now
    for i in range(200):
        record = Record(
            [rng.uniform(0, 2**32), rng.uniform(0, 86400), rng.uniform(0, 5024)], key=i + 1
        )
        cluster.schedule_insert("index1", record, rng.choice(addresses), base + i * 0.1)
    cluster.advance(60.0)
    assert all(metric.success for metric in cluster.metrics.inserts)
    assert len(set(ticks)) == len(cluster.nodes)
    cluster.close()
