"""Per-op and per-route state on a coalescing cluster holds only what live ops need.

A finished insert cancels its deadline and its attempt watchdog, which are
kernel events, so the queue keeps no live event for it and the slot wheel
holds only deliveries and dispatches; and a node's route state is one row
per bit of its code, whatever targets the traffic reached.
"""

import random

from repro import checks
from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.insertion import Insertion
from repro.core.ops import OpTable
from repro.core.records import Record
from repro.net.network import SimNetwork
from repro.overlay.node import OverlayConfig, OverlayNode
from repro.traffic.indices import index1_schema

INSERTS = 500

def _insert_timer_op(fn, args):
    """The op table and insert op id a kernel event belongs to, if it is one
    of the two timers an insert arms: its deadline and its attempt watchdog
    (the only ops this cluster opens are inserts)."""
    func = getattr(fn, "__func__", None)
    if func is OpTable.end:
        return fn.__self__, args[0]
    if func is Insertion.attempt_failed:
        return fn.__self__.ops, args[0]
    return None


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
    for _, _, event in cluster.sim._queue._heap:
        timer = None if event.cancelled else _insert_timer_op(event.callback, event.args)
        if timer is not None:
            table, op_id = timer
            if op_id in table:
                live += 1
            else:
                finished += 1
    assert (live, finished) == (0, 0)
    # The wheel carries deliveries and dispatches only, none ever
    # cancelled, so no slot outlives its calls.
    wheel = cluster.network._call_wheel
    assert all(wheel.values())
    parked = {getattr(fn, "__func__", fn) for batch in wheel.values() for fn, _ in batch}
    assert parked <= {SimNetwork._deliver, OverlayNode._dispatch}

    routed = 0
    for node in cluster.nodes:
        assert len(node._route_rows) <= len(node.code)
        routed += bool(node._route_rows)
    assert routed > 0
    cluster.close()


def test_cancelled_insert_watchdog_never_runs_and_leaves_the_ledger_balanced():
    # On the coalescing engine an acknowledged insert cancels its attempt
    # watchdog and its deadline.  Both are kernel events: neither runs,
    # neither is counted in events_processed, and the ledger drains.
    with checks.configure(track_resources=True):
        config = ClusterConfig(seed=5, coalesce_window_s=0.001)
        cluster = MindCluster(8, config)
        cluster.build()
        cluster.create_index(index1_schema(86400.0), replication=0)
        cluster.sim.run_until_idle()
        fired = []
        for node in cluster.nodes:
            node.insertion.attempt_failed = lambda *args: fired.append(args)
        timers = []
        schedule = cluster.sim.schedule

        def spy(delay, fn, *args):
            event = schedule(delay, fn, *args)
            timers.append(event)
            return event

        cluster.sim.schedule = spy
        metric = cluster.insert_now("index1", Record([1.0e9, 100.0, 80.0], key=1), "node000")
        cluster.sim.schedule = schedule
        assert metric.success
        assert len(timers) == 2 and all(event.cancelled for event in timers)
        # Only the two cancelled timers are left, and draining the queue
        # processes no event for them (as a wheel drain would have).
        assert cluster.sim.pending_events == 0
        processed = cluster.sim.events_processed
        cluster.sim.run_until_idle()  # would raise ResourceLeakError on residue
        assert cluster.sim.events_processed == processed
        assert cluster.sim.now < min(event.time for event in timers)
        assert fired == []
        assert cluster.sim.resources.live() == 0
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
        tick = node.recovery._heartbeat_tick

        def checked():
            tick()
            now = cluster.sim.now
            assert all(now - sent < suppress for sent in node._last_sent.values())
            ticks.append(node.address)

        node.recovery._heartbeat_tick = checked

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
