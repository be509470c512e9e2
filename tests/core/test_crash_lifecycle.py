"""Crash-time op-state teardown: the true leaks repro-leak flagged.

Regressions for the fail-stop ``MindNode.crash`` override: before it,
originator-side op state machines survived ``crash()`` — insert retry
timers churned against the dead node, completion callbacks fired minutes
late (or never), and trigger registrations stranded forever.  These
tests pin the contract: crashing resolves every in-flight op *failed*,
immediately, and leaves the op table (and the resource ledger) empty.
"""

from collections import Counter

from repro import checks
from repro.core.cluster import ClusterConfig, MindCluster
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


def open_tags(node):
    """How many ops of each kind ``node`` has open."""
    return dict(Counter(op.tag for op in node.ops.values()))


def build(seed=7, nodes=12):
    overlay = OverlayConfig(liveness_enabled=False)
    cluster = MindCluster(nodes, ClusterConfig(seed=seed, overlay=overlay, slow_node_fraction=0.0))
    cluster.build()
    cluster.create_index(make_schema())
    return cluster


def test_crash_fails_inflight_ops_immediately():
    cluster = build()
    origin = cluster.nodes[0]
    inserts = []
    queries = []
    installs = []
    origin.insert_record("f", Record([1.0, 2.0]), callback=inserts.append)
    origin.query_index(RangeQuery("f", {"timestamp": (0, 86400)}), callback=queries.append)
    origin.triggers.create(
        RangeQuery("f", {"x": (0, 1000)}), lambda record: None, installed=installs.append
    )
    assert {"op:insert", "op:query", "op:trigger-reg"} <= set(open_tags(origin))

    origin.crash()

    # Every op resolved failed at the crash instant — no sim time needed.
    assert origin.ops == {}
    assert len(inserts) == 1 and inserts[0].success is False
    assert len(queries) == 1 and queries[0].complete is False
    assert installs == [False]


def test_crash_releases_ledger_entries():
    with checks.configure(track_resources=True):
        cluster = build()
    origin = cluster.nodes[0]
    ledger = cluster.sim.resources
    assert ledger is not None
    origin.insert_record("f", Record([1.0, 2.0]))
    origin.query_index(RangeQuery("f", {"timestamp": (0, 86400)}))
    before = [row for row in ledger.snapshot() if row[0].startswith("op:")]
    assert before, "ops register themselves while in flight"

    origin.crash()

    after = [row for row in ledger.snapshot() if row[0].startswith("op:")]
    assert after == [], after
    # Quiescence still holds for the rest of the cluster.
    cluster.advance(120.0)
    cluster.close()


def test_crash_closes_one_open_op_of_every_kind():
    with checks.configure(track_resources=True):
        cluster = build()
    ledger = cluster.sim.resources
    # A joined node answers its own share of a whole-space query; with a
    # sibling pointer still covering the queried day it holds that answer
    # back behind a sibling fetch.
    origin = next(n for n in cluster.nodes if n.sibling_pointer is not None)
    origin.sibling_pointer.held_until["f"] = 86400.0
    origin.query_index(RangeQuery("f", {"timestamp": (0, 86400)}))
    assert cluster.sim.run_until_predicate(
        lambda: "op:sibling" in open_tags(origin), timeout=5.0
    )
    origin.insert_record("f", Record([1.0, 2.0]))
    origin.triggers.create(RangeQuery("f", {"x": (0, 1000)}), lambda record: None)
    histograms = []
    origin.histograms.collect("f", (4, 4), (0.0, 86400.0), len(cluster.nodes), histograms.append)
    kinds = ("op:insert", "op:query", "op:sibling", "op:trigger-reg", "op:histo")
    assert open_tags(origin) == {kind: 1 for kind in kinds}

    origin.crash()

    assert origin.ops == {}
    assert [row for row in ledger.snapshot() if row[0].startswith("op:")] == []
    # Dropped, not answered, and nothing left to fire later.
    cluster.advance(120.0)
    assert histograms == []
    cluster.close()


def test_completed_histogram_collection_leaves_no_event_queued():
    # The last reply closes the collection and cancels its deadline, so
    # nothing of it is left to fire at the timeout.
    cluster = build(nodes=6)
    collector = cluster.nodes[0]
    histograms = []
    start = cluster.sim.now
    collector.histograms.collect(
        "f", (4, 4), (0.0, 86400.0), len(cluster.nodes), histograms.append, timeout_s=60.0
    )
    cluster.sim.run_until_idle()
    assert len(histograms) == 1
    assert collector.ops == {}
    assert cluster.sim.now < start + 60.0


def test_trigger_registration_watchdog_resolves_lost_ack():
    # A registration whose final ack is lost used to strand forever: no
    # attempt timer covers trigger installs.  Simulate the lost ack by
    # adding a phantom pending region that nobody will ever answer; the
    # watchdog must resolve the registration installed(False) within the
    # query timeout and clear the table.
    cluster = build()
    origin = cluster.nodes[0]
    installs = []
    origin.triggers.create(
        RangeQuery("f", {"x": (0, 1000)}), lambda record: None, installed=installs.append
    )
    (reg_id,) = origin.ops
    origin.ops[reg_id].pending.add("PHANTOM")
    cluster.advance(origin.mind_config.query_timeout_s + 10.0)
    assert installs == [False]
    assert origin.ops == {}


def test_flood_dedupe_set_is_bounded():
    # Regression: _seen_floods grew one tuple per flood forever — the
    # leak-unbounded-growth finding that motivated the eviction cap.
    cluster = build(nodes=4)
    origin = cluster.nodes[0]
    for i in range(5000):
        origin._flood("index_drop", {"flood_id": f"bound-test:{i}", "index": "nope"})
    assert len(origin._seen_floods) <= 4096
    # Recent keys are still deduplicated after evictions.
    assert ("index_drop", "bound-test:4999") in origin._seen_floods
