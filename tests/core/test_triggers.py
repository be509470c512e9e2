"""Tests for continuous queries (triggers)."""

import pytest

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.core.triggers import Trigger, TriggerTable, new_trigger_id
from repro.net.topology import ABILENE_SITES


def make_schema(name="t"):
    return IndexSchema(
        name,
        attributes=[
            AttributeSpec("x", 0.0, 1000.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
            AttributeSpec("v", 0.0, 100.0),
        ],
    )


@pytest.fixture()
def cluster():
    c = MindCluster(ABILENE_SITES, ClusterConfig(seed=91))
    c.build()
    c.create_index(make_schema())
    return c


def register(cluster, origin, query, **kwargs):
    fired = []
    done = []
    node = cluster.by_address[origin]
    trigger_id = node.triggers.create(query, fired.append, installed=done.append, **kwargs)
    ok = cluster.sim.run_until_predicate(lambda: bool(done), timeout=120.0)
    assert ok and done[0] is True
    return trigger_id, fired


# ---------------------------------------------------------------------------
# Unit: TriggerTable
# ---------------------------------------------------------------------------

def test_trigger_table_install_and_dedupe():
    table = TriggerTable()
    trig = Trigger("t1", RangeQuery("t", {}), "a")
    assert table.install("t", trig)
    assert not table.install("t", trig)
    assert table.count("t") == 1
    table.remove("t", "t1")
    assert table.count() == 0


def test_trigger_expiry():
    table = TriggerTable()
    schema = make_schema()
    trig = Trigger("t1", RangeQuery("t", {}), "a", expires_at=100.0)
    table.install("t", trig)
    record = Record([1.0, 1.0, 1.0])
    assert table.matching("t", schema, record, now=50.0) == [trig]
    assert table.matching("t", schema, record, now=150.0) == []
    assert table.count("t") == 0  # expired triggers are garbage-collected


def test_trigger_wire_round_trip():
    trig = Trigger(new_trigger_id("a"), RangeQuery("t", {"x": (1, 2)}), "a", expires_at=5.0)
    clone = Trigger.from_wire(trig.to_wire())
    assert clone == trig


# ---------------------------------------------------------------------------
# System: triggers on a cluster
# ---------------------------------------------------------------------------

def test_trigger_fires_on_matching_insert(cluster):
    query = RangeQuery("t", {"v": (50.0, None)})
    trigger_id, fired = register(cluster, "NYCM", query)

    hit = Record([100.0, 1000.0, 80.0])
    miss = Record([100.0, 1000.0, 10.0])
    cluster.insert_now("t", hit, origin="CHIN")
    cluster.insert_now("t", miss, origin="CHIN")
    cluster.advance(10.0)
    assert [r.key for r in fired] == [hit.key]


def test_trigger_covers_all_regions(cluster):
    # A wildcard trigger must fire for inserts landing anywhere.
    query = RangeQuery("t", {})
    trigger_id, fired = register(cluster, "LOSA", query)
    rng = cluster.sim.rng("t.trig")
    records = [
        Record([rng.uniform(0, 1000), rng.uniform(0, 86400), rng.uniform(0, 100)])
        for _ in range(40)
    ]
    for i, record in enumerate(records):
        cluster.schedule_insert("t", record, ABILENE_SITES[i % 11].name, cluster.sim.now + 1 + i * 0.05)
    cluster.advance(30.0)
    assert {r.key for r in fired} == {r.key for r in records}


def test_trigger_scoped_to_region(cluster):
    query = RangeQuery("t", {"x": (0.0, 10.0)})
    trigger_id, fired = register(cluster, "WASH", query)
    inside = Record([5.0, 1000.0, 50.0])
    outside = Record([900.0, 1000.0, 50.0])
    cluster.insert_now("t", inside, origin="ATLA")
    cluster.insert_now("t", outside, origin="ATLA")
    cluster.advance(10.0)
    assert [r.key for r in fired] == [inside.key]


def test_trigger_expires(cluster):
    query = RangeQuery("t", {})
    expires = cluster.sim.now + 20.0
    trigger_id, fired = register(cluster, "DNVR", query, expires_at=expires)
    cluster.insert_now("t", Record([1.0, 1.0, 1.0]), origin="CHIN")
    cluster.advance(30.0)  # past expiry
    before = len(fired)
    assert before >= 1
    cluster.insert_now("t", Record([2.0, 2.0, 2.0]), origin="CHIN")
    cluster.advance(10.0)
    assert len(fired) == before


def test_drop_trigger(cluster):
    query = RangeQuery("t", {})
    trigger_id, fired = register(cluster, "HSTN", query)
    cluster.by_address["HSTN"].triggers.drop("t", trigger_id)
    cluster.advance(10.0)
    cluster.insert_now("t", Record([3.0, 3.0, 3.0]), origin="KSCY")
    cluster.advance(10.0)
    assert fired == []
    assert all(n.triggers.table.count("t") == 0 for n in cluster.nodes)


def test_multiple_triggers_one_insert(cluster):
    q1 = RangeQuery("t", {"v": (0.0, None)})
    q2 = RangeQuery("t", {"x": (0.0, 500.0)})
    _, fired1 = register(cluster, "SNVA", q1)
    _, fired2 = register(cluster, "STTL", q2)
    record = Record([100.0, 5.0, 42.0])
    cluster.insert_now("t", record, origin="IPLS")
    cluster.advance(10.0)
    assert [r.key for r in fired1] == [record.key]
    assert [r.key for r in fired2] == [record.key]
