"""Protocol-level tests for MindNode: floods, versions, sibling pointers,
on-line histogram collection and joiner state transfer."""

import pytest

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.cuts import EvenCuts
from repro.core.embedding import Embedding
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net.message import Message
from repro.net.topology import ABILENE_SITES


def make_schema(name="p"):
    return IndexSchema(
        name,
        attributes=[
            AttributeSpec("x", 0.0, 100.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        ],
    )


def build(count=8, seed=70, **cfg):
    cluster = MindCluster(ABILENE_SITES[:count], ClusterConfig(seed=seed, **cfg))
    cluster.build()
    return cluster


def test_create_index_floods_to_all():
    cluster = build()
    cluster.create_index(make_schema())
    assert all(n.has_index("p") for n in cluster.nodes)


def test_version_install_floods_to_all():
    cluster = build(seed=71)
    schema = make_schema()
    cluster.create_index(schema)
    cluster.install_version("p", 86400.0, Embedding(schema, EvenCuts()))
    assert all(n.has_version_at("p", 86400.0) for n in cluster.nodes)


def test_duplicate_index_rejected_locally():
    cluster = build(seed=72)
    cluster.create_index(make_schema())
    with pytest.raises(ValueError):
        cluster.nodes[0].create_index(make_schema())


def test_insert_into_unknown_index_rejected():
    cluster = build(seed=73)
    with pytest.raises(KeyError):
        cluster.nodes[0].insert_record("ghost", Record([1.0, 1.0]))


def test_query_unknown_index_rejected():
    cluster = build(seed=74)
    with pytest.raises(KeyError):
        cluster.nodes[0].query_index(RangeQuery("ghost", {}))


def test_joiner_receives_schemas():
    # A node joining after index creation learns the schema from its host,
    # not from the (already finished) flood.
    cluster = build(count=6, seed=75)
    cluster.create_index(make_schema())
    late = cluster.by_address[ABILENE_SITES[5].name]
    # Crash and rejoin: state must come from the split host.
    cluster.network.set_node_up(late.address, False)
    late.crash()
    cluster.advance(5.0)
    cluster.network.set_node_up(late.address, True)
    late.restore()
    ok = cluster.sim.run_until_predicate(late.in_overlay, timeout=120.0)
    assert ok
    assert late.has_index("p")


def test_sibling_pointer_serves_presplit_data():
    # Insert data, then have a fresh node join: queries for the joiner's
    # region must still return the host's pre-split records.
    config = ClusterConfig(seed=76, track_ground_truth=True)
    sites = ABILENE_SITES[:7]
    cluster = MindCluster(sites, config)
    # Build only the first six; the seventh joins later.
    cluster.nodes[0].activate_as_root()
    for node in cluster.nodes[1:6]:
        node.start_join(cluster._bootstrap_for(node.address))
        assert cluster.sim.run_until_predicate(node.in_overlay, timeout=120.0)
    cluster.create_index(make_schema())

    rng = cluster.sim.rng("t.sibling")
    records = [Record([rng.uniform(0, 100), rng.uniform(0, 86400)]) for _ in range(120)]
    base = cluster.sim.now
    for i, record in enumerate(records):
        cluster.schedule_insert("p", record, cluster.nodes[i % 6].address, base + i * 0.02)
    cluster.advance(20.0)

    late = cluster.nodes[6]
    late.start_join(cluster._bootstrap_for(late.address))
    assert cluster.sim.run_until_predicate(late.in_overlay, timeout=120.0)
    assert late.sibling_pointer is not None

    query = RangeQuery("p", {"timestamp": (0, 86400)})
    metric = cluster.query_now(query, origin=late.address)
    assert metric.complete
    assert metric.record_keys == cluster.reference_answer(query)

    # The pointer lasts as long as the host holds the rows, not for a
    # fixed simulated hour.  The full-range query also reaches the host,
    # which answers from its whole store; a query confined to the joiner's
    # region has only the pointer.
    x_range, t_range = late.indices["p"].versions.latest().region_raw_ranges(late.code)
    confined = RangeQuery("p", {"x": x_range, "timestamp": t_range})
    assert cluster.reference_answer(confined)
    cluster.advance(3700.0)
    for q in (query, confined):
        metric = cluster.query_now(q, origin=late.address)
        assert metric.complete
        assert metric.record_keys == cluster.reference_answer(q)


def test_online_histogram_collection():
    cluster = build(count=8, seed=77)
    cluster.create_index(make_schema())
    rng = cluster.sim.rng("t.histo")
    base = cluster.sim.now
    for i in range(100):
        cluster.schedule_insert(
            "p",
            Record([rng.uniform(0, 100), rng.uniform(0, 86400)]),
            cluster.nodes[i % 8].address,
            base + i * 0.02,
        )
    cluster.advance(15.0)

    merged = []
    cluster.nodes[0].histograms.collect(
        "p", granularity=8, time_range=(0.0, 86400.0),
        expected_replies=8, callback=merged.append,
    )
    ok = cluster.sim.run_until_predicate(lambda: bool(merged), timeout=120.0)
    assert ok
    assert merged[0].total == 100.0


def test_histogram_collection_timeout_partial():
    cluster = build(count=6, seed=78)
    cluster.create_index(make_schema())
    merged = []
    # Expect more replies than nodes exist: the timeout fires with the
    # partial aggregate instead of hanging.
    cluster.nodes[0].histograms.collect(
        "p", granularity=4, time_range=(0.0, 86400.0),
        expected_replies=99, callback=merged.append, timeout_s=30.0,
    )
    cluster.advance(40.0)
    assert merged, "timeout should deliver the partial histogram"


def test_drop_index_clears_state_everywhere():
    cluster = build(seed=79)
    cluster.create_index(make_schema())
    cluster.insert_now("p", Record([5.0, 10.0]), origin=cluster.nodes[0].address)
    cluster.nodes[3].drop_index("p")
    ok = cluster.sim.run_until_predicate(
        lambda: not any(n.has_index("p") for n in cluster.nodes), timeout=60.0
    )
    assert ok


def test_recreated_index_floods_again():
    # Regression: flood dedupe keys were the index *name* (and, for a
    # version, its valid_from), remembered for 4096 later floods — so
    # create -> drop -> create was swallowed at the originator's own
    # _flood and the re-created index never left the node that made it.
    cluster = build(seed=82)
    schema = make_schema()
    origin = cluster.nodes[0]

    def drop_everywhere():
        origin.drop_index("p")
        assert cluster.sim.run_until_predicate(
            lambda: not any(n.has_index("p") for n in cluster.nodes), timeout=60.0
        )

    cluster.create_index(schema)
    first_create = {
        "flood_id": next(iter(origin._seen_floods))[1],
        "index": "p",
        "versions": origin.indices["p"].versions.to_wire(),
        "replication": 0,
    }
    cluster.install_version("p", 86400.0, Embedding(schema, EvenCuts()))
    drop_everywhere()

    cluster.create_index(schema)
    cluster.install_version("p", 86400.0, Embedding(schema, EvenCuts()))
    for node in cluster.nodes:
        assert [vf for vf, _ in node.indices["p"].versions.versions] == [float("-inf"), 86400.0]

    # A second drop floods too, and a late duplicate of the *first* create
    # arriving after it must not resurrect the index.
    drop_everywhere()
    victim = cluster.nodes[5]
    victim._on_index_create(Message(origin.address, victim.address, "index_create", first_create))
    cluster.advance(30.0)
    assert not any(n.has_index("p") for n in cluster.nodes)


def test_draw_block_cluster_inserts_complete():
    # The scale tier opts into block-drawn service and latency jitters;
    # with both knobs on, a small cluster must still route and complete
    # every insert (same model, different deterministic stream).
    from repro.overlay.node import OverlayConfig

    cluster = build(
        seed=80,
        overlay=OverlayConfig(service_draw_block=16),
        latency_draw_block=16,
    )
    cluster.create_index(make_schema())
    done = []
    rng = __import__("random").Random(3)
    for i, node in enumerate(cluster.nodes * 8):
        node.insert_record(
            "p",
            Record([rng.uniform(0, 100), rng.uniform(0, 86400.0)], key=i),
            callback=done.append,
        )
    ok = cluster.sim.run_until_predicate(lambda: len(done) == 64, timeout=300.0)
    assert ok
    assert all(m.success for m in done)
