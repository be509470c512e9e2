"""The sibling pointer points at data: a joiner fetches from its split host
only where the host held pre-split rows (Section 3.4)."""

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindConfig
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.net.topology import ABILENE_SITES
from repro.overlay.node import OverlayConfig
from repro.storage.dac import DacConfig
from tests.core.test_mind_protocols import make_schema

SCHEMA = make_schema()


def insert_spread(cluster, count, t_lo, t_hi, origins, stream):
    """Schedule ``count`` uniform records with timestamps in [t_lo, t_hi)."""
    rng = cluster.sim.rng(stream)
    base = cluster.sim.now
    for i in range(count):
        record = Record([rng.uniform(0, 100), rng.uniform(t_lo, t_hi)])
        cluster.schedule_insert("p", record, origins[i % len(origins)].address, base + i * 0.02)


def assert_reference(cluster, query, origin):
    metric = cluster.query_now(query, origin=origin.address)
    assert metric.complete
    assert metric.record_keys == cluster.reference_answer(query)
    return metric


def region_query(node):
    """The query confined to ``node``'s own region: only ``node`` answers it."""
    x_range, t_range = node.indices["p"].versions.latest().region_raw_ranges(node.code)
    return RangeQuery("p", {"x": x_range, "timestamp": t_range})


def late_join_cluster(seed, mind=None):
    """Six nodes joined and indexed; the seventh is left for the test to join."""
    config = ClusterConfig(seed=seed, track_ground_truth=True, mind=mind or MindConfig())
    cluster = MindCluster(ABILENE_SITES[:7], config)
    cluster.nodes[0].activate_as_root()
    for node in cluster.nodes[1:6]:
        node.start_join(cluster._bootstrap_for(node.address))
        assert cluster.sim.run_until_predicate(node.in_overlay, timeout=120.0)
    cluster.create_index(SCHEMA)
    return cluster, cluster.nodes[6]


def join_late(cluster, late):
    late.start_join(cluster._bootstrap_for(late.address))
    assert cluster.sim.run_until_predicate(late.in_overlay, timeout=120.0)
    return cluster.by_address[late.sibling_pointer.sibling]


def test_join_then_create_index_never_fetches():
    # The paper's experiments (and mindbench) build the overlay, then create
    # the index: no host holds a row at any split, so no pointer has
    # anything to point at.
    cluster = MindCluster(ABILENE_SITES[:16], ClusterConfig(seed=81, track_ground_truth=True))
    cluster.build()
    cluster.create_index(SCHEMA)
    assert all(not n.sibling_pointer.held_until for n in cluster.nodes[1:])
    insert_spread(cluster, 160, 0, 86400, cluster.nodes, "t.nofetch")
    cluster.advance(20.0)
    rng = cluster.sim.rng("t.nofetch.q")
    for node in cluster.nodes:
        t0 = rng.uniform(0, 80000)
        assert_reference(cluster, RangeQuery("p", {"timestamp": (t0, t0 + 6000)}), node)
        assert_reference(cluster, RangeQuery("p", {"x": (20, 70)}), node)
    assert cluster.sibling_fetches() == 0


def test_fetch_only_where_the_host_held_rows():
    cluster, late = late_join_cluster(seed=82)
    # Past the even cut at 43200 s, so whichever node hosts the split
    # holds rows, and short of the post-split rows below.
    insert_spread(cluster, 120, 0, 63000, cluster.nodes[:6], "t.bound.pre")
    cluster.advance(20.0)
    host = join_late(cluster, late)
    bound = late.sibling_pointer.held_until["p"]
    assert bound == host.indices["p"].store.newest_bucket_end() <= 63000 + 300
    # Post-split rows past the bound, so the skipped fetch has an answer
    # to get right.
    insert_spread(cluster, 60, 70000, 86400, cluster.nodes, "t.bound.post")
    cluster.advance(20.0)

    recent = assert_reference(cluster, RangeQuery("p", {"timestamp": (bound, 86400)}), late)
    assert recent.records and late.address not in recent.failed_regions
    assert late.sibling_fetches == 0
    assert_reference(cluster, RangeQuery("p", {"timestamp": (bound - 1, 86400)}), late)
    assert late.sibling_fetches == 1
    # No time range at all: the host's whole store is in reach.
    assert_reference(cluster, RangeQuery("p", {"x": (0, 100)}), late)
    assert late.sibling_fetches == 2
    assert cluster.sibling_fetches() == 2


def test_insert_completing_after_the_split_is_routed_to_the_joiner():
    # Inserts reach the host, wait in its (slow) DAC, and complete after a
    # split handed half the region to a joiner.  Every row must end up at
    # a node that covers it: the bound the host reported at the split only
    # describes rows it already held.
    slow = MindConfig(
        dac=DacConfig(insert_time_s=4.0), attempt_timeout_s=600.0, insert_timeout_s=900.0
    )
    cluster, late = late_join_cluster(seed=83, mind=slow)
    insert_spread(cluster, 48, 0, 86400, cluster.nodes[:6], "t.late-dac")
    cluster.advance(3.0)
    waiting = sum(n.records_stored for n in cluster.nodes)
    host = join_late(cluster, late)
    assert sum(n.records_stored for n in cluster.nodes) - waiting < 48
    cluster.advance(300.0)

    assert sum(n.records_stored for n in cluster.nodes) == 48
    assert len(late.indices["p"].store) > 0
    embedding = host.indices["p"].versions.latest()
    for node in cluster.nodes:
        for record in node.indices["p"].store.all_records():
            assert node.covers(embedding.point_code(record.values)), (node.address, record)
    assert_reference(cluster, region_query(late), late)
    assert_reference(cluster, RangeQuery("p", {"timestamp": (0, 86400)}), late)


def test_rejoin_onto_a_host_with_rows_still_fetches():
    # The mixed_faults shape: a node crashes, is restored and rejoins
    # through a host that has been storing rows all along.
    config = ClusterConfig(
        seed=84,
        track_ground_truth=True,
        overlay=OverlayConfig(
            liveness_enabled=True, hb_interval_s=5.0, hb_timeout_s=20.0, adoption_delay_s=2.0
        ),
    )
    cluster = MindCluster(ABILENE_SITES[:10], config)
    cluster.build()
    cluster.create_index(SCHEMA, replication=1)
    insert_spread(cluster, 200, 0, 86400, cluster.nodes, "t.rejoin")
    cluster.advance(20.0)
    assert cluster.sibling_fetches() == 0

    victim = cluster.nodes[4]
    cluster.failures.crash_and_restore(victim.address, at_in_s=1.0, downtime_s=40.0)
    cluster.advance(45.0)
    assert cluster.sim.run_until_predicate(victim.in_overlay, timeout=120.0)
    host = cluster.by_address[victim.sibling_pointer.sibling]
    assert len(host.indices["p"].store) > 0
    assert victim.sibling_pointer.held_until["p"] == host.indices["p"].store.newest_bucket_end()

    assert_reference(cluster, RangeQuery("p", {"timestamp": (0, 86400)}), victim)
    assert victim.sibling_fetches > 0
    cluster.advance(3700.0)
    before = victim.sibling_fetches
    assert_reference(cluster, region_query(victim), victim)
    assert victim.sibling_fetches > before
