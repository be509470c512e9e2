"""Failover-path tests: replica failover, missing-region reporting, dedup.

Liveness is disabled throughout, so a dead node's region is never taken
over — completing a query that touches it *requires* the originator's
retry/failover machinery (Section 3.8's transparent failover), which is
exactly what these tests pin down.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindConfig
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.overlay.code import Code
from repro.overlay.node import OverlayConfig

FULL_RECT = ((0.0, 1000.0), (0.0, 86400.0), (0.0, 100.0))


def build_cluster(replication: int, seed: int = 5, nodes: int = 16) -> MindCluster:
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
        "r",
        attributes=[
            AttributeSpec("x", 0.0, 1000.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
            AttributeSpec("v", 0.0, 100.0),
        ],
    )
    cluster.create_index(schema, replication=replication)
    return cluster


def load_records(cluster: MindCluster, count: int = 150) -> str:
    """Insert a fixed workload; explicit keys keep runs comparable."""
    rng = cluster.sim.rng("test.failover.records")
    observer = cluster.nodes[0].address
    for i in range(count):
        record = Record(
            [rng.uniform(0, 1000), rng.uniform(0, 86400), rng.uniform(0, 100)],
            key=10_000 + i,
        )
        assert cluster.insert_now("r", record, origin=observer).success
    cluster.advance(10.0)  # replica stores drain
    return observer


def deepest_victim(cluster: MindCluster, observer: str):
    """A deepest-code node: always at owner granularity for failover."""
    candidates = [n for n in cluster.live_nodes() if n.address != observer]
    return max(candidates, key=lambda n: (len(n.code.bits), n.address))


STRIPS = [RangeQuery("r", {"x": (float(lo), float(lo + 125))}) for lo in range(0, 1000, 125)]


def run_strip_queries(cluster: MindCluster, observer: str):
    return [cluster.query_now(q, origin=observer, timeout_s=240.0) for q in STRIPS]


# ---------------------------------------------------------------------------
# Dead primary, live replica: results identical to the no-failure run
# ---------------------------------------------------------------------------

def test_primary_failure_with_replication_matches_no_failure_run():
    baseline_cluster = build_cluster(replication=1)
    observer = load_records(baseline_cluster)
    baseline = run_strip_queries(baseline_cluster, observer)
    assert all(m.complete for m in baseline)
    assert sum(m.failovers for m in baseline) == 0

    cluster = build_cluster(replication=1)  # same seed: identical deployment
    observer = load_records(cluster)
    victim = deepest_victim(cluster, observer)
    cluster.failures.crash_node(victim.address, at_in_s=1.0)
    cluster.advance(5.0)
    failed_run = run_strip_queries(cluster, observer)

    assert all(m.complete for m in failed_run)
    assert all(not m.failed_regions for m in failed_run)
    assert sum(m.retries for m in failed_run) >= 1
    assert sum(m.failovers for m in failed_run) >= 1
    assert any(m.degraded_complete for m in failed_run)
    assert [m.record_keys for m in failed_run] == [m.record_keys for m in baseline]


# ---------------------------------------------------------------------------
# Dead primary *and* dead replicas: the exact missing regions are reported
# ---------------------------------------------------------------------------

def test_dead_primary_and_replicas_report_exact_missing_regions():
    cluster = build_cluster(replication=1)
    observer = load_records(cluster)
    victim = deepest_victim(cluster, observer)
    replica_region = victim.code.flip(len(victim.code) - 1)
    holders = [
        n
        for n in cluster.live_nodes()
        if n is not victim and n.code.comparable(replica_region)
    ]
    assert holders, "victim must have replica holders for this scenario"
    dead = [victim, *holders]
    dead_codes = [n.code for n in dead]  # crash() clears node.code
    for node in dead:
        cluster.failures.crash_node(node.address, at_in_s=1.0)
    cluster.advance(5.0)

    query = RangeQuery("r", {"x": (0.0, 1000.0)})
    expected = cluster.reference_answer(query)
    metric = cluster.query_now(query, origin=observer, timeout_s=240.0)

    assert not metric.complete
    assert metric.failed_regions
    missing_bits = {key.split(":", 1)[1] for key in metric.failed_regions}
    live = [n for n in cluster.live_nodes()]
    for bits in missing_bits:
        # Reported regions contain no live node: they are genuinely missing.
        assert not any(n.code.comparable(Code(bits)) for n in live), bits
    for code in dead_codes:
        # Every dead node's region is accounted for in the report.
        assert any(Code(bits).comparable(code) for bits in missing_bits), code.bits
    # The records we did get are correct, and everything absent is explained
    # by the dead group (all surviving copies lived inside it).
    assert metric.record_keys <= expected
    recoverable = set()
    for node in live:
        recoverable.update(r.key for r in node.indices["r"].store.query(FULL_RECT, None))
    assert expected - metric.record_keys == expected - recoverable


# ---------------------------------------------------------------------------
# Insert failover: a record bound for a dead region lands on its replica
# ---------------------------------------------------------------------------

def test_insert_fails_over_to_replica_region():
    cluster = build_cluster(replication=1)
    observer_node = cluster.nodes[0]
    observer = load_records(cluster, count=30)
    depth = len(observer_node.code)
    candidates = [
        n
        for n in cluster.live_nodes()
        if n.address != observer and len(n.code) == depth
    ]
    assert candidates, "need a victim at the originator's trie depth"
    victim = candidates[0]
    state = observer_node.indices["r"]
    rect = state.versions.latest().region_rect(victim.code)  # normalized space
    values = [
        spec.denormalize((lo + hi) / 2.0)
        for spec, (lo, hi) in zip(state.schema.attributes, rect)
    ]
    cluster.failures.crash_node(victim.address, at_in_s=1.0)
    cluster.advance(5.0)

    record = Record(values, key=99_999)
    metric = cluster.insert_now("r", record, origin=observer, timeout_s=240.0)
    assert metric.success
    assert metric.retries >= 1
    assert metric.failovers >= 1
    assert metric.stored_via_failover

    probe = RangeQuery("r", {"x": (values[0] - 1.0, values[0] + 1.0)})
    result = cluster.query_now(probe, origin=observer, timeout_s=240.0)
    assert result.complete
    assert record.key in result.record_keys


# ---------------------------------------------------------------------------
# Property: retries/failovers/replica merges never duplicate records
# ---------------------------------------------------------------------------

_PROPERTY_STATE = {}


def _property_cluster():
    if not _PROPERTY_STATE:
        cluster = build_cluster(replication=1, seed=9)
        observer = load_records(cluster)
        victim = deepest_victim(cluster, observer)
        cluster.failures.crash_node(victim.address, at_in_s=1.0)
        cluster.advance(5.0)
        _PROPERTY_STATE["cluster"] = cluster
        _PROPERTY_STATE["observer"] = observer
    return _PROPERTY_STATE["cluster"], _PROPERTY_STATE["observer"]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lo=st.integers(min_value=0, max_value=900), width=st.integers(min_value=40, max_value=400))
def test_retry_and_failover_never_duplicate_records(lo, width):
    cluster, observer = _property_cluster()
    query = RangeQuery("r", {"x": (float(lo), float(min(lo + width, 1000)))})
    expected = cluster.reference_answer(query)
    metric = cluster.query_now(query, origin=observer, timeout_s=240.0)
    assert metric.complete
    keys = [r.key for r in metric.results]
    assert len(keys) == len(set(keys)), "duplicate records in merged results"
    assert metric.record_keys == expected
