"""Churn soak: the resource ledger and the heap stay bounded.

A 64-node cluster takes sustained kill/restart churn while an observer
node keeps inserting and querying.  The dynamic half of repro-leak: the
ledger's live count must stay bounded by in-flight work (never trending
with rounds), every entry must drain by the quiescence checkpoint, and
the traced heap must not grow materially across rounds — the
whole-process statement of "no per-op or per-node state outlives its
op/node".
"""

import tracemalloc

import pytest

from repro import checks
from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.overlay.node import OverlayConfig

pytestmark = pytest.mark.soak

NODES = 64
ROUNDS = 6
INSERTS_PER_ROUND = 16
#: Generous ceiling on concurrently live ledger entries: a handful of
#: in-flight ops per round plus their fan-out (sub-queries, sibling
#: fetches, coalesced outbox slots) — far below anything a leak that
#: grows with churn rounds would produce.
LIVE_BOUND = 512
#: Traced-heap growth allowed between the first and last round.  Real
#: retained state here is the inserted records plus churn bookkeeping:
#: 0.32 MB with frozen payloads and 0.18 MB plain (Python 3.11.7).  A
#: list in ``OverlayNode._dispatch`` that keeps one tuple per delivered
#: message grows 1.50 MB, so a per-message leak at 64 nodes fails this.
HEAP_GROWTH_BOUND = 1024 * 1024


def make_schema():
    return IndexSchema(
        "soak",
        attributes=[
            AttributeSpec("x", 0.0, 1000.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        ],
    )


def test_churn_soak_ledger_and_heap_bounded():
    overlay = OverlayConfig(
        liveness_enabled=True, hb_interval_s=2.0, hb_timeout_s=7.0, adoption_delay_s=2.0
    )
    with checks.configure(track_resources=True):
        cluster = MindCluster(
            NODES, ClusterConfig(seed=1105, overlay=overlay, slow_node_fraction=0.0)
        )
    cluster.build()
    cluster.create_index(make_schema())
    ledger = cluster.sim.resources
    assert ledger is not None

    observer = cluster.nodes[0].address
    rng = cluster.sim.rng("t.soak")
    churn_pool = [n.address for n in cluster.nodes if n.address != observer]
    cluster.failures.start_churn(
        churn_pool, mean_uptime_s=30.0, mean_downtime_s=10.0,
        min_live=len(churn_pool) - 4,
    )

    tracemalloc.start()
    try:
        live_samples = []
        heap_samples = []
        for _ in range(ROUNDS):
            for _ in range(INSERTS_PER_ROUND):
                record = Record([rng.uniform(0, 1000), rng.uniform(0, 86400)])
                cluster.insert_now("soak", record, origin=observer, timeout_s=240.0)
            cluster.query_now(
                RangeQuery("soak", {"x": (200.0, 600.0)}),
                origin=observer, timeout_s=240.0,
            )
            cluster.advance(10.0)
            live_samples.append(ledger.live())
            heap_samples.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()

    assert max(live_samples) <= LIVE_BOUND, live_samples
    assert heap_samples[-1] - heap_samples[0] <= HEAP_GROWTH_BOUND, heap_samples

    # Drain: past every op timeout and pending restore, then the
    # quiescence checkpoint — any retained entry raises with its owner.
    cluster.advance(150.0)
    cluster.close()
    assert ledger.live() == 0
