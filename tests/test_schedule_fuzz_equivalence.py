"""End-to-end semantic equivalence under schedule perturbation.

The schedule-fuzz sanitizer (``REPRO_SCHEDULE_FUZZ``) perturbs only the
order of *same-timestamp* events, so any seeded workload must produce
semantically identical results in every mode: same records recalled per
query, same completeness, same ``failed_regions``.  Message counts, hop
paths and retry totals may legitimately differ — tie order decides which
neighbor a join contacts first — but the answers may not.

This scenario deliberately piles events onto tying timestamps (inserts on
whole-second boundaries, queries one per second) and crashes two nodes
mid-stream, exercising the retry/failover paths where the ordering bugs
fixed in this change lived.  Before those fixes this test failed: under
shuffled ties a stale neighbor-code entry survived a crash + rejoin and
greedy routing looped a subquery to TTL death, flipping one query to
incomplete.
"""

import random

import pytest

from repro import checks
from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindConfig
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.net.latency import LatencyModel
from repro.overlay.node import OverlayConfig
from repro.traffic.indices import index1_schema


def _run(mode, seed=0, horizon=90.0):
    with checks.configure(fuzz=mode, fuzz_seed=seed):
        config = ClusterConfig(
            seed=77,
            overlay=OverlayConfig(
                service_time_s=0.0,
                service_jitter_sigma=0.0,
                liveness_enabled=True,
                hb_interval_s=5.0,
                hb_timeout_s=20.0,
                adoption_delay_s=2.0,
            ),
            mind=MindConfig(code_depth=10),
            latency=LatencyModel(base_s=0.005, jitter_sigma=0.0, pathology_prob=0.0),
            slow_node_fraction=0.0,
        )
        cluster = MindCluster(16, config)
        cluster.build()
        schema = index1_schema(86400.0)
        cluster.create_index(schema, replication=1)
        addresses = [n.address for n in cluster.nodes]
        rng = random.Random(5)
        base = cluster.sim.now
        for i in range(200):
            record = Record(
                [rng.uniform(0, 2**32), rng.uniform(0, 86400), rng.uniform(0, 5024)],
                payload={"i": i},
                key=i + 1,
            )
            # Whole-second offsets on purpose: many inserts share a
            # timestamp, so the fuzz actually permutes their order.
            cluster.schedule_insert(
                "index1", record, rng.choice(addresses), base + float(i % 10)
            )
        victim, other = addresses[3], addresses[11]
        # The crash instants tie with insert ticks on purpose: the fuzz
        # then also races the crash against same-instant deliveries, and
        # the retry/failover machinery must absorb every interleaving.
        cluster.failures.crash_and_restore(victim, at_in_s=4.0, downtime_s=10.0)
        cluster.failures.crash_and_restore(other, at_in_s=6.0, downtime_s=6.0)
        for j in range(15):
            t0 = rng.uniform(0, 86400 - 600)
            lo = rng.uniform(0, 4000)
            query = RangeQuery(
                "index1",
                {
                    "timestamp": (t0, t0 + 600),
                    "fanout": (lo, lo + rng.uniform(100, 800)),
                },
            )
            cluster.schedule_query(query, rng.choice(addresses), base + 20.0 + float(j))
        cluster.advance(horizon)
    return cluster


def _semantics(cluster):
    """Order-independent answer set: what each query returned.

    Keyed by (origin, launch time) — each query is scheduled at a
    distinct instant, and op ids embed per-node counters that
    legitimately shift with tie order.
    """
    out = []
    for m in sorted(cluster.metrics.queries, key=lambda m: (m.origin, m.start)):
        out.append(
            (
                m.origin,
                m.start,
                m.complete,
                sorted(m.record_keys),
                sorted(m.failed_regions),
            )
        )
    return out


MODES = [("off", 0), ("shuffle", 1), ("shuffle", 2), ("shuffle", 3), ("reverse", 0)]


@pytest.mark.slow
def test_query_answers_invariant_under_schedule_fuzz():
    baseline = None
    for mode, seed in MODES:
        cluster = _run(mode, seed)
        sem = _semantics(cluster)
        incomplete = [(o, t) for o, t, complete, _, _ in sem if not complete]
        assert not incomplete, f"incomplete queries under {mode}/{seed}: {incomplete}"
        if baseline is None:
            baseline = sem
        else:
            assert sem == baseline, f"query answers diverge under {mode}/{seed}"
