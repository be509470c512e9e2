"""Ablation: MIND vs query flooding vs centralized vs uniform-hash DHT.

Section 2.1 argues the architecture choice qualitatively; this benchmark
measures it.  The same insertion and query workload runs over MIND and the
three baselines on identical 34-site WANs:

* flooding — free inserts, every query visits every node;
* centralized — 1-node queries, but the server's links carry all inserts;
* uniform-hash DHT — balanced storage, yet range queries still visit all
  nodes because hashing destroys attribute-space locality;
* MIND — few-node queries *and* spread insertion traffic.
"""

import random

from benchmarks.helpers import planetlab_calibration, run_once

from repro.baselines.centralized import CentralizedSystem
from repro.baselines.dht import UniformHashSystem
from repro.baselines.flooding import QueryFloodingSystem
from repro.bench.stats import format_table, summarize
from repro.core.cluster import MindCluster
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net.network import ALL_LINKS
from repro.net.topology import backbone_sites

RECORDS = 500
QUERIES = 40


def make_schema():
    return IndexSchema(
        "arch",
        attributes=[
            AttributeSpec("dest", 0.0, 2.0**32),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
            AttributeSpec("octets", 0.0, 2e6),
        ],
    )


def workload(seed: int):
    rng = random.Random(seed)
    records = [
        Record([rng.uniform(0, 2**32), rng.uniform(0, 86400), rng.uniform(0, 2e6)])
        for _ in range(RECORDS)
    ]
    queries = []
    for _ in range(QUERIES):
        t0 = rng.uniform(0, 86400 - 300)
        lo, hi = sorted(rng.uniform(0, 2e6) for _ in range(2))
        queries.append(RangeQuery("arch", {"timestamp": (t0, t0 + 300), "octets": (lo, hi)}))
    origins = [s.name for s in backbone_sites()]
    origin_seq = [rng.choice(origins) for _ in range(RECORDS + QUERIES)]
    return records, queries, origin_seq


def drive(system, records, queries, origin_seq, sim, link_stats):
    base = sim.now + 10.0
    for i, record in enumerate(records):
        system.schedule_insert(record, origin_seq[i], base + i * 0.05)
    q_base = base + RECORDS * 0.05 + 10.0
    for j, query in enumerate(queries):
        system.schedule_query(query, origin_seq[RECORDS + j], q_base + j * 1.0)
    sim.run_until(q_base + QUERIES * 1.0 + 120.0)
    ins = [m.latency for m in system.metrics.inserts if m.latency is not None]
    qlat = [m.latency for m in system.metrics.queries if m.latency is not None]
    qcost = [m.cost for m in system.metrics.queries if m.end is not None]
    links = link_stats()
    assert ALL_LINKS not in links, "max_node_ingress needs per-link recording"
    ingress = {}
    for (src, dst), stats in links.items():
        ingress[dst] = ingress.get(dst, 0) + stats.messages
    return {
        "insert_median": summarize(ins)["median"] if ins else 0.0,
        "query_median": summarize(qlat)["median"] if qlat else 0.0,
        "query_cost_mean": sum(qcost) / len(qcost) if qcost else 0.0,
        "query_cost_max": max(qcost) if qcost else 0,
        "max_node_ingress": max(ingress.values(), default=0),
        "queries_done": len(qcost),
    }


def experiment():
    schema = make_schema()
    records, queries, origin_seq = workload(760)
    results = {}

    # MIND.  Every system records per-link counters: ingress per node is
    # summed from them.
    cluster = MindCluster(backbone_sites(), planetlab_calibration(seed=761, record_links=True))
    cluster.build()
    cluster.create_index(schema)
    mind_adapter = _MindAdapter(cluster)
    results["MIND"] = drive(
        mind_adapter, records, queries, origin_seq,
        cluster.sim,
        lambda: cluster.network.link_stats,
    )

    for name, cls in (
        ("flooding", QueryFloodingSystem),
        ("centralized", CentralizedSystem),
        ("uniform DHT", UniformHashSystem),
    ):
        system = cls(backbone_sites(), schema, seed=762)
        system.network.record_links = True  # before any traffic
        results[name] = drive(
            system, records, queries, origin_seq,
            system.sim,
            lambda s=system: s.network.link_stats,
        )
    return results


class _MindAdapter:
    """Gives MindCluster the baseline scheduling interface."""

    def __init__(self, cluster: MindCluster) -> None:
        self.cluster = cluster
        self.metrics = cluster.metrics

    def schedule_insert(self, record, origin, at):
        self.cluster.schedule_insert("arch", record, origin, at)

    def schedule_query(self, query, origin, at):
        self.cluster.schedule_query(query, origin, at)


def test_ablation_architectures(benchmark):
    results = run_once(benchmark, experiment)
    rows = [
        [
            name,
            f"{r['insert_median']:.2f}",
            f"{r['query_median']:.2f}",
            f"{r['query_cost_mean']:.1f}",
            r["query_cost_max"],
            r["max_node_ingress"],
        ]
        for name, r in results.items()
    ]
    print(f"\nArchitecture ablation ({RECORDS} inserts, {QUERIES} range queries, 34 sites)")
    print(format_table(
        ["architecture", "ins med (s)", "qry med (s)", "qry nodes avg", "qry nodes max", "hottest node (msgs in)"],
        rows,
    ))

    mind, flood = results["MIND"], results["flooding"]
    central, dht = results["centralized"], results["uniform DHT"]
    # Locality: MIND's range queries touch far fewer nodes than flooding
    # or a uniform-hash DHT (which must broadcast).
    assert mind["query_cost_mean"] < 0.5 * flood["query_cost_mean"]
    assert mind["query_cost_mean"] < 0.5 * dht["query_cost_mean"]
    assert flood["query_cost_mean"] >= 30 and dht["query_cost_mean"] >= 30
    # Centralized funnels every record through one node.
    assert central["max_node_ingress"] > 2 * mind["max_node_ingress"]
    # Every system completed the workload.
    for r in results.values():
        assert r["queries_done"] == QUERIES
