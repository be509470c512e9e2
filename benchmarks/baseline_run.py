"""The shared 34-node baseline experiment (paper Section 4.2).

Figures 7-12 all come from one deployment: 34 PlanetLab nodes congruent
with the Abilene+GÉANT router sites, three indices, three days of traffic
replayed at the real timescale, and periodic 5-minute-window queries with
uniformly random attribute ranges.

This module runs a scaled version of that deployment exactly once per
pytest session and hands the same results object to every figure's
benchmark:

* 3 synthetic days x 2 hour-slots (11:30 and 23:30), each replayed as a
  5-minute slice at the paper's timescale (documented scale-down from the
  paper's hour-long measurement slots over 9M records/day);
* per-slot insertion metrics, query metrics, per-link traffic counters
  and per-link delay samples.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from benchmarks.helpers import planetlab_calibration

from repro.bench.workload import replay, timed_index_records
from repro.core.cluster import MindCluster
from repro.core.cuts import BalancedCuts
from repro.core.embedding import Embedding
from repro.core.histogram import MultiDimHistogram
from repro.core.metrics import InsertMetric, QueryMetric
from repro.core.query import RangeQuery
from repro.net.topology import backbone_sites
from repro.traffic.datasets import baseline_generator
from repro.traffic.generator import TrafficConfig
from repro.traffic.indices import index1_schema, index2_schema, index3_schema

SLICE_LEN = 300.0
SLOTS: List[Tuple[int, float, str]] = [
    (day, tod, f"day{day + 1}-{label}")
    for day in range(3)
    for tod, label in ((11.5 * 3600.0, "11:30"), (23.5 * 3600.0, "23:30"))
]
THRESHOLDS = {"index1": 4.0, "index2": 20_000.0, "index3": 2_000.0}
QUERIES_PER_SLOT = 30
HORIZON = 4 * 86400.0

QUERY_ATTRS = {
    "index1": ("fanout", 5024.0),
    "index2": ("octets", 2_000_000.0),
    "index3": ("flow_size", 128_000.0),
}


@dataclass
class BaselineRun:
    cluster: MindCluster
    slot_inserts: Dict[str, List[InsertMetric]] = field(default_factory=dict)
    slot_queries: Dict[str, List[QueryMetric]] = field(default_factory=dict)
    total_records: int = 0

    @property
    def all_inserts(self) -> List[InsertMetric]:
        return [m for slot in self.slot_inserts.values() for m in slot]

    @property
    def all_queries(self) -> List[QueryMetric]:
        return [m for slot in self.slot_queries.values() for m in slot]


_CACHE: List[BaselineRun] = []


#: The paper's periodic queries use a 5-minute window over 3 days of data
#: (~0.1% of the inserted mass).  Our trace replays six 5-minute slices, so
#: the mass-equivalent window is scaled to 30 seconds; EXPERIMENTS.md
#: documents this.
QUERY_WINDOW_S = 30.0


#: The address span actually carrying traffic (GÉANT pool at 62/8 through
#: the Abilene pool above 128/8).  The paper's "uniform" ranges were
#: uniform over its real traffic's address space; drawing over the whole
#: 2^32 domain would make every query contain all of our synthetic sliver.
DEST_SPAN = (62.0 * 2**24, 128.0 * 2**24 + 192.0 * 2**16)


def _random_query(rng: random.Random, index: str, trace_t0: float, slice_len: float) -> RangeQuery:
    """Uniformly sized ranges on non-time attributes, scaled time window."""
    attr, cap = QUERY_ATTRS[index]
    t0 = trace_t0 + rng.random() * max(0.0, slice_len - QUERY_WINDOW_S)
    dest_a, dest_b = sorted(rng.uniform(*DEST_SPAN) for _ in range(2))
    val_a, val_b = sorted(rng.uniform(0, cap) for _ in range(2))
    return RangeQuery(
        index,
        {
            "timestamp": (t0, t0 + QUERY_WINDOW_S),
            "dest_prefix": (dest_a, dest_b),
            attr: (val_a, val_b),
        },
    )


def get_baseline_run() -> BaselineRun:
    """Run (once) and return the shared baseline experiment."""
    if _CACHE:
        return _CACHE[0]

    config = planetlab_calibration(seed=700, record_links=True)
    cluster = MindCluster(backbone_sites(), config)
    cluster.build()

    gen = baseline_generator(seed=701, config=TrafficConfig(seed=701, flows_per_second=1.0))

    # As in the paper's experiments, balanced cuts are computed off-line
    # from the previous day's distribution and installed at the nodes; each
    # subsequent day gets a version whose histogram is shifted forward in
    # time (the mix is stationary, the clock is not).
    schemas = {
        "index1": index1_schema(HORIZON),
        "index2": index2_schema(HORIZON),
        "index3": index3_schema(HORIZON),
    }
    day0 = timed_index_records(gen, 0, SLOTS[0][1], SLICE_LEN, thresholds=THRESHOLDS)
    day0 += timed_index_records(gen, 0, SLOTS[1][1], SLICE_LEN, thresholds=THRESHOLDS)
    histograms = {}
    for name, schema in schemas.items():
        hist = MultiDimHistogram(3, (65536, 8192, 64))
        for item in day0:
            if item.index == name:
                hist.add(schema.normalize(item.record.values))
        histograms[name] = hist
    time_shift = 86400.0 / HORIZON
    for name, schema in schemas.items():
        cluster.create_index(schema, strategy=BalancedCuts(histograms[name]), replication=1)
        for day in (1, 2):
            shifted = histograms[name].shifted(1, day * time_shift)
            cluster.install_version(
                name, day * 86400.0, Embedding(schema, BalancedCuts(shifted), code_depth=16)
            )

    run = BaselineRun(cluster=cluster)
    rng = random.Random(702)
    origins = [s.name for s in backbone_sites()]

    for day, tod, label in SLOTS:
        before_inserts = len(cluster.metrics.inserts)
        before_queries = len(cluster.metrics.queries)
        timed = timed_index_records(
            gen, day, tod, SLICE_LEN, thresholds=THRESHOLDS
        )
        run.total_records += len(timed)
        start, end = replay(cluster, timed)
        trace_t0 = day * 86400.0 + tod
        for i in range(QUERIES_PER_SLOT):
            index = ("index1", "index2", "index3")[i % 3]
            query = _random_query(rng, index, trace_t0, SLICE_LEN)
            at = start + (i + 1) * (end - start) / (QUERIES_PER_SLOT + 1)
            cluster.schedule_query(query, rng.choice(origins), at)
        cluster.advance((end - start) + 90.0)
        run.slot_inserts[label] = cluster.metrics.inserts[before_inserts:]
        run.slot_queries[label] = cluster.metrics.queries[before_queries:]

    _CACHE.append(run)
    return run
