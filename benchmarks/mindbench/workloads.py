"""The four named workloads.

Every size is a rate times ``seconds`` (one replica's share of
``--seconds``): the work is fixed by ``(seed, seconds)`` so sim metrics
and the ``sim_digest`` are bit-exact, and the rates are calibrated so the
timed section takes about ``seconds`` host seconds on the reference box
(2 cores, CPython 3.11) when it is undisturbed.
README.md records why each workload exists and which layers it stresses.
"""

import random
from typing import Dict, List

import numpy as np

from benchmarks.mindbench.harness import OpenLoop, Workload, np_rng, sub_rng
from repro.bench.workload import timed_index_records
from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindConfig
from repro.core.query import RangeQuery
from repro.net.topology import backbone_sites, synthetic_planetlab_sites
from repro.overlay.node import OverlayConfig
from repro.traffic.datasets import baseline_generator
from repro.traffic.generator import TrafficConfig
from repro.traffic.indices import FANOUT_CAP, index1_schema, index2_schema
from repro.traffic.prefixes import ADDRESS_SPACE

DAY_S = 86400.0
#: Simulated seconds every phase runs on after its last scheduled op, so
#: in-flight ops finish (the op timeout is 90 s; fault phases wait longer).
DRAIN_S = 40.0
#: The modelled system — site placement, join order, slow nodes, jitter
#: streams, the fault script — is the program under test, so it is fixed.
#: ``--seed`` drives the inputs only: record values, origins, query
#: rectangles.  (With the system drawn from the run seed as well, the
#: across-seed spread of every metric was several times its bound.)
SYSTEM_SEED = 11


# ----------------------------------------------------------------------
# Engines: the two configurations the repository actually runs
# ----------------------------------------------------------------------
def scale_engine() -> ClusterConfig:
    """The scale-tier engine of ``benchmarks/perf/scale_bench.py``:
    1 ms delivery coalescing, block jitter draws, heartbeat piggybacking."""
    return ClusterConfig(
        seed=SYSTEM_SEED,
        overlay=OverlayConfig(
            service_time_s=0.01,
            service_jitter_sigma=0.8,
            liveness_enabled=True,
            hb_interval_s=10.0,
            hb_suppress_s=10.0,
            hb_timeout_s=40.0,
            adoption_delay_s=3.0,
            service_draw_block=1024,
        ),
        mind=MindConfig(),
        slow_factor=3.0,
        latency_draw_block=4096,
        coalesce_window_s=0.001,
    )


def default_engine(liveness: bool) -> ClusterConfig:
    """What tier-1 and the figure benches run: one delivery event per
    message, per-message stdlib draws, explicit heartbeats (5 s / 25 s)."""
    return ClusterConfig(
        seed=SYSTEM_SEED,
        overlay=OverlayConfig(
            liveness_enabled=liveness, hb_interval_s=5.0, hb_timeout_s=25.0
        ),
    )


def build_cluster(workload: Workload, sites, config: ClusterConfig, schema,
                  replication: int) -> MindCluster:
    """Overlay build and index creation, one host-time lap each."""
    cluster = MindCluster(sites, config)
    cluster.build()
    workload.lap()
    # The settle predicate scans every node; thin it as the scale tier does.
    cluster.create_index(schema, replication=replication, settle_poll_events=64)
    workload.lap()
    return cluster


# ----------------------------------------------------------------------
# Input generators (all randomness comes from the run seed)
# ----------------------------------------------------------------------
def uniform_index1(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform Index-1 records: (dest_prefix, timestamp, fanout)."""
    return np.column_stack([
        rng.uniform(0.0, ADDRESS_SPACE, n),
        rng.uniform(0.0, DAY_S, n),
        rng.uniform(0.0, FANOUT_CAP, n),
    ])


def cell_probe(rng: random.Random, index: str) -> RangeQuery:
    """One cut-aligned cell — day/32 window x /5 prefix x an eighth of the
    fanout range — so the query resolves to a single region and costs about
    what an insert costs (a few records back)."""
    t0 = rng.randrange(32) * DAY_S / 32.0
    p0 = rng.randrange(32) * ADDRESS_SPACE / 32.0
    f0 = rng.randrange(8) * FANOUT_CAP / 8.0
    return RangeQuery(index, {
        "dest_prefix": (p0, p0 + ADDRESS_SPACE / 32.0),
        "timestamp": (t0, t0 + DAY_S / 32.0),
        "fanout": (f0, f0 + FANOUT_CAP / 8.0),
    })


def scan_query(rng: random.Random, index: str) -> RangeQuery:
    """The query_scan mix: 70% 5-minute window x thin fanout slice, 20%
    1-hour window x /4 prefix range, 10% day-wide thin fanout slice."""
    kind = rng.random()
    f0 = rng.uniform(0.0, FANOUT_CAP * 0.98)
    thin = (f0, f0 + FANOUT_CAP * 0.02)
    if kind < 0.7:
        t0 = rng.uniform(0.0, DAY_S - 300.0)
        return RangeQuery(index, {"timestamp": (t0, t0 + 300.0), "fanout": thin})
    if kind < 0.9:
        t0 = rng.uniform(0.0, DAY_S - 3600.0)
        p0 = rng.uniform(0.0, ADDRESS_SPACE * (1.0 - 1.0 / 16.0))
        return RangeQuery(index, {
            "timestamp": (t0, t0 + 3600.0),
            "dest_prefix": (p0, p0 + ADDRESS_SPACE / 16.0),
        })
    return RangeQuery(index, {"fanout": thin})


def paced(count: int, rate_per_s: float, base: float) -> np.ndarray:
    """Fixed-rate issue times: op ``i`` is due at ``base + i / rate``."""
    return base + np.arange(count) / rate_per_s


# ----------------------------------------------------------------------
class InsertSteady(Workload):
    name = "insert_steady"
    why = ("the ROADMAP scale tier downsized: 256 sites, uniform Index-1 inserts at 2 rec/s/node "
           "on the coalescing engine; the per-hop loop dominates, storage does one append per record")

    #: Calibration: inserts issued per host second of the timed section.
    INSERTS_PER_HOST_S = 5000
    #: Single-cell probe queries spread over the insert window: about as
    #: cheap as an insert each, enough of them for a query percentile.
    PROBES = 1200

    def setup(self) -> None:
        nodes = 32 if self.smoke else 256
        inserts = 2000 if self.smoke else int(self.INSERTS_PER_HOST_S * self.seconds)
        probes = 50 if self.smoke else self.PROBES
        schema = index1_schema(DAY_S)
        sites = synthetic_planetlab_sites(nodes, sub_rng(SYSTEM_SEED, "sites"))
        self.cluster = build_cluster(self, sites, scale_engine(), schema, replication=0)
        rng = np_rng(self.seed, "records")
        qrng = sub_rng(self.seed, "queries")
        self.loop = OpenLoop(
            self.cluster, schema, uniform_index1(rng, inserts),
            [cell_probe(qrng, schema.name) for _ in range(probes)],
        )
        self.timed_inserts = range(inserts)
        self.timed_queries = range(probes)
        self._rate = 2.0 * nodes
        self._origins = rng.integers(0, nodes, inserts)
        self._q_origins = rng.integers(0, nodes, probes)

    def run(self) -> None:
        loop, now = self.loop, self.cluster.sim.now
        n, q = len(self.timed_inserts), len(self.timed_queries)
        duration = n / self._rate
        loop.schedule_inserts(self.timed_inserts, paced(n, self._rate, now), self._origins)
        loop.schedule_queries(self.timed_queries, paced(q, q / duration, now), self._q_origins)
        self.advance(duration + DRAIN_S)


# ----------------------------------------------------------------------
class QueryScan(Workload):
    name = "query_scan"
    why = ("ROADMAP 1(b): the query path had no end-to-end number; 128 sites, records preloaded, "
           "range queries at 10/s; store scans and response merge dominate, not the hop loop")

    QUERIES_PER_HOST_S = 250
    PRELOAD = 10000
    #: Live inserts beside the queries, for the insert percentiles.
    TRICKLE = 2000

    def setup(self) -> None:
        nodes = 32 if self.smoke else 128
        preload = 2000 if self.smoke else self.PRELOAD
        queries = 50 if self.smoke else int(self.QUERIES_PER_HOST_S * self.seconds)
        trickle = 20 if self.smoke else self.TRICKLE
        schema = index1_schema(DAY_S)
        sites = synthetic_planetlab_sites(nodes, sub_rng(SYSTEM_SEED, "sites"))
        self.cluster = build_cluster(self, sites, scale_engine(), schema, replication=0)
        rng = np_rng(self.seed, "records")
        qrng = sub_rng(self.seed, "queries")
        self.loop = OpenLoop(
            self.cluster, schema, uniform_index1(rng, preload + trickle),
            [scan_query(qrng, schema.name) for _ in range(queries)],
        )
        self.timed_inserts = range(preload, preload + trickle)
        self.timed_queries = range(queries)
        self._origins = rng.integers(0, nodes, trickle)
        self._q_origins = rng.integers(0, nodes, queries)
        self.lap()
        # Preload through the overlay, at the insert_steady rate.
        rate = 2.0 * nodes
        self.loop.schedule_inserts(
            range(preload), paced(preload, rate, self.cluster.sim.now),
            rng.integers(0, nodes, preload),
        )
        self.advance(preload / rate + DRAIN_S)

    def run(self) -> None:
        loop, now = self.loop, self.cluster.sim.now
        q, t = len(self.timed_queries), len(self.timed_inserts)
        duration = q / 10.0
        loop.schedule_queries(self.timed_queries, paced(q, 10.0, now), self._q_origins)
        loop.schedule_inserts(self.timed_inserts, paced(t, t / duration, now), self._origins)
        self.advance(duration + DRAIN_S)


# ----------------------------------------------------------------------
class RebalanceDay(Workload):
    name = "rebalance_day"
    why = ("the only workload that reaches repro.traffic, histogram, balance, versioning and "
           "balanced cuts: day 0 on even cuts, rebalance, day 1 on balanced cuts, "
           "version-spanning queries")

    #: Trace seconds replayed per day per host second (at 3 flows/s/monitor).
    TRACE_S_PER_HOST_S = 90.0
    QUERIES = 1000
    QUERY_RATE = 5.0
    TIME_SCALE = 0.2
    START_S = 39600.0  # 11:00, near the diurnal peak

    def setup(self) -> None:
        slice_s = 120.0 if self.smoke else 30.0 * round(self.TRACE_S_PER_HOST_S * self.seconds / 30.0)
        n_queries = 50 if self.smoke else self.QUERIES
        sites = backbone_sites()
        schema = index2_schema(2 * DAY_S)
        self.cluster = build_cluster(
            self, sites, default_engine(liveness=False), schema, replication=0
        )
        generator = baseline_generator(
            config=TrafficConfig(seed=self.seed, flows_per_second=3.0)
        )
        days = [
            timed_index_records(
                generator, day, self.START_S, slice_s, indices=("index2",),
                thresholds={"index2": 10_000.0},
            )
            for day in (0, 1)
        ]
        self.extras["traffic_s"] = self.lap()
        timed = days[0] + days[1]
        self._day0 = len(days[0])
        addr_index = {site.name: i for i, site in enumerate(sites)}
        values = np.array([item.record.values for item in timed], dtype=np.float64)
        self._origins = np.array([addr_index[item.origin] for item in timed])
        self._trace_at = np.array([item.at for item in timed])

        qrng = sub_rng(self.seed, "queries")
        prefixes = np.unique(values[:, 0])
        queries = []
        for i in range(n_queries):
            # Selective: four adjacent /16s that carry traffic, above an
            # octets threshold; every other query spans both versions.
            p_lo = prefixes[qrng.randrange(len(prefixes))]
            ranges = {
                "dest_prefix": (p_lo, p_lo + 4 * 65536.0),
                "octets": (qrng.choice((100_000.0, 200_000.0, 400_000.0)), None),
            }
            if i % 2:
                ranges["timestamp"] = (
                    self.START_S + qrng.uniform(0.0, slice_s / 2.0),
                    DAY_S + self.START_S + qrng.uniform(slice_s / 2.0, slice_s),
                )
            else:
                t_lo = qrng.randrange(2) * DAY_S + self.START_S + qrng.uniform(0.0, slice_s / 2.0)
                ranges["timestamp"] = (t_lo, t_lo + slice_s / 2.0)
            queries.append(RangeQuery(schema.name, ranges))
        self.loop = OpenLoop(
            self.cluster, schema, values, queries,
            payloads=[item.record.payload for item in timed],
        )
        self.timed_inserts = range(len(timed))
        self.timed_queries = range(n_queries)
        self._q_origins = np_rng(self.seed, "origins").integers(0, len(sites), n_queries)

    def _replay(self, rows: range, day: int) -> float:
        """Schedule one day's slice at ``TIME_SCALE``; returns its sim length."""
        sim = self.cluster.sim
        spread = np_rng(self.seed, f"spread{day}").uniform(0.0, 5.0, len(rows))
        base = day * DAY_S + self.START_S
        at = sim.now + (self._trace_at[rows.start:rows.stop] - base) * self.TIME_SCALE
        at = np.sort(at + spread)
        self.loop.schedule_inserts(rows, at, self._origins[rows.start:rows.stop])
        return float(at[-1] - sim.now)

    def run(self) -> None:
        cluster, loop = self.cluster, self.loop
        n, q = len(self.timed_inserts), len(self.timed_queries)
        extras = self.extras
        extras["day0_s"] = self.advance(self._replay(range(self._day0), 0) + DRAIN_S)
        cluster.rebalance_daily(loop.index, DAY_S)
        extras["rebalance_s"] = self.lap()
        extras["day1_s"] = self.advance(self._replay(range(self._day0, n), 1) + DRAIN_S)
        loop.schedule_queries(
            self.timed_queries, paced(q, self.QUERY_RATE, cluster.sim.now), self._q_origins
        )
        extras["queries_s"] = self.advance(q / self.QUERY_RATE + DRAIN_S)
        extras.update(day0_inserts=self._day0, day1_inserts=n - self._day0)

    def check(self) -> Dict[str, bool]:
        index = self.loop.index
        return {
            "version_installed_everywhere": all(
                node.has_version_at(index, DAY_S) for node in self.cluster.nodes
            ),
        }


# ----------------------------------------------------------------------
class MixedFaults(Workload):
    name = "mixed_faults"
    why = ("the same layers used differently: writes beside reads on the uncoalesced default "
           "engine at replication 1, with scripted crash/restore cycles driving retry, failover, "
           "heartbeat, takeover and rejoin")
    fault_free = False

    NODES = 64
    PRELOAD = 4000
    INSERT_RATE_PER_NODE = 0.5
    QUERY_RATE = 4.0
    #: The fault script.  These timings are inside the operating envelope
    #: (README.md): first crash at 20 s or cycles 46 s apart tip the same
    #: cluster into ring-probe storms whose size depends on the inputs.
    FAULT_CYCLES = 5
    FAULT_FIRST_S = 40.0
    FAULT_EVERY_S = 50.0
    DOWNTIME_S = 30.0

    def setup(self) -> None:
        nodes = 32 if self.smoke else self.NODES
        cycles = 1 if self.smoke else self.FAULT_CYCLES
        # Live traffic lasts as long as the fault script; a longer run
        # spaces the cycles further apart, never closer.
        every_s = max(self.FAULT_EVERY_S, 10.0 * self.seconds)
        live_s = 60.0 if self.smoke else self.FAULT_FIRST_S + cycles * every_s
        preload = 1000 if self.smoke else self.PRELOAD
        rate = self.INSERT_RATE_PER_NODE * nodes
        live = int(live_s * rate)
        n_queries = int(live_s * (1.0 if self.smoke else self.QUERY_RATE))
        schema = index1_schema(DAY_S)
        sites = synthetic_planetlab_sites(nodes, sub_rng(SYSTEM_SEED, "sites"))
        self.cluster = build_cluster(
            self, sites, default_engine(liveness=True), schema, replication=1
        )
        rng = np_rng(self.seed, "records")
        qrng = sub_rng(self.seed, "queries")
        self.loop = OpenLoop(
            self.cluster, schema, uniform_index1(rng, preload + live),
            [scan_query(qrng, schema.name) for _ in range(n_queries)],
        )
        self.timed_inserts = range(preload, preload + live)
        self.timed_queries = range(n_queries)
        self._live_s, self._rate = live_s, rate

        # The fault script (part of the system, not of the inputs): evenly
        # spaced crash/restore cycles, one non-observer victim each.  No op
        # is issued from a node while it is down or rejoining.
        frng = sub_rng(SYSTEM_SEED, "faults")
        first = 20.0 if self.smoke else self.FAULT_FIRST_S
        self._faults = [(first + i * every_s, frng.randrange(1, nodes)) for i in range(cycles)]
        self._origins = self._avoiding(rng, paced(live, rate, 0.0), nodes)
        self._q_origins = self._avoiding(rng, paced(n_queries, n_queries / live_s, 0.0), nodes)
        self.lap()

        self.loop.schedule_inserts(
            range(preload), paced(preload, 4.0 * rate, self.cluster.sim.now),
            rng.integers(0, nodes, preload),
        )
        self.advance(preload / (4.0 * rate) + DRAIN_S)

    def _avoiding(self, rng: np.random.Generator, offsets: np.ndarray, nodes: int) -> np.ndarray:
        """Random origins, re-drawn while the drawn node is down or rejoining."""
        origins = rng.integers(0, nodes, len(offsets))
        for at, victim in self._faults:
            away = (origins == victim) & (offsets >= at - 1.0) & (offsets < at + self.DOWNTIME_S + 60.0)
            origins[away] = (victim + 1 + rng.integers(0, nodes - 1, int(away.sum()))) % nodes
        return origins

    def run(self) -> None:
        cluster, loop = self.cluster, self.loop
        now = cluster.sim.now
        n, q = len(self.timed_inserts), len(self.timed_queries)
        for at, victim in self._faults:
            cluster.failures.crash_and_restore(cluster.nodes[victim].address, at, self.DOWNTIME_S)
        loop.schedule_inserts(self.timed_inserts, paced(n, self._rate, now), self._origins)
        loop.schedule_queries(self.timed_queries, paced(q, q / self._live_s, now), self._q_origins)
        self.advance(self._live_s + 2 * DRAIN_S)
        self.extras["crash_cycles"] = sum(
            1 for _, _, kind in cluster.failures.crash_log if kind == "restore"
        )

    def check(self) -> Dict[str, bool]:
        return {"every_fault_cycle_ran": self.extras["crash_cycles"] == len(self._faults)}


WORKLOADS: List[type] = [InsertSteady, QueryScan, RebalanceDay, MixedFaults]
BY_NAME: Dict[str, type] = {cls.name: cls for cls in WORKLOADS}
