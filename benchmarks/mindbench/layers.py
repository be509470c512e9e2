"""The per-layer ledger: isolated microbenches and the metric registry.

A layer is a ``src/repro`` package.  Each microbench drives only that
layer's public functions and reports host time per call, fastest of
``REPEATS``.  Microbenches that need the kernel to make progress (a send
that must be delivered, a routed hop) include the kernel events they
cause; README.md discusses what that does to the hop-pipeline sum.

``PER_LAYER`` is the registry ``BENCHMARK.json`` mirrors: every metric
with its unit, its direction and the prediction a later issue is held to
(``moves``: which end-to-end metric on which workload it should move).
"""

import random
import time
from typing import Callable, Dict, List, NamedTuple

import numpy as np

from benchmarks.mindbench.workloads import DAY_S, scale_engine
from repro.core.balance import derive_cut_tree, next_day_embedding
from repro.core.cluster import MindCluster
from repro.core.cuts import EvenCuts
from repro.core.embedding import Embedding
from repro.core.histogram import MultiDimHistogram
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.net.latency import LatencyModel
from repro.net.message import ISOLATE_COPY, Message
from repro.net.network import SimNetwork
from repro.net.topology import backbone_sites, synthetic_planetlab_sites
from repro.overlay.code import Code
from repro.overlay.neighbors import NeighborTable
from repro.overlay.node import OverlayConfig, OverlayNode
from repro.overlay.routing import next_hop
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator
from repro.storage.dac import DacConfig, DataAccessController
from repro.storage.memtable import TimePartitionedStore
from repro.traffic.aggregation import aggregate_flows
from repro.traffic.datasets import baseline_generator
from repro.traffic.generator import TrafficConfig
from repro.traffic.indices import index1_schema, index2_records, index2_schema

REPEATS = 5


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


_m = LayerMetric
_HOP = "ops_per_s on insert_steady"
PER_LAYER: List[LayerMetric] = [
    # sim
    _m("sim.queue_push_pop_ns", "ns", "lower", _HOP + "; nothing on query_scan/rebalance_day"),
    _m("sim.schedule_many_ns", "ns", "lower", "setup_s everywhere (input replay)"),
    _m("sim.dispatch_ns", "ns", "lower", _HOP + " and mixed_faults"),
    _m("sim.events", "count", "lower", "ops_per_s everywhere"),
    _m("sim.events_per_msg", "count", "lower", _HOP),
    _m("sim.self_s", "s", "lower", _HOP),
    _m("sim.self_frac", "fraction", "lower", _HOP),
    # net
    _m("net.frame_ns", "ns", "lower", "ops_per_s everywhere"),
    _m("net.latency_draw_ns", "ns", "lower", "ops_per_s on mixed_faults, rebalance_day"),
    _m("net.send_deliver_ns", "ns", "lower", "ops_per_s on mixed_faults, rebalance_day"),
    _m("net.send_deliver_coalesced_ns", "ns", "lower", _HOP + " and query_scan"),
    _m("net.clone_us", "us", "lower", "ops_per_s on mixed_faults (resend path)"),
    _m("net.messages", "count", "lower", "ops_per_s everywhere"),
    _m("net.bytes", "count", "lower", "query_p50_s on query_scan (serialisation delay)"),
    _m("net.msgs_per_op", "count", "lower", "ops_per_s everywhere"),
    _m("net.failed_msgs", "count", "lower", "success_frac on mixed_faults"),
    _m("net.self_s", "s", "lower", _HOP),
    _m("net.self_frac", "fraction", "lower", _HOP),
    # overlay
    _m("overlay.next_hop_ns", "ns", "lower", _HOP + " (memo misses only)"),
    _m("overlay.neighbors_dim_ns", "ns", "lower", "ops_per_s on mixed_faults (link rebuilds)"),
    _m("overlay.route_hop_us", "us", "lower", _HOP),
    _m("overlay.join_ms", "ms", "lower",
       "setup_s on insert_steady; ops_per_s on mixed_faults (rejoins)"),
    _m("overlay.mean_hops", "count", "lower", "insert_p50_s on insert_steady"),
    _m("overlay.p99_hops", "count", "lower", "insert_p99_s on insert_steady"),
    _m("overlay.self_s", "s", "lower", _HOP),
    _m("overlay.self_frac", "fraction", "lower", _HOP),
    # core
    _m("core.point_code_ns", "ns", "lower", _HOP + " (once per insert)"),
    _m("core.point_code_balanced_us", "us", "lower", "ops_per_s on rebalance_day only"),
    _m("core.point_codes_batch_ns", "ns", "lower", "nothing end to end yet (no batch insert path)"),
    _m("core.query_prefix_us", "us", "lower", "ops_per_s on query_scan"),
    _m("core.normalized_rect_ns", "ns", "lower", "ops_per_s on query_scan"),
    _m("core.record_wire_ns", "ns", "lower", "ops_per_s on query_scan"),
    _m("core.histogram_add_batch_ns", "ns", "lower", "ops_per_s on rebalance_day only"),
    _m("core.cut_tree_ms", "ms", "lower", "ops_per_s on rebalance_day only"),
    _m("core.rebalance_s", "s", "lower", "ops_per_s on rebalance_day only"),
    _m("core.day1_vs_day0_insert_ratio", "ratio", "lower", "ops_per_s on rebalance_day only"),
    _m("core.query_nodes_visited_mean", "count", "lower", "query_p50_s on query_scan"),
    _m("core.query_regions_mean", "count", "lower", "query_p50_s on query_scan"),
    _m("core.records_per_query", "count", "lower", "query_p50_s on query_scan"),
    _m("core.insert_retries", "count", "lower", "insert_p99_s, success_frac on mixed_faults"),
    _m("core.query_retries", "count", "lower", "query_p99_s, success_frac on mixed_faults"),
    _m("core.failovers", "count", "lower", "success_frac on mixed_faults"),
    _m("core.retry_frac", "fraction", "lower", "insert_p50_s, success_frac on mixed_faults"),
    _m("core.insert_p99_s", "s", "lower", "sim; informational (too few samples to bound across seeds)"),
    _m("core.query_p99_s", "s", "lower", "sim; informational (too few samples to bound across seeds)"),
    _m("core.self_s", "s", "lower", "ops_per_s on rebalance_day, query_scan"),
    _m("core.self_frac", "fraction", "lower", "ops_per_s on rebalance_day, query_scan"),
    # storage
    _m("storage.insert_ns", "ns", "lower", "predicted NO visible move (<3% of any workload)"),
    _m("storage.insert_batch_ns", "ns", "lower", "nothing end to end yet (no batch insert path)"),
    _m("storage.query_small_bucket_us", "us", "lower", "ops_per_s on query_scan"),
    _m("storage.query_large_bucket_us", "us", "lower", "nothing here: cluster buckets are small"),
    _m("storage.dac_submit_ns", "ns", "lower", _HOP + " (once per insert)"),
    _m("storage.records_stored", "count", "higher", "peak_rss_mb on insert_steady"),
    _m("storage.scan_calls", "count", "lower", "ops_per_s on query_scan"),
    _m("storage.hits", "count", "lower", "ops_per_s on query_scan"),
    _m("storage.self_s", "s", "lower", "ops_per_s on query_scan"),
    _m("storage.self_frac", "fraction", "lower", "ops_per_s on query_scan"),
    # traffic
    _m("traffic.flows_per_s", "1/s", "higher", "setup_s on rebalance_day"),
    _m("traffic.index_records_per_s", "1/s", "higher", "setup_s on rebalance_day"),
    _m("traffic.self_s", "s", "lower", "setup_s on rebalance_day"),
    # ledger
    _m("trace.overhead_ratio", "ratio", "lower", "-"),
    _m("trace.unattributed_frac", "fraction", "lower", "-"),
    _m("layers.sum_vs_wall", "ratio", "higher", "-"),
]


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------
def _noop(*_args) -> None:
    pass


def _per_call(fn: Callable[[], int]) -> float:
    """Fastest of ``REPEATS`` of (wall seconds of ``fn()``) / (its call count):
    on this box the fastest repeat is the least disturbed one (README.md)."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        calls = fn()
        samples.append((time.perf_counter() - t0) / calls)
    return min(samples)


def _records(n: int, seed: int = 5) -> List[Record]:
    rng = random.Random(seed)
    return [
        Record((rng.uniform(0, 2.0**32), rng.uniform(0, DAY_S), rng.uniform(0, 5024.0)), key=i + 1)
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def sim_queue_push_pop() -> float:
    deltas = [random.Random(1).uniform(0.001, 0.5) for _ in range(1000)]

    def run() -> int:
        queue = EventQueue()
        for i in range(2000):
            queue.push(deltas[i % 1000], _noop, ())
        push, pop = queue.push, queue.pop_due
        n = 20000
        for i in range(n):
            event = pop(float("inf"))
            push(event.time + deltas[i % 1000], _noop, ())
        return n

    return _per_call(run)


def sim_schedule_many() -> float:
    items = [(i * 0.0007, _noop, ()) for i in range(20000)]

    def run() -> int:
        Simulator().schedule_many(items)
        return len(items)

    return _per_call(run)


def sim_dispatch() -> float:
    def run() -> int:
        sim = Simulator()
        n = 20000
        for i in range(n):
            sim.schedule(i * 0.0007, _noop)
        sim.run_until(n * 0.0007 + 1.0)
        return n

    return _per_call(run)


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
def net_frame() -> float:
    payload = {"target": "0101010101", "hops": 3}

    def run() -> int:
        frame = Message.frame
        for _ in range(20000):
            frame("a", "b", "route", payload, 320)
        return 20000

    return _per_call(run)


def net_latency_draw() -> float:
    model, rng = LatencyModel(), random.Random(3)
    a, b = backbone_sites()[0], backbone_sites()[20]

    def run() -> int:
        draw = model.one_way_s
        for _ in range(20000):
            draw(a, b, rng)
        return 20000

    return _per_call(run)


def _send_deliver(**engine) -> float:
    sites = synthetic_planetlab_sites(32, random.Random(2))
    names = [site.name for site in sites]

    def run() -> int:
        sim = Simulator(1)
        net = SimNetwork(sim, {site.name: site for site in sites}, **engine)
        for name in names:
            net.register(name, _noop)
        n = 8192
        for i in range(n):
            net.send(names[i % 32], names[(i * 7 + 1 + i // 32) % 32], "route", {}, 320)
        sim.run_until(3600.0)  # the latency model has a Pareto tail
        if net.messages_delivered != n:
            raise RuntimeError(f"send/deliver microbench lost {n - net.messages_delivered} messages")
        return n

    return _per_call(run)


def net_clone() -> float:
    records = [record.to_wire() for record in _records(64)]
    msg = Message("a", "b", "query_response", {"qid": "a:1", "records": records, "path": ["a", "b"]})

    def run() -> int:
        for _ in range(500):
            msg.clone(level=ISOLATE_COPY, fresh_id=True)
        return 500

    return _per_call(run)


# ----------------------------------------------------------------------
# overlay
# ----------------------------------------------------------------------
def _ten_bit_links() -> tuple:
    me = Code("0110100101")
    links = [(f"n{i}", me.flip(i)) for i in range(10)]
    rng = random.Random(4)
    targets = [Code(format(rng.getrandbits(10), "010b")) for _ in range(256)]
    return me, links, targets


def overlay_next_hop() -> float:
    me, links, targets = _ten_bit_links()

    def run() -> int:
        for _ in range(40):
            for target in targets:
                next_hop(me, target, links)
        return 40 * len(targets)

    return _per_call(run)


def overlay_neighbors_dim() -> float:
    me, links, _ = _ten_bit_links()
    table = NeighborTable()
    for addr, code in links:
        table.upsert(addr, code)

    def run() -> int:
        for _ in range(500):
            for dim in range(10):
                table.dimension_neighbors(me, dim)
        return 5000

    return _per_call(run)


class _Loopback:
    """Hands a sent message straight to the destination endpoint, so a
    routed hop costs overlay work plus one kernel event and no SimNetwork."""

    coalesce_window_s = 0.0

    def __init__(self) -> None:
        self.endpoints: Dict[str, Callable] = {}

    def register(self, address: str, deliver: Callable) -> None:
        self.endpoints[address] = deliver

    def send_framed(self, msg, tuples=0, on_fail=None):
        self.endpoints[msg.dst](msg)
        return msg


def overlay_route_hop() -> float:
    sim, net, rng = Simulator(1), _Loopback(), random.Random(6)
    nodes = [OverlayNode(sim, net, f"n{i:03d}", OverlayConfig()) for i in range(256)]
    nodes[0].activate_as_root()
    for i, node in enumerate(nodes[1:], start=1):
        node.start_join(nodes[rng.randrange(i)].address)
        if not sim.run_until_predicate(node.in_overlay, timeout=600.0):
            raise RuntimeError("loopback overlay failed to build")
    targets = [Code(format(rng.getrandbits(16), "016b")) for _ in range(4000)]

    def run() -> int:
        before = sum(node.routes_forwarded for node in nodes)
        for i, target in enumerate(targets):
            nodes[i % 256].route(target, "noop", {}, op_id=("bench", i))
        sim.run_until(sim.now + 60.0)
        return sum(node.routes_forwarded for node in nodes) - before

    return _per_call(run)


def overlay_join() -> float:
    """Host seconds per node of ``MindCluster.build()`` at 256 sites."""
    sites = synthetic_planetlab_sites(256, random.Random(2))

    def run() -> int:
        MindCluster(sites, scale_engine()).build()
        return len(sites)

    return _per_call(run)


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def _skewed_points(n: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.column_stack([
        (rng.pareto(1.2, n) * 0.02) % 1.0,
        rng.uniform(0.4, 0.5, n),
        np.minimum(rng.pareto(1.5, n) * 0.01, 0.999),
    ])


def _day_histogram() -> MultiDimHistogram:
    hist = MultiDimHistogram(3, (4096, 8192, 64))
    hist.add_batch(_skewed_points(20000))
    return hist


def core_point_code() -> float:
    embedding = Embedding(index1_schema(DAY_S), EvenCuts())
    values = [record.values for record in _records(2000)]
    for v in values:
        embedding.point_code(v)  # warm the cut memo: the steady state

    def run() -> int:
        code = embedding.point_code
        for v in values:
            code(v)
        return len(values)

    return _per_call(run)


def core_point_code_balanced() -> float:
    schema = index2_schema(2 * DAY_S)
    hist = _day_histogram()
    points = _skewed_points(1000)
    values = [
        (p[0] * 2.0**32, DAY_S + p[1] * DAY_S, p[2] * 2_000_000.0) for p in points.tolist()
    ]

    def run() -> int:
        embedding = next_day_embedding(schema, hist)  # cold cut memo each repeat
        for v in values:
            embedding.point_code(v)
        return len(values)

    return _per_call(run)


def core_point_codes_batch() -> float:
    embedding = Embedding(index1_schema(DAY_S), EvenCuts())
    values = np.array([record.values for record in _records(20000)])
    embedding.point_codes_batch(values)

    def run() -> int:
        embedding.point_codes_batch(values)
        return len(values)

    return _per_call(run)


def _scan_queries(schema, n: int) -> List[RangeQuery]:
    rng = random.Random(8)
    out = []
    for _ in range(n):
        t0, f0 = rng.uniform(0, DAY_S - 300), rng.uniform(0, 4900.0)
        out.append(RangeQuery(schema.name, {"timestamp": (t0, t0 + 300.0), "fanout": (f0, f0 + 100.0)}))
    return out


def core_query_prefix() -> float:
    schema = index1_schema(DAY_S)
    embedding = Embedding(schema, EvenCuts())
    rects = [q.normalized_rect(schema) for q in _scan_queries(schema, 500)]

    def run() -> int:
        for rect in rects:
            embedding.query_prefix(rect)
        return len(rects)

    return _per_call(run)


def core_normalized_rect() -> float:
    schema = index1_schema(DAY_S)
    queries = _scan_queries(schema, 2000)

    def run() -> int:
        for query in queries:
            query.normalized_rect(schema)
        return len(queries)

    return _per_call(run)


def core_record_wire() -> float:
    records = _records(5000)

    def run() -> int:
        from_wire = Record.from_wire
        for record in records:
            from_wire(record.to_wire())
        return len(records)

    return _per_call(run)


def core_histogram_add_batch() -> float:
    points = _skewed_points(50000)

    def run() -> int:
        MultiDimHistogram(3, (4096, 8192, 64)).add_batch(points)
        return len(points)

    return _per_call(run)


def core_cut_tree() -> float:
    hist = _day_histogram()

    def run() -> int:
        derive_cut_tree(hist, 10)
        return 1

    return _per_call(run)


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
def storage_insert() -> float:
    schema, records = index1_schema(DAY_S), _records(20000)

    def run() -> int:
        store = TimePartitionedStore(schema)
        for record in records:
            store.insert(record)
        return len(records)

    return _per_call(run)


def storage_insert_batch() -> float:
    schema, records = index1_schema(DAY_S), _records(20000)

    def run() -> int:
        TimePartitionedStore(schema).insert_batch(records)
        return len(records)

    return _per_call(run)


def _store_query(rows: int, window_s: float, n_queries: int) -> float:
    """Host time per ``store.query`` of a ``window_s``-wide fanout slice."""
    schema = index1_schema(DAY_S)
    store = TimePartitionedStore(schema)
    store.insert_batch(_records(rows))
    rng = random.Random(9)
    scans = []
    for _ in range(n_queries):
        t0, f0 = rng.uniform(0, DAY_S - window_s), rng.uniform(0, 4900.0)
        query = RangeQuery(schema.name, {"timestamp": (t0, t0 + window_s), "fanout": (f0, f0 + 100.0)})
        scans.append((query.normalized_rect(schema), (t0, t0 + window_s)))

    def run() -> int:
        for rect, t_range in scans:
            store.query(rect, t_range)
        return len(scans)

    return _per_call(run)


def storage_dac_submit() -> float:
    def run() -> int:
        sim = Simulator()
        dac = DataAccessController(sim, DacConfig())
        for _ in range(20000):
            dac.submit(0.0015, _noop)
        return 20000

    return _per_call(run)


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def traffic_rates() -> Dict[str, float]:
    generator = baseline_generator(config=TrafficConfig(seed=1, flows_per_second=3.0))
    flows_rate, records_rate = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        batches = list(generator.generate(0, 39600.0, 60.0))
        t1 = time.perf_counter()
        built = sum(len(index2_records(aggregate_flows(batch), 10_000.0)) for batch in batches)
        t2 = time.perf_counter()
        flows_rate.append(sum(len(batch) for batch in batches) / (t1 - t0))
        records_rate.append(built / (t2 - t1))
    return {
        "traffic.flows_per_s": max(flows_rate),
        "traffic.index_records_per_s": max(records_rate),
    }


def run_microbenches() -> Dict[str, float]:
    """Every isolated per-call number, in the unit its name ends with."""
    ns, us, ms = 1e9, 1e6, 1e3
    out = {
        "sim.queue_push_pop_ns": sim_queue_push_pop() * ns,
        "sim.schedule_many_ns": sim_schedule_many() * ns,
        "sim.dispatch_ns": sim_dispatch() * ns,
        "net.frame_ns": net_frame() * ns,
        "net.latency_draw_ns": net_latency_draw() * ns,
        "net.send_deliver_ns": _send_deliver() * ns,
        "net.send_deliver_coalesced_ns": _send_deliver(draw_block=4096, coalesce_window_s=0.001) * ns,
        "net.clone_us": net_clone() * us,
        "overlay.next_hop_ns": overlay_next_hop() * ns,
        "overlay.neighbors_dim_ns": overlay_neighbors_dim() * ns,
        "overlay.route_hop_us": overlay_route_hop() * us,
        "overlay.join_ms": overlay_join() * ms,
        "core.point_code_ns": core_point_code() * ns,
        "core.point_code_balanced_us": core_point_code_balanced() * us,
        "core.point_codes_batch_ns": core_point_codes_batch() * ns,
        "core.query_prefix_us": core_query_prefix() * us,
        "core.normalized_rect_ns": core_normalized_rect() * ns,
        "core.record_wire_ns": core_record_wire() * ns,
        "core.histogram_add_batch_ns": core_histogram_add_batch() * ns,
        "core.cut_tree_ms": core_cut_tree() * ms,
        "storage.insert_ns": storage_insert() * ns,
        "storage.insert_batch_ns": storage_insert_batch() * ns,
        # < 48 rows per 5-minute bucket: the scalar regime cluster runs hit.
        "storage.query_small_bucket_us": _store_query(2000, 300.0, 400) * us,
        # ~350 rows per bucket over an hour-wide scan: the vector path.
        "storage.query_large_bucket_us": _store_query(100_000, 3600.0, 40) * us,
        "storage.dac_submit_ns": storage_dac_submit() * ns,
    }
    out.update(traffic_rates())
    return out
