"""Cluster driver: deploy, drive and measure a MIND overlay.

:class:`MindCluster` is the experiment harness used by the examples, tests
and benchmarks.  It owns the simulation kernel, the WAN model, a set of
:class:`~repro.core.mind_node.MindNode` instances placed at physical sites,
and a :class:`~repro.core.metrics.MetricsCollector`.  It offers both a
blocking convenience API (``insert_now`` / ``query_now`` advance virtual
time until the operation completes) and a scheduling API for replaying
timed workloads (``schedule_insert`` / ``schedule_query`` + ``advance``).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.core.metrics import InsertMetric, MetricsCollector, QueryMetric
from repro.core.mind_node import MindConfig, MindNode
from repro.core.query import RangeQuery, rect_contains_point
from repro.core.records import Record
from repro.core.schema import IndexSchema
from repro.net.failures import FailureInjector
from repro.net.latency import LatencyModel
from repro.net.network import SimNetwork
from repro.net.topology import Site
from repro.overlay.node import OverlayConfig
from repro.sim.kernel import Simulator


@dataclass
class ClusterConfig:
    """Deployment-wide configuration."""

    seed: int = 0
    overlay: OverlayConfig = field(default_factory=OverlayConfig)
    mind: MindConfig = field(default_factory=MindConfig)
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: Keep per-link counters and delay samples (``SimNetwork``'s
    #: ``record_links``); off, the network keeps network-wide totals only.
    record_links: bool = False
    #: Per-link bound on retained delay samples (None = unbounded).
    link_delay_sample_cap: Optional[int] = 8192
    #: Block size for vectorized network-latency jitter draws (0 = exact
    #: per-message stdlib draws; the scale perf tier opts in).
    latency_draw_block: int = 0
    #: Link-level delivery coalescing window in seconds (0 = one delivery
    #: event per message; the scale perf tier opts in).  See
    #: :class:`repro.net.network.SimNetwork`.
    coalesce_window_s: float = 0.0
    #: Fraction of nodes that are pathologically slow (overloaded PlanetLab
    #: hosts) and their slowdown factor.
    slow_node_fraction: float = 0.08
    slow_factor: float = 6.0
    #: Keep a central copy of every inserted record for ground-truth recall
    #: evaluation (Figure 16 and the anomaly experiments).
    track_ground_truth: bool = False


class MindCluster:
    """A deployed MIND system under simulation."""

    def __init__(
        self,
        sites: Union[int, Sequence[Site]],
        config: Optional[ClusterConfig] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.sim = Simulator(self.config.seed)

        if isinstance(sites, int):
            # Local-cluster deployment (the paper's robustness experiment):
            # all instances co-located, LAN latencies.
            self.sites: Dict[str, Site] = {}
            addresses = [f"node{i:03d}" for i in range(sites)]
        else:
            self.sites = {site.name: site for site in sites}
            addresses = [site.name for site in sites]

        self.network = SimNetwork(
            self.sim,
            self.sites,
            latency_model=self.config.latency,
            record_links=self.config.record_links,
            link_delay_sample_cap=self.config.link_delay_sample_cap,
            draw_block=self.config.latency_draw_block,
            coalesce_window_s=self.config.coalesce_window_s,
        )
        speed_rng = self.sim.rng("cluster.speed")
        self.nodes: List[MindNode] = []
        for address in addresses:
            slow = speed_rng.random() < self.config.slow_node_fraction
            node = MindNode(
                self.sim,
                self.network,
                address,
                config=self.config.overlay,
                mind_config=self.config.mind,
                speed_factor=self.config.slow_factor if slow else 1.0,
            )
            node.bootstrap_provider = self._bootstrap_for
            self.nodes.append(node)
        self.by_address: Dict[str, MindNode] = {n.address: n for n in self.nodes}

        self.failures = FailureInjector(
            self.sim,
            self.network,
            on_crash=lambda addr: self.by_address[addr].crash(),
            on_restore=lambda addr: self.by_address[addr].restore(),
        )
        self.metrics = MetricsCollector()
        self._bootstrap_rng = self.sim.rng("cluster.bootstrap")
        self.ground_truth: Dict[str, List[Record]] = {}

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def _bootstrap_for(self, joiner: str) -> Optional[str]:
        candidates = sorted(
            node.address
            for node in self.nodes
            if node.in_overlay() and node.address != joiner and self.network.is_node_up(node.address)
        )
        if not candidates:
            return None
        return self._bootstrap_rng.choice(candidates)

    def build(self, join_timeout_s: float = 600.0) -> None:
        """Bring every node into the overlay (serialized joins)."""
        self.nodes[0].activate_as_root()
        for node in self.nodes[1:]:
            bootstrap = self._bootstrap_for(node.address)
            node.start_join(bootstrap)
            ok = self.sim.run_until_predicate(node.in_overlay, timeout=join_timeout_s)
            if not ok:
                raise RuntimeError(f"{node.address} failed to join within {join_timeout_s}s")

    def live_nodes(self) -> List[MindNode]:
        return [n for n in self.nodes if n.in_overlay() and self.network.is_node_up(n.address)]

    def node_codes(self) -> Dict[str, str]:
        return {n.address: n.code.bits for n in self.live_nodes()}

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    def create_index(
        self,
        schema: IndexSchema,
        strategy=None,
        replication: int = 0,
        origin: Optional[str] = None,
        settle_timeout_s: float = 300.0,
        settle_poll_events: int = 1,
    ) -> None:
        """Create an index from ``origin`` and wait for the flood to settle.

        ``settle_poll_events`` thins the full-cluster settle scan to every
        N processed events — at 1000 nodes the per-event scan dominates
        the flood itself.  Settle time then overshoots by up to N events,
        so timing-pinned scenarios (the kernel digest) keep the default.
        """
        node = self.by_address[origin] if origin else self.nodes[0]
        node.create_index(schema, strategy=strategy, replication=replication)
        ok = self.sim.run_until_predicate(
            lambda: all(n.has_index(schema.name) for n in self.live_nodes()),
            timeout=settle_timeout_s,
            poll_events=settle_poll_events,
        )
        if not ok:
            raise RuntimeError(f"index {schema.name} did not propagate to all nodes")
        if self.config.track_ground_truth:
            self.ground_truth.setdefault(schema.name, [])

    def install_version(
        self,
        index: str,
        valid_from: float,
        embedding,
        origin: Optional[str] = None,
        settle_timeout_s: float = 300.0,
    ) -> None:
        """Install a new daily embedding version and wait for propagation."""
        node = self.by_address[origin] if origin else self.nodes[0]
        node.install_version(index, valid_from, embedding)
        ok = self.sim.run_until_predicate(
            lambda: all(n.has_version_at(index, valid_from) for n in self.live_nodes()),
            timeout=settle_timeout_s,
        )
        if not ok:
            raise RuntimeError(f"version for {index} did not propagate")

    def rebalance_daily(
        self,
        index: str,
        day_start: float,
        collector: Optional[str] = None,
        granularity: Optional[Sequence[int]] = None,
        timeout_s: float = 300.0,
    ) -> None:
        """Run one cycle of the paper's daily load-balancing loop.

        A designated node collects the per-node histograms of the day that
        just ended (``[day_start - 86400, day_start)``), derives balanced
        cuts for the new day (timestamp dimension shifted forward), and
        installs them as the version taking effect at ``day_start``.
        """
        from repro.core.balance import next_day_embedding, recommended_granularity

        node = self.by_address[collector] if collector else self.nodes[0]
        schema = node.indices[index].schema
        grains = tuple(granularity) if granularity else recommended_granularity(schema)
        merged = []
        node.histograms.collect(
            index,
            granularity=grains,
            time_range=(day_start - 86400.0, day_start),
            expected_replies=len(self.live_nodes()),
            callback=merged.append,
            timeout_s=timeout_s / 2.0,
        )
        ok = self.sim.run_until_predicate(lambda: bool(merged), timeout=timeout_s)
        if not ok:
            raise RuntimeError(f"histogram collection for {index} did not complete")
        depth = node.indices[index].versions.latest().code_depth
        embedding = next_day_embedding(schema, merged[0], code_depth=depth)
        self.install_version(index, day_start, embedding, origin=node.address)

    # ------------------------------------------------------------------
    # Operations — scheduling API (timed workload replay)
    # ------------------------------------------------------------------
    def schedule_insert(self, index: str, record: Record, origin: str, at_time: float) -> None:
        """Replay-style insertion at an absolute virtual time."""
        self.sim.schedule_at(at_time, self._do_insert, index, record, origin)

    def _do_insert(self, index: str, record: Record, origin: str) -> None:
        node = self.by_address[origin]
        if not node.in_overlay() or not node.has_index(index):
            return
        if self.config.track_ground_truth:
            self.ground_truth.setdefault(index, []).append(record)
        node.insert_record(index, record, callback=self.metrics.inserts.append)

    def schedule_query(self, query: RangeQuery, origin: str, at_time: float) -> None:
        self.sim.schedule_at(at_time, self._do_query, query, origin)

    def _do_query(self, query: RangeQuery, origin: str) -> None:
        node = self.by_address[origin]
        if not node.in_overlay() or not node.has_index(query.index):
            return
        node.query_index(query, callback=self.metrics.queries.append)

    def advance(self, seconds: float) -> None:
        """Run the simulation forward by ``seconds`` of virtual time."""
        self.sim.run_until(self.sim.now + seconds)

    def close(self) -> None:
        """Tear the experiment down; a quiescence checkpoint under tracking.

        Stops churn and, when the resource ledger is armed
        (``REPRO_TRACK_RESOURCES=1``), asserts that every pending op and
        per-node table entry has been reclaimed — the cluster-teardown
        counterpart of the ``run_until_idle`` check, for drivers that
        advance time by wall-of-clock slices and never drain the queue.
        """
        self.failures.stop_churn()
        if self.sim.resources is not None:
            self.sim.resources.assert_quiescent("MindCluster.close")

    # ------------------------------------------------------------------
    # Operations — blocking convenience API
    # ------------------------------------------------------------------
    def insert_now(self, index: str, record: Record, origin: str, timeout_s: float = 120.0) -> InsertMetric:
        """Insert and advance virtual time until the op completes."""
        node = self.by_address[origin]
        if self.config.track_ground_truth:
            self.ground_truth.setdefault(index, []).append(record)
        done: List[InsertMetric] = []
        node.insert_record(index, record, callback=done.append)
        self.sim.run_until_predicate(lambda: bool(done), timeout=timeout_s)
        if not done:
            raise TimeoutError(f"insert into {index} from {origin} did not complete")
        self.metrics.inserts.append(done[0])
        return done[0]

    def query_now(self, query: RangeQuery, origin: str, timeout_s: float = 120.0) -> QueryMetric:
        """Query and advance virtual time until the result is complete."""
        node = self.by_address[origin]
        done: List[QueryMetric] = []
        node.query_index(query, callback=done.append)
        self.sim.run_until_predicate(lambda: bool(done), timeout=timeout_s)
        if not done:
            raise TimeoutError(f"query on {query.index} from {origin} did not complete")
        metric = done[0]
        self.metrics.queries.append(metric)
        return metric

    def query_records(self, query: RangeQuery, origin: str, timeout_s: float = 120.0) -> List[Record]:
        """Blocking query returning the matching records themselves."""
        return self.query_now(query, origin, timeout_s=timeout_s).results

    # ------------------------------------------------------------------
    # Churn experiment (Figure 16 workload)
    # ------------------------------------------------------------------
    def run_churn_experiment(
        self,
        index: str,
        records: Sequence[Record],
        queries: Sequence[RangeQuery],
        mean_uptime_s: float = 60.0,
        mean_downtime_s: float = 25.0,
        max_concurrent_failures: int = 1,
        query_spacing_s: float = 10.0,
        settle_s: float = 30.0,
        query_timeout_s: float = 240.0,
    ) -> Dict[str, object]:
        """Load records, then answer queries while nodes churn.

        Reproduces the shape of the paper's robustness experiment
        (Section 4.4, Figure 16): the index is pre-loaded, a stationary
        churn process crashes and restores nodes (at most
        ``max_concurrent_failures`` down at once — the paper's experiment
        never lost more than a handful of its 102 nodes), and queries are
        issued from a protected observer node throughout.  The observer
        (``nodes[0]``) is excluded from churn so every query has a live
        originator; everything else may fail mid-operation, exercising the
        retry/failover machinery.

        Returns a summary with completeness, recall (when the cluster
        tracks ground truth), per-query missing regions, and the
        aggregated retry/failover counters for just this experiment.
        """
        observer = self.nodes[0].address
        churn_pool = [n.address for n in self.nodes if n.address != observer]
        if max_concurrent_failures < 1:
            raise ValueError("max_concurrent_failures must be at least 1")
        min_live = max(1, len(churn_pool) - max_concurrent_failures)

        insert_metrics = [self.insert_now(index, r, origin=observer) for r in records]
        self.advance(settle_s)  # let replica stores drain before failures start

        expected: Dict[str, Set[int]] = {}
        query_metrics: List[QueryMetric] = []
        self.failures.start_churn(
            churn_pool, mean_uptime_s, mean_downtime_s, min_live=min_live
        )
        crash_log_start = len(self.failures.crash_log)
        for query in queries:
            metric = self.query_now(query, origin=observer, timeout_s=query_timeout_s)
            query_metrics.append(metric)
            if self.config.track_ground_truth:
                expected[metric.op_id] = self.reference_answer(query)
            self.advance(query_spacing_s)
        self.failures.stop_churn()
        churn_events = self.failures.crash_log[crash_log_start:]

        scoped = MetricsCollector()
        scoped.inserts = insert_metrics
        scoped.queries = query_metrics
        summary: Dict[str, object] = {
            "inserts": len(insert_metrics),
            "inserts_failed": sum(1 for m in insert_metrics if not m.success),
            "queries": len(query_metrics),
            "complete_queries": sum(1 for m in query_metrics if m.complete),
            "complete_fraction": (
                sum(1 for m in query_metrics if m.complete) / len(query_metrics)
                if query_metrics
                else 1.0
            ),
            "failed_regions": {
                m.op_id: sorted(m.failed_regions)
                for m in query_metrics
                if m.failed_regions
            },
            "crashes": sum(1 for _, _, kind in churn_events if kind == "crash"),
            "restores": sum(1 for _, _, kind in churn_events if kind == "restore"),
            "failure_handling": scoped.failure_handling(),
        }
        if self.config.track_ground_truth:
            full = sum(
                1
                for m in query_metrics
                if m.complete and expected[m.op_id] <= m.record_keys
            )
            summary["full_recall_queries"] = full
            summary["full_recall_fraction"] = (
                full / len(query_metrics) if query_metrics else 1.0
            )
        return summary

    # ------------------------------------------------------------------
    # Ground truth (centralized reference evaluation)
    # ------------------------------------------------------------------
    def reference_answer(self, query: RangeQuery) -> Set[int]:
        """Record keys a correct evaluation of the query must return."""
        if not self.config.track_ground_truth:
            raise RuntimeError("cluster was not configured with track_ground_truth")
        schema = None
        for node in self.nodes:
            if node.has_index(query.index):
                schema = node.indices[query.index].schema
                break
        if schema is None:
            raise KeyError(f"no node has index {query.index}")
        rect = query.normalized_rect(schema)
        return {
            record.key
            for record in self.ground_truth.get(query.index, ())
            if rect_contains_point(rect, schema.normalize(record.values))
        }

    # ------------------------------------------------------------------
    # Storage distribution (Figure 13)
    # ------------------------------------------------------------------
    def storage_distribution(self, index: str) -> Dict[str, int]:
        """Primary records per node for one index (replicas excluded)."""
        out = {}
        for node in self.live_nodes():
            state = node.indices.get(index)
            out[node.address] = len(state.store) if state else 0
        return out

    def sibling_fetches(self) -> int:
        """Sub-queries, cluster-wide, that fetched through a sibling pointer."""
        return sum(node.sibling_fetches for node in self.nodes)

    def ring_recoveries(self) -> int:
        """Expanding-ring searches started, cluster-wide."""
        return sum(node.ring_recoveries for node in self.nodes)

    def ring_waits(self) -> int:
        """Routed ops, cluster-wide, that parked on a ring already in flight."""
        return sum(node.ring_waits for node in self.nodes)
