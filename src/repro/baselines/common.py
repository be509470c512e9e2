"""Shared machinery for the baseline architectures.

Each baseline deploys plain storage nodes (no overlay) on the same
simulated WAN as MIND, with the same DAC service model, so latency and
cost comparisons are apples-to-apples.
"""

import itertools
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.metrics import InsertMetric, MetricsCollector, QueryMetric
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import IndexSchema
from repro.net import protocol
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.topology import Site
from repro.sim.kernel import Simulator
from repro.storage.dac import DacConfig, DataAccessController
from repro.storage.memtable import TimePartitionedStore


class BaselineNode:
    """A storage node without overlay routing."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        address: str,
        schema: IndexSchema,
    ) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.schema = schema
        self.store = TimePartitionedStore(schema)
        self.dac = DataAccessController(sim, DacConfig())
        #: ``kind -> handler``, filled in by the system that wires the node.
        self.handlers: Dict[str, Callable[[Message], None]] = {}
        #: Flat table indexed by ``Message.kind_id``, built from
        #: ``handlers`` on the first delivery.
        self._dispatch_table: Optional[List[Optional[Callable[[Message], None]]]] = None
        network.register(address, self._deliver)

    def _deliver(self, msg: Message) -> None:
        table = self._dispatch_table
        if table is None:
            table = self._dispatch_table = protocol.dispatch_table(self.handlers)
        handler = table[msg.kind_id]
        if handler is None:
            raise ValueError(f"{self.address}: unhandled baseline message {msg.kind!r}")
        handler(msg)

    def send(self, dst: str, kind: str, payload, size_bytes: int = 256) -> None:
        """Fire a message at another baseline node."""
        self.network.send(self.address, dst, kind, payload, size_bytes=size_bytes)

    def local_query(self, query: RangeQuery, done: Callable[[List[Record]], None]) -> None:
        """Evaluate a query against the local store via the DAC queue."""
        rect = query.normalized_rect(self.schema)
        time_dim = self.schema.time_dimension()
        t_range = None
        if time_dim is not None:
            lo, hi = query.interval(self.schema.attributes[time_dim].name)
            if lo is not None and hi is not None:
                t_range = (lo, hi)
        matches = self.store.query(rect, t_range)
        self.dac.submit(self.dac.query_cost(len(matches)), done, matches)

    def local_insert(self, record: Record, done: Callable[[], None]) -> None:
        """Store a record locally via the DAC queue."""
        self.dac.submit(self.dac.insert_cost(1), self._finish_insert, record, done)

    def _finish_insert(self, record: Record, done: Callable[[], None]) -> None:
        self.store.insert(record)
        done()


class BaselineSystem:
    """Base driver: deploys nodes, runs blocking insert/query helpers."""

    def __init__(
        self,
        sites: Sequence[Site],
        schema: IndexSchema,
        seed: int = 0,
    ) -> None:
        self.sim = Simulator(seed)
        self.schema = schema
        self.sites = {s.name: s for s in sites}
        self.network = SimNetwork(self.sim, self.sites)
        self.nodes = [BaselineNode(self.sim, self.network, s.name, schema) for s in sites]
        self.by_address = {n.address: n for n in self.nodes}
        self.metrics = MetricsCollector()
        self._op_counter = itertools.count(1)
        self._wire()

    def _wire(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def insert_now(self, record: Record, origin: str, timeout_s: float = 60.0) -> InsertMetric:
        """Insert and advance virtual time until the op completes."""
        done: List[InsertMetric] = []
        self._insert(record, origin, done.append)
        self.sim.run_until_predicate(lambda: bool(done), timeout=timeout_s)
        if not done:
            raise TimeoutError("baseline insert did not complete")
        self.metrics.inserts.append(done[0])
        return done[0]

    def query_now(self, query: RangeQuery, origin: str, timeout_s: float = 60.0) -> QueryMetric:
        """Query and advance virtual time until the result arrives."""
        done: List[QueryMetric] = []
        self._query(query, origin, done.append)
        self.sim.run_until_predicate(lambda: bool(done), timeout=timeout_s)
        if not done:
            raise TimeoutError("baseline query did not complete")
        self.metrics.queries.append(done[0])
        return done[0]

    def schedule_insert(self, record: Record, origin: str, at_time: float) -> None:
        """Enqueue an insertion at an absolute virtual time."""
        self.sim.schedule_at(at_time, self._insert, record, origin, self.metrics.inserts.append)

    def schedule_query(self, query: RangeQuery, origin: str, at_time: float) -> None:
        """Enqueue a query at an absolute virtual time."""
        self.sim.schedule_at(at_time, self._query, query, origin, self.metrics.queries.append)

    def advance(self, seconds: float) -> None:
        """Run the simulation forward by ``seconds``."""
        self.sim.run_until(self.sim.now + seconds)

    # ------------------------------------------------------------------
    def _insert(self, record: Record, origin: str, callback) -> None:
        raise NotImplementedError

    def _query(self, query: RangeQuery, origin: str, callback) -> None:
        raise NotImplementedError

    def _new_insert_metric(self, origin: str) -> InsertMetric:
        return InsertMetric(
            op_id=f"{origin}:{next(self._op_counter)}",
            index=self.schema.name,
            origin=origin,
            start=self.sim.now,
        )

    def _new_query_metric(self, origin: str) -> QueryMetric:
        return QueryMetric(
            op_id=f"{origin}:{next(self._op_counter)}",
            index=self.schema.name,
            origin=origin,
            start=self.sim.now,
        )
