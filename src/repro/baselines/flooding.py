"""Query-flooding architecture: data stays at monitors, queries go to all.

Insertions are free of network cost (a monitor stores its own summaries),
but every query is evaluated at every node — cheap storage, expensive and
poorly scaling queries under load, exactly the trade-off Section 2.1
describes.

Local scans run on the same columnar store as MIND nodes, so architecture
ablations compare routing strategies, not scan implementations.
"""

from typing import Dict, List

from repro.baselines.common import BaselineNode, BaselineSystem
from repro.core.metrics import QueryMetric
from repro.core.query import RangeQuery
from repro.core.records import Record


class QueryFloodingSystem(BaselineSystem):
    """Flood each query to every monitor; answers return directly."""

    def _wire(self) -> None:
        self._pending: Dict[str, Dict] = {}
        for node in self.nodes:
            node.handlers["flood_query"] = self._make_query_handler(node)
            node.handlers["flood_reply"] = self._on_reply

    # ------------------------------------------------------------------
    def _insert(self, record: Record, origin: str, callback) -> None:
        metric = self._new_insert_metric(origin)
        node = self.by_address[origin]

        def done() -> None:
            metric.end = self.sim.now
            metric.success = True
            metric.hops = 0
            callback(metric)

        node.local_insert(record, done)

    def _query(self, query: RangeQuery, origin: str, callback) -> None:
        metric = self._new_query_metric(origin)
        qid = metric.op_id
        others = [n.address for n in self.nodes if n.address != origin]
        self._pending[qid] = {
            "metric": metric,
            "callback": callback,
            "awaiting": set(others) | {origin},
            "records": {},
        }
        wire = query.to_wire()
        node = self.by_address[origin]
        for addr in others:
            node.send(addr, "flood_query", {"qid": qid, "query": wire, "origin": origin})
        # The originator evaluates its own store too.
        node.local_query(query, lambda recs: self._absorb(qid, origin, recs))

    def _make_query_handler(self, node: BaselineNode):
        def handler(msg) -> None:
            query = RangeQuery.from_wire(msg.payload["query"])
            qid = msg.payload["qid"]
            origin = msg.payload["origin"]

            def done(records: List[Record]) -> None:
                node.send(
                    origin,
                    "flood_reply",
                    {"qid": qid, "responder": node.address, "records": [r.to_wire() for r in records]},
                    size_bytes=150 + 120 * len(records),
                )

            node.local_query(query, done)

        return handler

    def _on_reply(self, msg) -> None:
        payload = msg.payload
        records = [Record.from_wire(w) for w in payload["records"]]
        self._absorb(payload["qid"], payload["responder"], records)

    def _absorb(self, qid: str, responder: str, records: List[Record]) -> None:
        pending = self._pending.get(qid)
        if pending is None:
            return
        metric: QueryMetric = pending["metric"]
        metric.nodes_visited.add(responder)
        for r in records:
            pending["records"][r.key] = r
        pending["awaiting"].discard(responder)
        if not pending["awaiting"]:
            del self._pending[qid]
            metric.end = self.sim.now
            metric.records = len(pending["records"])
            metric.record_keys = set(pending["records"])
            metric.results = list(pending["records"].values())
            metric.complete = True
            metric.nodes_visited.discard(metric.origin)
            pending["callback"](metric)
