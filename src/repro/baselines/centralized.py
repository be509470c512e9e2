"""Centralized architecture: one repository node holds every record.

Every monitor ships its summaries to the central server and every query is
answered there.  Queries are cheap in nodes-visited terms (one), but the
server and its access links carry the entire insertion volume — the
provisioning and redundancy problem Section 2.1 raises.

Local scans run on the same columnar store as MIND nodes, so architecture
ablations compare routing strategies, not scan implementations.
"""

from typing import Dict

from repro.baselines.common import BaselineSystem
from repro.core.query import RangeQuery
from repro.core.records import Record


class CentralizedSystem(BaselineSystem):
    """All data and all queries go to one designated server node."""

    def _wire(self) -> None:
        self.server = self.nodes[0].address
        self._pending: Dict[str, Dict] = {}
        server_node = self.by_address[self.server]
        server_node.handlers["c_insert"] = self._on_server_insert
        server_node.handlers["c_query"] = self._on_server_query
        for node in self.nodes:
            node.handlers["c_insert_ack"] = self._on_insert_ack
            node.handlers["c_query_reply"] = self._on_query_reply

    # ------------------------------------------------------------------
    def _insert(self, record: Record, origin: str, callback) -> None:
        metric = self._new_insert_metric(origin)
        self._pending[metric.op_id] = {"metric": metric, "callback": callback}
        if origin == self.server:
            node = self.by_address[self.server]
            node.local_insert(record, lambda: self._finish_insert(metric.op_id))
        else:
            self.by_address[origin].send(
                self.server,
                "c_insert",
                {"op_id": metric.op_id, "origin": origin, "record": record.to_wire()},
                size_bytes=180,
            )

    def _on_server_insert(self, msg) -> None:
        payload = msg.payload
        record = Record.from_wire(payload["record"])
        server = self.by_address[self.server]
        server.local_insert(
            record,
            lambda: server.send(payload["origin"], "c_insert_ack", {"op_id": payload["op_id"]}),
        )

    def _on_insert_ack(self, msg) -> None:
        self._finish_insert(msg.payload["op_id"])

    def _finish_insert(self, op_id: str) -> None:
        pending = self._pending.pop(op_id, None)
        if pending is None:
            return
        metric = pending["metric"]
        metric.end = self.sim.now
        metric.success = True
        metric.hops = 0 if metric.origin == self.server else 1
        pending["callback"](metric)

    # ------------------------------------------------------------------
    def _query(self, query: RangeQuery, origin: str, callback) -> None:
        metric = self._new_query_metric(origin)
        self._pending[metric.op_id] = {"metric": metric, "callback": callback}
        if origin == self.server:
            self.by_address[self.server].local_query(
                query, lambda recs: self._finish_query(metric.op_id, recs)
            )
        else:
            self.by_address[origin].send(
                self.server,
                "c_query",
                {"op_id": metric.op_id, "origin": origin, "query": query.to_wire()},
            )

    def _on_server_query(self, msg) -> None:
        payload = msg.payload
        query = RangeQuery.from_wire(payload["query"])
        server = self.by_address[self.server]

        def done(records) -> None:
            server.send(
                payload["origin"],
                "c_query_reply",
                {"op_id": payload["op_id"], "records": [r.to_wire() for r in records]},
                size_bytes=150 + 120 * len(records),
            )

        server.local_query(query, done)

    def _on_query_reply(self, msg) -> None:
        records = [Record.from_wire(w) for w in msg.payload["records"]]
        self._finish_query(msg.payload["op_id"], records)

    def _finish_query(self, op_id: str, records) -> None:
        pending = self._pending.pop(op_id, None)
        if pending is None:
            return
        metric = pending["metric"]
        metric.end = self.sim.now
        metric.records = len(records)
        metric.record_keys = {r.key for r in records}
        metric.results = list(records)
        metric.complete = True
        metric.nodes_visited = {self.server} - {metric.origin}
        pending["callback"](metric)
