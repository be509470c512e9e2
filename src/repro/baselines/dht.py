"""Uniform-hash DHT baseline: load-balanced storage, no locality.

Records hash uniformly onto nodes (as a conventional DHT would place
them), which balances storage for free — but a multi-dimensional *range*
query can say nothing about where matching records live, so it must
contact every node.  This is the contrast that motivates MIND's
locality-preserving embedding (Section 2.2's routing-structure decision
and the related-work discussion of DHT-based range search).

Local scans run on the same columnar store as MIND nodes, so architecture
ablations compare routing strategies, not scan implementations.
"""

import hashlib
from typing import Dict, List

from repro.baselines.common import BaselineSystem
from repro.core.query import RangeQuery
from repro.core.records import Record


def _hash_to_index(key: int, buckets: int) -> int:
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % buckets


class UniformHashSystem(BaselineSystem):
    """Hash-partitioned storage; range queries broadcast to all nodes."""

    def _wire(self) -> None:
        self._pending: Dict[str, Dict] = {}
        for node in self.nodes:
            node.handlers["h_store"] = self._make_store_handler(node)
            node.handlers["h_store_ack"] = self._on_store_ack
            node.handlers["h_query"] = self._make_query_handler(node)
            node.handlers["h_reply"] = self._on_reply

    def owner_of(self, record: Record) -> str:
        """The node a record hashes to (uniform, locality-free)."""
        return self.nodes[_hash_to_index(record.key, len(self.nodes))].address

    # ------------------------------------------------------------------
    def _insert(self, record: Record, origin: str, callback) -> None:
        metric = self._new_insert_metric(origin)
        self._pending[metric.op_id] = {"metric": metric, "callback": callback}
        owner = self.owner_of(record)
        if owner == origin:
            self.by_address[origin].local_insert(
                record, lambda: self._finish_insert(metric.op_id, hops=0)
            )
        else:
            self.by_address[origin].send(
                owner,
                "h_store",
                {"op_id": metric.op_id, "origin": origin, "record": record.to_wire()},
                size_bytes=180,
            )

    def _make_store_handler(self, node):
        def handler(msg) -> None:
            payload = msg.payload
            record = Record.from_wire(payload["record"])
            node.local_insert(
                record,
                lambda: node.send(payload["origin"], "h_store_ack", {"op_id": payload["op_id"]}),
            )

        return handler

    def _on_store_ack(self, msg) -> None:
        self._finish_insert(msg.payload["op_id"], hops=1)

    def _finish_insert(self, op_id: str, hops: int) -> None:
        pending = self._pending.pop(op_id, None)
        if pending is None:
            return
        metric = pending["metric"]
        metric.end = self.sim.now
        metric.success = True
        metric.hops = hops
        pending["callback"](metric)

    # ------------------------------------------------------------------
    def _query(self, query: RangeQuery, origin: str, callback) -> None:
        metric = self._new_query_metric(origin)
        qid = metric.op_id
        self._pending[qid] = {
            "metric": metric,
            "callback": callback,
            "awaiting": {n.address for n in self.nodes},
            "records": {},
        }
        node = self.by_address[origin]
        wire = query.to_wire()
        for other in self.nodes:
            if other.address != origin:
                node.send(other.address, "h_query", {"qid": qid, "origin": origin, "query": wire})
        node.local_query(query, lambda recs: self._absorb(qid, origin, recs))

    def _make_query_handler(self, node):
        def handler(msg) -> None:
            payload = msg.payload
            query = RangeQuery.from_wire(payload["query"])

            def done(records: List[Record]) -> None:
                node.send(
                    payload["origin"],
                    "h_reply",
                    {
                        "qid": payload["qid"],
                        "responder": node.address,
                        "records": [r.to_wire() for r in records],
                    },
                    size_bytes=150 + 120 * len(records),
                )

            node.local_query(query, done)

        return handler

    def _on_reply(self, msg) -> None:
        records = [Record.from_wire(w) for w in msg.payload["records"]]
        self._absorb(msg.payload["qid"], msg.payload["responder"], records)

    def _absorb(self, qid: str, responder: str, records: List[Record]) -> None:
        pending = self._pending.get(qid)
        if pending is None:
            return
        metric = pending["metric"]
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
