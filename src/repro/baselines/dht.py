"""Uniform-hash DHT baseline: load-balanced storage, no locality.

Records hash uniformly onto nodes (as a conventional DHT would place
them), which balances storage for free — but a multi-dimensional *range*
query can say nothing about where matching records live, so it must
contact every node.  This is the contrast that motivates MIND's
locality-preserving embedding (Section 2.2's routing-structure decision
and the related-work discussion of DHT-based range search).

That broadcast is exactly the query-flooding baseline's scatter/gather,
so the query half (``flood_query`` / ``flood_reply``) is inherited from
:class:`~repro.baselines.flooding.QueryFloodingSystem`; only placement
differs.

Local scans run on the same columnar store as MIND nodes, so architecture
ablations compare routing strategies, not scan implementations.
"""

import hashlib

from repro.baselines.flooding import QueryFloodingSystem
from repro.core.records import Record


def _hash_to_index(key: int, buckets: int) -> int:
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % buckets


class UniformHashSystem(QueryFloodingSystem):
    """Hash-partitioned storage; range queries broadcast to all nodes."""

    def _wire(self) -> None:
        super()._wire()
        for node in self.nodes:
            node.handlers["h_store"] = self._make_store_handler(node)
            node.handlers["h_store_ack"] = self._on_store_ack

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
