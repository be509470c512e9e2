"""Data insertion (Section 3.5).

A record is embedded to a code and routed to the owner, which stores it
through its DAC, acknowledges it to the originator and replicates it to
hypercube neighbors.  The originator retries and fails over along a
:class:`~repro.core.ops._RetryLadder` until the ack arrives.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.metrics import InsertMetric
from repro.core.ops import RECORD_WIRE_BYTES, _Op, _RetryLadder
from repro.core.records import Record
from repro.core.replication import replica_targets
from repro.net.message import Message
from repro.overlay.code import intern_code


@dataclass
class _InsertOp(_Op):
    """Originator-side state of one insert: what to store, and its ladder."""

    tag = "op:insert"
    metric: InsertMetric
    callback: Optional[Callable[[InsertMetric], None]]
    index: str
    record: Record
    replication: int
    ladder: _RetryLadder

    def finish(self, now: float, success: bool = False, hops: Optional[int] = None) -> None:
        """With the defaults, failed (the deadline, a crash, or every
        target exhausted)."""
        self.ladder.cancel()
        self.metric.end = now
        self.metric.success = success
        self.metric.hops = hops
        if self.callback is not None:
            self.callback(self.metric)


class Insertion:
    """The insert protocol of one node, which it reads through ``self.node``."""

    def __init__(self, node: Any) -> None:
        self.node = node
        self.sim = node.sim
        self.cfg = node.mind_config
        self.ops = node.ops
        #: Replica destination memo: the addresses depend only on the
        #: link set, own code, and replication degree — not on the record
        #: — so the per-stored-record scan is cached on the links() key.
        self._replica_dests_key: Optional[tuple] = None
        self._replica_dests: List[str] = []
        self.handlers = {"insert_ack": self._on_insert_ack, "replica_store": self._on_replica_store}
        self._routed = {"insert": (self._arrive_insert, self._unroutable)}

    def insert(self, index: str, record: Record, callback=None) -> str:
        node = self.node
        state = node._state(index)
        time_dim = state.schema.time_dimension()
        t_ref = record.values[time_dim] if time_dim is not None else self.sim.now
        code = state.versions.for_time(t_ref).point_code(record.values)
        op_id = node._next_op_id()
        metric = InsertMetric(op_id=op_id, index=index, origin=node.address, start=self.sim.now)
        ladder = _RetryLadder(
            metric, code, self.sim.schedule, self.cfg, node._rng, self._launch,
            self.attempt_failed, (op_id,),
        )
        op = _InsertOp(metric, callback, index, record, state.replication, ladder)
        self.ops.open(op_id, op, self.sim.schedule(self.cfg.insert_timeout_s, self.ops.end, op_id))
        self._launch(op_id)
        return op_id

    def _launch(self, op_id: str) -> None:
        op = self.ops.get(op_id)
        if op is None:
            return
        stamp = op.ladder.open_attempt()
        inner = {"index": op.index, "record": op.record.to_wire(), "op_id": op_id, "attempt": stamp}
        self.node.route(
            op.ladder.target, "insert", inner, op_id=("ins", op_id, stamp), tuples=1, attempt=stamp
        )

    def attempt_failed(self, op_id: str, stamp: int) -> None:
        """Attempt ``stamp`` is dead (a failure report, or its watchdog):
        back off and retry, fail over to the next replica-holder region, or
        give up when both are exhausted."""
        op = self.ops.get(op_id)
        if op is None or not op.ladder.current(stamp):
            return  # finished, or a stale failure from a superseded attempt
        ladder = op.ladder
        if ladder.retry():
            return
        # The originator does not know the (dead) owner's exact code
        # length; its own depth is the best estimate in a balanced trie,
        # and the flips land in the takeover regions.
        node = self.node
        depth = min(len(node.code), len(ladder.primary)) if node.in_overlay() else None
        if ladder.fail_over(op.replication, depth):
            self._launch(op_id)
        else:
            self.ops.end(op_id)

    def _unroutable(self, envelope: Dict[str, Any], reason: str) -> None:
        inner = envelope["inner"]
        payload = {"kind": "insert", "op_id": inner["op_id"], "attempt": inner["attempt"]}
        self.node._reply(envelope["origin"], "op_failed", payload, self.node._apply_op_failure)

    def _arrive_insert(self, envelope: Dict[str, Any]) -> None:
        state = self.node._arrival_index(envelope)
        if state is None:
            return
        record = Record.from_wire(envelope["inner"]["record"])
        state.dac.submit(
            state.dac.insert_cost(1), self._complete_insert_store, state, record, envelope
        )

    def _complete_insert_store(self, state, record: Record, envelope: Dict[str, Any]) -> None:
        node = self.node
        if not node.in_overlay():
            # We accepted the insert but left the overlay between DAC submit
            # and completion.  Tell the originator now — it turns this into
            # a retry/failover immediately instead of waiting out the full
            # insert timeout.  (A *crashed* node can't send; the
            # originator's attempt watchdog covers that case.)
            node.on_route_failed(envelope, "left-overlay")
            return
        if not node.covers(intern_code(envelope["target"])):
            # A split committed while the insert waited in the DAC and the
            # record's half went to the joiner: route it on.  Storing it
            # here would put a post-split row where only the sibling
            # pointer's pre-split bound could reach it.
            node._route_step(envelope)
            return
        if state.store.insert(record):
            node.records_stored += 1
            node.triggers.fire(state, record)
        ack = {"op_id": envelope["inner"]["op_id"], "hops": envelope["hops"]}
        node._reply(envelope["origin"], "insert_ack", ack, self._apply_insert_ack)
        self._replicate(state, record)

    def _replicate(self, state, record: Record) -> None:
        node = self.node
        if state.replication == 0 or node.code is None or len(node.code) == 0:
            return
        links = node.links()
        key = (node._links_key, node.code, state.replication)
        if key != self._replica_dests_key:
            dests: List[str] = []
            sent: Set[str] = set()
            for target in replica_targets(node.code, state.replication):
                for addr, code in links:
                    if code.comparable(target) and addr not in sent:
                        sent.add(addr)
                        dests.append(addr)
            self._replica_dests_key = key
            self._replica_dests = dests
        wire = {"index": state.schema.name, "record": record.to_wire()}
        for addr in self._replica_dests:
            node._send(addr, "replica_store", wire, size_bytes=RECORD_WIRE_BYTES, tuples=1)

    def _on_replica_store(self, msg: Message) -> None:
        state = self.node.indices.get(msg.payload["index"])
        if state is None:
            return
        record = Record.from_wire(msg.payload["record"])
        state.dac.submit(state.dac.replica_cost(1), self._complete_replica_store, state, record)

    def _complete_replica_store(self, state, record: Record) -> None:
        node = self.node
        if node.in_overlay() and state.store.insert(record):
            node.replicas_stored += 1

    def _on_insert_ack(self, msg: Message) -> None:
        self._apply_insert_ack(msg.payload)

    def _apply_insert_ack(self, payload: Dict[str, Any]) -> None:
        self.ops.end(payload["op_id"], True, payload["hops"])
