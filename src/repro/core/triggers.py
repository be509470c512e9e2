"""Continuous queries ("triggers") over MIND indices.

The paper notes (Section 2, footnote) that triggers are supported "with
minor mechanistic modifications" to the query path.  This module provides
those mechanics, and :class:`Triggers` runs them for one node:

* a trigger is a standing :class:`~repro.core.query.RangeQuery` plus a
  subscriber address and an optional expiry;
* registration routes exactly like a query — to the prefix region, split
  into sub-registrations at region boundaries — so every node whose region
  intersects the trigger's hyper-rectangle ends up holding it;
* at insert time the storing node matches the new record against its
  resident triggers and notifies subscribers directly;
* triggers ride along in the join state transfer, so region hand-offs keep
  coverage.
"""

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set

from repro.core.ops import RECORD_WIRE_BYTES, _Op
from repro.core.query import RangeQuery
from repro.core.querying import _split_to_complement
from repro.core.records import Record
from repro.net.message import Message

_TRIGGER_IDS = itertools.count(1)


@dataclass
class Trigger:
    """A standing query owned by a subscriber node."""

    trigger_id: str
    query: RangeQuery
    subscriber: str
    expires_at: Optional[float] = None

    def live(self, now: float) -> bool:
        return self.expires_at is None or now < self.expires_at

    def to_wire(self) -> Dict[str, Any]:
        return {
            "trigger_id": self.trigger_id,
            "query": self.query.to_wire(),
            "subscriber": self.subscriber,
            "expires_at": self.expires_at,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Trigger":
        return cls(
            trigger_id=data["trigger_id"],
            query=RangeQuery.from_wire(data["query"]),
            subscriber=data["subscriber"],
            expires_at=data["expires_at"],
        )


def new_trigger_id(owner: str) -> str:
    return f"trig:{owner}:{next(_TRIGGER_IDS)}"


@dataclass
class TriggerTable:
    """Per-node set of resident triggers, keyed by index name."""

    by_index: Dict[str, Dict[str, Trigger]] = field(default_factory=dict)

    def install(self, index: str, trigger: Trigger) -> bool:
        """Returns False when the trigger was already resident."""
        table = self.by_index.setdefault(index, {})
        if trigger.trigger_id in table:
            return False
        table[trigger.trigger_id] = trigger
        return True

    def remove(self, index: str, trigger_id: str) -> None:
        self.by_index.get(index, {}).pop(trigger_id, None)

    def matching(self, index: str, schema, record, now: float):
        """Live triggers on ``index`` whose query matches ``record``."""
        out = []
        expired = []
        for trigger in self.by_index.get(index, {}).values():
            if not trigger.live(now):
                expired.append(trigger.trigger_id)
            elif trigger.query.matches(schema, record):
                out.append(trigger)
        for trigger_id in expired:
            self.remove(index, trigger_id)
        return out

    def all_wire(self):
        return [
            {"index": index, "trigger": trigger.to_wire()}
            for index, table in self.by_index.items()
            for trigger in table.values()
        ]

    def count(self, index: Optional[str] = None) -> int:
        if index is not None:
            return len(self.by_index.get(index, {}))
        return sum(len(t) for t in self.by_index.values())


@dataclass
class _TriggerReg(_Op):
    """One trigger registration: the regions that have not acknowledged."""

    tag = "op:trigger-reg"
    pending: Set[str]
    installed: Optional[Callable[[bool], None]]
    answered: Set[str] = field(default_factory=set)
    #: A region's routing failed.
    failed: bool = False

    def finish(self, now: float) -> None:
        """Installed once every region acknowledged and none failed.  An
        open registration always has a pending region, so its deadline
        and a crash report ``False``."""
        if self.installed is not None:
            self.installed(not (self.failed or self.pending))


class Triggers:
    """The trigger protocol of one node, which it reads through ``self.node``:
    registration, install, fire and drop."""

    def __init__(self, node: Any) -> None:
        self.node = node
        self.sim = node.sim
        self.ops = node.ops
        #: The triggers resident here, and the callbacks of those this
        #: node subscribed to.
        self.table = TriggerTable()
        self.subs: Dict[str, Callable[[Record], None]] = {}
        self.handlers = {
            "trigger_installed": self._on_trigger_installed,
            "trigger_fire": self._on_trigger_fire,
            "trigger_drop": self._on_trigger_drop,
        }
        self._routed = {"trigger_install": (self._arrive_install, self._unroutable)}

    def create(
        self, query: RangeQuery, callback: Callable[[Record], None],
        expires_at: Optional[float] = None, installed: Optional[Callable[[bool], None]] = None,
    ) -> str:
        """Register a standing query; ``callback`` fires per matching insert.

        Registration routes like a query: it reaches every node whose
        region intersects the trigger's hyper-rectangle.  ``installed``
        (if given) is called with True once every region acknowledged, or
        False if part of the registration failed.
        """
        node = self.node
        state = node._state(query.index)
        trigger = Trigger(new_trigger_id(node.address), query, node.address, expires_at)
        self.subs[trigger.trigger_id] = callback
        rect = query.normalized_rect(state.schema)
        latest_valid_from = state.versions.versions[-1][0]
        prefix = state.versions.latest().query_prefix(rect)
        reg_id = node._next_op_id()
        # Deadline: without it a registration whose final ack is lost (the
        # installing node answered but the ack's sender died, or this
        # originator was down when it arrived) strands forever — no
        # attempt timer covers trigger installs.
        deadline = self.sim.schedule(node.mind_config.query_timeout_s, self.ops.end, reg_id)
        self.ops.open(reg_id, _TriggerReg({prefix.bits}, installed), deadline)
        inner = {
            "index": query.index,
            "reg_id": reg_id,
            "rect": [list(side) for side in rect],
            "version": latest_valid_from,
            "trigger": trigger.to_wire(),
        }
        node.route(prefix, "trigger_install", inner, op_id=("trig", reg_id, prefix.bits))
        return trigger.trigger_id

    def drop(self, index: str, trigger_id: str) -> None:
        """Remove a trigger everywhere (flooded, like index drops)."""
        self.subs.pop(trigger_id, None)
        self.table.remove(index, trigger_id)
        self.node._flood("trigger_drop", {"index": index, "trigger_id": trigger_id})

    def install_failed(self, reg_id: str, region: str) -> None:
        """A failure report for one region of a registration."""
        reg = self.ops.get(reg_id)
        if reg is not None:
            reg.failed = True
            reg.pending.discard(region)
            if not reg.pending:
                self.ops.end(reg_id)

    def _unroutable(self, envelope: Dict[str, Any], reason: str) -> None:
        payload = {
            "kind": "trigger_install", "op_id": envelope["inner"]["reg_id"],
            "region": envelope["target"],
        }
        self.node._reply(envelope["origin"], "op_failed", payload, self.node._apply_op_failure)

    def _arrive_install(self, envelope: Dict[str, Any]) -> None:
        node = self.node
        state = node._arrival_index(envelope)
        if state is None:
            return
        inner = envelope["inner"]
        qrect = tuple(map(tuple, inner["rect"]))
        spawned = _split_to_complement(
            node, envelope, state, qrect, lambda bits: ("trig", inner["reg_id"], bits)
        )
        self.table.install(inner["index"], Trigger.from_wire(inner["trigger"]))
        ack = {"reg_id": inner["reg_id"], "region": envelope["target"], "spawned": spawned}
        node._reply(envelope["origin"], "trigger_installed", ack, self._apply_trigger_installed)

    def _on_trigger_installed(self, msg: Message) -> None:
        self._apply_trigger_installed(msg.payload)

    def _apply_trigger_installed(self, payload: Dict[str, Any]) -> None:
        reg = self.ops.get(payload["reg_id"])
        if reg is None:
            return
        region = payload["region"]
        if region not in reg.answered:
            reg.answered.add(region)
            reg.pending.discard(region)
            for spawned in payload["spawned"]:
                if spawned not in reg.answered:
                    reg.pending.add(spawned)
        if not reg.pending:
            self.ops.end(payload["reg_id"])

    def fire(self, state, record: Record) -> None:
        """Notify the subscribers of the live triggers ``record`` matches."""
        node = self.node
        name = state.schema.name
        for trigger in self.table.matching(name, state.schema, record, self.sim.now):
            payload = {"trigger_id": trigger.trigger_id, "index": name, "record": record.to_wire()}
            node._reply(
                trigger.subscriber, "trigger_fire", payload, self._deliver_trigger_fire,
                size_bytes=RECORD_WIRE_BYTES,
            )

    def _on_trigger_fire(self, msg: Message) -> None:
        self._deliver_trigger_fire(msg.payload)

    def _deliver_trigger_fire(self, payload: Dict[str, Any]) -> None:
        callback = self.subs.get(payload["trigger_id"])
        if callback is not None:
            callback(Record.from_wire(payload["record"]))

    def _on_trigger_drop(self, msg: Message) -> None:
        payload = msg.payload
        if self.node._flood("trigger_drop", dict(payload)):
            self.table.remove(payload["index"], payload["trigger_id"])
