"""The MIND node: index management on top of the hypercube overlay.

A :class:`MindNode` is an :class:`~repro.overlay.node.OverlayNode` that runs
the index lifecycle — ``create_index`` / ``drop_index`` flooded across the
overlay, with schemas and embedding versions handed to joiners — and
composes the paper's protocols, each in its own module:
:mod:`~repro.core.insertion`, :mod:`~repro.core.querying`,
:mod:`~repro.core.triggers` and :mod:`~repro.core.balance`'s histogram
collection.  Their open ops share one :class:`~repro.core.ops.OpTable`.
"""

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.balance import HistogramCollection
from repro.core.cuts import EvenCuts
from repro.core.embedding import Embedding
from repro.core.insertion import Insertion
from repro.core.metrics import InsertMetric, QueryMetric
from repro.core.ops import OpTable
from repro.core.query import RangeQuery
from repro.core.querying import Querying
from repro.core.records import Record
from repro.core.schema import IndexSchema
from repro.core.triggers import Trigger, Triggers
from repro.core.versioning import VersionedEmbedding
from repro.net.message import Message
from repro.overlay.code import Code
from repro.overlay.node import CONTROL_MSG_BYTES, OverlayConfig, OverlayNode
from repro.overlay.recovery import remember
from repro.storage.dac import DacConfig, DataAccessController
from repro.storage.memtable import TimePartitionedStore


@dataclass
class MindConfig:
    """Application-level tunables of a MIND node."""

    code_depth: int = 16
    insert_timeout_s: float = 90.0
    query_timeout_s: float = 90.0
    #: Attempts per routing target (the primary, then each replica-holder
    #: region) before the op fails over to the next target — with
    #: exponential backoff between attempts.
    retry_max_attempts: int = 3
    retry_backoff_base_s: float = 0.5
    retry_backoff_max_s: float = 8.0
    #: Watchdog per attempt: re-launches an insert / sub-query whose target
    #: died *after* arrival (so no routing failure ever comes back), and
    #: bounds a sibling fetch the same way.  Must comfortably exceed the
    #: ring-recovery worst case so the explicit failure path, when there
    #: is one, wins the race.
    attempt_timeout_s: float = 30.0
    dac: DacConfig = field(default_factory=DacConfig)


@dataclass
class IndexState:
    """Everything one node keeps for one index."""

    schema: IndexSchema
    versions: VersionedEmbedding
    replication: int
    store: TimePartitionedStore
    dac: DataAccessController


#: The payload key carrying each flooded kind's originator-unique id.
_FLOOD_ID_KEY = {
    "index_create": "flood_id",
    "index_version": "flood_id",
    "index_drop": "flood_id",
    "trigger_drop": "trigger_id",
    "histo_request": "req_id",
}


class MindNode(OverlayNode):
    """One MIND instance: overlay participant + index manager + storage."""

    def __init__(
        self,
        sim,
        network,
        address: str,
        config: Optional[OverlayConfig] = None,
        mind_config: Optional[MindConfig] = None,
        speed_factor: float = 1.0,
    ) -> None:
        super().__init__(sim, network, address, config=config, speed_factor=speed_factor)
        self.mind_config = mind_config or MindConfig()
        self.indices: Dict[str, IndexState] = {}
        self._op_counter = itertools.count(1)
        #: Flood ids draw from their own counter: op ids are printed in
        #: transcripts, so floods must not consume them.
        self._flood_counter = itertools.count(1)
        #: Every protocol's open ops, by id.
        self.ops = OpTable(sim, address)
        #: Flood dedupe keys, a bounded table (:func:`remember`) used as an
        #: ordered set.
        self._seen_floods: Dict[Tuple, None] = {}
        self.records_stored = 0
        self.replicas_stored = 0
        self.sibling_fetches = 0
        self.insertion = Insertion(self)
        self.querying = Querying(self)
        self.triggers = Triggers(self)
        self.histograms = HistogramCollection(self)
        for protocol in (self.insertion, self.querying, self.triggers):
            self._routed.update(protocol._routed)

    def extra_handlers(self):
        return {
            "op_failed": self._on_op_failed,
            "index_create": self._on_index_create,
            "index_version": self._on_index_version,
            "index_drop": self._on_index_drop,
            **self.insertion.handlers,
            **self.querying.handlers,
            **self.triggers.handlers,
            **self.histograms.handlers,
        }

    def insert_record(
        self, index: str, record: Record, callback: Optional[Callable[[InsertMetric], None]] = None
    ) -> str:
        """Insert a record into an index from this node; returns the op id."""
        return self.insertion.insert(index, record, callback)

    def query_index(
        self, query: RangeQuery, callback: Optional[Callable[[QueryMetric], None]] = None
    ) -> str:
        """Issue a multi-dimensional range query from this node.

        A query whose time interval spans several daily index versions is
        split into one sub-operation per version — each version has its
        own cut tree, so "the relevant index versions ... will be evident
        from the query itself" (Section 3.7).  Results merge under one op.
        """
        return self.querying.query(query, callback)

    def _next_op_id(self) -> str:
        return f"{self.address}:{next(self._op_counter)}"

    def _next_flood_id(self) -> str:
        return f"{self.address}:{next(self._flood_counter)}"

    def _reply(self, origin: str, kind: str, payload: Dict[str, Any], apply, **send_kw) -> None:
        """Hand a result to the node that started the op: applied in place
        when that is this node, sent as a ``kind`` message otherwise."""
        if origin == self.address:
            apply(payload)
        else:
            self._send(origin, kind, payload, **send_kw)

    def _flood(self, kind: str, payload: Dict[str, Any]) -> bool:
        """Deliver a control message to every overlay node via link flooding.

        Returns whether the flood is new to this node: a handler re-floods
        a copy of what it received and applies it only on ``True``, so a
        duplicate is neither applied nor sent on.
        """
        key = (kind, payload[_FLOOD_ID_KEY[kind]])
        if key in self._seen_floods:
            return False
        # A re-flood of a key the bound evicted re-sends one round of
        # control messages and stops at neighbors that still remember it:
        # duplicate-delivery safe, since every flood handler is idempotent.
        remember(self._seen_floods, key)
        for addr, _ in self.links():
            self._send(addr, kind, payload, size_bytes=CONTROL_MSG_BYTES * 2)
        return True

    def crash(self) -> None:
        """Fail-stop: every open op dies with the process (:meth:`OpTable.crash`).
        Durable state — stores, indices, installed triggers — survives like
        the prototype's MySQL, which churn recall depends on."""
        super().crash()
        self.ops.crash()

    # ==================================================================
    # Index lifecycle (create_index / drop_index)
    # ==================================================================
    def create_index(self, schema: IndexSchema, strategy=None, replication: int = 0) -> None:
        """Create and flood a new index from this node.

        ``strategy`` defaults to even cuts; pass a
        :class:`~repro.core.cuts.BalancedCuts` built from a histogram for
        the load-balanced embedding.  Codes are ``mind_config.code_depth``
        bits deep.
        """
        if schema.name in self.indices:
            raise ValueError(f"index {schema.name} already exists")
        embedding = Embedding(
            schema, strategy or EvenCuts(), code_depth=self.mind_config.code_depth
        )
        # Install what every other node will: the instance the wire form
        # resolves to, so the whole cluster derives one cut tree.
        versions = VersionedEmbedding(Embedding.from_wire(embedding.to_wire()))
        payload = {
            "flood_id": self._next_flood_id(),
            "index": schema.name,
            "versions": versions.to_wire(),
            "replication": replication,
        }
        self._install_index(schema.name, versions, replication)
        self._flood("index_create", payload)

    def drop_index(self, name: str) -> None:
        if name not in self.indices:
            raise KeyError(f"unknown index {name}")
        self.indices.pop(name)
        self._flood("index_drop", {"flood_id": self._next_flood_id(), "index": name})

    def install_version(self, index: str, valid_from: float, embedding: Embedding) -> None:
        """Install a new daily embedding version and flood it (Section 3.7)."""
        state = self._state(index)
        wire = embedding.to_wire()
        state.versions.install(valid_from, Embedding.from_wire(wire))
        payload = {
            "flood_id": self._next_flood_id(),
            "index": index,
            "valid_from": valid_from,
            "embedding": wire,
        }
        self._flood("index_version", payload)

    def has_index(self, name: str) -> bool:
        return name in self.indices

    def has_version_at(self, name: str, valid_from: float) -> bool:
        state = self.indices.get(name)
        if state is None:
            return False
        return any(vf == valid_from for vf, _ in state.versions.versions)

    def _state(self, index: str) -> IndexState:
        state = self.indices.get(index)
        if state is None:
            raise KeyError(f"index {index} is not installed at {self.address}")
        return state

    def _install_from_wire(self, entry: Dict[str, Any]) -> None:
        """Install an index as a flood or a split host describes it, unless
        it is here already."""
        if entry["index"] not in self.indices:
            self._install_index(
                entry["index"], VersionedEmbedding.from_wire(entry["versions"]), entry["replication"]
            )

    def _install_index(self, name: str, versions: VersionedEmbedding, replication: int) -> None:
        schema = versions.latest().schema
        self.indices[name] = IndexState(
            schema=schema,
            versions=versions,
            replication=replication,
            store=TimePartitionedStore(schema),
            dac=DataAccessController(self.sim, self.mind_config.dac, self.speed_factor),
        )

    def _on_index_create(self, msg: Message) -> None:
        # Copy-on-send: reflooding the received payload object would share
        # one container across every node the flood reaches.
        if self._flood("index_create", dict(msg.payload)):
            self._install_from_wire(msg.payload)

    def _on_index_version(self, msg: Message) -> None:
        payload = msg.payload
        name, valid_from = payload["index"], payload["valid_from"]
        if not self._flood("index_version", dict(payload)):
            return
        state = self.indices.get(name)
        if state is not None and not self.has_version_at(name, valid_from):
            state.versions.install(valid_from, Embedding.from_wire(payload["embedding"]))

    def _on_index_drop(self, msg: Message) -> None:
        if self._flood("index_drop", dict(msg.payload)):
            self.indices.pop(msg.payload["index"], None)

    # ==================================================================
    # Hooks from the overlay layer
    # ==================================================================
    def on_split_transfer_state(self, old_code: Code, joiner_code: Code) -> Dict[str, Any]:
        return {
            "indices": [
                {
                    "index": name,
                    "versions": state.versions.to_wire(),
                    "replication": state.replication,
                    # What the joiner's sibling pointer points at: every row
                    # here predates the split (a later arrival for the
                    # joiner's half is routed on, not stored).
                    "held_until": state.store.newest_bucket_end(),
                }
                for name, state in self.indices.items()
            ],
            "floods": sorted((list(k) for k in self._seen_floods), key=str),
            "triggers": self.triggers.table.all_wire(),
        }

    def on_split_received_state(self, state: Dict[str, Any]) -> None:
        for entry in state.get("indices", ()):
            self._install_from_wire(entry)
            if entry["held_until"] is not None:
                self.sibling_pointer.held_until[entry["index"]] = entry["held_until"]
        for key in state.get("floods", ()):
            self._seen_floods[tuple(key)] = None
        for entry in state.get("triggers", ()):
            self.triggers.table.install(entry["index"], Trigger.from_wire(entry["trigger"]))

    # The route hooks are the overlay's table lookups, named here so they
    # are attributes of this class: mindbench's tracer wraps
    # ``MindNode.__dict__`` entries by name.
    on_route_arrival = OverlayNode.on_route_arrival
    on_route_failed = OverlayNode.on_route_failed

    def _arrival_index(self, envelope: Dict[str, Any]) -> Optional[IndexState]:
        """The index a routed arrival names, or ``None`` after failing the op.

        Flood race: the index is not installed here yet.  Failing the op
        lets the originator retry rather than silently losing data.
        """
        state = self.indices.get(envelope["inner"]["index"])
        if state is None:
            self.on_route_failed(envelope, "no-such-index")
        return state

    def _on_op_failed(self, msg: Message) -> None:
        self._apply_op_failure(msg.payload)

    def _apply_op_failure(self, payload: Dict[str, Any]) -> None:
        if payload["kind"] == "insert":
            self.insertion.attempt_failed(payload["op_id"], payload["attempt"])
        elif payload["kind"] == "trigger_install":
            self.triggers.install_failed(payload["op_id"], payload["region"])
        else:
            self.querying.subquery_failed(
                payload["op_id"], payload["version"], payload["region_bits"], payload["attempt"]
            )
