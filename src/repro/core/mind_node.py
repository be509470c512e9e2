"""The MIND node: index management on top of the hypercube overlay.

A :class:`MindNode` is an :class:`~repro.overlay.node.OverlayNode` that adds
the paper's application machinery:

* index lifecycle — ``create_index`` / ``drop_index`` flooded across the
  overlay, with schemas and embedding versions handed to joiners,
* data insertion — records are embedded to a code and routed to the owner,
  which stores them through its DAC and replicates to hypercube neighbors,
* query processing — a query routes to its prefix region and is split into
  sub-queries covering the overlay's actual regions, with all responses
  returned directly to the originator (Section 3.6),
* the sibling pointer — a freshly joined node forwards queries for its
  region to its split host until the host's pre-split data has aged, and
* on-line histogram collection (the paper's planned extension): a collector
  floods a request and merges per-node histograms of an index's data.
"""

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Set, Tuple

from repro.core.cuts import BalancedCuts, EvenCuts
from repro.core.embedding import Embedding
from repro.core.histogram import MultiDimHistogram
from repro.core.metrics import InsertMetric, QueryMetric
from repro.core.query import NormRect, RangeQuery, rect_contains_point
from repro.core.records import Record
from repro.core.replication import FULL_REPLICATION, failover_targets, replica_targets
from repro.core.schema import IndexSchema
from repro.core.triggers import Trigger, TriggerTable, new_trigger_id
from repro.core.versioning import VersionedEmbedding
from repro.net.message import Message
from repro.overlay.code import Code, intern_code
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


#: Wire size of one record (an insert, replica or trigger fire), and the
#: fixed part of a sub-query answer or sibling fetch carrying rows.
RECORD_WIRE_BYTES = 120
RESPONSE_BASE_BYTES = 150


@dataclass
class IndexState:
    """Everything one node keeps for one index."""

    schema: IndexSchema
    versions: VersionedEmbedding
    replication: int
    store: TimePartitionedStore
    dac: DataAccessController


class _RetryLadder:
    """The retry → backoff → failover walk of one routed request.

    Shared by inserts and sub-query regions: the current ``target`` — the
    primary code, then each replica-holder region from
    :func:`failover_targets` — gets up to ``retry_max_attempts`` routing
    attempts with exponential backoff before the walk moves on.  The owner
    routes each attempt and hands in the schedulers; the ladder touches
    neither network nor clock, so it can be driven in isolation.
    """

    __slots__ = (
        "metric", "primary", "target", "attempts", "stamp", "inflight",
        "queue", "attempt_timer", "backoff_event",
    )

    def __init__(self, metric, primary: Code, stamp: int = 0) -> None:
        #: The op's metric; the ladder counts its ``retries``/``failovers``.
        self.metric = metric
        self.primary = self.target = primary
        #: Monotonic attempt stamp across targets; echoed by failure reports so
        #: stale failures from superseded attempts are discarded.  A non-zero
        #: initial stamp adopts an attempt somebody else already routed (a
        #: responder-spawned sub-query) as the target's first.
        self.stamp = stamp
        self.attempts = 1 if stamp else 0
        self.inflight = stamp > 0
        #: Replica-holder regions still to try; ``None`` until the primary
        #: is exhausted and they are enumerated (once).
        self.queue: Optional[List[Code]] = None
        self.attempt_timer: Any = None
        self.backoff_event: Any = None

    def open_attempt(self, schedule, timeout_s: float, failed, *key) -> int:
        """Open the next attempt on the current target; the caller routes it."""
        self.backoff_event = None
        self.attempts += 1
        self.stamp += 1
        self.inflight = True
        self.watch(schedule, timeout_s, failed, *key)
        return self.stamp

    def watch(self, schedule, timeout_s: float, failed, *key) -> None:
        """Arm the watchdog: ``failed(*key, stamp)`` unless answered first."""
        self.attempt_timer = schedule(timeout_s, failed, *key, self.stamp)

    def current(self, stamp: int) -> bool:
        """Is ``stamp`` the attempt in flight (not a superseded one)?"""
        return self.inflight and stamp == self.stamp

    def retry(self, cfg: MindConfig, rng, schedule, relaunch, *key) -> bool:
        """The attempt in flight is dead: back off, then ``relaunch(*key)``;
        ``False`` once the current target has used up its attempts."""
        self.inflight = False
        if self.attempt_timer is not None:
            self.attempt_timer.cancel()
            self.attempt_timer = None
        if self.attempts >= cfg.retry_max_attempts:
            return False
        self.metric.retries += 1
        # Exponential backoff (with a little jitter) before attempt N+1.
        base = min(cfg.retry_backoff_base_s * (2 ** (self.attempts - 1)), cfg.retry_backoff_max_s)
        self.backoff_event = schedule(base * (1.0 + 0.1 * rng.random()), relaunch, *key)
        return True

    def fail_over(self, replication: int, depth: Optional[int]) -> bool:
        """Move on to the next replica-holder region; ``False`` if none is left.

        ``depth`` estimates the owner's code length (:func:`failover_targets`);
        ``None`` — an originator outside the overlay has none — enumerates nothing.
        """
        if self.queue is None:
            self.queue = [] if depth is None else failover_targets(self.primary, replication, depth)
        if not self.queue:
            return False
        self.target = self.queue.pop(0)
        self.attempts = 0
        self.metric.failovers += 1
        return True

    def cancel(self) -> None:
        for event in (self.attempt_timer, self.backoff_event):
            if event is not None:
                event.cancel()
        self.attempt_timer = self.backoff_event = None


class _Op:
    """The lifecycle every originator-side op shares.

    :meth:`MindNode._open` files an op in its table with a ``deadline``
    (the cancel handle of the timer that ends it) and holds a ledger entry
    under ``tag``; :meth:`MindNode._close` undoes all three, and
    :meth:`MindNode._end` closes the op and calls :meth:`finish`.
    """

    tag: ClassVar[str]
    deadline: Any = None

    def finish(self, now: float) -> None:
        """Tell the caller how the closed op stands."""


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


@dataclass
class _RegionState:
    """One sub-query region of a query op.

    The region being targeted is ``ladder.target``; it starts at the
    primary and moves through the replica-holder regions when the
    primary's attempts are exhausted.  The op's region table and answered
    set are keyed by ``"{valid_from}:{bits}"`` of the *current* target, so
    a failover re-keys the region under its new target.
    """

    valid_from: float
    ladder: _RetryLadder
    #: Primary regions whose failover collapsed onto this region state
    #: (two dead primaries sharing a replica holder); reported missing as
    #: a group if this state also fails permanently.
    merged_primaries: List[str] = field(default_factory=list)


@dataclass
class _QueryOp(_Op):
    tag = "op:query"
    metric: QueryMetric
    query: RangeQuery
    #: ``query`` as a normalized rectangle, built once: every returned
    #: record is re-checked against it.
    rect: NormRect
    #: Regions still awaiting an answer; the op finishes when it empties.
    regions: Dict[str, _RegionState] = field(default_factory=dict)
    answered: Set[str] = field(default_factory=set)
    records: Dict[int, Record] = field(default_factory=dict)
    failed_regions: Set[str] = field(default_factory=set)
    #: Sub-query payload template per index version (keyed by valid_from),
    #: kept so any region — including responder-spawned ones — can be
    #: re-launched from the originator.
    inner_by_version: Dict[float, Dict[str, Any]] = field(default_factory=dict)
    replication: int = 0
    callback: Optional[Callable[[QueryMetric], None]] = None

    def finish(self, now: float) -> None:
        """Complete when every region answered, else degraded."""
        for region in self.regions.values():
            region.ladder.cancel()
        metric = self.metric
        metric.failed_regions = set(self.failed_regions)
        metric.end = now
        metric.records = len(self.records)
        metric.record_keys = set(self.records)
        metric.results = list(self.records.values())
        metric.complete = not self.failed_regions and not self.regions
        metric.nodes_visited.discard(metric.origin)
        if self.callback is not None:
            self.callback(metric)


@dataclass
class _SiblingFetch(_Op):
    """A sub-query answer held back while the split host's pre-split rows
    are fetched (Section 3.4's sibling pointer)."""

    tag = "op:sibling"
    envelope: Dict[str, Any]
    spawned: List[str]
    #: The local matches by key, which the sibling's rows join.
    matches: Dict[int, Dict[str, Any]]


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


@dataclass
class _HistoCollection(_Op):
    """One on-line histogram collection at its collector."""

    tag = "op:histo"
    merged: MultiDimHistogram
    expected: int
    callback: Callable[[MultiDimHistogram], None]
    replies: int = 0

    def finish(self, now: float) -> None:
        """Hand over what merged: every expected reply, or those that beat
        the deadline."""
        self.callback(self.merged)


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
        #: Open ops by id, one table per kind (:meth:`_open`/:meth:`_close`).
        self._insert_ops: Dict[str, _InsertOp] = {}
        self._query_ops: Dict[str, _QueryOp] = {}
        self._sibling_fetches: Dict[str, _SiblingFetch] = {}
        self._histo_collections: Dict[str, _HistoCollection] = {}
        self._trigger_regs: Dict[str, _TriggerReg] = {}
        #: Flood dedupe keys, a bounded table (:func:`remember`) used as an
        #: ordered set.
        self._seen_floods: Dict[Tuple, None] = {}
        self.trigger_table = TriggerTable()
        self._trigger_subs: Dict[str, Callable[[Record], None]] = {}
        self.records_stored = 0
        self.replicas_stored = 0
        self.sibling_fetches = 0
        #: Replica destination memo: the addresses depend only on the
        #: link set, own code, and replication degree — not on the record
        #: — so the per-stored-record scan is cached on the links() key.
        self._replica_dests_key: Optional[Tuple] = None
        self._replica_dests: List[str] = []
        #: Resource ledger (repro-leak quiescence sanitizer); ``None``
        #: when tracking is off.
        self._res = sim.resources
        self._routed["insert"] = (self._arrive_insert, self._insert_unroutable)
        self._routed["subquery"] = (self._arrive_subquery, self._subquery_unroutable)
        self._routed["trigger_install"] = (
            self._arrive_trigger_install, self._trigger_install_unroutable
        )

    # ==================================================================
    # Message plumbing
    # ==================================================================
    def extra_handlers(self):
        return {
            "insert_ack": self._on_insert_ack,
            "op_failed": self._on_op_failed,
            "query_response": self._on_query_response,
            "sibling_fetch": self._on_sibling_fetch,
            "sibling_data": self._on_sibling_data,
            "replica_store": self._on_replica_store,
            "index_create": self._on_index_create,
            "index_version": self._on_index_version,
            "index_drop": self._on_index_drop,
            "histo_request": self._on_histo_request,
            "histo_reply": self._on_histo_reply,
            "trigger_installed": self._on_trigger_installed,
            "trigger_fire": self._on_trigger_fire,
            "trigger_drop": self._on_trigger_drop,
        }

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

    def _open(self, table: Dict[str, _Op], op_id: str, op: _Op, deadline) -> None:
        """Start an op: file it under ``op_id`` with its ``deadline``
        handle, and hold a ledger entry for it."""
        op.deadline = deadline
        table[op_id] = op
        if self._res is not None:
            self._res.register(op.tag, self.address)

    def _close(self, table: Dict[str, _Op], op_id: str) -> Optional[_Op]:
        """End an op on any exit path: pop it, cancel its deadline and
        release its ledger entry.  ``None`` if it was closed already."""
        op = table.pop(op_id, None)
        if op is not None:
            op.deadline.cancel()
            if self._res is not None:
                self._res.release(op.tag, self.address)
        return op

    def _end(self, table: Dict[str, _Op], op_id: str, *args: Any) -> None:
        """Close an op and tell its caller how it stands (``args`` go to
        its :meth:`_Op.finish`); nothing if it was closed already."""
        op = self._close(table, op_id)
        if op is not None:
            op.finish(self.sim.now, *args)

    # ==================================================================
    # Fail-stop crash
    # ==================================================================
    def crash(self) -> None:
        """Fail-stop: tear down in-flight op state along with the overlay.

        Originator-side op state machines die with the process; before
        this override they survived ``crash()`` — insert retry timers
        kept churning against the dead node (firing completion callbacks
        minutes late once attempts exhausted) and trigger registrations
        stranded forever.  Every open op is closed.  Inserts, queries and
        trigger registrations also finish *failed*, so harness callbacks
        resolve honestly; sibling fetches and histogram collections are
        dropped unanswered.  Durable state — stores, indices, installed triggers
        — survives like the prototype's MySQL, which churn recall depends
        on.
        """
        super().crash()
        for table in (self._insert_ops, self._query_ops, self._trigger_regs):
            for op_id in list(table):
                self._end(table, op_id)
        for table in (self._sibling_fetches, self._histo_collections):
            for op_id in list(table):
                self._close(table, op_id)

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
        self._drop_index(name)
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

    def _drop_index(self, name: str) -> None:
        self.indices.pop(name, None)

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
            self._drop_index(msg.payload["index"])

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
            "triggers": self.trigger_table.all_wire(),
        }

    def on_split_received_state(self, state: Dict[str, Any]) -> None:
        for entry in state.get("indices", ()):
            self._install_from_wire(entry)
            if entry["held_until"] is not None:
                self.sibling_pointer.held_until[entry["index"]] = entry["held_until"]
        for key in state.get("floods", ()):
            self._seen_floods[tuple(key)] = None
        for entry in state.get("triggers", ()):
            self.trigger_table.install(entry["index"], Trigger.from_wire(entry["trigger"]))

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

    def _insert_unroutable(self, envelope: Dict[str, Any], reason: str) -> None:
        inner = envelope["inner"]
        payload = {"kind": "insert", "op_id": inner["op_id"], "attempt": inner.get("attempt", 1)}
        self._reply(envelope["origin"], "op_failed", payload, self._apply_op_failure)

    def _trigger_install_unroutable(self, envelope: Dict[str, Any], reason: str) -> None:
        payload = {
            "kind": "trigger_install",
            "op_id": envelope["inner"]["reg_id"],
            "region": envelope["target"],
        }
        self._reply(envelope["origin"], "op_failed", payload, self._apply_op_failure)

    def _subquery_unroutable(self, envelope: Dict[str, Any], reason: str) -> None:
        inner = envelope["inner"]
        payload = {
            "kind": "subquery",
            "op_id": inner["qid"],
            "version": inner["version"],
            "region_bits": envelope["target"],
            "attempt": inner.get("attempt", 1),
        }
        self._reply(envelope["origin"], "op_failed", payload, self._apply_op_failure)

    def _on_op_failed(self, msg: Message) -> None:
        self._apply_op_failure(msg.payload)

    def _apply_op_failure(self, payload: Dict[str, Any]) -> None:
        if payload["kind"] == "insert":
            self._insert_attempt_failed(payload["op_id"], payload["attempt"])
        elif payload["kind"] == "trigger_install":
            reg = self._trigger_regs.get(payload["op_id"])
            if reg is not None:
                reg.failed = True
                reg.pending.discard(payload["region"])
                if not reg.pending:
                    self._end(self._trigger_regs, payload["op_id"])
        else:
            op = self._query_ops.get(payload["op_id"])
            valid_from = payload["version"]
            bits = payload["region_bits"]
            key = self._region_key(valid_from, bits)
            if op is None or key in op.answered:
                return
            if key not in op.regions and valid_from in op.inner_by_version:
                # A responder-spawned sub-query failed before the response
                # announcing it arrived; adopt the region so the retry
                # machinery owns it from here.
                op.regions[key] = _RegionState(
                    valid_from, _RetryLadder(op.metric, intern_code(bits), stamp=payload["attempt"])
                )
            self._subquery_attempt_failed(payload["op_id"], key, payload["attempt"])

    # ==================================================================
    # Insertion (Section 3.5)
    # ==================================================================
    def insert_record(
        self,
        index: str,
        record: Record,
        callback: Optional[Callable[[InsertMetric], None]] = None,
    ) -> str:
        """Insert a record into an index from this node; returns the op id."""
        state = self._state(index)
        time_dim = state.schema.time_dimension()
        t_ref = record.values[time_dim] if time_dim is not None else self.sim.now
        embedding = state.versions.for_time(t_ref)
        code = embedding.point_code(record.values)
        op_id = self._next_op_id()
        metric = InsertMetric(op_id=op_id, index=index, origin=self.address, start=self.sim.now)
        op = _InsertOp(
            metric=metric,
            callback=callback,
            index=index,
            record=record,
            replication=state.replication,
            ladder=_RetryLadder(metric, code),
        )
        deadline = self.sim.schedule(
            self.mind_config.insert_timeout_s, self._end, self._insert_ops, op_id
        )
        self._open(self._insert_ops, op_id, op, deadline)
        self._launch_insert_attempt(op_id)
        return op_id

    def _launch_insert_attempt(self, op_id: str) -> None:
        op = self._insert_ops.get(op_id)
        if op is None:
            return
        stamp = op.ladder.open_attempt(
            self.sim.schedule,
            self.mind_config.attempt_timeout_s,
            self._insert_attempt_failed,
            op_id,
        )
        inner = {
            "index": op.index,
            "record": op.record.to_wire(),
            "op_id": op_id,
            "attempt": stamp,
        }
        self.route(
            op.ladder.target,
            "insert",
            inner,
            op_id=("ins", op_id, stamp),
            tuples=1,
            attempt=stamp,
        )

    def _insert_attempt_failed(self, op_id: str, stamp: int) -> None:
        """Attempt ``stamp`` is dead (a failure report, or its watchdog):
        back off and retry, fail over to the next replica-holder region, or
        give up when both are exhausted."""
        op = self._insert_ops.get(op_id)
        if op is None or not op.ladder.current(stamp):
            return  # finished, or a stale failure from a superseded attempt
        ladder = op.ladder
        if ladder.retry(
            self.mind_config, self._rng, self.sim.schedule, self._launch_insert_attempt, op_id
        ):
            return
        # The originator does not know the (dead) owner's exact code
        # length; its own depth is the best estimate in a balanced trie,
        # and the flips land in the takeover regions.
        depth = min(len(self.code), len(ladder.primary)) if self.in_overlay() else None
        if ladder.fail_over(op.replication, depth):
            self._launch_insert_attempt(op_id)
        else:
            self._end(self._insert_ops, op_id)

    def _arrive_insert(self, envelope: Dict[str, Any]) -> None:
        state = self._arrival_index(envelope)
        if state is None:
            return
        record = Record.from_wire(envelope["inner"]["record"])
        state.dac.submit(
            state.dac.insert_cost(1), self._complete_insert_store, state, record, envelope
        )

    def _complete_insert_store(self, state: IndexState, record: Record, envelope: Dict[str, Any]) -> None:
        if not self.in_overlay():
            # We accepted the insert but left the overlay between DAC submit
            # and completion.  Tell the originator now — it turns this into
            # a retry/failover immediately instead of waiting out the full
            # insert timeout.  (A *crashed* node can't send; the
            # originator's attempt watchdog covers that case.)
            self.on_route_failed(envelope, "left-overlay")
            return
        if not self.covers(intern_code(envelope["target"])):
            # A split committed while the insert waited in the DAC and the
            # record's half went to the joiner: route it on.  Storing it
            # here would put a post-split row where only the sibling
            # pointer's pre-split bound could reach it.
            self._route_step(envelope)
            return
        if state.store.insert(record):
            self.records_stored += 1
            self._fire_triggers(state, record)
        ack = {"op_id": envelope["inner"]["op_id"], "hops": envelope["hops"]}
        self._reply(envelope["origin"], "insert_ack", ack, self._apply_insert_ack)
        self._replicate(state, record)

    def _replicate(self, state: IndexState, record: Record) -> None:
        if state.replication == 0 or self.code is None or len(self.code) == 0:
            return
        links = self.links()
        key = (self._links_key, self.code, state.replication)
        if key != self._replica_dests_key:
            targets = replica_targets(self.code, state.replication)
            dests: List[str] = []
            sent: Set[str] = set()
            for target in targets:
                for addr, code in links:
                    if code.comparable(target) and addr not in sent:
                        sent.add(addr)
                        dests.append(addr)
            self._replica_dests_key = key
            self._replica_dests = dests
        wire = {"index": state.schema.name, "record": record.to_wire()}
        for addr in self._replica_dests:
            self._send(
                addr,
                "replica_store",
                wire,
                size_bytes=RECORD_WIRE_BYTES,
                tuples=1,
            )

    def _on_replica_store(self, msg: Message) -> None:
        state = self.indices.get(msg.payload["index"])
        if state is None:
            return
        record = Record.from_wire(msg.payload["record"])
        state.dac.submit(state.dac.replica_cost(1), self._complete_replica_store, state, record)

    def _complete_replica_store(self, state: IndexState, record: Record) -> None:
        if not self.in_overlay():
            return
        if state.store.insert(record):
            self.replicas_stored += 1

    def _on_insert_ack(self, msg: Message) -> None:
        self._apply_insert_ack(msg.payload)

    def _apply_insert_ack(self, payload: Dict[str, Any]) -> None:
        self._end(self._insert_ops, payload["op_id"], True, payload["hops"])

    # ==================================================================
    # Query processing (Section 3.6)
    # ==================================================================
    def query_index(
        self,
        query: RangeQuery,
        callback: Optional[Callable[[QueryMetric], None]] = None,
    ) -> str:
        """Issue a multi-dimensional range query from this node.

        A query whose time interval spans several daily index versions is
        split into one sub-operation per version — each version has its
        own cut tree, so "the relevant index versions ... will be evident
        from the query itself" (Section 3.7).  Results merge under one op.
        """
        state = self._state(query.index)
        rect = query.normalized_rect(state.schema)
        t_lo, t_hi = self._query_time_range(state.schema, query)
        segments = self._version_segments(state, t_lo, t_hi)

        op_id = self._next_op_id()
        metric = QueryMetric(op_id=op_id, index=query.index, origin=self.address, start=self.sim.now)
        op = _QueryOp(
            metric=metric,
            query=query,
            rect=rect,
            callback=callback,
            replication=state.replication,
        )
        deadline = self.sim.schedule(self.mind_config.query_timeout_s, self._query_timed_out, op_id)
        self._open(self._query_ops, op_id, op, deadline)

        time_dim = state.schema.time_dimension()
        for version_idx, seg_lo, seg_hi in segments:
            seg_rect = self._clamp_time(rect, state.schema, time_dim, seg_lo, seg_hi)
            # Versions are referenced by valid_from on the wire: list
            # positions diverge across nodes once anyone has run
            # retire_before, but the valid_from key is globally stable.
            valid_from, embedding = state.versions.versions[version_idx]
            prefix = embedding.query_prefix(seg_rect)
            op.inner_by_version[valid_from] = {
                "index": query.index,
                "qid": op_id,
                "rect": [list(side) for side in seg_rect],
                "version": valid_from,
                "time_range": [seg_lo, seg_hi],
            }
            key = self._region_key(valid_from, prefix.bits)
            op.regions[key] = _RegionState(valid_from, _RetryLadder(metric, prefix))
            self._launch_subquery(op_id, key)
        return op_id

    @staticmethod
    def _region_key(valid_from: float, bits: str) -> str:
        return f"{valid_from}:{bits}"

    def _plausible_failover_holder(self, failed: Code, level: int) -> bool:
        """Could this node hold level-``level`` replicas of ``failed``'s data?

        The originator flips bits of the failed region as if it were a
        single dead owner's region.  This node sees the region's interior
        through its neighbor table: if the region was subdivided deeper
        than the replication level reaches outward, every surviving copy
        lived *inside* the dead region and answering would fake
        completeness — refuse instead, so the originator reports the
        region missing.  A known interior owner at depth ``k`` only
        replicates outside a region of length ``f`` when ``level > k - f``.
        """
        if self.code is None or level == 0:
            return False
        deepest = len(failed)
        for _, code in self.links(alive_only=False):
            if code.comparable(failed) and len(code) > deepest:
                deepest = len(code)
        m = deepest if level == FULL_REPLICATION else level
        if m <= deepest - len(failed):
            return False
        return any(
            self.code.comparable(target)
            for target in failover_targets(failed, level, len(failed))
        )

    def _launch_subquery(self, op_id: str, key: str) -> None:
        op = self._query_ops.get(op_id)
        region = op.regions.get(key) if op is not None else None
        if region is None:
            return
        ladder = region.ladder
        stamp = ladder.open_attempt(
            self.sim.schedule,
            self.mind_config.attempt_timeout_s,
            self._subquery_attempt_failed,
            op_id,
            key,
        )
        inner = dict(op.inner_by_version[region.valid_from])
        inner["attempt"] = stamp
        if ladder.target is not ladder.primary:
            inner["failover"] = True
            inner["failover_for"] = ladder.primary.bits
        self.route(
            ladder.target,
            "subquery",
            inner,
            op_id=("sub", op_id, region.valid_from, ladder.target.bits, stamp),
            attempt=stamp,
        )

    def _subquery_attempt_failed(self, op_id: str, key: str, stamp: int) -> None:
        """Attempt ``stamp`` is dead (a failure report, or its watchdog):
        retry with backoff, fail over to a replica-holder region, or record
        the region as missing."""
        op = self._query_ops.get(op_id)
        region = op.regions.get(key) if op is not None else None
        if region is None or not region.ladder.current(stamp):
            return  # answered, or a stale failure from a superseded attempt
        ladder = region.ladder
        if ladder.retry(
            self.mind_config, self._rng, self.sim.schedule, self._launch_subquery, op_id, key
        ):
            return
        del op.regions[key]
        # The flips assume the failed region is one dead owner's region.
        # When it is actually a subdivided subtree the targets may not
        # hold its replicas — the responder-side holder check
        # (:meth:`_plausible_failover_holder`) rejects those sub-queries
        # so a non-holder's answer can't fake completeness.
        if ladder.fail_over(op.replication, len(ladder.primary)):
            new_key = self._region_key(region.valid_from, ladder.target.bits)
            other = op.regions.get(new_key)
            if other is not None:
                # Another failed primary is already querying this replica
                # region; ride along and share its fate.
                other.merged_primaries.append(ladder.primary.bits)
                other.merged_primaries.extend(region.merged_primaries)
                return
            if new_key not in op.answered:
                op.regions[new_key] = region
                self._launch_subquery(op_id, new_key)
                return
            # The replica region already answered this op from its whole
            # local store, so the failed region's surviving copies are
            # in the merged results; nothing left to fetch.
        else:
            self._report_missing(op, region)
        if not op.regions:
            self._end(self._query_ops, op_id)

    def _report_missing(self, op: _QueryOp, region: _RegionState) -> None:
        """Name a region that never answered by its primary identity (and
        those merged onto it), so a degraded result says what is missing."""
        for primary in [region.ladder.primary.bits, *region.merged_primaries]:
            op.failed_regions.add(self._region_key(region.valid_from, primary))

    @staticmethod
    def _query_time_range(schema: IndexSchema, query: RangeQuery) -> Tuple[Optional[float], Optional[float]]:
        time_dim = schema.time_dimension()
        if time_dim is None:
            return (None, None)
        lo, hi = query.interval(schema.attributes[time_dim].name)
        return (lo, hi)

    def _version_segments(
        self, state: IndexState, t_lo: Optional[float], t_hi: Optional[float]
    ) -> List[Tuple[int, Optional[float], Optional[float]]]:
        """(version index, segment lo, segment hi) per version the query hits."""
        versions = state.versions.versions
        if state.schema.time_dimension() is None:
            return [(len(versions) - 1, t_lo, t_hi)]
        lo = float("-inf") if t_lo is None else t_lo
        hi = float("inf") if t_hi is None else t_hi
        segments = []
        for i, (valid_from, _) in enumerate(versions):
            valid_to = versions[i + 1][0] if i + 1 < len(versions) else float("inf")
            seg_lo = max(lo, valid_from)
            seg_hi = min(hi, valid_to)
            if seg_lo < seg_hi:
                segments.append(
                    (
                        i,
                        None if seg_lo == float("-inf") else seg_lo,
                        None if seg_hi == float("inf") else seg_hi,
                    )
                )
        if not segments:
            # Degenerate interval: fall back to the version at t_lo.
            idx = state.versions.version_index_for_time(lo if lo != float("-inf") else self.sim.now)
            segments = [(idx, t_lo, t_hi)]
        return segments

    @staticmethod
    def _clamp_time(rect, schema: IndexSchema, time_dim: Optional[int], seg_lo, seg_hi):
        """Restrict the rect's time dimension to a version segment."""
        if time_dim is None:
            return rect
        attr = schema.attributes[time_dim]
        lo, hi = rect[time_dim]
        if seg_lo is not None:
            lo = max(lo, attr.normalize(seg_lo))
        if seg_hi is not None and seg_hi < attr.hi:
            hi = min(hi, attr.normalize(seg_hi))
        return rect[:time_dim] + ((lo, hi),) + rect[time_dim + 1 :]

    def _query_timed_out(self, op_id: str) -> None:
        op = self._query_ops.get(op_id)
        if op is None:
            return
        for region in op.regions.values():
            self._report_missing(op, region)
        if not op.regions:
            op.failed_regions.add("timeout")
        self._end(self._query_ops, op_id)

    def _split_to_complement(
        self, envelope: Dict[str, Any], state: IndexState, qrect: NormRect, cell_op_id
    ) -> List[str]:
        """The paper's query splitting at the first abutting node.

        If this node owns only a sub-region of the addressed region, route
        the request on — same kind, same origin — to each complement cell
        the rectangle touches, as ``cell_op_id(bits)``; returns their bits.
        """
        inner = envelope["inner"]
        start = len(envelope["target"])
        own = self._owned_region_for(intern_code(envelope["target"]))
        spawned: List[str] = []
        if own is None or len(own.bits) <= start:
            return spawned
        embedding = state.versions.embedding_for_version(inner["version"])
        dims = len(qrect)
        # A cell is the running rectangle (``own``'s prefix) with the
        # level's side swapped for the other half of its cut, so of its
        # sides only that one and the one narrowed a level earlier are
        # new; the first cell brings all of them.  Each side is tested as
        # ``rect_intersection`` does, its ``min``/``max`` written out:
        # empty where ``min(hi, q_hi) <= max(lo, q_lo)``.  Cuts only
        # narrow, so once a running side misses the query every later
        # cell misses it too.
        fresh = range(dims)
        for level, (cell, cell_rect) in enumerate(embedding.complement_cells(own, start), start):
            dim = level % dims
            for side in fresh:
                if side != dim:
                    lo, hi = cell_rect[side]
                    q_lo, q_hi = qrect[side]
                    if (q_hi if q_hi < hi else hi) <= (q_lo if q_lo > lo else lo):
                        return spawned
            fresh = (dim,)
            lo, hi = cell_rect[dim]
            q_lo, q_hi = qrect[dim]
            if (q_hi if q_hi < hi else hi) <= (q_lo if q_lo > lo else lo):
                continue
            spawned.append(cell.bits)
            self.route(
                cell,
                envelope["inner_kind"],
                dict(inner),
                op_id=cell_op_id(cell.bits),
                origin=envelope["origin"],
                attempt=envelope["attempt"],
            )
        return spawned

    def _arrive_subquery(self, envelope: Dict[str, Any]) -> None:
        state = self._arrival_index(envelope)
        if state is None:
            return
        inner = envelope["inner"]
        qrect = tuple(map(tuple, inner["rect"]))
        spawned: List[str] = []
        if inner.get("failover"):
            # Failed-over sub-queries skip the split: replicas are placed
            # by the dead node's code, not by the query rectangle, so rect
            # pruning would be wrong — the holder answers from its whole
            # local store instead.
            failed = intern_code(inner.get("failover_for", envelope["target"]))
            if not self._plausible_failover_holder(failed, state.replication):
                # We cover the flip target but never received this region's
                # replicas (it was subdivided past the replication level's
                # outward reach) — answering would fake completeness.
                self.on_route_failed(envelope, "not-replica-holder")
                return
        else:
            spawned = self._split_to_complement(
                envelope,
                state,
                qrect,
                lambda bits: ("sub", inner["qid"], inner["version"], bits, envelope["attempt"]),
            )

        time_range = inner.get("time_range")
        t_range = None
        if time_range and time_range[0] is not None and time_range[1] is not None:
            t_range = (time_range[0], time_range[1])
        # Answer from the whole local store, exactly as the prototype's DAC
        # ran the query predicate against its local MySQL: this returns
        # resident replicas and not-yet-migrated data too.  The originator
        # deduplicates by record key, and failed-over regions are served
        # from whichever replica holder the sub-query lands on.
        matches = state.store.query(qrect, t_range, wire=True)
        state.dac.submit(
            state.dac.query_cost(len(matches)),
            self._after_query_dac,
            envelope,
            spawned,
            matches,
            qrect,
            t_range,
        )

    def _after_query_dac(
        self,
        envelope: Dict[str, Any],
        spawned: List[str],
        matches: List[Dict[str, Any]],
        effective,
        t_range,
    ) -> None:
        if not self.in_overlay():
            return
        pointer = self.sibling_pointer
        held_until = pointer.held_until.get(envelope["inner"]["index"]) if pointer else None
        if held_until is not None and (t_range is None or t_range[0] < held_until):
            # Pre-split data for our region still lives at the split host,
            # in buckets this sub-query reaches: fetch it before responding
            # (Section 3.4's sibling pointer).
            self.sibling_fetches += 1
            fetch_id = self._next_op_id()
            fetch = _SiblingFetch(envelope, spawned, {row["key"]: row for row in matches})
            # Deadline: a sibling that received the fetch but died (or left
            # the overlay) before replying sends neither data nor a
            # failure, so without it the sub-query response never goes
            # out.  It answers with the local matches we already have.
            deadline = self.sim.schedule(
                self.mind_config.attempt_timeout_s, self._answer_sibling_fetch, fetch_id
            )
            self._open(self._sibling_fetches, fetch_id, fetch, deadline)

            def fetch_failed(msg, reason, _fid=fetch_id):
                self._answer_sibling_fetch(_fid)

            self._send(
                pointer.sibling,
                "sibling_fetch",
                {
                    "fetch_id": fetch_id,
                    "index": envelope["inner"]["index"],
                    "rect": [list(side) for side in effective],
                    "time_range": list(t_range) if t_range else None,
                },
                on_fail=fetch_failed,
            )
            return
        self._respond_query(envelope, spawned, matches)

    def _on_sibling_fetch(self, msg: Message) -> None:
        payload = msg.payload
        state = self.indices.get(payload["index"])
        if state is None:
            self._send(msg.src, "sibling_data", {"fetch_id": payload["fetch_id"], "records": []})
            return
        rect = tuple(map(tuple, payload["rect"]))
        t_range = tuple(payload["time_range"]) if payload["time_range"] else None
        matches = state.store.query(rect, t_range, wire=True)
        state.dac.submit(
            state.dac.query_cost(len(matches)),
            self._send,
            msg.src,
            "sibling_data",
            {"fetch_id": payload["fetch_id"], "records": matches},
            RESPONSE_BASE_BYTES + RECORD_WIRE_BYTES * len(matches),
        )

    def _answer_sibling_fetch(self, fetch_id: str, records=()) -> None:
        """Close the fetch and answer its sub-query: with the sibling's
        ``records`` merged in, or — send failure, deadline — with the local
        matches alone."""
        fetch = self._close(self._sibling_fetches, fetch_id)
        if fetch is None:
            return
        matches = fetch.matches
        for row in records:
            matches[row["key"]] = row
        self._respond_query(fetch.envelope, fetch.spawned, list(matches.values()))

    def _on_sibling_data(self, msg: Message) -> None:
        self._answer_sibling_fetch(msg.payload["fetch_id"], msg.payload["records"])

    def _respond_query(
        self, envelope: Dict[str, Any], spawned: List[str], matches: List[Dict[str, Any]]
    ) -> None:
        """Answer a sub-query with ``matches``, rows in ``Record.to_wire`` form."""
        payload = {
            "qid": envelope["inner"]["qid"],
            "version": envelope["inner"]["version"],
            "region": envelope["target"],
            "spawned": spawned,
            "records": matches,
            # Copy-on-send: the envelope's path list stays live in retained
            # state (sibling fetches hold the envelope), so ship a snapshot.
            "path": list(envelope["path"]),
            "responder": self.address,
            "attempt": envelope["inner"].get("attempt", 1),
            "failover": bool(envelope["inner"].get("failover", False)),
        }
        size = RESPONSE_BASE_BYTES + RECORD_WIRE_BYTES * len(matches)
        self._reply(
            envelope["origin"],
            "query_response",
            payload,
            self._apply_query_response,
            size_bytes=size,
            on_fail=self._resend_response,
        )

    def _resend_response(self, msg: Message, reason: str) -> None:
        # The paper saw exactly this: responders unable to reach the
        # originator during routing outages retry the direct
        # connection (Figure 11's spikes).  Retry until the op ages
        # out at the originator.  Each attempt is a fresh clone, so
        # size accounting and payload never alias between attempts.
        self.network.resend(msg, on_fail=self._resend_response)

    def _on_query_response(self, msg: Message) -> None:
        self._apply_query_response(msg.payload)

    def _apply_query_response(self, payload: Dict[str, Any]) -> None:
        op = self._query_ops.get(payload["qid"])
        if op is None:
            return
        valid_from = payload.get("version", 0)
        key = self._region_key(valid_from, payload["region"])
        from_failover = bool(payload.get("failover"))
        op.metric.nodes_visited.update(payload["path"])
        op.metric.nodes_visited.add(payload["responder"])
        normalize = self._state(op.query.index).schema.normalize
        rect = op.rect
        records = op.records
        for wire in payload["records"]:
            values = wire["values"]
            if rect_contains_point(rect, normalize(values)):
                record_key = wire["key"]
                if from_failover and record_key not in records:
                    op.metric.replica_records += 1
                records[record_key] = Record(values, wire["payload"], record_key)
        if key not in op.answered:
            # Responses can arrive out of order (a child sub-query may beat
            # the parent that spawned it), so track answered regions and
            # only add spawned regions not yet accounted for.
            op.answered.add(key)
            region = op.regions.pop(key, None)
            if region is not None:
                region.ladder.cancel()
            for spawned in payload["spawned"]:
                self._track_spawned(op, valid_from, spawned, payload.get("attempt", 1))
            op.metric.regions += 1
        if not op.regions:
            self._end(self._query_ops, payload["qid"])

    def _track_spawned(self, op: _QueryOp, valid_from: float, bits: str, stamp: int) -> None:
        """Adopt a responder-spawned sub-query region into the retry machinery.

        The responder already routed the sub-query (counted as this
        region's first in-flight attempt); the originator arms the attempt
        watchdog so a spawned sub-query that dies silently is re-launched
        from here.
        """
        key = self._region_key(valid_from, bits)
        if key in op.answered or key in op.regions:
            return
        ladder = _RetryLadder(op.metric, intern_code(bits), stamp=stamp)
        ladder.watch(
            self.sim.schedule,
            self.mind_config.attempt_timeout_s,
            self._subquery_attempt_failed,
            op.metric.op_id,
            key,
        )
        op.regions[key] = _RegionState(valid_from, ladder)

    def _owned_region_for(self, region: Code) -> Optional[Code]:
        """The owned region code comparable with ``region``, if any."""
        own = self.code if self.code is not None and self.code.comparable(region) else None
        if not self.adopted:
            return own
        candidates = [] if own is None else [own]
        for adopted in sorted(self.adopted):
            if adopted.comparable(region):
                candidates.append(adopted)
        if not candidates:
            return None
        return max(candidates, key=lambda c: (c.common_prefix_len(region), -len(c)))

    # ==================================================================
    # Triggers — continuous queries (Section 2's footnote extension)
    # ==================================================================
    def create_trigger(
        self,
        query: RangeQuery,
        callback: Callable[[Record], None],
        expires_at: Optional[float] = None,
        installed: Optional[Callable[[bool], None]] = None,
    ) -> str:
        """Register a standing query; ``callback`` fires per matching insert.

        Registration routes like a query: it reaches every node whose
        region intersects the trigger's hyper-rectangle.  ``installed``
        (if given) is called with True once every region acknowledged, or
        False if part of the registration failed.
        """
        state = self._state(query.index)
        trigger = Trigger(
            trigger_id=new_trigger_id(self.address),
            query=query,
            subscriber=self.address,
            expires_at=expires_at,
        )
        self._trigger_subs[trigger.trigger_id] = callback

        rect = query.normalized_rect(state.schema)
        latest_valid_from = state.versions.versions[-1][0]
        embedding = state.versions.latest()
        prefix = embedding.query_prefix(rect)
        reg_id = self._next_op_id()
        # Deadline: without it a registration whose final ack is lost (the
        # installing node answered but the ack's sender died, or this
        # originator was down when it arrived) strands forever — no
        # attempt timer covers trigger installs.
        deadline = self.sim.schedule(
            self.mind_config.query_timeout_s, self._end, self._trigger_regs, reg_id
        )
        self._open(self._trigger_regs, reg_id, _TriggerReg({prefix.bits}, installed), deadline)
        inner = {
            "index": query.index,
            "reg_id": reg_id,
            "rect": [list(side) for side in rect],
            "version": latest_valid_from,
            "trigger": trigger.to_wire(),
        }
        self.route(prefix, "trigger_install", inner, op_id=("trig", reg_id, prefix.bits))
        return trigger.trigger_id

    def drop_trigger(self, index: str, trigger_id: str) -> None:
        """Remove a trigger everywhere (flooded, like index drops)."""
        self._trigger_subs.pop(trigger_id, None)
        self.trigger_table.remove(index, trigger_id)
        self._flood("trigger_drop", {"index": index, "trigger_id": trigger_id})

    def _arrive_trigger_install(self, envelope: Dict[str, Any]) -> None:
        state = self._arrival_index(envelope)
        if state is None:
            return
        inner = envelope["inner"]
        qrect = tuple(map(tuple, inner["rect"]))
        spawned = self._split_to_complement(
            envelope, state, qrect, lambda bits: ("trig", inner["reg_id"], bits)
        )
        self.trigger_table.install(inner["index"], Trigger.from_wire(inner["trigger"]))
        ack = {"reg_id": inner["reg_id"], "region": envelope["target"], "spawned": spawned}
        self._reply(envelope["origin"], "trigger_installed", ack, self._apply_trigger_installed)

    def _on_trigger_installed(self, msg: Message) -> None:
        self._apply_trigger_installed(msg.payload)

    def _apply_trigger_installed(self, payload: Dict[str, Any]) -> None:
        reg = self._trigger_regs.get(payload["reg_id"])
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
            self._end(self._trigger_regs, payload["reg_id"])

    def _fire_triggers(self, state: IndexState, record: Record) -> None:
        matches = self.trigger_table.matching(
            state.schema.name, state.schema, record, self.sim.now
        )
        for trigger in matches:
            payload = {
                "trigger_id": trigger.trigger_id,
                "index": state.schema.name,
                "record": record.to_wire(),
            }
            self._reply(
                trigger.subscriber,
                "trigger_fire",
                payload,
                self._deliver_trigger_fire,
                size_bytes=RECORD_WIRE_BYTES,
            )

    def _on_trigger_fire(self, msg: Message) -> None:
        self._deliver_trigger_fire(msg.payload)

    def _deliver_trigger_fire(self, payload: Dict[str, Any]) -> None:
        callback = self._trigger_subs.get(payload["trigger_id"])
        if callback is not None:
            callback(Record.from_wire(payload["record"]))

    def _on_trigger_drop(self, msg: Message) -> None:
        payload = msg.payload
        if self._flood("trigger_drop", dict(payload)):
            self.trigger_table.remove(payload["index"], payload["trigger_id"])

    # ==================================================================
    # On-line histogram collection (Section 3.7's planned extension)
    # ==================================================================
    def collect_histogram(
        self,
        index: str,
        granularity: int,
        time_range: Tuple[float, float],
        expected_replies: int,
        callback: Callable[[MultiDimHistogram], None],
        timeout_s: float = 60.0,
    ) -> str:
        """Aggregate a data-distribution histogram from every node.

        The designated collector (this node) floods a request; every node
        histograms its local records for the index/time range and replies
        directly.  ``callback`` fires with the merged histogram once
        ``expected_replies`` arrive or the timeout expires.
        """
        state = self._state(index)
        req_id = self._next_op_id()
        collection = _HistoCollection(
            MultiDimHistogram(state.schema.dimensions, granularity), expected_replies, callback
        )
        deadline = self.sim.schedule(timeout_s, self._end, self._histo_collections, req_id)
        self._open(self._histo_collections, req_id, collection, deadline)
        payload = {
            "req_id": req_id,
            "index": index,
            "granularity": granularity,
            "time_range": list(time_range),
            "collector": self.address,
        }
        self._flood("histo_request", payload)
        self._histo_reply_local(payload)
        return req_id

    def _local_histogram(self, index: str, granularity: int, time_range) -> MultiDimHistogram:
        state = self._state(index)
        hist = MultiDimHistogram(state.schema.dimensions, granularity)
        lo, hi = time_range
        t_range = (lo, hi) if state.schema.time_dimension() is not None else None
        hist.add_batch(state.store.points_in_time_range(t_range))
        return hist

    def _on_histo_request(self, msg: Message) -> None:
        if self._flood("histo_request", dict(msg.payload)):
            self._histo_reply_local(msg.payload)

    def _histo_reply_local(self, payload: Dict[str, Any]) -> None:
        if payload["index"] not in self.indices:
            return
        hist = self._local_histogram(payload["index"], payload["granularity"], payload["time_range"])
        reply = {"req_id": payload["req_id"], "histogram": hist.to_wire()}
        self._reply(
            payload["collector"],
            "histo_reply",
            reply,
            self._merge_histo_reply,
            size_bytes=200 + 16 * hist.occupied_cells,
        )

    def _on_histo_reply(self, msg: Message) -> None:
        self._merge_histo_reply(msg.payload)

    def _merge_histo_reply(self, payload: Dict[str, Any]) -> None:
        collection = self._histo_collections.get(payload["req_id"])
        if collection is None:
            return
        collection.merged.merge(MultiDimHistogram.from_wire(payload["histogram"]))
        collection.replies += 1
        if collection.replies >= collection.expected:
            self._end(self._histo_collections, payload["req_id"])
