"""The wire-protocol registry: every message kind, typed.

MIND's correctness rests on an invariant the string-dispatched handler
tables cannot enforce on their own: every ``kind`` that any node sends must
have exactly one handler with an agreed payload shape at the receiver.  A
typo'd kind or a drifted payload key is protocol divergence between peers —
the dominant silent-failure mode in P2P index overlays.  This module makes
the protocol a checkable artifact:

* :data:`REGISTRY` declares every *direct* message kind (dispatched by
  :meth:`OverlayNode._dispatch` / ``BaselineNode._deliver``) with its
  required and optional payload keys.
* :data:`ROUTED` declares the *routed* kinds carried inside a ``route``
  envelope's ``inner_kind``/``inner`` fields and dispatched through each
  node's routed table (``OverlayNode._routed``); with validation on, a
  kind the table does not hold raises :class:`ProtocolError`.
* :func:`dispatch_table` builds each endpoint's kind-id handler table and
  refuses a handler for a kind the registry does not declare.
* :func:`validate_wire` checks a (kind, payload) pair against the registry;
  :class:`~repro.net.message.Message` calls it at construction time when
  validation is enabled (the "debug mode" used by the test suite), so any
  drift between sender and registry fails loudly at the send site.
* A tier-1 test (``tests/net/test_protocol.py``) checks that the registry
  holds exactly the kinds the live handler tables handle, and
  ``repro.analysis`` checks that handlers read only declared payload keys.

Validation is off by default (zero overhead on the benchmark hot paths);
it is the ``validate`` field of :mod:`repro.checks`, armed suite-wide by
the tests and anywhere via ``REPRO_PROTOCOL_VALIDATE=1``.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro import checks


class ProtocolError(ValueError):
    """A message violates the declared wire protocol."""


@dataclass(frozen=True)
class MessageKind:
    """Declaration of one message kind's payload contract.

    ``layer`` groups kinds by subsystem: ``overlay`` (membership, routing,
    liveness), ``mind`` (index application), ``baseline`` (the comparison
    architectures), or ``routed`` (kinds carried inside a ``route``
    envelope rather than dispatched directly).
    """

    name: str
    layer: str
    required: FrozenSet[str] = field(default_factory=frozenset)
    optional: FrozenSet[str] = field(default_factory=frozenset)
    doc: str = ""

    def all_keys(self) -> FrozenSet[str]:
        return self.required | self.optional


def _kind(
    name: str,
    layer: str,
    required: Iterable[str] = (),
    optional: Iterable[str] = (),
    doc: str = "",
) -> Tuple[str, MessageKind]:
    return name, MessageKind(
        name=name,
        layer=layer,
        required=frozenset(required),
        optional=frozenset(optional),
        doc=doc,
    )


#: Keys of the ``route`` envelope itself; the payload of every ``route``
#: message and the argument to ``on_route_arrival`` / ``on_route_failed``.
ENVELOPE_KEYS = (
    "target",
    "inner_kind",
    "inner",
    "op_id",
    "origin",
    "hops",
    "path",
    "exclude",
    "attempt",
    "tuples",
)


#: Direct message kinds: ``Message.kind`` values dispatched by a handler
#: table at the receiving endpoint.
REGISTRY: Dict[str, MessageKind] = dict(
    (
        # -- overlay: join protocol ------------------------------------
        _kind("join_lookup", "overlay", ["joiner"],
              doc="Joiner asks a live node for its neighborhood."),
        _kind("join_neighborhood", "overlay", ["neighborhood"],
              doc="Bootstrap answers with (address, code bits) pairs."),
        _kind("join_lookup_fail", "overlay",
              doc="Bootstrap is not (yet) in the overlay; retry elsewhere."),
        _kind("join_request", "overlay", ["joiner"],
              doc="Joiner asks the chosen host to split its region."),
        _kind("join_reject", "overlay", ["reason"],
              doc="Host refuses (busy / preempted / timeout)."),
        _kind("join_cancel", "overlay",
              doc="Joiner gave up on its host; the host drops or reclaims the split."),
        _kind("split_prepare", "overlay", ["host", "host_code", "joiner", "round"],
              doc="Host asks its neighbors to freeze for a split round."),
        _kind("split_ack", "overlay", ["round"],
              doc="Neighbor accepts the split round."),
        _kind("split_nack", "overlay", ["round"],
              doc="Neighbor refuses (a shallower host preempted)."),
        _kind("split_abort", "overlay", ["host", "round"],
              doc="Host cancels an in-flight split round."),
        _kind("split_commit_notify", "overlay",
              ["host", "host_code", "joiner", "joiner_code", "round"],
              doc="Host announces the committed split to its neighbors."),
        _kind("split_done", "overlay", ["code", "neighbors", "state"],
              doc="Host hands the joiner its code, table, and app state."),
        _kind("code_update", "overlay", ["address", "code"],
              doc="A node announces its (new) primary code."),
        # -- overlay: liveness and recovery ----------------------------
        _kind("heartbeat", "overlay", ["code"], optional=["peer_code"],
              doc="Periodic liveness beacon carrying the sender's code; "
                  "peer_code echoes the code the sender believes the "
                  "receiver holds, so stale entries trigger a corrective "
                  "beacon and one-directional links heal."),
        _kind("liveness_probe", "overlay", ["suspect"],
              doc="Ask a witness whether it can still reach the suspect."),
        _kind("liveness_report", "overlay", ["suspect", "alive"],
              doc="Witness verdict on a suspected-dead peer."),
        _kind("witness_ping", "overlay", ["on_behalf"],
              doc="Witness-side reachability ping toward the suspect."),
        _kind("witness_pong", "overlay", ["on_behalf"],
              doc="Suspect answers the witness ping."),
        _kind("route", "overlay", ENVELOPE_KEYS,
              doc="One greedy-routing hop of an application envelope."),
        _kind("ring_probe", "overlay",
              ["op_id", "target", "best_match", "origin", "ttl", "visited"],
              doc="Expanding-ring search for a node closer to the target."),
        _kind("ring_found", "overlay", ["op_id", "match"],
              doc="A closer node answers a ring probe."),
        _kind("adopt_probe_ack", "overlay", ["code", "probe"],
              doc="A live owner answers a fallback-adoption probe."),
        _kind("adopt_probe_dead", "overlay", ["probe"],
              doc="Routing proved the probed region unreachable."),
        # -- mind: operation results and failure reports ---------------
        _kind("insert_ack", "mind", ["op_id", "hops"],
              doc="Owner stored the record; completes the insert op."),
        _kind("op_failed", "mind", ["kind", "op_id"],
              optional=["attempt", "region", "version", "region_bits"],
              doc="Routing failure report for an insert / sub-query / "
                  "trigger registration, sent back to the originator."),
        _kind("query_response", "mind",
              ["qid", "version", "region", "spawned", "records", "path",
               "responder", "attempt", "failover"],
              doc="A responsible node's matches for one sub-query region."),
        # -- mind: sibling pointer -------------------------------------
        _kind("sibling_fetch", "mind", ["fetch_id", "index", "rect", "time_range"],
              doc="Fresh joiner pulls pre-split matches from its host."),
        _kind("sibling_data", "mind", ["fetch_id", "records"],
              doc="Split host returns pre-split matching records."),
        # -- mind: replication -----------------------------------------
        _kind("replica_store", "mind", ["index", "record"],
              doc="Owner pushes a stored record to a replica holder."),
        # -- mind: index lifecycle (flooded) ---------------------------
        # ``flood_id`` is unique per originated flood and is what receivers
        # dedupe on, so an index dropped and re-created under the same name
        # floods afresh.
        _kind("index_create", "mind", ["flood_id", "index", "versions", "replication"],
              doc="Flooded creation of an index with its version history."),
        _kind("index_version", "mind", ["flood_id", "index", "valid_from", "embedding"],
              doc="Flooded installation of a new embedding version."),
        _kind("index_drop", "mind", ["flood_id", "index"],
              doc="Flooded removal of an index."),
        # -- mind: histogram collection (flooded request) --------------
        _kind("histo_request", "mind",
              ["req_id", "index", "granularity", "time_range", "collector"],
              doc="Collector floods a data-distribution histogram request."),
        _kind("histo_reply", "mind", ["req_id", "histogram"],
              doc="Per-node histogram, returned directly to the collector."),
        # -- mind: triggers (continuous queries) -----------------------
        _kind("trigger_installed", "mind", ["reg_id", "region", "spawned"],
              doc="A region acknowledges a trigger registration."),
        _kind("trigger_fire", "mind", ["trigger_id", "index", "record"],
              doc="A matching insert fires a standing query."),
        _kind("trigger_drop", "mind", ["index", "trigger_id"],
              doc="Flooded removal of a trigger."),
        # -- baselines: query flooding (and the DHT's query half) -------
        _kind("flood_query", "baseline", ["qid", "query", "origin"],
              doc="Query-flooding baseline: evaluate at every monitor."),
        _kind("flood_reply", "baseline", ["qid", "responder", "records"],
              doc="Monitor's local matches, returned to the originator."),
        # -- baselines: uniform-hash DHT (placement) --------------------
        _kind("h_store", "baseline", ["op_id", "origin", "record"],
              doc="DHT baseline: store a record at its hash owner."),
        _kind("h_store_ack", "baseline", ["op_id"],
              doc="DHT baseline: hash owner acknowledges the store."),
        # -- baselines: centralized ------------------------------------
        _kind("c_insert", "baseline", ["op_id", "origin", "record"],
              doc="Centralized baseline: ship a record to the server."),
        _kind("c_insert_ack", "baseline", ["op_id"],
              doc="Centralized baseline: server acknowledges the insert."),
        _kind("c_query", "baseline", ["op_id", "origin", "query"],
              doc="Centralized baseline: evaluate a query at the server."),
        _kind("c_query_reply", "baseline", ["op_id", "records"],
              doc="Centralized baseline: the server's matches."),
    )
)


#: Routed kinds: values of a ``route`` envelope's ``inner_kind``, with the
#: contract of its ``inner`` payload.
ROUTED: Dict[str, MessageKind] = dict(
    (
        _kind("insert", "routed", ["index", "record", "op_id", "attempt"],
              doc="Store a record at the owner of its embedded code."),
        _kind("subquery", "routed",
              ["index", "qid", "rect", "version", "time_range", "attempt"],
              optional=["failover", "failover_for"],
              doc="Evaluate one region's share of a range query."),
        _kind("trigger_install", "routed",
              ["index", "reg_id", "rect", "version", "trigger"],
              doc="Install a standing query at every intersecting region."),
        _kind("adopt_probe", "routed", ["claimant", "probe"],
              doc="Probe whether anything live still owns a dead region."),
    )
)


# ----------------------------------------------------------------------
# Dense integer kind ids (the data-plane fast path)
# ----------------------------------------------------------------------
#: Direct kinds in registry order, interned to dense integer ids.  A
#: :class:`~repro.net.message.Message` carries ``kind_id`` next to the
#: string ``kind``, and per-node handler tables are flat lists indexed by
#: it, so the per-receive dispatch is one list read instead of a string
#: dict probe (and a fallback chain).  Ids are an in-process artifact —
#: nothing about them crosses the (simulated) wire — and registry order
#: is fixed at import, so they are stable within a run by construction.
KIND_IDS: Dict[str, int] = {name: i for i, name in enumerate(REGISTRY)}

#: Number of registered direct kinds == length of a full dispatch table.
NUM_KINDS: int = len(REGISTRY)

#: Sentinel id for a kind missing from :data:`REGISTRY`.  Dispatch tables
#: are sized ``NUM_KINDS + 1`` with the last slot always empty, so an
#: unknown kind indexes the empty slot and takes the error path without a
#: bounds check (``table[-1]`` would silently alias the last real kind).
UNKNOWN_KIND_ID: int = NUM_KINDS


def kind_id(kind: str) -> int:
    """The dense id of a direct kind (:data:`UNKNOWN_KIND_ID` if absent)."""
    return KIND_IDS.get(kind, UNKNOWN_KIND_ID)


def dispatch_table(handlers: Mapping[str, Callable[..., None]]) -> List[Optional[Callable[..., None]]]:
    """The flat handler table of one endpoint, indexed by kind id.

    Raises :class:`ProtocolError` for a kind :data:`REGISTRY` does not
    declare: a handler the table has no slot for could never be reached.
    """
    table: List[Optional[Callable[..., None]]] = [None] * (NUM_KINDS + 1)
    for kind, handler in handlers.items():
        kid = KIND_IDS.get(kind)
        if kid is None:
            raise ProtocolError(f"handler for unregistered message kind {kind!r}")
        table[kid] = handler
    return table


def lookup(kind: str) -> Optional[MessageKind]:
    """The declaration for a direct kind, or ``None`` if unregistered."""
    return REGISTRY.get(kind)


# ----------------------------------------------------------------------
# Runtime validation (debug mode)
# ----------------------------------------------------------------------
def set_validation(enabled: bool) -> None:
    """Arm or disarm wire validation (``repro.checks.active.validate``)."""
    checks.active.validate = enabled


def _check_shape(decl: MessageKind, payload: Mapping[str, Any], context: str) -> None:
    keys = set(payload)
    missing = decl.required - keys
    if missing:
        raise ProtocolError(
            f"{context} {decl.name!r} payload is missing required "
            f"key(s) {sorted(missing)}"
        )
    extra = keys - decl.all_keys()
    if extra:
        raise ProtocolError(
            f"{context} {decl.name!r} payload carries undeclared "
            f"key(s) {sorted(extra)}"
        )


def validate_wire(kind: str, payload: Mapping[str, Any]) -> None:
    """Check one (kind, payload) pair against the registry.

    Raises :class:`ProtocolError` on an unknown kind, a missing required
    key, or an undeclared key.  ``route`` messages additionally have their
    carried ``inner_kind``/``inner`` checked against :data:`ROUTED`.
    """
    decl = REGISTRY.get(kind)
    if decl is None:
        raise ProtocolError(f"unregistered message kind {kind!r}")
    _check_shape(decl, payload, "message")
    if kind == "route":
        inner_decl = ROUTED.get(payload["inner_kind"])
        if inner_decl is None:
            raise ProtocolError(
                f"unregistered routed kind {payload['inner_kind']!r}"
            )
        _check_shape(inner_decl, payload["inner"], "routed")
