"""The overlay node: message dispatch, join and routing.

:class:`OverlayNode` implements the paper's Section 3.3 — the hypercube
membership protocol and greedy routing — and hands its failure handling
(Section 3.8) to a :class:`repro.overlay.recovery.Recovery`.  It exposes
hooks that :class:`repro.core.mind_node.MindNode` overrides, and handler
tables it adds its message and routed kinds to, for index semantics
(Sections 3.4-3.7).

Processing model
----------------
Each delivered message waits for the node's single dispatch "thread": the
node has a CPU-busy horizon and every message adds a sampled service time,
so a node flooded with inserts develops a queue — this is the mechanism
behind the paper's long latency tails (Figures 7, 8, 11).  Per-node
``speed_factor`` models slow PlanetLab machines.
"""

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import checks
from repro.checks import ISOLATE_FREEZE
from repro.net import protocol
from repro.net.message import Message, thaw_payload
from repro.net.network import SimNetwork
from repro.overlay.code import Code, intern_code
from repro.overlay.join import (
    HostJoinState,
    JoinerState,
    PendingPrepare,
    SiblingPointer,
    choose_split_host,
    host_priority,
)
from repro.overlay.routing import RouteDecision, next_hop, route_rows, table_next_hop
from repro.overlay.neighbors import NeighborTable
from repro.overlay.recovery import Recovery
from repro.sim.kernel import Simulator

#: A joiner (or a host waiting on split acks) gives up on a join round
#: after this long, and a joiner backs off 1-2x ``JOIN_BACKOFF_S`` before
#: its next round.
JOIN_TIMEOUT_S = 8.0
JOIN_BACKOFF_S = 1.0
#: Routed messages die after this many hops (covers pathological
#: bouncing between stale-coded nodes during recovery transients).
ROUTE_TTL = 24
#: Wire size of one routing hop, and of a control message by default.
ROUTE_MSG_BYTES = 320
CONTROL_MSG_BYTES = 180

#: A routed kind's handlers: on arrival at a responsible node, and on a
#: routing failure (with its reason).
RoutedHandlers = Tuple[
    Callable[[Dict[str, Any]], None], Callable[[Dict[str, Any], str], None]
]


@dataclass
class OverlayConfig:
    """Tunables for overlay behaviour.

    The defaults are calibrated to the paper's PlanetLab deployment; the
    benchmarks override individual knobs (e.g. liveness is off for the
    long traffic-replay runs and on for the robustness experiment).
    """

    service_time_s: float = 0.0004
    service_jitter_sigma: float = 0.6
    #: Block size for vectorized service-jitter draws (0 = per-message
    #: stdlib draws).  Same log-normal distribution, different — still
    #: deterministic — stream; default off so seeded experiments keep
    #: their exact per-draw sequence.  The scale perf tier opts in.
    service_draw_block: int = 0
    hb_interval_s: float = 10.0
    hb_timeout_s: float = 35.0
    liveness_enabled: bool = False
    #: Heartbeat piggybacking: skip the periodic heartbeat to a neighbor
    #: this node has sent *any* message within the window (every delivery
    #: refreshes the receiver's liveness clock, so the data traffic itself
    #: is the heartbeat).  ``None`` sends every heartbeat.  Suppression
    #: also delays code-change announcements to active neighbors, so it is
    #: meant for stable-topology runs (the scale perf tier), not churn.
    hb_suppress_s: Optional[float] = None
    adoption_delay_s: float = 5.0


class OverlayNode:
    """One MIND overlay participant.

    Subclasses override the ``on_*`` hooks; the overlay machinery itself
    never inspects application payloads.
    """

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        address: str,
        config: Optional[OverlayConfig] = None,
        speed_factor: float = 1.0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.config = config or OverlayConfig()
        self.speed_factor = speed_factor
        #: Deliveries arrive as read-only views (``freeze`` isolation) and
        #: must be thawed before non-routing code consumes them.  Captured
        #: at construction, as the network captures its delivery level.
        self._frozen_delivery = checks.active.isolation == ISOLATE_FREEZE
        #: ``(time, fn, args)`` dispatch scheduler, chosen once: the
        #: network's slot wheel when it coalesces, else exact kernel events.
        #: Timers are always kernel events (``sim.schedule``).
        self._defer = network.call_in_slot if network.coalesce_window_s else sim.push_at

        self.code: Optional[Code] = None
        self.active = False
        self.neighbors = NeighborTable()
        self.adopted: Set[Code] = set()
        self.sibling_pointer: Optional[SiblingPointer] = None

        self._host_join: Optional[HostJoinState] = None
        #: The last committed split: the joiner and the live table handed
        #: to it, which the commit then pruned to the host's half.
        self._handed_over: Optional[Tuple[str, List[Tuple[str, str]]]] = None
        self._pending_prepare: Optional[PendingPrepare] = None
        self._joiner_state: Optional[JoinerState] = None
        self._join_round = 0
        self._cpu_busy_until = 0.0
        #: ``links()`` memo: key -> computed link list.  ``links()`` is
        #: called on every routed hop and recomputes hypercube neighbors
        #: from codes; at 1k nodes that recomputation dominates the whole
        #: simulation, while the inputs (neighbor table, code, adopted
        #: regions) change only on joins/splits/liveness transitions.
        self._links_key: Optional[Tuple[Any, ...]] = None
        self._links_memo: List[Tuple[str, Code]] = []

        self.bootstrap_provider: Optional[Callable[[str], Optional[str]]] = None

        self.routes_forwarded = 0
        #: Kept by the recovery: rings started, ops that parked on a ring
        #: already in flight, and takeovers plus fallback adoptions.
        self.ring_recoveries = 0
        self.ring_waits = 0
        self.takeovers = 0

        self._rng = sim.rng(f"overlay.{address}")
        # Bound once: ``_deliver`` draws one service-jitter sample per
        # delivered message, and the attribute chain is measurable there.
        self._lognormvariate = self._rng.lognormvariate
        #: Per-message service cost before jitter, folded once — both
        #: factors are fixed at construction.
        self._service_scale = self.config.service_time_s * self.speed_factor
        #: Block-drawn service jitters (``None`` = per-message stdlib
        #: draws; an ``array('d')`` when ``config.service_draw_block``
        #: opts in).
        self._jitter_buf: Optional[array] = None
        self._np_service = None
        if self.config.service_draw_block:
            import numpy as _np

            self._np_service = _np.random.default_rng(self._rng.randrange(2**63))
            self._jitter_buf = array("d")
        self.recovery = Recovery(self)
        # The liveness tables are the recovery's, aliased here: every
        # delivery and send touches one, and the alias saves a hop.
        self._last_heard = self.recovery.last_heard
        self._last_sent = self.recovery.last_sent
        self._declared_dead = self.recovery.declared_dead
        self._handlers: Dict[str, Callable[[Message], None]] = {
            "join_lookup": self._on_join_lookup,
            "join_neighborhood": self._on_join_neighborhood,
            "join_lookup_fail": self._on_join_refused,
            "join_request": self._on_join_request,
            "join_reject": self._on_join_refused,
            "join_cancel": self._on_join_cancel,
            "split_prepare": self._on_split_prepare,
            "split_ack": self._on_split_ack,
            "split_nack": self._on_split_nack,
            "split_abort": self._on_split_abort,
            "split_commit_notify": self._on_split_commit_notify,
            "split_done": self._on_split_done,
            "route": self._on_route,
        }
        #: Routed kinds (``route`` envelope ``inner_kind`` values) this node
        #: handles, each with its arrival and failure handler; a subclass
        #: adds its own kinds in ``__init__``.
        self._routed: Dict[str, RoutedHandlers] = dict(self.recovery._routed)
        # Flat dispatch table indexed by ``Message.kind_id``
        # (:func:`protocol.dispatch_table`), built on the first dispatch:
        # ``extra_handlers()`` needs the subclass __init__ to have finished.
        self._dispatch_table: Optional[List[Optional[Callable[[Message], None]]]] = None
        # Greedy candidates per bit of the code (``route_rows``), valid
        # only for the link list they were built from (identity-checked:
        # links() returns a new list object whenever the link set or the
        # code changes).
        self._route_rows: List[List[RouteDecision]] = []
        self._route_links: Optional[List[Tuple[str, Code]]] = None
        network.register(address, self._deliver)

    # ==================================================================
    # Hooks for subclasses
    # ==================================================================
    def on_route_arrival(self, envelope: Dict[str, Any]) -> None:
        """Called when a routed message reaches a responsible node: runs
        the arrival handler its routed kind has in :attr:`_routed`."""
        handlers = self._routed_handlers(envelope)
        if handlers is not None:
            handlers[0](envelope)

    def on_route_failed(self, envelope: Dict[str, Any], reason: str) -> None:
        """Called when routing gave up (TTL, ring recovery exhausted, or
        an application refusal): runs the failure handler of its kind."""
        handlers = self._routed_handlers(envelope)
        if handlers is not None:
            handlers[1](envelope, reason)

    def _routed_handlers(self, envelope: Dict[str, Any]) -> Optional[RoutedHandlers]:
        """The handlers of the envelope's routed kind.

        A kind this node's table does not hold is a protocol error under
        wire validation (on suite-wide in the tests).  Otherwise it is
        dropped: mindbench's route-hop bench routes a synthetic kind
        across plain overlay nodes.
        """
        handlers = self._routed.get(envelope["inner_kind"])
        if handlers is None and checks.active.validate:
            raise protocol.ProtocolError(
                f"{self.address}: no handler for routed kind {envelope['inner_kind']!r}"
            )
        return handlers

    def on_split_transfer_state(self, old_code: Code, joiner_code: Code) -> Dict[str, Any]:
        """Host-side: application state handed to the joiner."""
        return {}

    def on_split_received_state(self, state: Dict[str, Any]) -> None:
        """Joiner-side: install application state from the host."""

    def extra_handlers(self) -> Dict[str, Callable[[Message], None]]:
        """Subclasses add message kinds by overriding this."""
        return {}

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def activate_as_root(self) -> None:
        """Become the first node of a new overlay (empty code)."""
        if self.code is not None:
            raise RuntimeError(f"{self.address} is already in an overlay")
        self.active = True
        self.code = Code("")
        self.recovery.start_heartbeats()

    def start_join(self, bootstrap: str) -> None:
        """Begin joining an existing overlay via the given live node."""
        if self.code is not None:
            raise RuntimeError(f"{self.address} is already in an overlay")
        self.active = True
        self._joiner_state = JoinerState(bootstrap=bootstrap)
        self._send(bootstrap, "join_lookup", {"joiner": self.address})
        self._arm_join_timeout()

    def crash(self) -> None:
        """Lose all volatile state; the network layer stops deliveries."""
        self.active = False
        self.code = None
        self.neighbors = NeighborTable()
        # A fresh table can reuse the old one's id(); drop the memo so the
        # links() cache never matches across the crash.
        self._links_key = None
        self._links_memo = []
        self._route_links = None
        self._route_rows = []
        self.adopted = set()
        self.sibling_pointer = None
        self._host_join = None
        self._handed_over = None
        self._pending_prepare = None
        self._joiner_state = None
        self.recovery.reset()

    def restore(self) -> None:
        """Come back after a crash and rejoin through the bootstrap provider."""
        bootstrap = self._pick_bootstrap()
        if bootstrap is None:
            self.activate_as_root()
        else:
            self.start_join(bootstrap)

    def in_overlay(self) -> bool:
        return self.active and self.code is not None

    # ==================================================================
    # Links and regions
    # ==================================================================
    def links(self, alive_only: bool = True) -> List[Tuple[str, Code]]:
        """Current hypercube links for the primary code and adopted regions.

        Memoized on ``(table identity+version, code, adopted, alive_only)``
        so the per-hop call is a key comparison, not a hypercube
        recomputation.  The returned list is shared with the memo and must
        be treated as read-only.
        """
        if self.code is None:
            return []
        key = (
            id(self.neighbors),
            self.neighbors.version,
            self.code,
            frozenset(self.adopted) if self.adopted else (),
            alive_only,
        )
        if key == self._links_key:
            # Callers treat the link list as read-only (they iterate or
            # re-derive), so the memo is shared rather than copied — the
            # copy dominated the per-hop cost at cluster scale.
            return self._links_memo
        seen: Dict[str, Code] = dict(self.neighbors.hypercube_neighbors(self.code, alive_only))
        for region in sorted(self.adopted):
            for addr, code in self.neighbors.hypercube_neighbors(region, alive_only):
                seen[addr] = code
        seen.pop(self.address, None)
        links = list(seen.items())
        self._links_key = key
        self._links_memo = links
        return links

    def covers(self, target: Code) -> bool:
        """Does this node own (part of) the region addressed by ``target``?"""
        if self.code is None:
            return False
        if self.code.comparable(target):
            return True
        adopted = self.adopted
        if not adopted:
            # Steady state: no adopted regions, and building the generator
            # below costs more than the whole primary check.
            return False
        return any(region.comparable(target) for region in adopted)

    def match_len(self, target: Code) -> int:
        """Longest common prefix between the target and any owned region."""
        if self.code is None:
            return -1
        best = self.code.common_prefix_len(target)
        for region in sorted(self.adopted):
            best = max(best, region.common_prefix_len(target))
        return best

    # ==================================================================
    # Messaging plumbing
    # ==================================================================
    def _send(
        self,
        dst: str,
        kind: str,
        payload: Dict[str, Any],
        size_bytes: Optional[int] = None,
        tuples: int = 0,
        on_fail=None,
    ) -> None:
        size = size_bytes if size_bytes is not None else CONTROL_MSG_BYTES
        if self.config.hb_suppress_s is not None:
            self._last_sent[dst] = self.sim.now
        # Frame here and skip network.send's wrapper frame: this path runs
        # once per message and the extra call is measurable at 10^7 sends.
        self.network.send_framed(
            Message.frame(self.address, dst, kind, payload, size), tuples, on_fail
        )

    def _deliver(self, msg: Message) -> None:
        if not self.active:
            return
        start = max(self.sim.now, self._cpu_busy_until)
        buf = self._jitter_buf
        if buf is None:
            jitter = self._lognormvariate(0.0, self.config.service_jitter_sigma)
        elif buf:
            jitter = buf.pop()
        else:
            jitter = self._refill_service_jitter()
        self._cpu_busy_until = start + self._service_scale * jitter
        # Per-node FIFO holds on the wheel too: busy times increase.
        self._defer(self._cpu_busy_until, self._dispatch, (msg,))

    def _refill_service_jitter(self) -> float:
        """Refill the empty jitter buffer with a block; draws pop from its end."""
        self._jitter_buf.frombytes(
            self._np_service.lognormal(
                0.0, self.config.service_jitter_sigma, self.config.service_draw_block
            ).tobytes()
        )
        return self._jitter_buf.pop()

    def _dispatch(self, msg: Message) -> None:
        if not self.active:
            return
        self._last_heard[msg.src] = self.sim.now
        if self._declared_dead and msg.src in self._declared_dead:
            # A peer we wrote off is talking again (it restarted or the
            # partition healed); let liveness re-learn it via joins.
            self._declared_dead.discard(msg.src)
        table = self._dispatch_table
        if table is None:
            table = self._dispatch_table = protocol.dispatch_table(
                {**self._handlers, **self.recovery.handlers, **self.extra_handlers()}
            )
        handler = table[msg.kind_id]
        if handler is None:
            raise ValueError(f"{self.address}: no handler for message kind {msg.kind!r}")
        handler(msg)

    # ==================================================================
    # Join protocol — joiner side
    # ==================================================================
    def _pick_bootstrap(self) -> Optional[str]:
        if self.bootstrap_provider is None:
            return None
        return self.bootstrap_provider(self.address)

    def _arm_join_timeout(self) -> None:
        state = self._joiner_state
        if state is None:
            return
        state.clear_timeout()
        state.timeout_event = self.sim.schedule(JOIN_TIMEOUT_S, self._join_timed_out, state.attempt)

    def _join_timed_out(self, attempt: int) -> None:
        state = self._joiner_state
        if state is None or state.attempt != attempt or self.code is not None:
            return
        self._retry_join()

    def _retry_join(self) -> None:
        state = self._joiner_state
        if state is None:
            return
        state.clear_timeout()
        if state.host is not None:
            # The host may still commit, or already have committed, a split
            # whose split_done is slower than our timeout; tell it we left.
            self._send(state.host, "join_cancel", {})
            state.host = None
        backoff = JOIN_BACKOFF_S * (1.0 + self._rng.random())
        self.sim.schedule(backoff, self._restart_join, state.attempt)

    def _restart_join(self, prev_attempt: int) -> None:
        state = self._joiner_state
        if state is None or state.attempt != prev_attempt or self.code is not None:
            return
        bootstrap = self._pick_bootstrap() or state.bootstrap
        state.attempt += 1
        state.bootstrap = bootstrap
        state.host = None
        self._send(bootstrap, "join_lookup", {"joiner": self.address})
        self._arm_join_timeout()

    def _on_join_lookup(self, msg: Message) -> None:
        joiner = msg.payload["joiner"]
        if not self.in_overlay():
            self._send(joiner, "join_lookup_fail", {})
            return
        neighborhood = [(self.address, self.code.bits)]
        neighborhood.extend((addr, code.bits) for addr, code in self.links())
        self._send(joiner, "join_neighborhood", {"neighborhood": neighborhood})

    def _on_join_refused(self, msg: Message) -> None:
        """The bootstrap is not in the overlay, or the host refused: retry."""
        if self._joiner_state is not None and self.code is None:
            self._retry_join()

    def _on_join_neighborhood(self, msg: Message) -> None:
        state = self._joiner_state
        if state is None or self.code is not None:
            return
        neighborhood = [(addr, Code(bits)) for addr, bits in msg.payload["neighborhood"]]
        if not neighborhood:
            self._retry_join()
            return
        host, _ = choose_split_host(neighborhood, self._rng)
        state.host = host
        self._send(host, "join_request", {"joiner": self.address})
        self._arm_join_timeout()

    def _on_split_done(self, msg: Message) -> None:
        state = self._joiner_state
        if state is None or self.code is not None or msg.src != state.host:
            return
        state.clear_timeout()
        self._joiner_state = None
        payload = msg.payload
        self.code = Code(payload["code"])
        for addr, bits in payload["neighbors"]:
            if addr != self.address:
                self.neighbors.upsert(addr, Code(bits))
        self.neighbors.prune_to_neighborhood(self.code)
        self.sibling_pointer = SiblingPointer(sibling=msg.src)
        self.on_split_received_state(payload.get("state", {}))
        self.recovery.start_heartbeats()

    # ==================================================================
    # Join protocol — host side
    # ==================================================================
    def _on_join_request(self, msg: Message) -> None:
        joiner = msg.payload["joiner"]
        if not self.in_overlay() or self._host_join is not None:
            self._send(joiner, "join_reject", {"reason": "busy"})
            return
        self._join_round += 1
        live_links = [addr for addr, _ in self.links()]
        state = HostJoinState(
            joiner=joiner,
            host_code=self.code,
            round_id=self._join_round,
            awaiting_acks=set(live_links),
        )
        self._host_join = state
        if not live_links:
            self._commit_split()
            return
        prepare = {
            "host": self.address,
            "host_code": self.code.bits,
            "joiner": joiner,
            "round": state.round_id,
        }
        for addr in live_links:
            self._send(addr, "split_prepare", prepare)
        state.timeout_event = self.sim.schedule(
            JOIN_TIMEOUT_S, self._host_join_timed_out, state.round_id
        )

    def _host_join_timed_out(self, round_id: int) -> None:
        state = self._host_join
        if state is None or state.round_id != round_id:
            return
        self._abort_split("timeout")

    def _on_join_cancel(self, msg: Message) -> None:
        joiner = msg.src
        state = self._host_join
        if state is not None and state.joiner == joiner:
            self._abort_split(None)
            return
        # Already committed: the split_done lost the race with the joiner's
        # timeout, so the half we handed over has no owner.  Relearn the
        # peers the commit pruned (they border that half and must hear of
        # the reclaim), then reclaim it as a dead peer's region.
        code = self.neighbors.code_of(joiner)
        if code and self.code is not None and code.sibling().is_prefix_of(self.code):
            handed = self._handed_over
            if handed is not None and handed[0] == joiner:
                for addr, bits in handed[1]:
                    if addr not in self.neighbors:
                        self.neighbors.upsert(addr, Code(bits))
            self.recovery.declare_dead(joiner)

    def _abort_split(self, reason: Optional[str]) -> None:
        """Drop the in-flight split; ``reason`` is sent to the joiner unless
        it is ``None`` (the joiner cancelled)."""
        state = self._host_join
        if state is None:
            return
        self._host_join = None
        if state.timeout_event is not None:
            state.timeout_event.cancel()
        for addr in sorted(state.awaiting_acks | state.acked):
            self._send(addr, "split_abort", {"host": self.address, "round": state.round_id})
        if reason is not None:
            self._send(state.joiner, "join_reject", {"reason": reason})

    def _on_split_ack(self, msg: Message) -> None:
        state = self._host_join
        if state is None or msg.payload.get("round") != state.round_id:
            return
        state.acked.add(msg.src)
        if state.all_acked():
            self._commit_split()

    def _on_split_nack(self, msg: Message) -> None:
        state = self._host_join
        if state is None or msg.payload.get("round") != state.round_id:
            return
        self._abort_split("preempted")

    def _commit_split(self) -> None:
        state = self._host_join
        self._host_join = None
        if state is None:
            return
        if state.timeout_event is not None:
            state.timeout_event.cancel()
        old_code = self.code
        new_code = old_code.extend("0")
        joiner_code = old_code.extend("1")
        app_state = self.on_split_transfer_state(old_code, joiner_code)

        notify = {
            "host": self.address,
            "host_code": new_code.bits,
            "joiner": state.joiner,
            "joiner_code": joiner_code.bits,
            "round": state.round_id,
        }
        for addr, _ in self.links():
            self._send(addr, "split_commit_notify", notify)

        table = [(self.address, new_code.bits)]
        table.extend((addr, code.bits) for addr, code in self.neighbors.entries(alive_only=True))
        self._handed_over = (state.joiner, table[1:])
        self.code = new_code
        self.neighbors.upsert(state.joiner, joiner_code)
        self.neighbors.prune_to_neighborhood(self.code)
        self._send(
            state.joiner,
            "split_done",
            {"code": joiner_code.bits, "neighbors": table, "state": app_state},
            size_bytes=CONTROL_MSG_BYTES * 4,
        )

    # ==================================================================
    # Join protocol — neighbor side
    # ==================================================================
    def _on_split_prepare(self, msg: Message) -> None:
        payload = msg.payload
        incoming = PendingPrepare(
            host=payload["host"],
            host_code=Code(payload["host_code"]),
            joiner=payload["joiner"],
            round_id=payload["round"],
        )
        # Deadlock avoidance: a shallower host preempts a deeper one, both
        # against a pending prepare we already acked and against our own
        # in-flight hosting.
        if self._host_join is not None:
            my_pri = host_priority(self.code, self.address)
            if incoming.priority() < my_pri:
                self._abort_split("preempted-by-shallower")
            else:
                self._send(incoming.host, "split_nack", {"round": incoming.round_id})
                return
        pending = self._pending_prepare
        if pending is not None and pending.host == incoming.host and pending.round_id != incoming.round_id:
            # Same host, different round.  A host runs one split round at a
            # time, so the higher round id proves the lower one is dead —
            # per-message latencies are independent, and a round's abort can
            # arrive *before* its own prepare, stranding a stale pending
            # that no later abort matches.  Both rounds carry the same
            # priority, so without this supersession the stale pending
            # would nack every future round from its own host forever.
            if incoming.round_id < pending.round_id:
                self._send(incoming.host, "split_nack", {"round": incoming.round_id})
                return
            pending = None
        if pending is not None and (pending.host != incoming.host or pending.round_id != incoming.round_id):
            if incoming.priority() < pending.priority():
                self._send(pending.host, "split_nack", {"round": pending.round_id})
            else:
                self._send(incoming.host, "split_nack", {"round": incoming.round_id})
                return
        self._pending_prepare = incoming
        self._send(incoming.host, "split_ack", {"round": incoming.round_id})

    def _on_split_abort(self, msg: Message) -> None:
        pending = self._pending_prepare
        # An abort for round r also invalidates any *older* pending from the
        # same host (rounds are serialized per host), covering reordered
        # deliveries where the newer round's abort overtakes the older one's.
        if pending is not None and pending.host == msg.payload.get("host") and pending.round_id <= msg.payload.get("round", -1):
            self._pending_prepare = None

    def _on_split_commit_notify(self, msg: Message) -> None:
        payload = msg.payload
        pending = self._pending_prepare
        if pending is not None and pending.host == payload["host"] and pending.round_id == payload["round"]:
            self._pending_prepare = None
        self.neighbors.upsert(payload["host"], Code(payload["host_code"]))
        self.neighbors.upsert(payload["joiner"], Code(payload["joiner_code"]))
        if self.code is not None:
            self.neighbors.prune_to_neighborhood(self.code)

    # ==================================================================
    # Routing
    # ==================================================================
    def route(
        self,
        target: Code,
        inner_kind: str,
        inner: Dict[str, Any],
        op_id: Any,
        origin: Optional[str] = None,
        tuples: int = 0,
        attempt: int = 1,
        exclude: Optional[List[str]] = None,
    ) -> None:
        """Start routing an application message toward ``target``.

        ``attempt`` stamps the envelope so retried sends are
        distinguishable end to end (failure reports echo it, letting the
        originator discard stale failures from superseded attempts), and a
        fresh ``op_id`` per attempt keeps ring-recovery state from one
        attempt from suppressing the next.  ``exclude`` pre-loads
        addresses a retry already knows to be unreachable.
        """
        envelope = {
            "target": target.bits,
            "inner_kind": inner_kind,
            "inner": inner,
            "op_id": op_id,
            "origin": origin or self.address,
            "hops": 0,
            "path": [self.address],
            "exclude": list(exclude) if exclude else [],
            "attempt": attempt,
            "tuples": tuples,
        }
        self._route_step(envelope)

    def _on_route(self, msg: Message) -> None:
        # Copy-on-receive: the envelope advances (hops/path/exclude) at
        # every hop and may be parked on a recovery ring, so routing must
        # work on a private copy, never the sender's object.  The envelope
        # schema is closed (built only in route()), so copy exactly its
        # mutable members — path and exclude — instead of a generic deep
        # thaw of the whole envelope.  ``dict()``/``list()`` also accept
        # the frozen views the message isolation sanitizer substitutes at
        # the ``freeze`` level.  The application ``inner`` payload is thawed
        # here too, at that level only: arrival, failure and ring recovery
        # hand it to non-routing code, and a frozen view would raise there.
        # Under ``off`` by-reference delivery *is* the contract (the frozen
        # test suite keeps handlers from mutating what they receive), so
        # the deep thaw, which would dominate routed-insert cost, is skipped.
        envelope = dict(msg.payload)
        envelope["path"] = list(envelope["path"])
        envelope["exclude"] = list(envelope["exclude"])
        if self._frozen_delivery:
            envelope["inner"] = thaw_payload(envelope["inner"])
        self._route_step(envelope)

    def _route_step(self, envelope: Dict[str, Any]) -> None:
        """Advance one routing step."""
        if not self.in_overlay():
            return
        target = intern_code(envelope["target"])
        # Arrival check: ``covers`` inlined on the integer code mirrors —
        # it runs once per routed hop, and the steady state (no adopted
        # regions) is a prefix comparison.
        code = self.code
        if self.adopted:
            arrived = self.covers(target)
        else:
            c_len = code._len
            t_len = target._len
            m = c_len if c_len < t_len else t_len
            arrived = m == 0 or (
                (code._num >> (c_len - m)) ^ (target._num >> (t_len - m))
            ) == 0
        if arrived:
            self.on_route_arrival(envelope)
            return
        if envelope["hops"] >= ROUTE_TTL:
            self.on_route_failed(envelope, "ttl-exceeded")
            return
        links = self.links()
        nxt = self._greedy_decision(target, links).next_hop
        exclude = envelope["exclude"]
        path = envelope["path"]
        if nxt is not None and (nxt in path or (exclude and nxt in exclude)):
            # Peers known to be unreachable and peers already on the path
            # are both excluded.  A revisit would replay the same cycle
            # until the TTL dies: a stale link entry (the peer crashed and
            # rejoined under another code) bounces the message straight
            # back.  The table winner is the best of the whole row, so
            # only when it is excluded does the scan need the rest.
            nxt = next_hop(self.code, target, links, exclude=exclude + path).next_hop
        if nxt is None:
            # Greedy dead end: expanding-ring recovery can escape through
            # nodes outside the excluded set.
            self.recovery.park(envelope)
            return
        self._forward(envelope, nxt)

    def _greedy_decision(self, target: Code, links: List[Tuple[str, Code]]) -> RouteDecision:
        """``next_hop(self.code, target, links)`` through the per-dimension
        rows, rebuilt whenever ``links()`` hands out a new list."""
        if links is not self._route_links:
            self._route_rows = route_rows(self.code, links)
            self._route_links = links
        return table_next_hop(self.code, self._route_rows, target)

    def _forward(self, envelope: Dict[str, Any], nxt: str) -> None:
        envelope["hops"] += 1
        envelope["path"].append(nxt)
        self.routes_forwarded += 1

        def on_fail(msg: Message, reason: str, _nxt=nxt, _env=envelope) -> None:
            # The link (or peer) is unreachable: exclude it and try an
            # alternate route from here, as Section 3.8 describes.
            if not self.in_overlay():
                return
            _env["hops"] -= 1
            _env["path"].pop()
            _env["exclude"].append(_nxt)
            self._route_step(_env)

        self._send(
            nxt,
            "route",
            envelope,
            size_bytes=ROUTE_MSG_BYTES,
            tuples=envelope.get("tuples", 0),
            on_fail=on_fail,
        )
