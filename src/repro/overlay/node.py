"""The overlay node: message dispatch, join, routing, liveness, recovery.

:class:`OverlayNode` implements everything in the paper's Section 3.3 and
3.8 — the hypercube membership protocol and its failure handling — and
exposes hooks that :class:`repro.core.mind_node.MindNode` overrides to add
index semantics (Sections 3.4-3.7).

Processing model
----------------
Each delivered message waits for the node's single dispatch "thread": the
node has a CPU-busy horizon and every message adds a sampled service time,
so a node flooded with inserts develops a queue — this is the mechanism
behind the paper's long latency tails (Figures 7, 8, 11).  Per-node
``speed_factor`` models slow PlanetLab machines.
"""

from array import array
from dataclasses import dataclass, field
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
from repro.sim.kernel import Simulator


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
    join_timeout_s: float = 8.0
    join_backoff_s: float = 1.0
    hb_interval_s: float = 10.0
    hb_timeout_s: float = 35.0
    liveness_enabled: bool = False
    ring_max_ttl: int = 6
    ring_step_timeout_s: float = 2.0
    #: Routed messages die after this many hops (covers pathological
    #: bouncing between stale-coded nodes during recovery transients).
    route_ttl: int = 24
    #: Heartbeat piggybacking: skip the periodic heartbeat to a neighbor
    #: this node has sent *any* message within the window (every delivery
    #: refreshes the receiver's liveness clock, so the data traffic itself
    #: is the heartbeat).  ``None`` sends every heartbeat.  Suppression
    #: also delays code-change announcements to active neighbors, so it is
    #: meant for stable-topology runs (the scale perf tier), not churn.
    hb_suppress_s: Optional[float] = None
    adoption_delay_s: float = 5.0
    route_msg_bytes: int = 320
    control_msg_bytes: int = 180


@dataclass
class _Ring:
    """One expanding-ring search for a live way into an unreachable subtree.

    ``rounds`` counts floods sent so far.  ``waiters`` holds the parked
    envelopes, each with the last round it is flooded for.
    """

    id: int
    rounds: int = 0
    waiters: List[Tuple[int, Dict[str, Any]]] = field(default_factory=list)


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
        #: ``(time, fn, args)`` schedulers, chosen once: the network's slot
        #: wheel when it coalesces, else exact kernel events.  ``_defer``
        #: parks dispatches; ``_defer_timer`` parks coarse watchdogs and
        #: returns a cancel handle (a ``SlotCall`` or the kernel ``Event``).
        if network.coalesce_window_s:
            self._defer, self._defer_timer = network.call_in_slot, network.timer_in_slot
        else:
            self._defer = self._defer_timer = sim.push_at

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
        self._last_heard: Dict[str, float] = {}
        self._last_sent: Dict[str, float] = {}
        self._hb_event = None
        #: Expanding-ring searches in flight, keyed by the bits of the
        #: subtree no live link enters: every op that dead-ends on the same
        #: subtree here parks on the same ring.
        self._rings: Dict[str, _Ring] = {}
        #: Ring ids stay monotonic across crash()/restore(), as
        #: ``_probe_seq`` does: remote ``_ring_seen`` entries outlive a crash.
        self._ring_seq = 0
        #: Per-node suppression of ring-probe floods: (op_id, origin) ->
        #: highest TTL already processed.  Without this an expanding-ring
        #: broadcast branches exponentially in the node degree.
        self._ring_seen: Dict[Any, int] = {}
        self._declared_dead: Set[str] = set()
        #: Fallback adoptions awaiting a reachability probe: region bits ->
        #: the backstop timer that adopts if neither an ack nor an explicit
        #: unreachable report arrives.
        self._pending_adoptions: Dict[str, Any] = {}
        self._probe_seq = 0
        #: ``links()`` memo: key -> computed link list.  ``links()`` is
        #: called on every routed hop and recomputes hypercube neighbors
        #: from codes; at 1k nodes that recomputation dominates the whole
        #: simulation, while the inputs (neighbor table, code, adopted
        #: regions) change only on joins/splits/liveness transitions.
        self._links_key: Optional[Tuple[Any, ...]] = None
        self._links_memo: List[Tuple[str, Code]] = []

        self.bootstrap_provider: Optional[Callable[[str], Optional[str]]] = None
        self.on_joined_callbacks: List[Callable[["OverlayNode"], None]] = []

        self.messages_processed = 0
        self.routes_forwarded = 0
        #: Rings started, and ops that parked on a ring already in flight.
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
        self._handlers: Dict[str, Callable[[Message], None]] = {
            "join_lookup": self._on_join_lookup,
            "join_neighborhood": self._on_join_neighborhood,
            "join_lookup_fail": self._on_join_lookup_fail,
            "join_request": self._on_join_request,
            "join_reject": self._on_join_reject,
            "join_cancel": self._on_join_cancel,
            "split_prepare": self._on_split_prepare,
            "split_ack": self._on_split_ack,
            "split_nack": self._on_split_nack,
            "split_abort": self._on_split_abort,
            "split_commit_notify": self._on_split_commit_notify,
            "split_done": self._on_split_done,
            "code_update": self._on_code_update,
            "heartbeat": self._on_heartbeat,
            "liveness_probe": self._on_liveness_probe,
            "liveness_report": self._on_liveness_report,
            "witness_ping": self._on_witness_ping,
            "witness_pong": self._on_witness_pong,
            "route": self._on_route,
            "ring_probe": self._on_ring_probe,
            "ring_found": self._on_ring_found,
            "adopt_probe_ack": self._on_adopt_probe_ack,
            "adopt_probe_dead": self._on_adopt_probe_dead,
        }
        # Flat dispatch table indexed by ``Message.kind_id``, built once on
        # the first dispatch (``extra_handlers()`` needs the subclass
        # __init__ to have finished) from ``_handlers`` + ``extra_handlers()``.
        # A table index replaces two string dict probes per received
        # message.  Slot ``UNKNOWN_KIND_ID`` (the last one) stays ``None``
        # so unregistered kinds fall into the error path without a bounds
        # check; handlers for kinds outside the wire registry (test-only
        # kinds) keep working via the string-keyed overflow dict.
        self._dispatch_table: Optional[List[Optional[Callable[[Message], None]]]] = None
        self._dispatch_overflow: Dict[str, Callable[[Message], None]] = {}
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
        """Called when a routed message reaches a responsible node.

        Overlay-level routed kinds (adoption probes) are handled here;
        subclasses must delegate kinds they don't recognise to ``super()``.
        """
        if envelope["inner_kind"] == "adopt_probe":
            self._arrive_adopt_probe(envelope)

    def on_route_failed(self, envelope: Dict[str, Any], reason: str) -> None:
        """Called when routing gave up (ring recovery exhausted).

        Same delegation contract as :meth:`on_route_arrival`.
        """
        if envelope["inner_kind"] == "adopt_probe":
            self._adopt_probe_unreachable(envelope)

    def on_split_transfer_state(self, old_code: Code, joiner_code: Code) -> Dict[str, Any]:
        """Host-side: application state handed to the joiner."""
        return {}

    def on_split_received_state(self, state: Dict[str, Any]) -> None:
        """Joiner-side: install application state from the host."""

    def on_code_changed(self, old_code: Optional[Code], new_code: Code) -> None:
        """Called after any code change (split, takeover)."""

    def on_peer_dead(self, address: str, code: Optional[Code]) -> None:
        """Called once when a peer is declared dead."""

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
        self._set_code(Code(""))
        self._notify_joined()
        self._start_heartbeats()

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
        self._last_heard = {}
        self._last_sent = {}
        self._rings = {}
        self._declared_dead = set()
        for event in self._pending_adoptions.values():
            event.cancel()
        self._pending_adoptions = {}
        if self._hb_event is not None:
            self._hb_event.cancel()
            self._hb_event = None

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
        size = size_bytes if size_bytes is not None else self.config.control_msg_bytes
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

    def _schedule_coarse(self, delay: float, fn: Callable[..., None], *args: Any):
        """Schedule a *self-guarding* callback, coarsely when coalescing is on.

        For per-operation watchdogs that are almost always cancelled: with
        coalescing enabled the callback rides the network call wheel — no
        kernel event of its own, up to one window late — and returns a
        ``SlotCall`` whose ``cancel()`` frees the entry.  Without
        coalescing this is an exact kernel timer and returns its Event.
        Either way a cancel can lose the race with the firing (a wheel
        call whose slot is already draining runs), so the callback keeps
        its own staleness guard.
        """
        return self._defer_timer(self.sim.now + delay, fn, args)

    def _refill_service_jitter(self) -> float:
        """Refill the empty jitter buffer with a block; draws pop from its end."""
        self._jitter_buf.frombytes(
            self._np_service.lognormal(
                0.0, self.config.service_jitter_sigma, self.config.service_draw_block
            ).tobytes()
        )
        return self._jitter_buf.pop()

    def _build_dispatch_table(self) -> List[Optional[Callable[[Message], None]]]:
        """Flatten ``_handlers`` + ``extra_handlers()`` into a kind-id table."""
        table: List[Optional[Callable[[Message], None]]] = [None] * (protocol.NUM_KINDS + 1)
        kind_ids = protocol.KIND_IDS
        for source in (self._handlers, self.extra_handlers()):
            for kind, handler in source.items():
                kid = kind_ids.get(kind)
                if kid is None:
                    # repro-leak: ignore[leak-op-state] bounded by registered kinds
                    self._dispatch_overflow[kind] = handler
                else:
                    table[kid] = handler
        self._dispatch_table = table
        return table

    def _dispatch(self, msg: Message) -> None:
        if not self.active:
            return
        self.messages_processed += 1
        self._last_heard[msg.src] = self.sim.now
        if self._declared_dead and msg.src in self._declared_dead:
            # A peer we wrote off is talking again (it restarted or the
            # partition healed); let liveness re-learn it via joins.
            self._declared_dead.discard(msg.src)
        table = self._dispatch_table
        if table is None:
            table = self._build_dispatch_table()
        handler = table[msg.kind_id]
        if handler is None:
            handler = self._dispatch_overflow.get(msg.kind)
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
        state.timeout_event = self.sim.schedule(self.config.join_timeout_s, self._join_timed_out, state.attempt)

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
        backoff = self.config.join_backoff_s * (1.0 + self._rng.random())
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

    def _on_join_lookup_fail(self, msg: Message) -> None:
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

    def _on_join_reject(self, msg: Message) -> None:
        if self._joiner_state is not None and self.code is None:
            self._retry_join()

    def _on_split_done(self, msg: Message) -> None:
        state = self._joiner_state
        if state is None or self.code is not None or msg.src != state.host:
            return
        state.clear_timeout()
        self._joiner_state = None
        payload = msg.payload
        self._set_code(Code(payload["code"]))
        for addr, bits in payload["neighbors"]:
            if addr != self.address:
                self.neighbors.upsert(addr, Code(bits))
        self.neighbors.prune_to_neighborhood(self.code)
        self.sibling_pointer = SiblingPointer(sibling=msg.src)
        self.on_split_received_state(payload.get("state", {}))
        self._notify_joined()
        self._start_heartbeats()

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
            self.config.join_timeout_s, self._host_join_timed_out, state.round_id
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
            self._declare_dead(joiner)

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
        self._set_code(new_code, old_code=old_code)
        self.neighbors.upsert(state.joiner, joiner_code)
        self.neighbors.prune_to_neighborhood(self.code)
        self._send(
            state.joiner,
            "split_done",
            {"code": joiner_code.bits, "neighbors": table, "state": app_state},
            size_bytes=self.config.control_msg_bytes * 4,
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

    def _on_code_update(self, msg: Message) -> None:
        payload = msg.payload
        code = Code(payload["code"])
        self.neighbors.upsert(payload["address"], code)
        if payload["address"] != self.address:
            self._cede_adoptions_to(code)

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
        # every hop and may be parked on a ring in ``_rings``, so routing must
        # work on a private copy, never the sender's object.  The envelope
        # schema is closed (built only in route()), so copy exactly its
        # mutable members — path and exclude — instead of a generic deep
        # thaw of the whole envelope.  ``dict()``/``list()`` also accept
        # the frozen views the message isolation sanitizer substitutes at
        # the ``freeze`` level.  The application ``inner`` payload is the
        # expensive part of a deep copy and routing never touches it, so
        # its thaw is deferred to the terminal hop (``private_inner``):
        # intermediate hops forward it by reference.
        envelope = dict(msg.payload)
        envelope["path"] = list(envelope["path"])
        envelope["exclude"] = list(envelope["exclude"])
        self._route_step(envelope, private_inner=False)

    def _privatize_inner(self, envelope: Dict[str, Any]) -> None:
        """Make a still-aliased ``envelope['inner']`` safe for non-routing code.

        Only the ``freeze`` isolation level needs work: its read-only views
        must be thawed back into mutable containers before arrival/failure/
        recovery code consumes them.  Under ``copy`` the delivery clone
        already made the whole payload private to this node, and under
        ``off`` by-reference delivery *is* the contract (the aliasing lint
        keeps handlers copy-clean) — both skip the deep thaw, which at
        terminal hops otherwise dominates routed-insert cost.
        """
        if self._frozen_delivery:
            envelope["inner"] = thaw_payload(envelope["inner"])

    def _route_step(self, envelope: Dict[str, Any], private_inner: bool = True) -> None:
        """Advance one routing step.

        ``private_inner`` records whether ``envelope['inner']`` is already
        a private (or origin-owned) object; when ``False`` it still aliases
        the in-flight message payload and must be privatized before
        anything retains or consumes it — arrival, failure reporting, and
        ring recovery below, each of which hands it to non-routing code.
        """
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
            if not private_inner:
                self._privatize_inner(envelope)
            self.on_route_arrival(envelope)
            return
        if envelope["hops"] >= self.config.route_ttl:
            if not private_inner:
                self._privatize_inner(envelope)
            self.on_route_failed(envelope, "ttl-exceeded")
            return
        links = self.links()
        exclude = envelope["exclude"]
        path = envelope["path"]
        if exclude:
            decision = next_hop(self.code, target, links, exclude=exclude, visited=path)
        else:
            # The table decision ignores ``visited``: when the global
            # winner is not on the message's path the restricted
            # (fresh-candidates-first) scan picks the same winner, so the
            # table is exact; otherwise fall back to the full scan.
            # ``visited`` never removes candidates — it only deprioritizes
            # them — so a table "dead end" is a dead end for every
            # message.
            decision = self._greedy_decision(target, links)
            if decision.next_hop is not None and decision.next_hop in path:
                decision = next_hop(self.code, target, links, visited=path)
        if decision.next_hop is None:
            if not private_inner:
                self._privatize_inner(envelope)
            self._start_ring_recovery(envelope)
            return
        if decision.next_hop in path:
            # Every candidate toward the target's subtree is already on
            # this message's path: the greedy scan fell back to a visited
            # node, and with unchanged link tables re-forwarding replays
            # the exact cycle until the TTL dies.  This happens when a
            # link entry is stale — the peer crashed and rejoined under a
            # different code, so it bounces the message straight back.
            # Expanding-ring recovery can escape through nodes outside
            # the cycle, so treat the revisit as a greedy dead end.
            if not private_inner:
                self._privatize_inner(envelope)
            self._start_ring_recovery(envelope)
            return
        self._forward(envelope, decision.next_hop, private_inner)

    def _greedy_decision(self, target: Code, links: List[Tuple[str, Code]]) -> RouteDecision:
        """``next_hop(self.code, target, links)`` through the per-dimension
        rows, rebuilt whenever ``links()`` hands out a new list."""
        if links is not self._route_links:
            self._route_rows = route_rows(self.code, links)
            self._route_links = links
        return table_next_hop(self.code, self._route_rows, target)

    def _forward(self, envelope: Dict[str, Any], nxt: str, private_inner: bool = True) -> None:
        envelope["hops"] += 1
        envelope["path"].append(nxt)
        self.routes_forwarded += 1

        def on_fail(msg: Message, reason: str, _nxt=nxt, _env=envelope, _priv=private_inner) -> None:
            # The link (or peer) is unreachable: exclude it and try an
            # alternate route from here, as Section 3.8 describes.
            if not self.in_overlay():
                return
            _env["hops"] -= 1
            _env["path"].pop()
            _env["exclude"].append(_nxt)
            self._route_step(_env, private_inner=_priv)

        self._send(
            nxt,
            "route",
            envelope,
            size_bytes=self.config.route_msg_bytes,
            tuples=envelope.get("tuples", 0),
            on_fail=on_fail,
        )

    # ==================================================================
    # Expanding-ring recovery
    # ==================================================================
    def _start_ring_recovery(self, envelope: Dict[str, Any]) -> None:
        """Park a dead-ended envelope on the ring for its unreachable subtree.

        Greedy routing dead-ends exactly when no live link enters the
        subtree ``target[:match_len + 1]``, so every op with that dead end
        here shares one flood.  The probes carry the subtree as their
        target, which makes the remote found-test the same for every
        waiter.  Each waiter is flooded for ``ring_max_ttl`` rounds from
        the round it parks in, so it fails at the first round at or after
        ``park time + ring_max_ttl * ring_step_timeout_s``, never earlier.
        """
        bits = envelope["target"]
        subtree = bits[: self.match_len(intern_code(bits)) + 1]
        ring = self._rings.get(subtree)
        if ring is None:
            self._ring_seq += 1
            self.ring_recoveries += 1
            ring = self._rings[subtree] = _Ring(self._ring_seq)
        else:
            self.ring_waits += 1
        ring.waiters.append((ring.rounds + self.config.ring_max_ttl, envelope))
        if not ring.rounds:
            self._ring_round(subtree, ring.id)

    def _ring_round(self, subtree: str, ring_id: int) -> None:
        ring = self._rings.get(subtree)
        if ring is None or ring.id != ring_id:
            return  # answered, drained, or lost in a crash
        ring.rounds += 1
        arrived, exhausted, waiting = [], [], []
        for last_round, envelope in ring.waiters:
            if self.covers(intern_code(envelope["target"])):
                # A takeover or adoption since the last round made *us* the
                # responsible node (a recovery transient, e.g. we are the
                # dead target's sibling and declared it dead mid-ring):
                # deliver locally instead of failing.
                arrived.append(envelope)
            elif ring.rounds > last_round:
                exhausted.append(envelope)
            else:
                waiting.append((last_round, envelope))
        ring.waiters = waiting
        if waiting:
            # TTL grows to ``ring_max_ttl``, then the ring re-floods at the
            # maximum while anything waits.  The probe id names the round:
            # ``_ring_seen`` drops a probe whose TTL it has already seen.
            probe = {
                "op_id": (ring.id, ring.rounds),
                "target": subtree,
                "best_match": self.match_len(intern_code(subtree)),
                "origin": self.address,
                "ttl": min(ring.rounds, self.config.ring_max_ttl),
                "visited": [self.address],
            }
            for addr, _ in self.links():
                self._send(addr, "ring_probe", dict(probe, visited=[self.address]))
            self.sim.schedule(self.config.ring_step_timeout_s, self._ring_round, subtree, ring.id)
        else:
            del self._rings[subtree]
        for envelope in arrived:
            self.on_route_arrival(envelope)
        for envelope in exhausted:
            self.on_route_failed(envelope, "ring-exhausted")

    def _on_ring_probe(self, msg: Message) -> None:
        if not self.in_overlay():
            return
        payload = msg.payload
        seen_key = (payload["op_id"], payload["origin"])
        if self._ring_seen.get(seen_key, 0) >= payload["ttl"]:
            return
        # repro-san: ignore[alias-payload-retention] ttl is an int, not a container
        self._ring_seen[seen_key] = payload["ttl"]
        if len(self._ring_seen) > 4096:
            # Bounded memory: drop the oldest half (dict preserves
            # insertion order).
            for key in list(self._ring_seen)[:2048]:
                del self._ring_seen[key]
        target = intern_code(payload["target"])
        my_match = self.match_len(target)
        # A node inside the subtree answers even when its code is shorter
        # than the origin's best match (which a stale adoption can inflate):
        # it owns the target.
        found = self.covers(target) or (
            my_match >= payload["best_match"]
            and self._greedy_decision(target, self.links()).next_hop is not None
        )
        if found and self.address != payload["origin"]:
            self._send(payload["origin"], "ring_found", {"op_id": payload["op_id"], "match": my_match})
            return
        if payload["ttl"] > 1:
            visited = set(payload["visited"]) | {self.address}
            fwd = dict(payload, ttl=payload["ttl"] - 1, visited=list(visited))
            for addr, _ in self.links():
                if addr not in visited:
                    self._send(addr, "ring_probe", dict(fwd, visited=list(fwd["visited"])))

    def _on_ring_found(self, msg: Message) -> None:
        """A live node can make progress into the subtree: forward every
        waiter to it, with ``exclude`` cleared."""
        ring_id = msg.payload["op_id"][0]
        for subtree, ring in self._rings.items():
            if ring.id == ring_id:
                break
        else:
            return  # answered already, drained, or lost in a crash
        del self._rings[subtree]
        for _, envelope in ring.waiters:
            envelope["exclude"] = []
            self._forward(envelope, msg.src)

    # ==================================================================
    # Liveness and takeover
    # ==================================================================
    def _start_heartbeats(self) -> None:
        if not self.config.liveness_enabled or self._hb_event is not None:
            return
        jitter = self._rng.random() * self.config.hb_interval_s
        self._hb_event = self.sim.schedule(jitter, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        self._hb_event = None
        if not self.in_overlay():
            return
        now = self.sim.now
        suppress = self.config.hb_suppress_s
        if suppress is not None:
            # An entry this old no longer suppresses anything, which is
            # exactly what a missing one does: drop it, so the table holds
            # the peers sent to within one window, not every peer ever.
            self._last_sent = {
                addr: sent for addr, sent in self._last_sent.items() if now - sent < suppress
            }
        for addr, code in self.links():
            if suppress is None or now - self._last_sent.get(addr, -1e18) >= suppress:
                # ``peer_code`` echoes what *we* think the receiver's code
                # is, so a peer we know under a stale code (it crashed and
                # rejoined elsewhere in the tree) can correct us: without
                # the echo a one-directional link never heals — the peer
                # does not have us in its new link set, so its own
                # heartbeats never reach us, and witness probes only attest
                # that the *address* is alive, keeping the stale code
                # forever.  Greedy routing through such an entry loops.
                self._send(
                    addr,
                    "heartbeat",
                    {"code": self.code.bits, "peer_code": code.bits},
                    size_bytes=96,
                )
            last = self._last_heard.get(addr)
            if last is not None and now - last > self.config.hb_timeout_s:
                self._suspect(addr, code)
        self._hb_event = self.sim.schedule(self.config.hb_interval_s, self._heartbeat_tick)

    def _on_heartbeat(self, msg: Message) -> None:
        bits = msg.payload["code"]
        if self.neighbors.confirm_alive(msg.src, bits):
            # Steady state: the peer is known, alive, and unchanged.
            if self.adopted or self._pending_adoptions:
                self._cede_adoptions_to(intern_code(bits))
        else:
            code = Code(bits)
            self.neighbors.upsert(msg.src, code)
            self.neighbors.mark_alive(msg.src)
            if self.adopted or self._pending_adoptions:
                self._cede_adoptions_to(code)
        believed = msg.payload.get("peer_code")
        if (
            believed is not None
            and self.code is not None
            and believed != self.code.bits
        ):
            # The sender's entry for us is stale.  Answer with a corrective
            # beacon carrying our real code; the echo we attach is the code
            # the sender just told us, so the exchange converges in one
            # round trip instead of ping-ponging.
            self._send(
                msg.src,
                "heartbeat",
                {"code": self.code.bits, "peer_code": bits},
                size_bytes=96,
            )

    def _suspect(self, addr: str, code: Code) -> None:
        if addr in self._declared_dead:
            return
        # Ask another neighbor whether it has heard from the suspect; this
        # distinguishes "my link to the peer broke" from "the peer died".
        witnesses = [a for a, _ in self.links() if a != addr]
        if not witnesses:
            self._declare_dead(addr)
            return
        witness = self._rng.choice(sorted(witnesses))
        self._send(witness, "liveness_probe", {"suspect": addr})

    def _on_liveness_probe(self, msg: Message) -> None:
        """A peer asks us to attest whether ``suspect`` is alive.

        If we heard from the suspect recently we attest directly; otherwise
        we ping it over *our own* link — a path independent of the
        requester's possibly-broken one, which is the point of the probe
        (Section 3.8: distinguish a dead peer from a dead link).
        """
        suspect = msg.payload["suspect"]
        last = self._last_heard.get(suspect)
        if last is not None and (self.sim.now - last) <= self.config.hb_timeout_s:
            self._send(msg.src, "liveness_report", {"suspect": suspect, "alive": True})
            return
        requester = msg.src

        def ping_failed(failed_msg, reason, _s=suspect, _r=requester):
            if self.active:
                self._send(_r, "liveness_report", {"suspect": _s, "alive": False})

        self._send(
            suspect,
            "witness_ping",
            {"on_behalf": requester},
            size_bytes=96,
            on_fail=ping_failed,
        )

    def _on_witness_ping(self, msg: Message) -> None:
        self._send(msg.src, "witness_pong", {"on_behalf": msg.payload["on_behalf"]}, size_bytes=96)

    def _on_witness_pong(self, msg: Message) -> None:
        self._send(
            msg.payload["on_behalf"],
            "liveness_report",
            {"suspect": msg.src, "alive": True},
        )

    def _on_liveness_report(self, msg: Message) -> None:
        if msg.payload["alive"]:
            return
        suspect = msg.payload["suspect"]
        last = self._last_heard.get(suspect)
        if last is not None and (self.sim.now - last) <= self.config.hb_timeout_s:
            return
        self._declare_dead(suspect)

    def _declare_dead(self, addr: str) -> None:
        if addr in self._declared_dead:
            return
        self._declared_dead.add(addr)
        dead_code = self.neighbors.code_of(addr)
        self.neighbors.mark_dead(addr)
        self.on_peer_dead(addr, dead_code)
        if dead_code is None or self.code is None:
            return
        if self.code == dead_code.sibling():
            self._takeover(dead_code)
        else:
            # Staggered fallback adoption: deeper/further candidates wait
            # longer, so the sibling (or the closest survivor) wins the race.
            distance = len(dead_code) - self.code.common_prefix_len(dead_code)
            delay = self.config.adoption_delay_s * (1 + distance) * (1.0 + self._rng.random())
            self.sim.schedule(delay, self._maybe_adopt, dead_code, addr)

    def _takeover(self, dead_code: Code) -> None:
        """Sibling takeover: shorten my code to cover the dead region."""
        old_code = self.code
        new_code = dead_code.shorten()
        self.takeovers += 1
        self.adopted = {r for r in self.adopted if not new_code.is_prefix_of(r)}
        self._set_code(new_code, old_code=old_code)
        self._announce_code()

    def _maybe_adopt(self, dead_code: Code, dead_addr: str) -> None:
        if not self.in_overlay():
            return
        if self.covers(dead_code) or dead_code.bits in self._pending_adoptions:
            return
        # Someone else may have taken over already; check our view.
        sibling = dead_code.sibling()
        for peer, code in self.neighbors.entries(alive_only=True):
            if peer != dead_addr and (code.comparable(dead_code) or code == sibling):
                # Taken over (or about to be: the exact sibling takes over
                # the moment it declares the death itself).
                return
        # Our pruned neighborhood cannot see every candidate — the true
        # sibling usually is *not* in it, and with replication >= 1 it
        # holds the dead region's replicas while we hold nothing.
        # Adopting over a live takeover would shadow the replica holder
        # with a dataless copy of the region and queries would silently
        # lose records, so probe the region through routing first and
        # adopt only when nothing live answers.
        self._probe_seq += 1
        op_id = ("adopt-probe", self.address, self._probe_seq)
        backstop = (self.config.ring_max_ttl + 2) * self.config.ring_step_timeout_s
        self._pending_adoptions[dead_code.bits] = self.sim.schedule(
            backstop, self._adopt_now, dead_code.bits
        )
        self.route(
            dead_code,
            "adopt_probe",
            {"claimant": self.address, "probe": dead_code.bits},
            op_id,
            exclude=[dead_addr],
        )

    def _arrive_adopt_probe(self, envelope: Dict[str, Any]) -> None:
        claimant = envelope["inner"]["claimant"]
        if claimant != self.address:
            self._send(
                claimant,
                "adopt_probe_ack",
                {"code": self.code.bits, "probe": envelope["inner"]["probe"]},
            )

    def _adopt_probe_unreachable(self, envelope: Dict[str, Any]) -> None:
        claimant = envelope["inner"]["claimant"]
        if claimant == self.address:
            self._adopt_now(envelope["inner"]["probe"])
        else:
            self._send(claimant, "adopt_probe_dead", {"probe": envelope["inner"]["probe"]})

    def _on_adopt_probe_ack(self, msg: Message) -> None:
        code = Code(msg.payload["code"])
        self.neighbors.upsert(msg.src, code)
        event = self._pending_adoptions.pop(msg.payload["probe"], None)
        if event is not None:
            event.cancel()
        self._cede_adoptions_to(code)

    def _on_adopt_probe_dead(self, msg: Message) -> None:
        self._adopt_now(msg.payload["probe"])

    def _adopt_now(self, bits: str) -> None:
        event = self._pending_adoptions.pop(bits, None)
        if event is not None:
            event.cancel()
        if not self.in_overlay():
            return
        dead_code = Code(bits)
        if self.covers(dead_code):
            return
        for _, code in self.neighbors.entries(alive_only=True):
            if code.comparable(dead_code):
                return
        self.takeovers += 1
        self.adopted.add(dead_code)
        self._announce_code()
        self.on_code_changed(self.code, self.code)

    def _cede_adoptions_to(self, code: Code) -> None:
        """A live peer claims ``code``: any adopted region it covers is a
        stale fallback adoption (ours is dataless; a takeover holds the
        region's replicas), so cede it and drop pending probes for it.
        Only primary codes are announced, so another fallback adopter can
        never trigger this — just real owners after a takeover."""
        stale = {region for region in self.adopted if code.comparable(region)}
        if stale:
            self.adopted -= stale
        for bits in [b for b in self._pending_adoptions if code.comparable(Code(b))]:
            self._pending_adoptions.pop(bits).cancel()

    def _announce_code(self) -> None:
        update = {"address": self.address, "code": self.code.bits}
        for addr, _ in self.links():
            self._send(addr, "code_update", update)

    # ==================================================================
    # Internals
    # ==================================================================
    def _set_code(self, new_code: Code, old_code: Optional[Code] = None) -> None:
        self.code = new_code
        self.on_code_changed(old_code, new_code)

    def _notify_joined(self) -> None:
        for callback in self.on_joined_callbacks:
            callback(self)
