"""Failure recovery for one overlay node (paper Section 3.8).

A dead-ended routed message parks on an expanding ring for its unreachable
subtree.  Heartbeats and witness probes find dead peers: the sibling takes
the region over by shortening its code, and any other neighbor adopts it
unless a routed probe finds a live owner.  The node calls ``park``,
``start_heartbeats``, ``declare_dead`` and ``reset`` and merges the handler
tables into its own; the rest of the node (code, regions, neighbor table,
links, sends, routing, its RNG stream) is read through ``self.node``.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.net.message import Message
from repro.overlay.code import Code, intern_code

#: Expanding-ring recovery: probe floods grow one hop per round up to
#: ``RING_MAX_TTL``, one round every ``RING_STEP_TIMEOUT_S``.
RING_MAX_TTL = 6
RING_STEP_TIMEOUT_S = 2.0
#: Bounds of a dedupe table (:func:`remember`).
SEEN_CAP = 4096
SEEN_EVICT = 2048


def remember(seen: Dict[Any, Any], key: Any, value: Any = None) -> None:
    """Set ``seen[key]``; past ``SEEN_CAP`` keys drop the oldest
    ``SEEN_EVICT`` (a dict keeps insertion order)."""
    seen[key] = value
    if len(seen) > SEEN_CAP:
        for old in list(seen)[:SEEN_EVICT]:
            del seen[old]


@dataclass
class _Ring:
    """One expanding-ring search for a live way into an unreachable subtree.

    ``rounds`` counts floods sent so far.  ``waiters`` holds the parked
    envelopes, each with the last round it is flooded for.
    """

    id: int
    rounds: int = 0
    waiters: List[Tuple[int, Dict[str, Any]]] = field(default_factory=list)


class Recovery:
    """Ring recovery, liveness, takeover and adoption for one node."""

    def __init__(self, node: Any) -> None:
        self.node = node
        self.sim = node.sim
        self.config = node.config
        self._rng = node._rng
        #: When each peer was last heard from, and (with ``hb_suppress_s``)
        #: last sent to.  The node writes both on every message, through
        #: aliases of these same objects, so a crash clears them in place.
        self.last_heard: Dict[str, float] = {}
        self.last_sent: Dict[str, float] = {}
        #: Peers written off; the node forgets one when it talks again.
        self.declared_dead: Set[str] = set()
        self._hb_event = None
        #: Expanding-ring searches in flight, keyed by the bits of the
        #: subtree no live link enters: every op that dead-ends on the same
        #: subtree here parks on the same ring.
        self._rings: Dict[str, _Ring] = {}
        #: Ring ids stay monotonic across a crash, as ``_probe_seq`` does:
        #: remote ``_ring_seen`` entries outlive it.
        self._ring_seq = 0
        #: Per-node suppression of ring-probe floods: (op_id, origin) ->
        #: highest TTL already processed.  Without this an expanding-ring
        #: broadcast branches exponentially in the node degree.
        self._ring_seen: Dict[Any, int] = {}
        #: Fallback adoptions awaiting a reachability probe: region bits ->
        #: the backstop timer that adopts if neither an ack nor an explicit
        #: unreachable report arrives.
        self._pending_adoptions: Dict[str, Any] = {}
        self._probe_seq = 0
        #: The message kinds and routed kinds handled here; the node merges
        #: both into its own tables.
        self.handlers = {
            "code_update": self._on_code_update,
            "heartbeat": self._on_heartbeat,
            "liveness_probe": self._on_liveness_probe,
            "liveness_report": self._on_liveness_report,
            "witness_ping": self._on_witness_ping,
            "witness_pong": self._on_witness_pong,
            "ring_probe": self._on_ring_probe,
            "ring_found": self._on_ring_found,
            "adopt_probe_ack": self._on_adopt_probe_ack,
            "adopt_probe_dead": self._on_adopt_probe_dead,
        }
        self._routed = {
            "adopt_probe": (self._arrive_adopt_probe, self._adopt_probe_unreachable),
        }

    def reset(self) -> None:
        """Forget what a crash loses: liveness clocks, rings, deaths, pending
        adoptions and the heartbeat timer.  Sequence numbers and the bounded
        ``_ring_seen`` survive: peers still dedupe probes by those numbers."""
        self.last_heard.clear()
        self.last_sent.clear()
        self._rings = {}
        self.declared_dead.clear()
        for event in self._pending_adoptions.values():
            event.cancel()
        self._pending_adoptions = {}
        if self._hb_event is not None:
            self._hb_event.cancel()
            self._hb_event = None

    # ==================================================================
    # Expanding-ring recovery
    # ==================================================================
    def park(self, envelope: Dict[str, Any]) -> None:
        """Park a dead-ended envelope on the ring for its unreachable subtree.

        Greedy routing dead-ends exactly when no live link enters the
        subtree ``target[:match_len + 1]``, so every op with that dead end
        here shares one flood.  The probes carry the subtree as their
        target, which makes the remote found-test the same for every
        waiter.  Each waiter is flooded for ``RING_MAX_TTL`` rounds from
        the round it parks in, so it fails at the first round at or after
        ``park time + RING_MAX_TTL * RING_STEP_TIMEOUT_S``, never earlier.
        """
        node = self.node
        bits = envelope["target"]
        subtree = bits[: node.match_len(intern_code(bits)) + 1]
        ring = self._rings.get(subtree)
        if ring is None:
            self._ring_seq += 1
            node.ring_recoveries += 1
            ring = self._rings[subtree] = _Ring(self._ring_seq)
        else:
            node.ring_waits += 1
        ring.waiters.append((ring.rounds + RING_MAX_TTL, envelope))
        if not ring.rounds:
            self._ring_round(subtree, ring.id)

    def _ring_round(self, subtree: str, ring_id: int) -> None:
        ring = self._rings.get(subtree)
        if ring is None or ring.id != ring_id:
            return  # answered, drained, or lost in a crash
        node = self.node
        ring.rounds += 1
        arrived, exhausted, waiting = [], [], []
        for last_round, envelope in ring.waiters:
            if node.covers(intern_code(envelope["target"])):
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
            # TTL grows to ``RING_MAX_TTL``, then the ring re-floods at the
            # maximum while anything waits.  The probe id names the round:
            # ``_ring_seen`` drops a probe whose TTL it has already seen.
            probe = {
                "op_id": (ring.id, ring.rounds),
                "target": subtree,
                "best_match": node.match_len(intern_code(subtree)),
                "origin": node.address,
                "ttl": min(ring.rounds, RING_MAX_TTL),
                "visited": [node.address],
            }
            for addr, _ in node.links():
                node._send(addr, "ring_probe", dict(probe, visited=[node.address]))
            self.sim.schedule(RING_STEP_TIMEOUT_S, self._ring_round, subtree, ring.id)
        else:
            del self._rings[subtree]
        for envelope in arrived:
            node.on_route_arrival(envelope)
        for envelope in exhausted:
            node.on_route_failed(envelope, "ring-exhausted")

    def _on_ring_probe(self, msg: Message) -> None:
        node = self.node
        if not node.in_overlay():
            return
        payload = msg.payload
        seen_key = (payload["op_id"], payload["origin"])
        if self._ring_seen.get(seen_key, 0) >= payload["ttl"]:
            return
        remember(self._ring_seen, seen_key, payload["ttl"])
        target = intern_code(payload["target"])
        my_match = node.match_len(target)
        # A node inside the subtree answers even when its code is shorter
        # than the origin's best match (which a stale adoption can inflate):
        # it owns the target.
        found = node.covers(target) or (
            my_match >= payload["best_match"]
            and node._greedy_decision(target, node.links()).next_hop is not None
        )
        if found and node.address != payload["origin"]:
            answer = {"op_id": payload["op_id"], "match": my_match}
            node._send(payload["origin"], "ring_found", answer)
            return
        if payload["ttl"] > 1:
            visited = set(payload["visited"]) | {node.address}
            fwd = dict(payload, ttl=payload["ttl"] - 1, visited=list(visited))
            for addr, _ in node.links():
                if addr not in visited:
                    node._send(addr, "ring_probe", dict(fwd, visited=list(fwd["visited"])))

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
            self.node._forward(envelope, msg.src)

    # ==================================================================
    # Liveness
    # ==================================================================
    def start_heartbeats(self) -> None:
        if not self.config.liveness_enabled or self._hb_event is not None:
            return
        jitter = self._rng.random() * self.config.hb_interval_s
        self._hb_event = self.sim.schedule(jitter, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        self._hb_event = None
        node = self.node
        if not node.in_overlay():
            return
        now = self.sim.now
        suppress = self.config.hb_suppress_s
        last_sent = self.last_sent
        if suppress is not None:
            # An entry this old no longer suppresses anything, which is
            # exactly what a missing one does: drop it, so the table holds
            # the peers sent to within one window, not every peer ever.
            for addr in [addr for addr, sent in last_sent.items() if now - sent >= suppress]:
                del last_sent[addr]
        for addr, code in node.links():
            if suppress is None or now - last_sent.get(addr, -1e18) >= suppress:
                # ``peer_code`` echoes the code we hold for the receiver, so
                # a peer we know under a stale code corrects us.  Nothing
                # else would: after a rejoin elsewhere in the tree it no
                # longer heartbeats us, and witnesses attest only that its
                # address lives.  Greedy routing through a stale entry loops.
                beat = {"code": node.code.bits, "peer_code": code.bits}
                node._send(addr, "heartbeat", beat, size_bytes=96)
            if addr in self.last_heard and not self._heard_recently(addr):
                self._suspect(addr)
        self._hb_event = self.sim.schedule(self.config.hb_interval_s, self._heartbeat_tick)

    def _on_heartbeat(self, msg: Message) -> None:
        bits = msg.payload["code"]
        self._announced(msg.src, bits)
        believed = msg.payload.get("peer_code")
        code = self.node.code
        if believed is not None and code is not None and believed != code.bits:
            # The sender's entry for us is stale.  Answer with a corrective
            # beacon carrying our real code; the echo we attach is the code
            # the sender just told us, so the exchange converges in one
            # round trip instead of ping-ponging.
            beat = {"code": code.bits, "peer_code": bits}
            self.node._send(msg.src, "heartbeat", beat, size_bytes=96)

    def _heard_recently(self, addr: str) -> bool:
        last = self.last_heard.get(addr)
        return last is not None and self.sim.now - last <= self.config.hb_timeout_s

    def _suspect(self, addr: str) -> None:
        if addr in self.declared_dead:
            return
        # Ask another neighbor whether it has heard from the suspect; this
        # distinguishes "my link to the peer broke" from "the peer died".
        witnesses = [a for a, _ in self.node.links() if a != addr]
        if not witnesses:
            self.declare_dead(addr)
            return
        witness = self._rng.choice(sorted(witnesses))
        self.node._send(witness, "liveness_probe", {"suspect": addr})

    def _on_liveness_probe(self, msg: Message) -> None:
        """Attest whether ``suspect`` is alive: at once if we heard from it
        recently, else by pinging it over *our own* link, a path independent
        of the requester's possibly broken one (Section 3.8: a dead peer is
        not a dead link)."""
        node = self.node
        suspect = msg.payload["suspect"]
        if self._heard_recently(suspect):
            node._send(msg.src, "liveness_report", {"suspect": suspect, "alive": True})
            return
        requester = msg.src

        def ping_failed(failed_msg, reason, _s=suspect, _r=requester):
            if node.active:
                node._send(_r, "liveness_report", {"suspect": _s, "alive": False})

        ping = {"on_behalf": requester}
        node._send(suspect, "witness_ping", ping, size_bytes=96, on_fail=ping_failed)

    def _on_witness_ping(self, msg: Message) -> None:
        pong = {"on_behalf": msg.payload["on_behalf"]}
        self.node._send(msg.src, "witness_pong", pong, size_bytes=96)

    def _on_witness_pong(self, msg: Message) -> None:
        report = {"suspect": msg.src, "alive": True}
        self.node._send(msg.payload["on_behalf"], "liveness_report", report)

    def _on_liveness_report(self, msg: Message) -> None:
        if msg.payload["alive"]:
            return
        suspect = msg.payload["suspect"]
        if not self._heard_recently(suspect):
            self.declare_dead(suspect)

    # ==================================================================
    # Takeover and adoption
    # ==================================================================
    def declare_dead(self, addr: str) -> None:
        """Write ``addr`` off: its sibling takes its region over; any other
        neighbor schedules a fallback adoption."""
        if addr in self.declared_dead:
            return
        self.declared_dead.add(addr)
        node = self.node
        dead_code = node.neighbors.code_of(addr)
        node.neighbors.mark_dead(addr)
        if dead_code is None or node.code is None:
            return
        if node.code == dead_code.sibling():
            # Sibling takeover: shorten my code to cover the dead region.
            new_code = dead_code.shorten()
            node.takeovers += 1
            node.adopted = {r for r in node.adopted if not new_code.is_prefix_of(r)}
            node.code = new_code
            self._announce_code()
        else:
            # Staggered fallback adoption: deeper/further candidates wait
            # longer, so the sibling (or the closest survivor) wins the race.
            distance = len(dead_code) - node.code.common_prefix_len(dead_code)
            delay = self.config.adoption_delay_s * (1 + distance) * (1.0 + self._rng.random())
            self.sim.schedule(delay, self._maybe_adopt, dead_code, addr)

    def _maybe_adopt(self, dead_code: Code, dead_addr: str) -> None:
        node = self.node
        if not node.in_overlay():
            return
        if node.covers(dead_code) or dead_code.bits in self._pending_adoptions:
            return
        # Someone else may have taken over already; check our view.
        sibling = dead_code.sibling()
        for peer, code in node.neighbors.entries(alive_only=True):
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
        op_id = ("adopt-probe", node.address, self._probe_seq)
        backstop = (RING_MAX_TTL + 2) * RING_STEP_TIMEOUT_S
        bits = dead_code.bits
        self._pending_adoptions[bits] = self.sim.schedule(backstop, self._adopt_now, bits)
        inner = {"claimant": node.address, "probe": bits}
        node.route(dead_code, "adopt_probe", inner, op_id, exclude=[dead_addr])

    def _arrive_adopt_probe(self, envelope: Dict[str, Any]) -> None:
        node = self.node
        claimant = envelope["inner"]["claimant"]
        if claimant != node.address:
            probe = envelope["inner"]["probe"]
            node._send(claimant, "adopt_probe_ack", {"code": node.code.bits, "probe": probe})

    def _adopt_probe_unreachable(self, envelope: Dict[str, Any], reason: str) -> None:
        claimant = envelope["inner"]["claimant"]
        if claimant == self.node.address:
            self._adopt_now(envelope["inner"]["probe"])
        else:
            self.node._send(claimant, "adopt_probe_dead", {"probe": envelope["inner"]["probe"]})

    def _on_adopt_probe_ack(self, msg: Message) -> None:
        event = self._pending_adoptions.pop(msg.payload["probe"], None)
        if event is not None:
            event.cancel()
        self._announced(msg.src, msg.payload["code"])

    def _on_adopt_probe_dead(self, msg: Message) -> None:
        self._adopt_now(msg.payload["probe"])

    def _adopt_now(self, bits: str) -> None:
        event = self._pending_adoptions.pop(bits, None)
        if event is not None:
            event.cancel()
        node = self.node
        if not node.in_overlay():
            return
        dead_code = Code(bits)
        if node.covers(dead_code):
            return
        for _, code in node.neighbors.entries(alive_only=True):
            if code.comparable(dead_code):
                return
        node.takeovers += 1
        node.adopted.add(dead_code)
        self._announce_code()

    # ==================================================================
    # Code announcements
    # ==================================================================
    def _on_code_update(self, msg: Message) -> None:
        self._announced(msg.payload["address"], msg.payload["code"])

    def _announced(self, addr: str, bits: str) -> None:
        """``addr`` announces its primary code ``bits`` (a heartbeat, a code
        update or a probe ack): file it as alive, and cede every adopted
        region and pending adoption it covers — a stale fallback adoption,
        since only owners announce (ours is dataless; a takeover holds the
        region's replicas)."""
        node = self.node
        neighbors = node.neighbors
        if not neighbors.confirm_alive(addr, bits):
            neighbors.upsert(addr, Code(bits))
        if not (node.adopted or self._pending_adoptions) or addr == node.address:
            return
        code = intern_code(bits)
        stale = {region for region in node.adopted if code.comparable(region)}
        if stale:
            node.adopted -= stale
        for pending in [b for b in self._pending_adoptions if code.comparable(Code(b))]:
            self._pending_adoptions.pop(pending).cancel()

    def _announce_code(self) -> None:
        node = self.node
        update = {"address": node.address, "code": node.code.bits}
        for addr, _ in node.links():
            node._send(addr, "code_update", update)
