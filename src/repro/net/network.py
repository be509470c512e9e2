"""Message-passing network with per-link queues and failure awareness.

The network delivers :class:`~repro.net.message.Message` objects between
registered endpoints.  Each directed link serializes transmissions at a
configurable bandwidth (producing the queuing hotspots behind the paper's
Figure 8), adds a sampled one-way latency, and honours link/node failure
state injected by :class:`~repro.net.failures.FailureInjector`.

Semantics mirror TCP as the paper's prototype used it: if the link or the
destination is down the sender's ``on_fail`` callback fires after a
detection delay, letting overlay code run its reconnect/re-route logic.

Scaling design
--------------
``_transmit``/``_deliver`` are the hottest per-message functions of every
experiment, so the bookkeeping is laid out for the 1k-node regime:

* **Array-backed link accounting.**  Each directed link is interned once
  into an integer id (``src -> dst -> id`` nested dicts, no per-send tuple
  key allocation).  Busy-until and the latency class live in
  ``array('d')`` columns and the message/byte/tuple counters in
  ``array('q')`` columns indexed by that id: 40 bytes a link beside its
  id-map entry, with no boxed number and no ``(src, dst)`` key tuple.
  Delay samples, when recorded, sit in a dict by id.  The public
  :attr:`link_stats` mapping is a read-only view over the nested id
  map that builds a :class:`LinkStats` for each link it is asked for —
  experiment read-out, not the send path.
* **One-lookup liveness.**  ``_up_endpoints`` holds exactly the endpoints
  that are registered *and* up, so the no-failure path does a single dict
  probe per side instead of separate registration and liveness checks,
  and the link-down check short-circuits on the (empty) outage table.
"""

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import checks
from repro.checks import ISOLATE_OFF
from repro.net.latency import PATHOLOGY_ALPHA, LatencyModel
from repro.net.message import HEADER_BYTES, ISOLATE_COPY, Message
from repro.net.topology import Site
from repro.sim.kernel import Simulator
from repro.sim.resources import ResourceLedger

DeliverFn = Callable[[Message], None]
FailFn = Callable[[Message, str], None]

#: Time for a sender to learn that a connection attempt failed.
FAIL_DETECT_S = 1.0


def decimate_step(
    samples: List[Tuple[float, float]],
    stride: int,
    phase: int,
    cap: Optional[int],
    time: float,
    delay: float,
) -> Tuple[int, int]:
    """Advance the stride-decimation sampler by one send.

    Records ``(time, delay)`` when the sampler's phase comes due; when the
    buffer reaches ``cap`` it is thinned to every other sample and the
    stride doubles.  Returns the new ``(stride, phase)``.  Decimation
    keeps the temporal *shape* of the series (Figures 8 and 12 plot delay
    versus time), which reservoir sampling under the same bound would not.

    The phase is realigned on every stride doubling so retained samples
    keep the even-spacing contract the Figure 8/12 plots assume: the next
    recorded send lands exactly one *new* stride after the last retained
    sample.  (Without realignment the sample following a doubling drifts
    off-grid — the pre-fix behavior.)
    """
    if phase == 0:
        samples.append((time, delay))
        if cap is not None and len(samples) >= cap:
            # Whether the just-appended sample survives the thinning
            # decides where the next on-grid sample falls: it survives
            # exactly when its index (len-1) is even.
            last_kept = len(samples) % 2 == 1
            del samples[1::2]
            phase = 0 if last_kept else stride
            stride *= 2
    return stride, (phase + 1) % stride


@dataclass
class LinkStats:
    """Counters and samples for one directed link (``src -> dst``)."""

    tuples: int = 0
    messages: int = 0
    bytes: int = 0
    #: (send_time, total_delay_seconds) samples; populated only when the
    #: network was created with ``record_link_delays=True``.  Bounded by
    #: the network's ``link_delay_sample_cap`` via stride decimation.
    delay_samples: List[Tuple[float, float]] = field(default_factory=list)
    #: Every ``delay_sample_stride``-th send is sampled; starts at 1 and
    #: doubles whenever the buffer hits the cap (half the samples are
    #: dropped), so long runs keep a bounded, evenly thinned time series.
    delay_sample_stride: int = 1


class LinkStatsView(Mapping):
    """A network's per-link accounting as a read-only mapping.

    Keys are the directed ``(src, dst)`` links in the network's id map;
    a value is a :class:`LinkStats` snapshot built when it is read, so
    indexing one link costs one snapshot, not one per link.  Snapshots
    share the live ``delay_samples`` list, so one taken mid-run sees
    samples accumulate.  Experiment read-out, not the send path.
    """

    __slots__ = ("_net",)

    def __init__(self, net: "SimNetwork") -> None:
        self._net = net

    def __getitem__(self, key: Tuple[str, str]) -> LinkStats:
        net = self._net
        by_dst = net._link_ids.get(key[0]) if isinstance(key, tuple) and len(key) == 2 else None
        if by_dst is None or key[1] not in by_dst:
            raise KeyError(key)
        link_id = by_dst[key[1]]
        samples, stride, _ = net._lk_sampler.get(link_id, ([], 1, 0))
        return LinkStats(
            tuples=net._lk_tuples[link_id],
            messages=net._lk_messages[link_id],
            bytes=net._lk_bytes[link_id],
            delay_samples=samples,
            delay_sample_stride=stride,
        )

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        for src, by_dst in self._net._link_ids.items():
            for dst in by_dst:
                yield (src, dst)

    def __len__(self) -> int:
        return sum(map(len, self._net._link_ids.values()))


class SimNetwork:
    """Simulated WAN connecting MIND node endpoints.

    Parameters
    ----------
    sim:
        The simulation kernel.
    sites:
        Mapping of network address -> :class:`Site`; used by the latency
        model.  Addresses not present fall back to a default latency.
    latency_model:
        Latency sampler; a default PlanetLab-calibrated model if omitted.
    bandwidth_bps:
        Per-directed-link bandwidth for transmission-time serialization.
        PlanetLab slices in 2004 were commonly capped around 10 Mbit/s.
    record_link_delays:
        Keep (time, delay) samples per link (Figure 8 / 12 benches).
    link_delay_sample_cap:
        Per-link bound on retained delay samples; when a link reaches the
        cap its series is thinned to every other sample and the sampling
        stride doubles.  ``None`` disables the bound.
    coalesce_window_s:
        Delivery coalescing (0 = off, the default).  When set, every
        message whose sampled delivery time lands in the same window is
        delivered by that window's single drain event at the window
        boundary instead of one kernel event per message (see
        :meth:`call_in_slot`, which deliveries ride).  The latency and
        bandwidth model is unchanged — each message still gets its own
        serialization slot and latency draw, and a message is never
        delivered *earlier* than its sampled delivery time; it is deferred
        by less than one window (delivery lands at the next boundary).
        Within a slot messages deliver in send order at one simulated
        instant, and :meth:`_deliver` re-checks destination liveness per
        message, so a destination that died before the drain fails
        exactly the undelivered messages' ``on_fail`` callbacks.
    """

    def __init__(
        self,
        sim: Simulator,
        sites: Dict[str, Site],
        latency_model: Optional[LatencyModel] = None,
        bandwidth_bps: float = 10e6,
        record_link_delays: bool = False,
        link_delay_sample_cap: Optional[int] = 8192,
        draw_block: int = 0,
        coalesce_window_s: float = 0.0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if link_delay_sample_cap is not None and link_delay_sample_cap < 2:
            raise ValueError("link_delay_sample_cap must be >= 2 (or None)")
        if draw_block < 0:
            raise ValueError("draw_block must be >= 0")
        if coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        self.sim = sim
        self.sites = dict(sites)
        self.latency = latency_model or LatencyModel()
        self.bandwidth_bps = bandwidth_bps
        self.record_link_delays = record_link_delays
        self.link_delay_sample_cap = link_delay_sample_cap
        self.coalesce_window_s = coalesce_window_s
        #: Window index -> deferred ``fn(*args)`` calls (``call_in_slot``):
        #: coalesced deliveries, and the post-service dispatches nodes
        #: park here (op timers are kernel events, so nothing parked here
        #: is ever cancelled).  The whole window shares ONE drain
        #: event: at monitoring rates most links and nodes see at most one
        #: message per window, so an event per link or per node would
        #: re-create the one-kernel-event-per-message regime the wheel
        #: exists to avoid.
        self._call_wheel: Dict[int, List[Tuple[Callable[..., None], Tuple[Any, ...]]]] = {}

        self._endpoints: Dict[str, DeliverFn] = {}
        #: Endpoints that are registered *and* up — the one-probe liveness
        #: lookup of the transmit/deliver fast paths.
        self._up_endpoints: Dict[str, DeliverFn] = {}
        self._link_down_until: Dict[Tuple[str, str], float] = {}

        # Typed per-link columns, indexed by interned link id.
        self._link_ids: Dict[str, Dict[str, int]] = {}
        self._lk_busy_until = array("d")
        self._lk_messages = array("q")
        self._lk_bytes = array("q")
        self._lk_tuples = array("q")
        #: Deterministic latency class per link id: propagation seconds
        #: for a WAN pair, -1.0 for the LAN fallback, -2.0 unclassified.
        #: A link's class never changes (sites are fixed at construction),
        #: so the per-message site lookups and pair-key hashing collapse to
        #: one float read.
        self._lk_prop = array("d")
        #: Link id -> ``[samples, stride, phase]`` of its delay sampler
        #: (:func:`decimate_step`); only with ``record_link_delays``.
        self._lk_sampler: Dict[int, List[Any]] = {}

        #: Resource ledger (repro-leak quiescence sanitizer); ``None``
        #: when tracking is off, leaving one identity test per guard.
        self._res: Optional[ResourceLedger] = sim.resources
        #: Delivery isolation level (message-isolation sanitizer),
        #: captured here so it holds for the life of the network.
        self.isolation = checks.active.isolation

        self._rng = sim.rng("net.latency")
        #: Block-drawn per-message jitters (opt-in, ``draw_block`` > 0).
        #: The stdlib ``lognormvariate`` costs a Python-level rejection
        #: loop per draw; a vectorized block amortizes it to an array pop.
        #: Same distributions, different (still deterministic) stream —
        #: default off, so seeded experiments keep their exact draws.
        self._draw_block = draw_block
        self._jit_buf = array("d")
        self._uni_buf = array("d")
        self._np_gen = None
        if draw_block:
            import numpy as _np

            self._np_gen = _np.random.default_rng(self._rng.randrange(2**63))
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_failed = 0

    # ------------------------------------------------------------------
    # Registration and failure state
    # ------------------------------------------------------------------
    def register(self, address: str, deliver: DeliverFn) -> None:
        """Attach an endpoint; the address becomes routable and up."""
        if address in self._endpoints:
            raise ValueError(f"address already registered: {address}")
        self._endpoints[address] = deliver
        self._up_endpoints[address] = deliver

    def set_node_up(self, address: str, up: bool) -> None:
        if address not in self._endpoints:
            raise KeyError(f"unknown address: {address}")
        if up:
            self._up_endpoints[address] = self._endpoints[address]
        else:
            self._up_endpoints.pop(address, None)

    def is_node_up(self, address: str) -> bool:
        return address in self._up_endpoints

    def set_link_down(self, src: str, dst: str, duration_s: float, bidirectional: bool = True) -> None:
        """Take the directed link down for ``duration_s`` from now."""
        until = self.sim.now + duration_s
        key = (src, dst)
        self._link_down_until[key] = max(self._link_down_until.get(key, 0.0), until)
        if bidirectional:
            rkey = (dst, src)
            self._link_down_until[rkey] = max(self._link_down_until.get(rkey, 0.0), until)

    def is_link_up(self, src: str, dst: str) -> bool:
        return self._link_down_until.get((src, dst), 0.0) <= self.sim.now

    # ------------------------------------------------------------------
    # Link interning
    # ------------------------------------------------------------------
    def _link_id(self, src: str, dst: str) -> int:
        by_dst = self._link_ids.get(src)
        if by_dst is None:
            by_dst = self._link_ids[src] = {}
        link_id = by_dst.get(dst)
        if link_id is None:
            link_id = len(self._lk_busy_until)
            self._lk_busy_until.append(0.0)
            self._lk_messages.append(0)
            self._lk_bytes.append(0)
            self._lk_tuples.append(0)
            self._lk_prop.append(-2.0)
            by_dst[dst] = link_id
        return link_id

    @property
    def link_stats(self) -> "LinkStatsView":
        """Per-link traffic accounting: a read-only ``(src, dst) ->``
        :class:`LinkStats` mapping over the array-backed columns."""
        return LinkStatsView(self)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        size_bytes: int = 256,
        tuples: int = 0,
        on_fail: Optional[FailFn] = None,
    ) -> Message:
        """Send a message; returns the in-flight :class:`Message`.

        ``tuples`` counts how many index records the message carries, feeding
        the per-link traffic accounting of Figure 12.
        """
        msg = Message.frame(src, dst, kind, payload if payload is not None else {}, size_bytes)
        return self._transmit(msg, tuples, on_fail)

    def resend(
        self,
        msg: Message,
        tuples: int = 0,
        on_fail: Optional[FailFn] = None,
    ) -> Message:
        """Re-send a previously framed message as a fresh attempt.

        The retry/failover path for direct sends: the attempt goes out as
        ``msg.clone(fresh_id=True)``, so it carries its own payload copy
        and message id — ``size_bytes`` (and any receiver-side ``hops``
        bookkeeping inside the payload) can never alias between attempts,
        and the body size the sender declared is preserved exactly.
        """
        clone = msg.clone(level=ISOLATE_COPY, fresh_id=True)
        return self._transmit(clone, tuples, on_fail)

    def _transmit(self, msg: Message, tuples: int, on_fail: Optional[FailFn]) -> Message:
        src, dst = msg.src, msg.dst
        self.messages_sent += 1

        up = self._up_endpoints
        if src not in up:
            # A crashed node cannot send; drop silently (its callbacks are
            # dead anyway once the node object ignores deliveries).
            self.messages_failed += 1
            return msg
        if dst not in up:
            # Failure triage in the pre-scale order: unknown destination
            # first, then link outage, then crashed peer.
            if dst not in self._endpoints:
                self._fail(msg, "unknown-destination", on_fail)
            elif not self.is_link_up(src, dst):
                self._fail(msg, "link-down", on_fail)
            else:
                self._fail(msg, "peer-down", on_fail)
            return msg
        if self._link_down_until and not self.is_link_up(src, dst):
            self._fail(msg, "link-down", on_fail)
            return msg

        by_dst = self._link_ids.get(src)
        link_id = by_dst.get(dst) if by_dst is not None else None
        if link_id is None:
            link_id = self._link_id(src, dst)
        now = self.sim.now
        wire = msg.size_bytes + HEADER_BYTES
        transmission = wire * 8.0 / self.bandwidth_bps
        busy = self._lk_busy_until
        start = busy[link_id]
        if start < now:
            start = now
        busy[link_id] = start + transmission
        # The link's latency class is interned with its id, leaving only
        # the per-message jitter draws (same arithmetic, same RNG draw
        # order as LatencyModel.one_way_s).
        prop = self._lk_prop[link_id]
        if prop == -2.0:
            prop = self._lk_prop[link_id] = self._classify_link(src, dst)
        rng = self._rng
        if self._draw_block:
            ubuf = self._uni_buf
            u = ubuf.pop() if ubuf else self._refill_uniform()
            if prop >= 0.0:
                model = self.latency
                jbuf = self._jit_buf
                jitter = jbuf.pop() if jbuf else self._refill_jitter()
                latency = model.base_s + prop * jitter
                if u < model.pathology_prob:
                    latency += model.pathology_scale_s * rng.paretovariate(PATHOLOGY_ALPHA)
            else:
                latency = 0.0005 + u * 0.0005
        elif prop >= 0.0:
            model = self.latency
            latency = model.base_s + prop * rng.lognormvariate(0.0, model.jitter_sigma)
            if rng.random() < model.pathology_prob:
                latency += model.pathology_scale_s * rng.paretovariate(PATHOLOGY_ALPHA)
        else:
            latency = 0.0005 + rng.random() * 0.0005
        delivery_time = start + transmission + latency

        self._lk_messages[link_id] += 1
        self._lk_bytes[link_id] += wire
        self._lk_tuples[link_id] += tuples
        if self.record_link_delays:
            sampler = self._lk_sampler.get(link_id)
            if sampler is None:
                sampler = self._lk_sampler[link_id] = [[], 1, 0]
            sampler[1], sampler[2] = decimate_step(
                sampler[0], sampler[1], sampler[2], self.link_delay_sample_cap, now, delivery_time - now
            )

        if self.coalesce_window_s == 0.0:
            self.sim.push_at(delivery_time, self._deliver, (msg, on_fail))
        else:
            self.call_in_slot(delivery_time, self._deliver, (msg, on_fail))
        return msg

    #: Hot-path entry for senders that already framed their Message (the
    #: overlay's ``_send`` builds one per send anyway): same body as
    #: :meth:`send` minus the framing, with no wrapper frame in between.
    #: Callers pass ``(msg, tuples, on_fail)``.
    send_framed = _transmit

    def call_in_slot(self, time: float, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        """Run ``fn(*args)`` at ``time`` rounded up to the next window boundary.

        The one slot wheel: coalesced deliveries (``_transmit``) and nodes'
        post-service dispatches park here, so one kernel event drains a
        whole window's worth of callbacks instead of costing one event
        each.  The call is deferred by strictly less than one window,
        never runs early, and everything sharing a slot runs in the order
        it was scheduled.
        Callers must only use this when ``coalesce_window_s`` is non-zero.
        """
        window = self.coalesce_window_s
        slot = int(time / window) + 1
        batch = self._call_wheel.get(slot)
        if batch is None:
            # Keyed by window index, not node id: the slot's drain event
            # is already scheduled when the entry is created and always
            # empties it within one window (stale callbacks self-guard).
            self._call_wheel[slot] = [(fn, args)]
            self.sim.push_at(slot * window, self._drain_calls, (slot,))
        else:
            batch.append((fn, args))
        if self._res is not None:
            self._res.register("net:call-wheel", getattr(fn, "__qualname__", "fn"))

    def _drain_calls(self, slot: int) -> None:
        res = self._res
        for fn, args in self._call_wheel.pop(slot):
            if res is not None:
                res.release("net:call-wheel", getattr(fn, "__qualname__", "fn"))
            fn(*args)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # Refills run on an empty buffer; draws are popped from the block's end.
    def _refill_jitter(self) -> float:
        self._jit_buf.frombytes(
            self._np_gen.lognormal(0.0, self.latency.jitter_sigma, self._draw_block).tobytes()
        )
        return self._jit_buf.pop()

    def _refill_uniform(self) -> float:
        self._uni_buf.frombytes(self._np_gen.random(self._draw_block).tobytes())
        return self._uni_buf.pop()

    def _classify_link(self, src: str, dst: str) -> float:
        """Deterministic latency class of a directed link (memoized per id).

        Returns the WAN propagation delay in seconds, or -1.0 for the
        co-located/LAN fallback (small fixed-range delay per message).
        """
        sites = self.sites
        if sites:
            site_a = sites.get(src)
            site_b = sites.get(dst)
            if site_a is not None and site_b is not None and site_a is not site_b:
                return self.latency.propagation_s(site_a, site_b)
        return -1.0

    def _deliver(self, msg: Message, on_fail: Optional[FailFn]) -> None:
        deliver = self._up_endpoints.get(msg.dst)
        if deliver is None:
            self._fail(msg, "peer-down", on_fail, immediate=True)
            return
        self.messages_delivered += 1
        level = self.isolation
        if level != ISOLATE_OFF:
            # Message-isolation sanitizer: the real deployment serialized
            # every message over TCP, so hand the endpoint a clone whose
            # payload cannot alias the sender's objects (and, at the
            # ``freeze`` level, raises on any mutation attempt).
            msg = msg.clone(level=level)
        deliver(msg)

    def _fail(self, msg: Message, reason: str, on_fail: Optional[FailFn], immediate: bool = False) -> None:
        self.messages_failed += 1
        if on_fail is None:
            return
        delay = 0.0 if immediate else FAIL_DETECT_S
        # The zero-delay branch fires the failure continuation at the send
        # instant itself: the sender already *knows* the peer is down, so
        # there is no transmission to wait out.  ``on_fail`` is the
        # originating op's own retry/failover continuation and touches only
        # that op's state; its order against other same-instant events is
        # exercised by the schedule-fuzz equivalence suite.
        self.sim.schedule(delay, on_fail, msg, reason)
