"""Fallback adoption and code announcements, driven through the recovery alone.

A fake host stands in for the overlay node: a real simulator and neighbor
table, a log of sends and a stubbed ``route``, with no network.  Messages
go straight to the recovery's handler table.
"""

import pytest

from repro.net.message import Message
from repro.overlay.code import Code
from repro.overlay.neighbors import NeighborTable
from repro.overlay.node import OverlayConfig
from repro.overlay.recovery import RING_MAX_TTL, RING_STEP_TIMEOUT_S, Recovery
from repro.sim.kernel import Simulator

BACKSTOP_S = (RING_MAX_TTL + 2) * RING_STEP_TIMEOUT_S


class FakeHost:
    """What the recovery reads of its node, minus the network and routing.

    ``me`` holds ``00`` and its sibling ``p`` holds ``01``.  Across
    dimension 0 it knows ``d`` (``10``) and, with ``e=True``, ``e``
    (``11``).  Neither is ``me``'s sibling, so writing one off starts a
    fallback adoption once its own sibling is gone too.
    """

    def __init__(self, e=False):
        self.sim = Simulator(5)
        self.address = "me"
        self.config = OverlayConfig(liveness_enabled=True)
        self._rng = self.sim.rng("overlay.me")
        self.active = True
        self.code = Code("00")
        self.adopted = set()
        self.neighbors = NeighborTable()
        self.neighbors.upsert("p", Code("01"))
        self.neighbors.upsert("d", Code("10"))
        if e:
            self.neighbors.upsert("e", Code("11"))
        self.takeovers = self.ring_recoveries = self.ring_waits = 0
        self.sent = []  # (time, dst, kind, payload)
        self.probes = {}  # probed region bits -> (time, exclude)
        self.recovery = Recovery(self)

    def in_overlay(self):
        return self.active and self.code is not None

    def covers(self, target):
        return any(region.comparable(target) for region in (self.code, *self.adopted))

    def links(self):
        return self.neighbors.hypercube_neighbors(self.code)

    def _send(self, dst, kind, payload, **kw):
        self.sent.append((self.sim.now, dst, kind, payload))

    def route(self, target, inner_kind, inner, op_id, exclude=None, **kw):
        assert inner_kind == "adopt_probe" and inner["claimant"] == self.address
        self.probes[inner["probe"]] = (self.sim.now, exclude)

    def deliver(self, src, kind, payload):
        self.recovery.handlers[kind](Message.frame(src, self.address, kind, payload, 180))

    def probe(self, *dead):
        """Write ``dead`` off and run until each one's adoption probe is out."""
        for addr in dead:
            self.recovery.declare_dead(addr)
        bits = [self.neighbors.code_of(addr).bits for addr in dead]
        assert self.sim.run_until_predicate(lambda: all(b in self.probes for b in bits), 120.0)

    def pending(self):
        return self.recovery._pending_adoptions

    def announcements(self):
        return [(at, dst) for at, dst, kind, _ in self.sent if kind == "code_update"]


def test_a_probe_ack_cancels_the_backstop_and_never_adopts():
    host = FakeHost()
    host.probe("d")
    at, exclude = host.probes["10"]
    assert exclude == ["d"]
    backstop = host.pending()["10"]

    host.deliver("w", "adopt_probe_ack", {"code": "10", "probe": "10"})
    host.sim.run_until(at + 2 * BACKSTOP_S)

    assert backstop.cancelled and host.pending() == {}
    assert host.adopted == set() and host.takeovers == 0
    assert host.announcements() == []
    assert host.neighbors.code_of("w") == Code("10") and host.neighbors.is_alive("w")


def test_an_adopt_probe_dead_adopts():
    host = FakeHost()
    host.probe("d")
    backstop = host.pending()["10"]

    host.deliver("x", "adopt_probe_dead", {"probe": "10"})

    assert backstop.cancelled and host.pending() == {}
    assert host.adopted == {Code("10")} and host.takeovers == 1
    # The adoption is announced to every live link: only "p" is left.
    assert [dst for _, dst in host.announcements()] == ["p"]


def test_silence_adopts_exactly_at_the_backstop():
    host = FakeHost()
    host.probe("d")
    at, _ = host.probes["10"]

    host.sim.run_until(at + BACKSTOP_S - 1e-6)
    assert host.adopted == set() and "10" in host.pending()
    host.sim.run_until(at + BACKSTOP_S)

    assert host.adopted == {Code("10")} and host.takeovers == 1
    assert host.pending() == {}
    assert host.announcements() == [(at + BACKSTOP_S, "p")]


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("heartbeat", {"code": "1", "peer_code": "00"}),
        ("code_update", {"address": "w", "code": "1"}),
        ("adopt_probe_ack", {"code": "1", "probe": "10"}),
    ],
)
def test_a_comparable_announcement_cedes_the_adopted_region_and_the_pending_probe(
    kind, payload
):
    # "w" took over all of 1: region 10, which "me" adopted, and region
    # 11, whose adoption probe is still out.  Each announcing kind goes
    # through the one entry point, so each cedes both.
    host = FakeHost(e=True)
    host.probe("d", "e")
    host.deliver("x", "adopt_probe_dead", {"probe": "10"})
    assert host.adopted == {Code("10")} and set(host.pending()) == {"11"}
    backstop = host.pending()["11"]

    host.deliver("w", kind, payload)

    assert host.adopted == set()
    assert backstop.cancelled and host.pending() == {}
    assert host.neighbors.code_of("w") == Code("1") and host.neighbors.is_alive("w")
    host.sim.run_until(host.sim.now + 2 * BACKSTOP_S)
    assert host.adopted == set() and host.takeovers == 1


def test_an_incomparable_announcement_cedes_nothing():
    host = FakeHost(e=True)
    host.probe("d", "e")
    host.deliver("x", "adopt_probe_dead", {"probe": "10"})

    host.deliver("w", "code_update", {"address": "w", "code": "011"})

    assert host.adopted == {Code("10")} and set(host.pending()) == {"11"}
