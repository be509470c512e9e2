"""Greedy routing, dead-end recovery and takeover tests."""

from typing import Any, Dict, List

import pytest

from repro import checks
from repro.overlay.code import Code
from repro.overlay.node import OverlayConfig, OverlayNode
from repro.overlay.routing import next_hop

from tests.helpers import build_overlay


@pytest.fixture(autouse=True)
def _adhoc_routed_kinds():
    # These tests route a synthetic "probe" inner kind to exercise the
    # overlay routing machinery in isolation from the application protocol.
    with checks.configure(validate=False):
        yield


class RecordingNode(OverlayNode):
    """Overlay node that records routed-message arrivals and failures."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.arrivals: List[Dict[str, Any]] = []
        self.failures: List[Dict[str, Any]] = []

    def on_route_arrival(self, envelope):
        self.arrivals.append(envelope)

    def on_route_failed(self, envelope, reason):
        self.failures.append({"envelope": envelope, "reason": reason})


def find_owner(nodes, target: Code):
    owners = [n for n in nodes if n.in_overlay() and n.covers(target)]
    assert len(owners) == 1, f"{len(owners)} owners for {target}"
    return owners[0]


def test_next_hop_arrival_when_comparable():
    decision = next_hop(Code("01"), Code("0110"), links=[])
    assert decision.arrived


def test_next_hop_picks_longest_match():
    links = [("a", Code("10")), ("b", Code("110")), ("c", Code("111"))]
    decision = next_hop(Code("0"), Code("1101"), links)
    assert decision.next_hop == "b"


def test_next_hop_dead_end():
    decision = next_hop(Code("0"), Code("1101"), links=[], exclude=[])
    assert not decision.arrived
    assert decision.next_hop is None


def test_all_pairs_routing_delivers_to_owner():
    sim, network, nodes = build_overlay(16, seed=11, node_cls=RecordingNode)
    op = 0
    expected = []
    for src in nodes:
        for dst in nodes:
            target = dst.code
            op += 1
            expected.append((dst, op))
            src.route(target, "probe", {"n": op}, op_id=("t", op))
    sim.run_until(sim.now + 120.0)
    for dst, op in expected:
        assert any(env["inner"]["n"] == op for env in dst.arrivals), (
            f"op {op} did not arrive at {dst.address}"
        )


def test_routing_hop_count_bounded_by_code_length():
    sim, network, nodes = build_overlay(32, seed=12, node_cls=RecordingNode)
    max_len = max(len(n.code) for n in nodes)
    for i, src in enumerate(nodes):
        src.route(nodes[-1 - i % len(nodes)].code, "probe", {"i": i}, op_id=("h", i))
    sim.run_until(sim.now + 120.0)
    for node in nodes:
        for env in node.arrivals:
            assert env["hops"] <= max_len


def test_routing_to_deep_target_code():
    # Targets deeper than any node code (data-item codes) must land on the
    # unique owner whose code is a prefix of the target.
    sim, network, nodes = build_overlay(16, seed=13, node_cls=RecordingNode)
    target = Code(nodes[5].code.bits + "0110")
    owner = find_owner(nodes, target)
    assert owner is nodes[5]
    nodes[0].route(target, "probe", {"deep": True}, op_id="deep1")
    sim.run_until(sim.now + 60.0)
    assert any(env["inner"].get("deep") for env in owner.arrivals)


def test_route_around_transient_link_failure():
    sim, network, nodes = build_overlay(16, seed=14, node_cls=RecordingNode)
    src, dst = nodes[0], nodes[9]
    # Kill the first-hop link the greedy route would take.
    decision = next_hop(src.code, dst.code, src.links())
    assert decision.next_hop is not None
    network.set_link_down(src.address, decision.next_hop, duration_s=30.0)
    src.route(dst.code, "probe", {"x": 1}, op_id="transient")
    sim.run_until(sim.now + 60.0)
    assert any(env["inner"].get("x") == 1 for env in dst.arrivals)


def _rig(codes):
    """A hand-built overlay with forged neighbor tables (no join protocol).

    Used to reproduce inconsistent-table states (stale codes after a
    crash + rejoin) that the join protocol itself would never produce.
    """
    from repro.sim.kernel import Simulator
    from tests.helpers import make_network

    sim = Simulator(21)
    network = make_network(sim)
    nodes = {}
    for addr, bits in codes.items():
        node = RecordingNode(sim, network, addr, config=OverlayConfig())
        node.active = True
        node._set_code(Code(bits))
        nodes[addr] = node
    return sim, network, nodes


def test_stale_link_cycle_falls_back_to_ring_recovery():
    # Regression (found by REPRO_SCHEDULE_FUZZ=shuffle): "b" crashed and
    # rejoined as 11111, but "a" still lists it under its old code 0001 —
    # the only candidate toward region 000.  Greedy then cycles
    # a -> b -> c -> a: at every hop the sole subtree candidate is already
    # on the path, and pre-fix the message bounced until route_ttl and
    # died "ttl-exceeded".  The revisit is now treated as a greedy dead
    # end: expanding-ring recovery escapes through e (equal prefix match,
    # outside the required subtree — exactly what greedy may not use) and
    # reaches d, the region's real owner.
    sim, network, nodes = _rig(
        {"a": "0011", "b": "11111", "c": "0111", "d": "0000", "e": "0010"}
    )
    a, b, c, d, e = (nodes[k] for k in "abcde")
    a.neighbors.upsert("b", Code("0001"))  # stale: b's pre-crash code
    a.neighbors.upsert("c", Code("0111"))
    a.neighbors.upsert("e", Code("0010"))
    b.neighbors.upsert("c", Code("0111"))
    c.neighbors.upsert("a", Code("0011"))
    c.neighbors.upsert("b", Code("11111"))
    e.neighbors.upsert("d", Code("0000"))

    a.route(Code("000"), "probe", {"stale": 1}, op_id="stale-cycle")
    sim.run_until(sim.now + 60.0)

    reasons = [
        f["reason"] for n in nodes.values() for f in n.failures
    ]
    assert "ttl-exceeded" not in reasons, f"greedy looped to death: {reasons}"
    assert any(env["inner"].get("stale") == 1 for env in d.arrivals), (
        f"message never escaped the stale cycle (failures: {reasons})"
    )
    assert a.ring_recoveries + c.ring_recoveries >= 1


def test_sibling_takeover_after_node_death():
    cfg = OverlayConfig(liveness_enabled=True, hb_interval_s=2.0, hb_timeout_s=7.0)
    sim, network, nodes = build_overlay(8, seed=15, node_cls=RecordingNode, config=cfg)
    victim = nodes[3]
    sibling_code = victim.code.sibling()
    siblings = [n for n in nodes if n.code == sibling_code]
    victim_code = victim.code
    network.set_node_up(victim.address, False)
    victim.crash()
    sim.run_until(sim.now + 60.0)
    if siblings:
        assert siblings[0].code == victim_code.shorten()
    live_covering = [n for n in nodes if n.in_overlay() and n.covers(victim_code)]
    assert live_covering, "dead region was never taken over"


def test_routing_still_works_after_takeover():
    cfg = OverlayConfig(liveness_enabled=True, hb_interval_s=2.0, hb_timeout_s=7.0)
    sim, network, nodes = build_overlay(12, seed=16, node_cls=RecordingNode, config=cfg)
    victim = nodes[5]
    victim_code = victim.code
    network.set_node_up(victim.address, False)
    victim.crash()
    sim.run_until(sim.now + 90.0)
    src = nodes[0] if nodes[0] is not victim else nodes[1]
    src.route(Code(victim_code.bits + "01"), "probe", {"after": 1}, op_id="post-takeover")
    sim.run_until(sim.now + 90.0)
    arrived = [
        n for n in nodes
        if n is not victim and any(env["inner"].get("after") == 1 for env in n.arrivals)
    ]
    assert arrived, "message to dead region was not re-homed"
