"""Greedy routing, dead-end recovery and takeover tests."""

from typing import Any, Dict, List

import pytest

from repro import checks
from repro.overlay.code import Code
from repro.overlay.node import OverlayConfig, OverlayNode
from repro.overlay.recovery import RING_MAX_TTL, RING_STEP_TIMEOUT_S
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
        self.failures.append({"envelope": envelope, "reason": reason, "at": self.sim.now})


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
    row = [("a", Code("10")), ("b", Code("110")), ("c", Code("111"))]
    # No candidate at all, and every candidate excluded.
    for links, exclude in (([], []), (row, ["a", "b", "c"])):
        decision = next_hop(Code("0"), Code("1101"), links, exclude=exclude)
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
        node.code = Code(bits)
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

    # One step in isolation: a's only candidate toward 000 ("b", under its
    # stale code) is already on the path, so the envelope parks on a ring
    # instead of going back to "b".
    recoveries, forwarded = a.ring_recoveries, a.routes_forwarded
    a._route_step({
        "target": "000", "inner_kind": "probe", "inner": {"stale": 2}, "op_id": "revisit",
        "origin": "b", "hops": 1, "path": ["b", "a"], "exclude": [], "attempt": 1, "tuples": 0,
    })
    assert (a.ring_recoveries, a.routes_forwarded) == (recoveries + 1, forwarded)


def test_ring_finds_an_owner_whose_code_is_shorter_than_the_best_match():
    # Regression: "o" holds a stale fallback adoption of 0010111 (the
    # region of the dead "d"), which lifts its match with target 0010110
    # to six bits.  The target's real owner "w" took the region over under
    # the shorter code 00101 (match 5).  "o" has no link into 00101, so
    # greedy dead-ends and the ring reaches "w" through "r".  Pre-fix "w"
    # never answered (5 < 6): every round exhausted although the owner
    # was two hops away.
    sim, network, nodes = _rig(
        {"o": "0010011", "r": "0000", "q": "0011", "w": "00101", "d": "0010111"}
    )
    o, r, w = nodes["o"], nodes["r"], nodes["w"]
    network.set_node_up("d", False)
    o.adopted.add(Code("0010111"))
    o.neighbors.upsert("r", Code("0000"))
    o.neighbors.upsert("q", Code("0011"))
    r.neighbors.upsert("w", Code("00101"))

    o.route(Code("0010110"), "probe", {"short": 1}, op_id="short-owner")
    sim.run_until(sim.now + 60.0)

    assert [f["reason"] for n in nodes.values() for f in n.failures] == []
    assert any(env["inner"].get("short") == 1 for env in w.arrivals)


def _dead_end_rig(codes):
    """``o`` links only to ``r``, and ``r`` knows nobody: no op leaving ``o``
    for a subtree ``o`` has no link into can be found."""
    sim, network, nodes = _rig(codes)
    nodes["o"].neighbors.upsert("r", Code(codes["r"]))
    return sim, nodes["o"]


def test_shared_ring_keeps_each_waiters_deadline():
    sim, o = _dead_end_rig({"o": "00", "r": "01"})
    budget = RING_MAX_TTL * RING_STEP_TIMEOUT_S
    starts = {}
    for n, (delay, bits) in enumerate(((0.0, "10"), (3.0, "1011"), (5.5, "11"))):
        starts[n] = sim.now + delay
        sim.schedule(delay, o.route, Code(bits), "probe", {"n": n}, f"late-{n}")
    sim.run_until(sim.now + 60.0)

    assert (o.ring_recoveries, o.ring_waits) == (1, 2)
    failed = {f["envelope"]["inner"]["n"]: f for f in o.failures}
    assert sorted(failed) == [0, 1, 2]
    for n, f in failed.items():
        assert f["reason"] == "ring-exhausted"
        # Never earlier than the op's own budget, at most one round later.
        assert starts[n] + budget <= f["at"] < starts[n] + budget + RING_STEP_TIMEOUT_S


def test_op_into_a_different_subtree_runs_its_own_ring():
    sim, o = _dead_end_rig({"o": "000", "r": "001"})
    o.route(Code("10"), "probe", {"n": 0}, op_id="one")  # subtree 1
    o.route(Code("11"), "probe", {"n": 1}, op_id="two")  # subtree 1: waits
    o.route(Code("010"), "probe", {"n": 2}, op_id="three")  # subtree 01
    sim.run_until(sim.now + 60.0)

    assert (o.ring_recoveries, o.ring_waits) == (2, 1)
    assert sorted(f["envelope"]["inner"]["n"] for f in o.failures) == [0, 1, 2]


def test_one_ring_found_forwards_every_waiter_to_its_own_owner():
    sim, network, nodes = _rig({"o": "00", "r": "01", "a": "10", "b": "11"})
    o, r, a, b = (nodes[k] for k in "orab")
    o.neighbors.upsert("r", Code("01"))
    r.neighbors.upsert("b", Code("11"))
    b.neighbors.upsert("a", Code("10"))

    for n, bits in enumerate(("100", "1011", "110")):
        o.route(Code(bits), "probe", {"n": n}, op_id=f"fwd-{n}")
    sim.run_until(sim.now + 30.0)

    # "r" answers the first round; all three ops go to it and route on.
    assert (o.ring_recoveries, o.ring_waits) == (1, 2)
    assert sorted(env["inner"]["n"] for env in a.arrivals) == [0, 1]
    assert [env["inner"]["n"] for env in b.arrivals] == [2]
    assert not any(n.failures for n in nodes.values())


def test_takeover_at_the_origin_delivers_every_waiter_locally():
    sim, network, nodes = _rig({"o": "00", "d": "01"})
    o = nodes["o"]
    network.set_node_up("d", False)
    o.neighbors.upsert("d", Code("01"), alive=False)

    for n, bits in enumerate(("010", "0111")):
        o.route(Code(bits), "probe", {"n": n}, op_id=f"local-{n}")
    sim.schedule(3.0, o.recovery.declare_dead, "d")  # o is d's sibling: takeover
    sim.run_until(sim.now + 30.0)

    assert o.code == Code("0")
    assert (o.ring_recoveries, o.ring_waits) == (1, 1)
    assert sorted(env["inner"]["n"] for env in o.arrivals) == [0, 1]
    assert o.failures == []


@pytest.mark.parametrize("outcome", ["arrives", "fails"])
def test_ring_parked_at_a_relay_hands_a_plain_inner_to_the_handler(outcome):
    # "s" forwards the op to "o" by message, so at the freeze level "o"
    # receives a read-only envelope.  "o" dead-ends (its only link into
    # subtree 01 is the dead "d") and parks the op on a ring; it then
    # either takes d's region over and delivers locally, or exhausts the
    # ring.  Either way the handler must get a thawed, mutable inner.
    with checks.configure(isolation="freeze"):
        sim, network, nodes = _rig({"s": "1", "o": "00", "d": "01"})
    s, o = nodes["s"], nodes["o"]
    network.set_node_up("d", False)
    s.neighbors.upsert("o", Code("00"))
    o.neighbors.upsert("s", Code("1"))
    o.neighbors.upsert("d", Code("01"), alive=False)

    s.route(Code("010"), "probe", {"n": 0, "tags": [1, 2]}, op_id="relay-ring")
    if outcome == "arrives":
        sim.schedule(3.0, o.recovery.declare_dead, "d")  # o is d's sibling: takeover
    sim.run_until(sim.now + 60.0)

    assert o.ring_recoveries == 1 and s.ring_recoveries == 0
    if outcome == "arrives":
        assert o.failures == [] and len(o.arrivals) == 1
        inner = o.arrivals[0]["inner"]
    else:
        assert o.arrivals == [] and [f["reason"] for f in o.failures] == ["ring-exhausted"]
        inner = o.failures[0]["envelope"]["inner"]
    assert type(inner) is dict and type(inner["tags"]) is list
    inner["tags"].append(3)


def test_restored_node_never_reuses_a_ring_id_its_peers_still_dedupe():
    # "r" dedupes probes by (probe id, origin).  Before the crash it saw
    # rounds 1 and 2 of o's first ring; had the restored "o" numbered its
    # rings from 1 again, "r" would drop the new ring's first two rounds
    # and answer only the third, four seconds late.
    sim, network, nodes = _rig({"o": "00", "r": "01", "b": "11"})
    o, r, b = (nodes[k] for k in "orb")
    step = RING_STEP_TIMEOUT_S
    o.neighbors.upsert("r", Code("01"))
    o.route(Code("11"), "probe", {"n": 0}, op_id="before-crash")
    sim.run_until(sim.now + 1.5 * step)
    o.crash()
    # Back under the same code (the rig has no join protocol); "r" can now
    # make progress into subtree 1.
    o.active = True
    o.code = Code("00")
    o.neighbors.upsert("r", Code("01"))
    r.neighbors.upsert("b", Code("11"))

    o.route(Code("11"), "probe", {"n": 1}, op_id="after-crash")
    sim.run_until(sim.now + 0.5 * step)

    assert o.ring_recoveries == 2
    assert [env["inner"]["n"] for env in b.arrivals] == [1]


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
