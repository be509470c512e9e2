"""Liveness mechanics: heartbeats, witness probes, false-positive safety."""

from fractions import Fraction

import pytest

from repro.overlay.code import Code
from repro.overlay.node import OverlayConfig

from tests.helpers import build_overlay


def live_cfg(**kwargs):
    defaults = dict(liveness_enabled=True, hb_interval_s=2.0, hb_timeout_s=7.0, adoption_delay_s=2.0)
    defaults.update(kwargs)
    return OverlayConfig(**defaults)


def test_heartbeats_flow_between_links():
    sim, network, nodes = build_overlay(6, seed=131, config=live_cfg())
    before = network.messages_sent
    sim.run_until(sim.now + 20.0)
    assert network.messages_sent > before + 6 * 5  # several rounds of beats


def test_no_false_death_declarations_when_healthy():
    sim, network, nodes = build_overlay(10, seed=132, config=live_cfg())
    sim.run_until(sim.now + 60.0)
    assert all(n.takeovers == 0 for n in nodes)
    for node in nodes:
        for addr, _ in node.links():
            assert node.neighbors.is_alive(addr)


def test_dead_peer_marked_dead_at_neighbors():
    sim, network, nodes = build_overlay(8, seed=133, config=live_cfg())
    victim = nodes[2]
    neighbors = [a for a, _ in victim.links()]
    network.set_node_up(victim.address, False)
    victim.crash()
    sim.run_until(sim.now + 40.0)
    by_addr = {n.address: n for n in nodes}
    for addr in neighbors:
        peer = by_addr[addr]
        assert not peer.neighbors.is_alive(victim.address), (
            f"{addr} still believes {victim.address} is alive"
        )


def test_transient_link_break_does_not_kill_peer():
    # A broken direct link is not a dead peer: the witness probe attests
    # liveness and no takeover happens.
    sim, network, nodes = build_overlay(8, seed=134, config=live_cfg(hb_timeout_s=6.0))
    a = nodes[1]
    links = a.links()
    assert links
    b_addr = links[0][0]
    network.set_link_down(a.address, b_addr, duration_s=15.0)
    sim.run_until(sim.now + 30.0)
    assert all(n.takeovers == 0 for n in nodes), "link break must not trigger takeover"


def test_hb_suppression_skips_heartbeats_for_active_links():
    # With piggybacking on, a node that keeps sending traffic to all its
    # links sends no explicit heartbeats -- and nobody gets suspected,
    # because every delivery refreshes the receiver's liveness clock.
    sim, network, nodes = build_overlay(6, seed=136, config=live_cfg(hb_suppress_s=2.0))
    beats = []
    orig_send = network.send_framed

    def counting_send(msg, tuples=0, on_fail=None):
        if msg.kind == "heartbeat":
            beats.append((msg.src, msg.dst))
        return orig_send(msg, tuples, on_fail)

    # Nodes frame their own messages and enter the network at
    # ``send_framed``; patch that seam to observe overlay traffic.
    network.send_framed = counting_send

    def chatter():
        for n in nodes:
            for addr, _ in n.links():
                n._send(addr, "witness_ping", {"on_behalf": n.address}, size_bytes=96)
        sim.schedule(1.0, chatter)

    chatter()
    sim.run_until(sim.now + 20.0)
    assert beats == [], f"piggybacked links still sent {len(beats)} heartbeats"
    assert all(n.takeovers == 0 for n in nodes)
    for node in nodes:
        for addr, _ in node.links():
            assert node.neighbors.is_alive(addr)


def test_hb_suppression_resumes_on_idle_links():
    # Suppression is per-link recency, not a global off switch: with no
    # application traffic the heartbeats flow exactly as before.
    sim, network, nodes = build_overlay(6, seed=137, config=live_cfg(hb_suppress_s=2.0))
    before = network.messages_sent
    sim.run_until(sim.now + 20.0)
    assert network.messages_sent > before + 6 * 5
    for node in nodes:
        for addr, _ in node.links():
            assert node.neighbors.is_alive(addr)


def test_stale_neighbor_code_heals_via_heartbeat_echo():
    # Regression (found by REPRO_SCHEDULE_FUZZ=shuffle): when a peer
    # crashes and rejoins elsewhere in the code tree, a node that knew it
    # under the old code may no longer be hypercube-adjacent to the new
    # one.  The relocated peer then never heartbeats back, and witness
    # probes only attest that the *address* is alive — so the stale code
    # survived forever and greedy routing through it looped.  Heartbeats
    # now echo the code the sender believes the receiver holds, and a
    # mismatch triggers a corrective beacon that heals the entry.
    sim, network, nodes = build_overlay(8, seed=138, config=live_cfg())
    s = nodes[1]
    x_addr, _ = s.links()[0]
    x = next(n for n in nodes if n.address == x_addr)
    # Relocate x to the bitwise complement of s's code: provably not
    # adjacent to s in either direction, so no regular heartbeat from x
    # will ever reach s — exactly the one-directional staleness the
    # shuffle run produced via crash + rejoin.
    relocated = Code("".join("1" if b == "0" else "0" for b in s.code.bits))
    x.code = relocated
    assert all(addr != s.address for addr, _ in x.links())
    sim.run_until(sim.now + 4 * 2.0)
    assert s.neighbors.code_of(x_addr) == relocated, (
        f"{s.address} still knows {x_addr} under stale code "
        f"{s.neighbors.code_of(x_addr)}"
    )


def test_heartbeat_echo_converges_without_ping_pong():
    # A corrective beacon carries the code the sender just learned, so a
    # single stale entry heals in one exchange: count the corrective
    # (off-schedule) heartbeats x sends back to s.
    sim, network, nodes = build_overlay(8, seed=139, config=live_cfg())
    s = nodes[2]
    x_addr, _ = s.links()[0]
    x = next(n for n in nodes if n.address == x_addr)
    relocated = Code("".join("1" if b == "0" else "0" for b in s.code.bits))
    x.code = relocated
    beats = []
    orig_send = network.send_framed

    def counting_send(msg, tuples=0, on_fail=None):
        if msg.kind == "heartbeat" and msg.src == x.address and msg.dst == s.address:
            beats.append(msg.payload)
        return orig_send(msg, tuples, on_fail)

    # Nodes frame their own messages and enter the network at
    # ``send_framed``; patch that seam to observe overlay traffic.
    network.send_framed = counting_send
    sim.run_until(sim.now + 10 * 2.0)
    assert s.neighbors.code_of(x_addr) == relocated
    # One corrective beacon heals the entry; after that s's heartbeats
    # carry the right peer_code and x stays silent toward s.
    assert 1 <= len(beats) <= 2, f"{len(beats)} corrective beacons"


def test_cover_restored_after_death():
    sim, network, nodes = build_overlay(10, seed=135, config=live_cfg())
    victim = nodes[4]
    network.set_node_up(victim.address, False)
    victim.crash()
    sim.run_until(sim.now + 90.0)
    live = [n for n in nodes if n.in_overlay()]
    covered = sum(2.0 ** -len(n.code) for n in live)
    covered += sum(2.0 ** -len(r) for n in live for r in n.adopted)
    assert covered >= 1.0 - 1e-9, "the dead region must be re-homed"


def kraft_sum_after_crash(seed, victim, restore_after_s=None):
    """Crash ``victim`` in a 16-node overlay, optionally restore it
    ``restore_after_s`` later, run 60 s, and sum ``2^-len`` over the
    primary and adopted codes of the live nodes: exactly 1 when every
    region has exactly one owner."""
    sim, network, nodes = build_overlay(16, seed, live_cfg())
    node = next(n for n in nodes if n.address == victim)
    network.set_node_up(victim, False)
    node.crash()
    if restore_after_s is not None:
        sim.run_until(sim.now + restore_after_s)
        network.set_node_up(victim, True)
        node.restore()
    sim.run_until(sim.now + 60.0)
    return sum(
        Fraction(1, 2 ** len(code))
        for n in nodes
        if network.is_node_up(n.address) and n.in_overlay()
        for code in (n.code, *n.adopted)
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 1(a): a node restored before it is declared dead rejoins "
    "under a fresh code, and nobody takes its old region over",
)
def test_early_restore_leaves_no_orphan_region():
    sums = {
        (seed, victim): kraft_sum_after_crash(seed, victim, restore_after_s=3.0)
        for seed in (201, 202, 203)
        for victim in ("n3", "n7", "n11")
    }
    assert {case: total for case, total in sums.items() if total != 1} == {}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 1(c): two non-sibling neighbors can both adopt a dead "
    "region, and neither cedes it to the other",
)
def test_a_dead_region_gets_one_adopter():
    sums = {
        (seed, victim): kraft_sum_after_crash(seed, victim)
        for seed in range(201, 213)
        for victim in (f"n{i}" for i in range(1, 16, 2))
    }
    assert {case: total for case, total in sums.items() if total != 1} == {}
