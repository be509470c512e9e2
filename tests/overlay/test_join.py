"""Integration tests for the randomized join protocol."""

import pytest

from repro.net.message import Message
from repro.overlay.code import Code
from repro.overlay.join import PendingPrepare
from repro.overlay.node import JOIN_TIMEOUT_S, OverlayNode

from tests.helpers import assert_prefix_free_cover, build_overlay, wire_bootstrap


def overlay_codes(nodes):
    return [n.code for n in nodes if n.in_overlay()]


def test_root_gets_empty_code():
    sim, network, nodes = build_overlay(1)
    assert nodes[0].code == Code("")


def test_two_nodes_split_root():
    sim, network, nodes = build_overlay(2)
    codes = sorted(c.bits for c in overlay_codes(nodes))
    assert codes == ["0", "1"]
    assert_prefix_free_cover(overlay_codes(nodes))


@pytest.mark.parametrize("count", [3, 5, 8, 16, 21])
def test_sequential_joins_keep_cover_invariant(count):
    sim, network, nodes = build_overlay(count, seed=count)
    assert all(n.in_overlay() for n in nodes)
    assert_prefix_free_cover(overlay_codes(nodes))


@pytest.mark.parametrize("count,seed", [(8, 1), (16, 2), (34, 3)])
def test_concurrent_joins_converge(count, seed):
    sim, network, nodes = build_overlay(count, seed=seed, concurrent=True)
    assert all(n.in_overlay() for n in nodes)
    assert_prefix_free_cover(overlay_codes(nodes))


def test_balanced_with_high_probability():
    # Code lengths should stay within a small band of log2(N); Adler's
    # procedure guarantees balance w.h.p., and at 32 nodes sequentially
    # joined the spread should be modest.
    sim, network, nodes = build_overlay(32, seed=9)
    lengths = [len(n.code) for n in nodes]
    assert max(lengths) - min(lengths) <= 3
    assert min(lengths) >= 3


def test_neighbor_tables_are_symmetricish():
    # Every node's links must point at live peers with correct codes.
    sim, network, nodes = build_overlay(12, seed=4)
    by_addr = {n.address: n for n in nodes}
    for node in nodes:
        for addr, code in node.links():
            assert by_addr[addr].code == code, (
                f"{node.address} thinks {addr} has {code}, actual {by_addr[addr].code}"
            )


def test_every_node_has_full_dimension_links():
    sim, network, nodes = build_overlay(16, seed=5)
    for node in nodes:
        for dim in range(len(node.code)):
            assert node.neighbors.dimension_neighbors(node.code, dim), (
                f"{node.address} ({node.code}) missing dim-{dim} neighbor"
            )


def _prepare_msg(host, neighbor, round_id):
    return Message(
        src=host.address,
        dst=neighbor.address,
        kind="split_prepare",
        payload={
            "host": host.address,
            "host_code": host.code.bits,
            "joiner": "ghost-joiner",
            "round": round_id,
        },
    )


def test_newer_round_from_same_host_supersedes_stale_pending():
    # Per-message latencies are independent, so a round's split_abort can
    # arrive *before* its own split_prepare: the late prepare then installs
    # a pending that no future abort matches.  Since a same-host prepare
    # carries the *same* priority, the stale pending used to nack every
    # newer round from its own host forever — at 1000 nodes this livelocks
    # the join (seed 7 reproduces it).  A newer round id from the same host
    # proves the old round is dead and must supersede the stale pending.
    sim, network, nodes = build_overlay(3, seed=1)
    host, neighbor = nodes[0], nodes[2]
    sent = []
    neighbor._send = lambda dst, kind, payload=None, **kw: sent.append((dst, kind, payload))

    neighbor._pending_prepare = PendingPrepare(
        host=host.address, host_code=host.code, joiner="ghost-joiner", round_id=5
    )
    neighbor._on_split_prepare(_prepare_msg(host, neighbor, round_id=6))

    assert neighbor._pending_prepare.round_id == 6
    assert sent == [(host.address, "split_ack", {"round": 6})]


def test_stale_prepare_from_dead_round_is_nacked():
    # The mirror-image reorder: the *older* round's prepare arrives after a
    # newer round is already pending.  The old round is dead; refuse it and
    # keep the live pending.
    sim, network, nodes = build_overlay(3, seed=1)
    host, neighbor = nodes[0], nodes[2]
    sent = []
    neighbor._send = lambda dst, kind, payload=None, **kw: sent.append((dst, kind, payload))

    neighbor._pending_prepare = PendingPrepare(
        host=host.address, host_code=host.code, joiner="ghost-joiner", round_id=6
    )
    neighbor._on_split_prepare(_prepare_msg(host, neighbor, round_id=5))

    assert neighbor._pending_prepare.round_id == 6
    assert sent == [(host.address, "split_nack", {"round": 5})]


def test_abort_clears_older_pending_from_same_host():
    # An abort for round r invalidates any same-host pending with round <= r
    # (rounds are serialized per host), so a reordered older pending cannot
    # outlive the newer round's abort.
    sim, network, nodes = build_overlay(3, seed=1)
    host, neighbor = nodes[0], nodes[2]
    neighbor._pending_prepare = PendingPrepare(
        host=host.address, host_code=host.code, joiner="ghost-joiner", round_id=5
    )
    abort = Message(
        src=host.address,
        dst=neighbor.address,
        kind="split_abort",
        payload={"host": host.address, "round": 6},
    )
    neighbor._on_split_abort(abort)
    assert neighbor._pending_prepare is None


def test_split_done_slower_than_the_join_timeout_orphans_nothing():
    # The WAN latency model has a Pareto tail, so a committed split's
    # split_done can land after the joiner's join timeout has fired and the
    # joiner has rejoined elsewhere.  The host must take its handed-over
    # half back, and the joiner must not install the late split_done.
    sim, network, nodes = build_overlay(6, seed=2)
    joiner = OverlayNode(sim, network, "late", config=nodes[0].config)
    wire_bootstrap(nodes + [joiner], network, sim)
    send = network.send_framed
    held = []

    def holding_send(msg, tuples, on_fail):
        if msg.kind == "split_done" and not held:
            held.append(msg)
            sim.schedule(4 * JOIN_TIMEOUT_S, send, msg, tuples, on_fail)
            return msg
        return send(msg, tuples, on_fail)

    network.send_framed = holding_send
    joiner.start_join(nodes[0].address)
    assert sim.run_until_predicate(joiner.in_overlay, timeout=3 * JOIN_TIMEOUT_S)
    assert held, "the first split_done was not held back"
    code = joiner.code
    sim.run_until(sim.now + 6 * JOIN_TIMEOUT_S)

    assert joiner.code == code
    assert_prefix_free_cover(overlay_codes(nodes + [joiner]))
    # The host relearned the peers bordering the half it took back.
    for node in nodes + [joiner]:
        for dim in range(len(node.code)):
            assert node.neighbors.dimension_neighbors(node.code, dim), (node.address, dim)


def test_rejoin_after_crash():
    sim, network, nodes = build_overlay(6, seed=6)
    victim = nodes[3]
    network.set_node_up(victim.address, False)
    victim.crash()
    sim.run_until(sim.now + 5.0)
    network.set_node_up(victim.address, True)
    victim.restore()
    ok = sim.run_until_predicate(victim.in_overlay, timeout=120.0)
    assert ok
    live = [n for n in nodes if n.in_overlay()]
    assert len(live) == 6
