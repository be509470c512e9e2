"""Property-style tests: greedy routing converges on random prefix covers."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import SimNetwork
from repro.overlay.code import Code
from repro.overlay.neighbors import NeighborTable
from repro.overlay.node import OverlayNode
from repro.overlay.routing import next_hop
from repro.sim.kernel import Simulator


def random_cover(rng: random.Random, splits: int):
    """Build a random prefix-free cover by repeatedly splitting leaves."""
    leaves = [Code("")]
    for _ in range(splits):
        victim = rng.choice(leaves)
        leaves.remove(victim)
        leaves.append(victim.extend("0"))
        leaves.append(victim.extend("1"))
    return leaves


def build_tables(leaves):
    tables = {}
    for code in leaves:
        table = NeighborTable()
        for other in leaves:
            if other != code:
                table.upsert(f"n{other.bits}", other)
        table.prune_to_neighborhood(code)
        tables[code] = table
    return tables


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=40))
def test_greedy_routing_always_converges(seed, splits):
    rng = random.Random(seed)
    leaves = random_cover(rng, splits)
    tables = build_tables(leaves)
    target = rng.choice(leaves)
    deep_target = Code(target.bits + "0101"[: rng.randint(0, 4)])

    current = rng.choice(leaves)
    hops = 0
    max_len = max(len(c) for c in leaves)
    while True:
        decision = next_hop(
            current, deep_target, tables[current].hypercube_neighbors(current)
        )
        if decision.arrived:
            break
        assert decision.next_hop is not None, (
            f"dead end at {current} toward {deep_target} in cover "
            f"{[c.bits for c in leaves]}"
        )
        nxt = decision.next_code
        # Strict progress: the common prefix with the target grows.
        assert nxt.common_prefix_len(deep_target) > current.common_prefix_len(deep_target)
        current = nxt
        hops += 1
        assert hops <= max_len, "routing exceeded the code-length bound"
    assert current.comparable(deep_target)
    assert current == target


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=40))
def test_route_table_equals_next_hop(seed, splits):
    # The per-dimension rows behind ``_greedy_decision`` must reproduce
    # the full scan's candidate filter and tie rule for every node and
    # target: targets shorter and longer than the codes (the empty one
    # included), a stale ancestor code, two addresses sharing a code, and
    # the empty code among the links.
    rng = random.Random(seed)
    leaves = random_cover(rng, splits)
    tables = build_tables(leaves)
    sim = Simulator(seed=1)
    node = OverlayNode(sim, SimNetwork(sim, {}), "me")
    targets = [Code("")]
    for leaf in leaves:
        extra = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        targets += [Code(leaf.bits + extra), leaf.prefix(rng.randint(0, len(leaf)))]
    for code in leaves:
        links = list(tables[code].hypercube_neighbors(code))
        if links:
            addr, twin = rng.choice(links)
            links.insert(rng.randint(0, len(links)), (addr + "-twin", twin))
        if len(code):
            links.append(("stale", code.prefix(rng.randint(0, len(code) - 1))))
        links.insert(rng.randint(0, len(links)), ("root", Code("")))
        rng.shuffle(links)
        node.code = code
        for target in targets:
            assert node._greedy_decision(target, links) == next_hop(code, target, links), (
                code, target, links,
            )
        assert len(node._route_rows) == len(code)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_every_node_has_all_dimension_links(seed):
    rng = random.Random(seed)
    leaves = random_cover(rng, rng.randint(1, 30))
    tables = build_tables(leaves)
    for code in leaves:
        for dim in range(len(code)):
            assert tables[code].dimension_neighbors(code, dim), (
                f"{code} lacks a dim-{dim} link in a complete cover"
            )
