"""Unit tests for the neighbor table and hypercube link semantics."""

import pytest

from repro.overlay.code import Code
from repro.overlay.neighbors import NeighborTable


def table_of(entries):
    table = NeighborTable()
    for addr, bits in entries:
        table.upsert(addr, Code(bits))
    return table


def test_upsert_and_lookup():
    t = table_of([("a", "00"), ("b", "01")])
    assert "a" in t
    assert t.code_of("a") == Code("00")
    assert t.is_alive("a")
    assert len(t) == 2


def test_mark_dead_and_alive():
    t = table_of([("a", "00")])
    t.mark_dead("a")
    assert not t.is_alive("a")
    assert t.entries(alive_only=True) == []
    t.mark_alive("a")
    assert t.is_alive("a")


def test_remove():
    t = table_of([("a", "00")])
    t.remove("a")
    assert "a" not in t
    t.remove("ghost")  # idempotent


def test_dimension_neighbors_balanced():
    # Node 00 in a balanced 4-cube: dim-0 neighbor is 10, dim-1 is 01.
    t = table_of([("n01", "01"), ("n10", "10"), ("n11", "11")])
    me = Code("00")
    dim0 = t.dimension_neighbors(me, 0)
    dim1 = t.dimension_neighbors(me, 1)
    assert [a for a, _ in dim0] == ["n10"]
    assert [a for a, _ in dim1] == ["n01"]


def test_dimension_neighbors_deeper_opposite_subtree():
    # Node 00 with the opposite dim-1 subtree split one level deeper links
    # to both 010 and 011 (suffixes comparable with the empty suffix).
    t = table_of([("n010", "010"), ("n011", "011"), ("n1", "1")])
    me = Code("00")
    dim1 = {a for a, _ in t.dimension_neighbors(me, 1)}
    assert dim1 == {"n010", "n011"}


def test_dimension_neighbors_suffix_filter():
    # Node 000's dim-0 neighbor must agree on the suffix "00": 100
    # qualifies, 101 and 110 do not.
    t = table_of([("n100", "100"), ("n101", "101"), ("n110", "110")])
    me = Code("000")
    dim0 = {a for a, _ in t.dimension_neighbors(me, 0)}
    assert dim0 == {"n100"}


def test_dimension_neighbors_shorter_peer_covers():
    # A peer with code "1" covers the whole opposite half of node 000.
    t = table_of([("big", "1")])
    dim0 = {a for a, _ in t.dimension_neighbors(Code("000"), 0)}
    assert dim0 == {"big"}


def test_dimension_out_of_range():
    t = table_of([])
    with pytest.raises(IndexError):
        t.dimension_neighbors(Code("00"), 2)


def test_hypercube_neighbors_union():
    t = table_of([("n01", "01"), ("n10", "10"), ("n11", "11")])
    links = {a for a, _ in t.hypercube_neighbors(Code("00"))}
    assert links == {"n01", "n10"}


def test_prune_to_neighborhood():
    t = table_of([("n01", "01"), ("n10", "10"), ("n11", "11"), ("far", "111001")])
    t.prune_to_neighborhood(Code("00"))
    assert "n01" in t and "n10" in t
    assert "far" not in t
