"""Hypercube overlay: codes, routing, join, liveness and recovery.

MIND organizes nodes into a (possibly unbalanced) hypercube: every node
carries a variable-length binary *code*, and the set of live codes always
forms a prefix-free partition of the binary code space — equivalently, the
leaves of a binary trie.  Everything else in this package is built on that
invariant:

* greedy routing strictly increases the common prefix with the target code
  at every hop (``routing``),
* the Adler-style randomized join splits the shallowest node found in a
  random neighborhood, keeping the trie balanced with high probability,
  with a deadlock-free serialization of concurrent joins (``join``),
* heartbeats detect failed peers, a probe over the overlay distinguishes
  a dead peer from a broken direct link, and a failed node's sibling takes
  over its half of the code space by shortening its own code
  (``recovery``).
"""

from repro.overlay.code import Code
from repro.overlay.neighbors import NeighborTable
from repro.overlay.node import OverlayNode
from repro.overlay.routing import RouteDecision, next_hop

__all__ = [
    "Code",
    "NeighborTable",
    "OverlayNode",
    "RouteDecision",
    "next_hop",
]
