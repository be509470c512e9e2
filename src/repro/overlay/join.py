"""State machines for the randomized, deadlock-free node join.

The join follows Adler et al.'s randomized procedure as adapted by the
paper (Section 3.3, Figure 4):

1. The joiner asks a random live node for its *neighborhood* — that node
   plus its hypercube neighbors, with codes.
2. The joiner picks the shallowest node (shortest code) in the
   neighborhood as its split host.
3. The host runs an optimistic prepare/commit round with its neighbors.
   A neighbor holding a prepare from another, **deeper** host preempts it
   in favour of the shallower one; ties break on (code bits, address) so
   preemption is a total order and no deadlock or livelock is possible.
4. On commit the host appends ``0`` to its code, the joiner receives the
   host's old code plus ``1``, the host's neighbor table and the
   application-level state snapshot (index schemas, cut trees, sibling
   data pointer).

Aborted or timed-out joins are retried by the joiner with a fresh random
bootstrap after a randomized backoff.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.overlay.code import Code


def host_priority(code: Code, address: str) -> Tuple[int, str, str]:
    """Total preemption order: shallower hosts win, ties break on code/addr."""
    return (len(code), code.bits, address)


@dataclass
class HostJoinState:
    """Host-side bookkeeping for one in-flight split."""

    joiner: str
    host_code: Code
    round_id: int
    awaiting_acks: Set[str] = field(default_factory=set)
    acked: Set[str] = field(default_factory=set)
    timeout_event: Optional[object] = None

    def all_acked(self) -> bool:
        return self.awaiting_acks <= self.acked


@dataclass
class JoinerState:
    """Joiner-side bookkeeping while negotiating entry into the overlay."""

    bootstrap: str
    attempt: int = 1
    host: Optional[str] = None
    timeout_event: Optional[object] = None

    def clear_timeout(self) -> None:
        if self.timeout_event is not None:
            self.timeout_event.cancel()
            self.timeout_event = None


@dataclass
class PendingPrepare:
    """A neighbor's record of a prepare it has acked but not yet seen commit."""

    host: str
    host_code: Code
    joiner: str
    round_id: int

    def priority(self) -> Tuple[int, str, str]:
        return host_priority(self.host_code, self.host)


def choose_split_host(neighborhood: List[Tuple[str, Code]], rng) -> Tuple[str, Code]:
    """Pick the shallowest node in a neighborhood; random among ties.

    This is the step that keeps the hypercube balanced with high
    probability: a random node's neighborhood almost always contains a
    node of minimal depth, and splitting minimal-depth nodes first evens
    out code lengths.
    """
    if not neighborhood:
        raise ValueError("empty neighborhood")
    min_len = min(len(code) for _, code in neighborhood)
    shallowest = [(addr, code) for addr, code in neighborhood if len(code) == min_len]
    return rng.choice(sorted(shallowest))


@dataclass
class SiblingPointer:
    """Post-split pointer from joiner to host for not-yet-aged data.

    When a node joins and takes over half of its host's region, existing
    index data is *not* moved; the joiner forwards matching queries to the
    host "until the data have aged".  The pointer says what it points at:
    the host reports, per index, the raw-time end of the newest time bucket
    it held at the split, and a query whose time range starts at or after
    that bound has nothing to find there.
    """

    sibling: str
    #: Index name -> that bound (``inf`` for an index without a time
    #: dimension); an index the host held no row of has no entry.
    held_until: Dict[str, float] = field(default_factory=dict)
