"""Greedy hypercube routing decisions.

Routing targets are codes (for data items, codes at cut-tree resolution;
for queries, possibly short prefixes).  At a node with code ``c`` routing a
message toward target ``t``:

* if ``c`` and ``t`` are prefix-comparable the message has arrived — this
  node owns (part of) the target region;
* otherwise let ``i`` be the first differing bit: the message must cross
  hypercube dimension ``i``, i.e. go to a peer in subtree ``t[:i+1]``.
  Among known live peers in that subtree we pick the one sharing the
  longest prefix with ``t``, which strictly increases prefix match and
  bounds the path by the code length (about log N hops).

When no live peer covers the required subtree the caller falls back to the
expanding-ring recovery implemented in :mod:`repro.overlay.node`.

The candidate set depends on the target only through ``i``, so a node
keeps one row of candidates per bit of its code (:func:`route_rows`) and
a hop looks its row up (:func:`table_next_hop`); :func:`next_hop` is the
full scan, kept for hops that must skip excluded peers.
"""

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.overlay.code import Code


@dataclass(slots=True)
class RouteDecision:
    """Outcome of one routing step.

    ``arrived`` — this node owns (part of) the target region.
    ``next_hop`` — forward to this address, or ``None`` on a dead end.

    Treated as immutable by every caller (route rows share one decision
    per link, and the two constant outcomes below are shared); not
    ``frozen=True`` because the frozen ``__init__`` pays an
    ``object.__setattr__`` per field and :func:`next_hop` builds one per
    call.
    """

    arrived: bool
    next_hop: Optional[str] = None
    next_code: Optional[Code] = None


#: The two constant outcomes, shared — safe to reuse since decisions are
#: never mutated.
_ARRIVED = RouteDecision(arrived=True)
_DEAD_END = RouteDecision(arrived=False, next_hop=None)


def next_hop(
    my_code: Code,
    target: Code,
    links: Iterable[Tuple[str, Code]],
    exclude: Iterable[str] = (),
) -> RouteDecision:
    """Decide the next routing step toward ``target``.

    ``links`` is the node's live hypercube link set (address, code) pairs;
    ``exclude`` lists addresses the message must not go to: peers known to
    be unreachable for it, and the peers already on its path.  With every
    candidate excluded the decision is a dead end.
    """
    # This loop runs once per link on every routed hop of every operation,
    # so the prefix algebra is inlined on Code's integer mirrors
    # (``_num``/``_len``) instead of going through method calls.
    t_num = target._num
    t_len = target._len
    my_len = my_code._len
    n = my_len if my_len < t_len else t_len
    if n:
        bits = (my_code._num >> (my_len - n)) ^ (t_num >> (t_len - n))
        my_cpl = n - bits.bit_length()
    else:
        my_cpl = 0
    if my_cpl == n:  # prefix-comparable: this node owns the target region
        return _ARRIVED

    # The message must reach subtree ``required = target[:diff+1]``.  A peer
    # code is prefix-comparable with ``required`` exactly when its common
    # prefix with ``target`` — capped at ``required``'s length — spans the
    # shorter of the two, so the whole check reduces to prefix lengths
    # already in hand (no Code construction per routing decision).
    req_len = my_cpl + 1
    excluded = set(exclude) if exclude else ()
    # The best candidate so far, in plain locals since this loop is the
    # routing hot spot.
    best_addr = best_code = None
    best_len = -1
    for addr, code in links:
        if addr in excluded:
            continue
        c_len = code._len
        m = c_len if c_len < t_len else t_len
        if m:
            bits = (code._num >> (c_len - m)) ^ (t_num >> (t_len - m))
            cpl = m - bits.bit_length()
        else:
            cpl = 0
        if cpl <= my_cpl:
            cap = c_len if c_len < req_len else req_len
            if (cpl if cpl < req_len else req_len) != cap:
                continue
        if cpl > best_len or (cpl == best_len and best_code is not None and code < best_code):
            best_addr, best_code, best_len = addr, code, cpl
    if best_addr is None:
        return _DEAD_END
    return RouteDecision(arrived=False, next_hop=best_addr, next_code=best_code)


def route_rows(my_code: Code, links: Iterable[Tuple[str, Code]]) -> List[List[RouteDecision]]:
    """One row of greedy candidates per bit of ``my_code``.

    Row ``i`` serves every target that first leaves ``my_code`` at bit
    ``i``: it holds the links prefix-comparable with ``my_code[:i]`` plus
    the flipped bit ``i`` — exactly the candidates :func:`next_hop`
    admits for such a target — as one shared decision per link, sorted
    by code.  The sort is stable, so links sharing a code keep their
    link order, which is :func:`next_hop`'s tie rule among equals.
    """
    decisions = [
        RouteDecision(arrived=False, next_hop=addr, next_code=code)
        for addr, code in sorted(links, key=lambda link: link[1].bits)
    ]
    num, length = my_code._num, my_code._len
    rows = []
    for i in range(length):
        req_len = i + 1
        required = (num >> (length - req_len)) ^ 1
        row = []
        for decision in decisions:
            code = decision.next_code
            c_len = code._len
            m = c_len if c_len < req_len else req_len
            if (code._num >> (c_len - m)) == (required >> (req_len - m)):
                row.append(decision)
        rows.append(row)
    return rows


def table_next_hop(
    my_code: Code, rows: Sequence[Sequence[RouteDecision]], target: Code
) -> RouteDecision:
    """:func:`next_hop` without ``exclude``, through ``rows``
    (:func:`route_rows` of ``my_code`` and the same links).

    The xor of the two codes gives the row; a one-candidate row is the
    decision.  Otherwise the first candidate with the longest common
    prefix with ``target`` wins: rows are sorted by code, so ties go to
    the smallest code, as in the full scan.
    """
    t_num = target._num
    t_len = target._len
    my_len = my_code._len
    n = my_len if my_len < t_len else t_len
    diff = n - ((my_code._num >> (my_len - n)) ^ (t_num >> (t_len - n))).bit_length() if n else 0
    if diff == n:
        return _ARRIVED
    row = rows[diff]
    if len(row) == 1:
        return row[0]
    best = _DEAD_END
    best_len = -1
    for decision in row:
        code = decision.next_code
        c_len = code._len
        m = c_len if c_len < t_len else t_len
        cpl = m - ((code._num >> (c_len - m)) ^ (t_num >> (t_len - m))).bit_length() if m else 0
        if cpl > best_len:
            best, best_len = decision, cpl
    return best
