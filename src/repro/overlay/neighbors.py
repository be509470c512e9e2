"""Per-node view of overlay peers.

A node's *neighbors* on the hypercube are, for each bit position ``i`` of
its code, the peers responsible for the opposite subtree ``code[:i] + ~code[i]``.
In a balanced hypercube that is one peer per dimension (about log N total);
after churn the opposite subtree may be covered by several peers or by a
peer with a shorter code.

The table stores every peer the node has learned about together with the
peer's code and liveness belief; dimension lookups are computed from codes
on demand, so a code change (join split, takeover shortening) never leaves
stale structure behind.
"""

from typing import Dict, List, Optional, Tuple

from repro.overlay.code import Code


class NeighborTable:
    """Maps peer address -> (code, alive) with hypercube dimension queries."""

    def __init__(self) -> None:
        self._peers: Dict[str, Code] = {}
        self._alive: Dict[str, bool] = {}
        #: Bumped on every *effective* mutation; lets callers (the node's
        #: ``links()`` cache) memoize derived neighbor views.  No-op
        #: upserts — gossip re-announcing a peer we already know at the
        #: same code and liveness — leave it unchanged.
        self.version = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def confirm_alive(self, address: str, bits: str) -> bool:
        """Heartbeat fast path: is ``address`` already known with code
        ``bits`` and alive?  True means the heartbeat is a pure no-op —
        no :class:`Code` construction, no upsert, no version bump."""
        cur = self._peers.get(address)
        return cur is not None and cur.bits == bits and self._alive.get(address) is True

    def upsert(self, address: str, code: Code, alive: bool = True) -> None:
        if self._peers.get(address) == code and self._alive.get(address) is alive:
            return
        self._peers[address] = code
        self._alive[address] = alive
        self.version += 1

    def remove(self, address: str) -> None:
        if address in self._peers:
            del self._peers[address]
            self._alive.pop(address, None)
            self.version += 1

    def mark_dead(self, address: str) -> None:
        if self._alive.get(address, False):
            self._alive[address] = False
            self.version += 1

    def mark_alive(self, address: str) -> None:
        if address in self._alive and not self._alive[address]:
            self._alive[address] = True
            self.version += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, address: str) -> bool:
        return address in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def code_of(self, address: str) -> Optional[Code]:
        return self._peers.get(address)

    def is_alive(self, address: str) -> bool:
        return self._alive.get(address, False)

    def entries(self, alive_only: bool = False) -> List[Tuple[str, Code]]:
        return [
            (addr, code)
            for addr, code in self._peers.items()
            if not alive_only or self._alive.get(addr, False)
        ]

    def addresses(self, alive_only: bool = False) -> List[str]:
        return [addr for addr, _ in self.entries(alive_only=alive_only)]

    def dimension_neighbors(
        self,
        my_code: Code,
        dim: int,
        alive_only: bool = True,
        _entries: Optional[List[Tuple[str, Code]]] = None,
    ) -> List[Tuple[str, Code]]:
        """Peers adjacent across hypercube dimension ``dim``.

        In an incomplete hypercube the dimension-``dim`` neighbors of a node
        with code ``c`` are the peers whose code (a) lies in the opposite
        subtree ``c[:dim] + ~c[dim]`` — or is a shorter code covering it —
        and (b) agrees with ``c`` on the bits after ``dim`` as far as both
        codes are defined.  A balanced cube yields one such peer per
        dimension; when the opposite subtree is one level deeper there are
        two (e.g. node ``00`` links to both ``010`` and ``011``).
        """
        my_len = my_code._len
        if not 0 <= dim < my_len:
            raise IndexError(f"dimension {dim} out of range for code {my_code}")
        # All of the prefix algebra below runs on the integer mirrors:
        # ``links()`` rebuilds call this once per dimension, and the
        # Code-object formulation (prefix/flip/suffix construction per
        # candidate peer) allocated about one Code per routed message at
        # cluster scale.
        t_len = dim + 1
        t_num = (my_code._num >> (my_len - t_len)) ^ 1  # my[:dim+1], bit dim flipped
        my_suf_len = my_len - t_len
        my_suf_num = my_code._num & ((1 << my_suf_len) - 1)
        # ``hypercube_neighbors`` pre-filters the live entries once and
        # passes them for all of its per-dimension calls.
        if _entries is None:
            _entries = self.entries(alive_only=alive_only)
        result = []
        for addr, code in _entries:
            c_len = code._len
            c_num = code._num
            if c_len <= t_len:
                if (t_num >> (t_len - c_len)) == c_num:  # code covers target
                    result.append((addr, code))
            elif (c_num >> (c_len - t_len)) == t_num:  # target covers code
                p_suf_len = c_len - t_len
                p_suf_num = c_num & ((1 << p_suf_len) - 1)
                if p_suf_len <= my_suf_len:
                    if (my_suf_num >> (my_suf_len - p_suf_len)) == p_suf_num:
                        result.append((addr, code))
                elif (p_suf_num >> (p_suf_len - my_suf_len)) == my_suf_num:
                    result.append((addr, code))
        return result

    def hypercube_neighbors(self, my_code: Code, alive_only: bool = True) -> List[Tuple[str, Code]]:
        """The union of dimension neighbors over every bit of ``my_code``.

        These are exactly the peers a balanced node keeps overlay links to,
        and the candidate set for replica placement and takeover.
        """
        seen: Dict[str, Code] = {}
        entries = self.entries(alive_only=alive_only)
        for dim in range(len(my_code)):
            for addr, code in self.dimension_neighbors(
                my_code, dim, alive_only=alive_only, _entries=entries
            ):
                seen[addr] = code
        return list(seen.items())

    def prune_to_neighborhood(self, my_code: Code) -> None:
        """Forget peers that are no longer hypercube neighbors.

        Called after code changes to keep the table at the ~log N size the
        paper's balanced hypercube promises.
        """
        keep = {addr for addr, _ in self.hypercube_neighbors(my_code, alive_only=False)}
        for addr in list(self._peers):
            if addr not in keep:
                self.remove(addr)
