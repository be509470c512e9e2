"""Binary node codes (hypercube vertex addresses).

A :class:`Code` is an immutable bit string.  The empty code is the root of
the binary trie and is held by the very first node of an overlay.  Codes of
live nodes always form a prefix-free set that covers the whole code space;
:class:`Code` provides the prefix algebra everything else relies on.
"""

from typing import Dict, Iterator


_VALID_BITS = frozenset("01")


class Code:
    """An immutable binary code, e.g. ``Code("0010")``.

    Codes are ordered lexicographically (useful for deterministic tests)
    and hashable, so they can key dictionaries directly.
    """

    __slots__ = ("bits", "_num", "_len")

    def __init__(self, bits: str = "") -> None:
        # Empty exactly when every character is 0 or 1; allocates nothing
        # for a valid code (``int(bits, 2)`` alone would accept "0_1" and
        # surrounding whitespace).
        if bits.strip("01"):
            raise ValueError(f"code must contain only 0/1, got {bits!r}")
        object.__setattr__(self, "bits", bits)
        # Integer mirror of the bit string: prefix comparisons reduce to
        # shift/xor on machine words instead of per-character Python loops
        # — the hottest operation of greedy routing at scale.
        object.__setattr__(self, "_num", int(bits, 2) if bits else 0)
        object.__setattr__(self, "_len", len(bits))

    def __setattr__(self, name, value):  # noqa: D105 - immutability guard
        raise AttributeError("Code is immutable")

    # -- basic protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[str]:
        return iter(self.bits)

    def __getitem__(self, idx):
        result = self.bits[idx]
        return Code(result) if isinstance(idx, slice) else result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Code) and self.bits == other.bits

    def __lt__(self, other: "Code") -> bool:
        return self.bits < other.bits

    def __hash__(self) -> int:
        return hash(("Code", self.bits))

    def __repr__(self) -> str:
        return f"Code({self.bits!r})"

    def __str__(self) -> str:
        return self.bits or "ε"

    # -- prefix algebra --------------------------------------------------
    def is_prefix_of(self, other: "Code") -> bool:
        """True when ``self`` is a (non-strict) prefix of ``other``."""
        my_len = self._len
        other_len = other._len
        return my_len <= other_len and (other._num >> (other_len - my_len)) == self._num

    def comparable(self, other: "Code") -> bool:
        """True when one code is a prefix of the other.

        Comparable codes denote nested trie subtrees; two *live* node codes
        are never comparable except when equal (prefix-free invariant).
        Called on every routed hop, so the check runs on the integer
        mirrors in one shot instead of two string ``startswith`` passes.
        """
        my_len = self._len
        other_len = other._len
        if my_len <= other_len:
            return (other._num >> (other_len - my_len)) == self._num
        return (self._num >> (my_len - other_len)) == other._num

    def common_prefix_len(self, other: "Code") -> int:
        my_len = self._len
        other_len = other._len
        n = my_len if my_len < other_len else other_len
        if n == 0:
            return 0
        diff = (self._num >> (my_len - n)) ^ (other._num >> (other_len - n))
        return n - diff.bit_length()

    def first_diff(self, other: "Code") -> int:
        """Index of the first differing bit; -1 when comparable."""
        cpl = self.common_prefix_len(other)
        if cpl == min(len(self), len(other)):
            return -1
        return cpl

    # -- construction ----------------------------------------------------
    def extend(self, bit: str) -> "Code":
        if bit not in _VALID_BITS:
            raise ValueError(f"bit must be '0' or '1', got {bit!r}")
        return Code(self.bits + bit)

    def shorten(self) -> "Code":
        """Drop the last bit — a sibling takeover after the sibling dies."""
        if not self.bits:
            raise ValueError("cannot shorten the empty code")
        return Code(self.bits[:-1])

    def sibling(self) -> "Code":
        """The code differing only in the last bit."""
        if not self.bits:
            raise ValueError("the empty code has no sibling")
        last = "1" if self.bits[-1] == "0" else "0"
        return Code(self.bits[:-1] + last)

    def flip(self, index: int) -> "Code":
        """Flip bit ``index`` — the dimension-``index`` hypercube move."""
        if not 0 <= index < len(self.bits):
            raise IndexError(f"bit index {index} out of range for {self!r}")
        bit = "1" if self.bits[index] == "0" else "0"
        return Code(self.bits[:index] + bit + self.bits[index + 1 :])

    def prefix(self, length: int) -> "Code":
        if not 0 <= length <= len(self.bits):
            raise ValueError(f"prefix length {length} out of range for {self!r}")
        return Code(self.bits[:length])


#: Shared instances for the routing hot path.  Codes are immutable values
#: compared by bits, so sharing one is only an optimisation: per-hop
#: reconstruction from wire bits is pure overhead.  Every routed insert
#: interns its record's point code, so a table keeping every code would
#: grow with the data, up to 2^17 entries at the default depth 16.  It is
#: two generations instead: a lookup tries ``_young``, then ``_old`` (a
#: hit there puts the code back in ``_young``), and when ``_young`` reaches
#: ``_GENERATION`` entries it replaces ``_old``, whose codes are freed once
#: nothing else holds them.  A point code is hot only while its insert is
#: in flight.  On the scale tier's engine at 1000 nodes and 2 records/s per
#: node, generations of 512 build three times as many codes as generations
#: of 4,096, and generations of 1,024 only 12% more: the hot set fits in
#: about 1k entries, and 4,096 leaves four times that.
_GENERATION = 4096
_young: Dict[str, Code] = {}
_old: Dict[str, Code] = {}


def intern_code(bits: str) -> Code:
    """A shared :class:`Code` for ``bits`` (validating on first sight)."""
    global _young, _old
    code = _young.get(bits)
    if code is None:
        code = _old.get(bits)
        if code is None:
            code = Code(bits)
        _young[bits] = code
        if len(_young) >= _GENERATION:
            _old, _young = _young, {}
    return code
