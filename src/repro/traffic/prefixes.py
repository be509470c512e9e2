"""IP prefixes as numeric ranges.

MIND indexes addresses as plain 32-bit integers; a prefix is then a
contiguous range, which is exactly what makes prefix queries expressible
as one dimension of a range query.  The synthetic universe assigns each
backbone a pool of /16 prefixes, so the prefix of any generated address is
recoverable with a mask.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Tuple

ADDRESS_SPACE = 2**32
PREFIX16_MASK = 0xFFFF0000


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix as (base address, prefix length)."""

    base: int
    length: int = 16

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"invalid prefix length {self.length}")
        span = self.span
        if self.base % span != 0:
            raise ValueError(f"base {self.base:#x} not aligned to /{self.length}")
        if not 0 <= self.base < ADDRESS_SPACE:
            raise ValueError("base outside IPv4 space")

    @property
    def span(self) -> int:
        return 1 << (32 - self.length)

    @property
    def limit(self) -> int:
        return self.base + self.span

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def address_range(self) -> Tuple[int, int]:
        """The half-open [base, limit) range for use in queries."""
        return (self.base, self.limit)

    def random_host(self, rng: random.Random) -> int:
        return self.base + rng.randrange(self.span)

    def __str__(self) -> str:
        octets = [(self.base >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return f"{'.'.join(str(o) for o in octets)}/{self.length}"


def prefix16_of(address: int) -> int:
    """The /16 base covering ``address`` — how aggregation groups hosts."""
    return address & PREFIX16_MASK


class PrefixPool:
    """A backbone network's set of customer /16 prefixes with popularity.

    Popularity is Zipf-distributed: prefix *i* (rank order) is chosen with
    probability proportional to ``1 / (i+1)^s``.  This is the source of the
    storage skew the paper measures in Figure 2.
    """

    def __init__(self, first_octet: int, count: int, zipf_s: float = 1.1) -> None:
        if not 1 <= first_octet <= 223:
            raise ValueError("first_octet must be a unicast /8")
        if count < 1 or count > 256 * 256:
            raise ValueError("count must be in [1, 65536]")
        self.prefixes: List[Prefix] = []
        base_octet = first_octet << 24
        for i in range(count):
            self.prefixes.append(Prefix(base_octet + (i << 16), 16))
        #: Each prefix's base address and span, read once per draw by the
        #: generator instead of through two properties.
        self.bases: List[int] = [p.base for p in self.prefixes]
        self.spans: List[int] = [p.span for p in self.prefixes]
        weights = [1.0 / (i + 1) ** zipf_s for i in range(count)]
        total = sum(weights)
        self._cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)

    def __len__(self) -> int:
        return len(self.prefixes)

    def pick_index(self, x: float) -> int:
        """The rank of the prefix a uniform draw ``x`` in [0, 1) selects.

        The first prefix whose cumulative share reaches ``x``; a draw
        above the float-rounded total selects the last prefix.
        """
        return min(bisect_left(self._cumulative, x), len(self._cumulative) - 1)

    def pick(self, rng: random.Random) -> Prefix:
        """Draw a prefix by Zipf popularity."""
        return self.prefixes[self.pick_index(rng.random())]
