"""Cut strategies: where to slice the data space at each embedding level.

The embedding recursively halves the (normalized) data space, cycling
through the dimensions.  *Where* each halving cut falls is the strategy:

* :class:`EvenCuts` — geometric midpoints; simple, but skewed traffic data
  then piles up on a few nodes (the paper's Figure 2/13 imbalance).
* :class:`BalancedCuts` — each cut is placed at the histogram-weighted
  median of the rectangle being cut, so both halves carry approximately
  the same amount of data (Section 3.7, Figure 5 bottom-right).

Strategies must be deterministic: every node derives the same cut tree
from the same (distributed) histogram, so no coordination is needed.
"""

from typing import Dict, Optional, Tuple

from repro.core.histogram import LiveRows, MultiDimHistogram
from repro.core.query import NormRect


class EvenCuts:
    """Midpoint cuts — the naive, data-oblivious embedding."""

    kind = "even"

    def split(self, rect: NormRect, dim: int) -> float:
        lo, hi = rect[dim]
        return (lo + hi) / 2.0

    def to_wire(self) -> Dict:
        return {"kind": self.kind}


class BalancedCuts:
    """Histogram-weighted median cuts — MIND's load-balanced embedding."""

    kind = "balanced"

    def __init__(self, histogram: MultiDimHistogram) -> None:
        self.histogram = histogram

    def split(self, rect: NormRect, dim: int) -> float:
        return self.histogram.split_point(rect, dim)

    def cut(
        self, rect: NormRect, dim: int, rows: Optional[LiveRows] = None
    ) -> Tuple[float, Optional[LiveRows]]:
        """The cut a tree makes of ``rect``, plus the rows to hand to cuts
        of its sub-rectangles.

        A cut tree passes each node's rows down to its children, so a cut
        weighs the cells its parent found mass in, not the whole histogram
        (:meth:`MultiDimHistogram.split_rows`).  A histogram that offers
        only ``split_point`` scans itself on every cut and returns no rows.
        """
        split_rows = getattr(self.histogram, "split_rows", None)
        if split_rows is None:
            split, rows = self.histogram.split_point(rect, dim), None
        else:
            split, rows = split_rows(rect, dim, rows)
        lo, hi = rect[dim]
        if not lo < split < hi:
            # A sliver thinner than split_point's clamp margin.
            split = (lo + hi) / 2.0
        return split, rows

    def to_wire(self) -> Dict:
        return {"kind": self.kind, "histogram": self.histogram.to_wire()}


def strategy_from_wire(data: Dict):
    """Reconstruct a cut strategy from its wire form."""
    if data["kind"] == "even":
        return EvenCuts()
    if data["kind"] == "balanced":
        return BalancedCuts(MultiDimHistogram.from_wire(data["histogram"]))
    raise ValueError(f"unknown cut strategy kind {data['kind']!r}")
