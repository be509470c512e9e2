"""Sparse multi-dimensional histograms and the Appendix-A mismatch metric.

MIND's load balancing rests on an approximate multi-dimensional histogram
of each index's daily data distribution (Section 3.7).  Cells are per-
dimension bins over the normalized data space ``[0,1)^d``; storage is
sparse (network traffic occupies a tiny fraction of the cells even at
modest granularity), so granularities like the paper's 64 bins/dimension
stay tractable.

``granularity`` may be a single int (the paper's uniform ``k^d`` binning)
or a per-dimension sequence — a fine-grained timestamp dimension with
coarser attribute dimensions approximates the daily distribution far
better when a trace slice occupies a thin slab of the time domain.

The histogram answers the two questions the balanced-cut embedding asks:

* how much mass lies inside a normalized rectangle, and
* where along one dimension a rectangle should be cut so the two halves
  carry (approximately) equal mass.

Partial bin overlap is weighted fractionally assuming uniform mass within
a bin.
"""

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.query import NormRect

Granularity = Union[int, Sequence[int]]


class LiveRows:
    """The occupied-cell rows with mass in some rectangle.

    ``index`` holds ascending row numbers into one build of the
    histogram's cell arrays, named by ``build``; a histogram that has
    rebuilt its arrays since ignores the set and scans every cell.
    """

    __slots__ = ("build", "index")

    def __init__(self, build: int, index: np.ndarray) -> None:
        self.build = build
        self.index = index

    def __len__(self) -> int:
        return self.index.size


class MultiDimHistogram:
    """A sparse d-dimensional histogram over [0,1)^d.

    :meth:`add_batch`, :meth:`count_in_rect` and :meth:`split_point` are
    array passes over the occupied cells; the scalar per-cell references
    they are property-tested against live in ``tests/oracles.py``.
    """

    def __init__(self, dimensions: int, granularity: Granularity) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if isinstance(granularity, int):
            grains = (granularity,) * dimensions
        else:
            grains = tuple(granularity)
        if len(grains) != dimensions:
            raise ValueError(
                f"granularity needs {dimensions} entries, got {len(grains)}"
            )
        if any(g < 1 for g in grains):
            raise ValueError("granularity must be >= 1 in every dimension")
        self.dimensions = dimensions
        self.grains: Tuple[int, ...] = grains
        self._cells: Dict[Tuple[int, ...], float] = {}
        self._dirty = True
        #: Which build of the cell arrays is current; :class:`LiveRows`
        #: index into one build only.
        self._build = 0
        #: Cell rows weighed by :meth:`split_rows` so far (a work count).
        self.rows_scanned = 0

    @property
    def granularity(self) -> Tuple[int, ...]:
        return self.grains

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def _bin_of(self, x: float, dim: int) -> int:
        k = self.grains[dim]
        b = int(x * k)
        if b < 0:
            return 0
        if b >= k:
            return k - 1
        return b

    def add(self, point: Sequence[float], weight: float = 1.0) -> None:
        """Add one normalized point."""
        if len(point) != self.dimensions:
            raise ValueError(f"expected {self.dimensions} coordinates, got {len(point)}")
        cell = tuple(self._bin_of(x, dim) for dim, x in enumerate(point))
        # Sparse grid, bounded by prod(grains).
        self._cells[cell] = self._cells.get(cell, 0.0) + weight
        self._dirty = True

    def add_batch(self, points, weight: float = 1.0) -> None:
        """Add many normalized points at once, each carrying ``weight``.

        Bins the whole ``(n, d)`` array with one truncation + clip,
        collapses duplicate cells with ``np.unique`` and touches the
        sparse dict once per *occupied* cell.  With the
        default unit weight the resulting counts are byte-identical to
        ``n`` scalar :meth:`add` calls (integer-valued float64 sums are
        exact); for fractional weights they can differ in the last ulp
        because the additions associate differently.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dimensions:
            raise ValueError(
                f"expected (n, {self.dimensions}) points, got shape {pts.shape}"
            )
        if pts.shape[0] == 0:
            return
        grains = np.asarray(self.grains, dtype=np.float64)
        # Truncation toward zero matches the scalar int(x * k); clipping
        # matches its under/overflow clamps.
        bins = (pts * grains).astype(np.int64)
        np.clip(bins, 0, np.asarray(self.grains, dtype=np.int64) - 1, out=bins)
        cells = self._cells
        total_cells = 1
        for g in self.grains:
            total_cells *= g
        if total_cells < 2**62:
            # Collapse each row to a linear cell id: unique over a 1-D
            # int64 array is far cheaper than unique over row views.
            flat = bins[:, 0].copy()
            for dim in range(1, self.dimensions):
                flat *= self.grains[dim]
                flat += bins[:, dim]
            unique_flat, counts = np.unique(flat, return_counts=True)
            strides = [1] * self.dimensions
            for dim in range(self.dimensions - 2, -1, -1):
                strides[dim] = strides[dim + 1] * self.grains[dim + 1]
            for linear, count in zip(unique_flat.tolist(), counts.tolist()):
                cell = tuple(
                    (linear // strides[dim]) % self.grains[dim]
                    for dim in range(self.dimensions)
                )
                cells[cell] = cells.get(cell, 0.0) + count * weight
        else:
            unique, inverse = np.unique(bins, axis=0, return_inverse=True)
            counts = np.bincount(inverse.ravel(), minlength=unique.shape[0])
            for cell, count in zip(map(tuple, unique.tolist()), counts.tolist()):
                cells[cell] = cells.get(cell, 0.0) + count * weight
        self._dirty = True

    def merge(self, other: "MultiDimHistogram") -> None:
        """Accumulate another histogram (per-node aggregation)."""
        if (other.dimensions, other.grains) != (self.dimensions, self.grains):
            raise ValueError("histogram shapes differ")
        for cell, count in other._cells.items():
            self._cells[cell] = self._cells.get(cell, 0.0) + count
        self._dirty = True

    def shifted(self, dim: int, delta: float) -> "MultiDimHistogram":
        """A copy with all mass moved by ``delta`` (normalized) along ``dim``.

        Used for the daily versioning scheme: yesterday's histogram
        describes today's expected distribution only after its *timestamp*
        dimension is advanced by one day (the distribution of the other
        attributes is what the stationarity argument is about).  Mass
        shifted past the domain edge piles up in the edge bin.
        """
        if not 0 <= dim < self.dimensions:
            raise IndexError(f"dimension {dim} out of range")
        offset = int(round(delta * self.grains[dim]))
        out = MultiDimHistogram(self.dimensions, self.grains)
        top = self.grains[dim] - 1
        for cell, count in self._cells.items():
            moved = min(max(cell[dim] + offset, 0), top)
            new_cell = cell[:dim] + (moved,) + cell[dim + 1 :]
            out._cells[new_cell] = out._cells.get(new_cell, 0.0) + count
        out._dirty = True
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        return float(sum(self._cells.values()))

    @property
    def occupied_cells(self) -> int:
        return len(self._cells)

    def cell_counts(self) -> Dict[Tuple[int, ...], float]:
        return dict(self._cells)

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Occupied cells as arrays, rows in lexicographic cell order."""
        if self._dirty:
            cells = sorted(self._cells.items())
            self._coords = np.array([cell for cell, _ in cells], dtype=np.int64).reshape(
                len(cells), self.dimensions
            )
            self._counts = np.array([count for _, count in cells], dtype=np.float64)
            # Every cell's edges in normalized units, computed once: each
            # median otherwise re-derives them for the rows it weighs.
            grains = np.array(self.grains, dtype=np.float64)
            self._grains = grains
            self._cell_lo = self._coords / grains
            self._cell_hi = (self._coords + 1) / grains
            self._build += 1
            self._dirty = False
        return self._coords, self._counts

    # ------------------------------------------------------------------
    # Rectangle queries
    # ------------------------------------------------------------------
    def _cell_weights(self, rect: NormRect, index: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-cell weight = count x fractional rect overlap.

        One weight per row of ``index`` (every occupied cell when None),
        each the same chain of elementwise products whichever rows it is
        computed beside.
        """
        _, weight = self._arrays()
        cell_lo, cell_hi = self._cell_lo, self._cell_hi
        if index is None:
            weight = weight.copy()
        else:
            cell_lo, cell_hi = cell_lo.take(index, axis=0), cell_hi.take(index, axis=0)
            weight = weight[index]
        bounds = np.array(rect, dtype=np.float64)
        overlap = np.minimum(cell_hi, bounds[:, 1])
        overlap -= np.maximum(cell_lo, bounds[:, 0])
        overlap *= self._grains
        np.maximum(overlap, 0.0, out=overlap)
        np.minimum(overlap, 1.0, out=overlap)
        for dim in range(self.dimensions):
            weight *= overlap[:, dim]
        return weight

    def count_in_rect(self, rect: NormRect) -> float:
        """Approximate mass inside the rectangle."""
        if len(rect) != self.dimensions:
            raise ValueError("rect dimensionality mismatch")
        return float(self._cell_weights(rect).sum())

    def split_point(self, rect: NormRect, dim: int) -> float:
        """The balanced cut of ``rect`` along ``dim``.

        Returns the coordinate where the mass inside the rectangle is
        (approximately) halved; falls back to the geometric midpoint when
        the rectangle holds no mass.
        """
        return self.split_rows(rect, dim)[0]

    def split_rows(
        self, rect: NormRect, dim: int, rows: Optional[LiveRows] = None
    ) -> Tuple[float, LiveRows]:
        """:meth:`split_point`, weighing only ``rows``; also the live rows.

        ``rows`` must cover every cell with mass in ``rect`` — the live
        rows returned for any rectangle containing it do, so a cut tree
        hands each node's set down to its children and a cut deep in the
        tree weighs its own handful of cells instead of all of them.  The
        split is the same float whichever covering set is given: per-cell
        weights are elementwise, ascending rows stably sorted by bin are
        the full stable order restricted to them, and the live masses go
        through the same sequential ``np.cumsum`` (not a pairwise sum),
        which the scalar oracle in ``tests/oracles.py`` reproduces.  A set
        from before the histogram last changed is ignored.
        """
        if not 0 <= dim < self.dimensions:
            raise IndexError(f"dimension {dim} out of range")
        lo, hi = rect[dim]
        coords, _ = self._arrays()
        index = rows.index if rows is not None and rows.build == self._build else None
        weights = self._cell_weights(rect, index)
        self.rows_scanned += weights.size
        live = (weights > 0.0).nonzero()[0]
        masses = weights[live]
        if index is not None:
            live = index[live]
        live_rows = LiveRows(self._build, live)
        if live.size == 0:
            return (lo + hi) / 2.0, live_rows

        bins = coords[live, dim]
        order = bins.argsort(kind="stable")
        bins = bins[order]
        # Find the cell where the running mass crosses half, then
        # interpolate inside that cell's bin: between the running mass at
        # the end of the previous bin and at the end of this one.
        running = masses[order].cumsum()
        half = float(running[-1]) / 2.0
        b = int(bins[running.searchsorted(half)])
        first = int(bins.searchsorted(b))
        before = float(running[first - 1]) if first > 0 else 0.0
        mass = float(running[bins.searchsorted(b, side="right") - 1]) - before
        k = self.grains[dim]
        bin_lo = max(b / k, lo)
        bin_hi = min((b + 1) / k, hi)
        split = bin_lo + (half - before) / mass * (bin_hi - bin_lo)
        # Keep the split strictly inside the rectangle so both halves are
        # non-degenerate.
        return float(min(max(split, lo + 1e-12), hi - 1e-12)), live_rows

    # ------------------------------------------------------------------
    # Serialization (daily histogram distribution to all nodes)
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict:
        return {
            "dimensions": self.dimensions,
            "granularity": list(self.grains),
            "cells": [[list(cell), count] for cell, count in sorted(self._cells.items())],
        }

    @classmethod
    def from_wire(cls, data: Dict) -> "MultiDimHistogram":
        hist = cls(data["dimensions"], data["granularity"])
        for cell, count in data["cells"]:
            hist._cells[tuple(cell)] = count
        hist._dirty = True
        return hist


def mismatch(a: MultiDimHistogram, b: MultiDimHistogram, normalized: bool = True) -> float:
    """The Appendix-A mismatch metric between two data distributions.

    ``MF = sum_x |a_x - b_x| / 2`` over all bins — the volume of data that
    would need to move to turn one distribution into the other, and an
    upper bound on the rebalancing cost of reusing day-i cuts for day-j
    data.  With ``normalized=True`` the result is divided by the mean
    total, giving the *fraction* of data to move (the form plotted in the
    paper's Figure 3, where hourly mismatch approaches 1).
    """
    if (a.dimensions, a.grains) != (b.dimensions, b.grains):
        raise ValueError("histogram shapes differ")
    cells = set(a._cells) | set(b._cells)
    moved = sum(abs(a._cells.get(c, 0.0) - b._cells.get(c, 0.0)) for c in cells) / 2.0
    if not normalized:
        return moved
    denom = (a.total + b.total) / 2.0
    return moved / denom if denom > 0 else 0.0
