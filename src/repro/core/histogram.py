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

from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.core.query import NormRect

Granularity = Union[int, Sequence[int]]


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
        self._coords = np.zeros((0, dimensions), dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.float64)

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
        # repro-leak: ignore[leak-op-state] sparse grid bounded by prod(grains)
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
        if self._dirty:
            if self._cells:
                self._coords = np.array(sorted(self._cells), dtype=np.int64)
                self._counts = np.array([self._cells[tuple(c)] for c in self._coords], dtype=np.float64)
            else:
                self._coords = np.zeros((0, self.dimensions), dtype=np.int64)
                self._counts = np.zeros(0, dtype=np.float64)
            # Per-dimension sort orders, computed once: split_point reuses
            # them instead of re-sorting on every cut.
            self._orders = [
                np.argsort(self._coords[:, dim], kind="stable")
                for dim in range(self.dimensions)
            ]
            self._dirty = False
        return self._coords, self._counts

    # ------------------------------------------------------------------
    # Rectangle queries
    # ------------------------------------------------------------------
    def _cell_weights(self, rect: NormRect) -> np.ndarray:
        """Per-occupied-cell weight = count x fractional rect overlap.

        Computed directly on the occupied-cell coordinate arrays (O(cells)
        per dimension) so fine granularities stay cheap.
        """
        coords, counts = self._arrays()
        if counts.size == 0:
            return counts
        weight = counts.copy()
        for dim, (lo, hi) in enumerate(rect):
            k = self.grains[dim]
            bins = coords[:, dim]
            left = np.maximum(bins / k, lo)
            right = np.minimum((bins + 1) / k, hi)
            weight *= np.clip((right - left) * k, 0.0, 1.0)
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
        if not 0 <= dim < self.dimensions:
            raise IndexError(f"dimension {dim} out of range")
        lo, hi = rect[dim]
        midpoint = (lo + hi) / 2.0

        coords, _ = self._arrays()
        weights = self._cell_weights(rect)
        if weights.size == 0 or weights.sum() <= 0.0:
            return midpoint

        k = self.grains[dim]
        order = self._orders[dim]
        bins_all = coords[order, dim]
        masses_all = weights[order]
        live = masses_all > 0.0
        bins = bins_all[live]
        masses = masses_all[live]
        if bins.size == 0:
            return midpoint
        # Collapse duplicate bins, then find the bin where the cumulative
        # mass crosses half and interpolate inside it.  The cumulative
        # masses come from one sequential np.cumsum over the flat mass
        # array (read at each bin's last cell) and the in-bin mass is the
        # difference of adjacent cumulatives — an operation order the
        # scalar oracle (tests/oracles.py) reproduces exactly, which
        # np.add.reduceat (pairwise association) would not.
        unique_bins, starts = np.unique(bins, return_index=True)
        ends = np.append(starts[1:], masses.size)
        cumulative = np.cumsum(masses)[ends - 1]
        total = cumulative[-1]
        if total <= 0.0:
            return midpoint
        half = total / 2.0
        idx = int(np.searchsorted(cumulative, half, side="left"))
        b = int(unique_bins[idx])
        before = float(cumulative[idx - 1]) if idx > 0 else 0.0
        mass = float(cumulative[idx]) - before
        bin_lo = max(b / k, lo)
        bin_hi = min((b + 1) / k, hi)
        if mass <= 0.0:
            split = bin_lo
        else:
            split = bin_lo + (half - before) / mass * (bin_hi - bin_lo)
        # Keep the split strictly inside the rectangle so both halves are
        # non-degenerate.
        return float(min(max(split, lo + 1e-12), hi - 1e-12))

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
