"""Scalar reference implementations of the NumPy hot paths.

Production (`TimePartitionedStore`, `MultiDimHistogram`,
`histogram_from_records`, `derive_cut_tree`, the closed-form even-cut
`Embedding.point_code`, `region_rect`, `complement_cells` and
`query_prefix`) runs one array-based or arithmetic path; these
per-record / per-cell / per-cut loops are what that path must equal.  The
equivalence property tests (``tests/storage/test_vectorized_equivalence.py``,
``tests/core/test_even_codes.py``) compare the two byte for byte.  The
production paths are timed by mindbench's per-layer ledger; these loops
are not timed anywhere.

The histogram oracles apply the same IEEE operations in the same order as
the array code (per-dimension overlap products, one sequential running sum
over the live masses), so cuts come out as identical floats, not merely
close ones.
"""

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.cuts import EvenCuts
from repro.core.histogram import MultiDimHistogram
from repro.core.query import NormRect, full_rect, rect_contains_point
from repro.core.records import Record
from repro.core.schema import IndexSchema
from repro.storage.memtable import TimePartitionedStore


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def insert_each(store: TimePartitionedStore, records: Iterable[Record]) -> int:
    """Per-record inserts; returns how many were new (``insert_batch``'s twin)."""
    return sum(1 for record in records if store.insert(record))


def scan_scalar(
    store: TimePartitionedStore,
    rect: NormRect,
    time_range: Optional[Tuple[float, float]] = None,
) -> List[Record]:
    """Brute-force ``store.query``: test every record of every candidate bucket.

    Public API only: walks ``all_records()``, keeps the records whose time
    bucket (``timestamp // bucket_s``) overlaps the half-open
    ``time_range``, and re-normalizes each one for the containment test.
    """
    schema = store.schema
    time_dim = schema.time_dimension()
    pruned = time_range is not None and time_dim is not None
    if pruned:
        lo, hi = time_range
        first = lo // store.bucket_s
        # Half-open: the last bucket is the one holding the largest
        # representable timestamp below ``hi``.
        last = max(lo, math.nextafter(hi, -math.inf)) // store.bucket_s
    out: List[Record] = []
    for record in store.all_records():
        if pruned and not first <= record.values[time_dim] // store.bucket_s <= last:
            continue
        if rect_contains_point(rect, schema.normalize(record.values)):
            out.append(record)
    return out


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def histogram_from_records_scalar(
    schema: IndexSchema, records: Iterable[Record], granularity: Sequence[int]
) -> MultiDimHistogram:
    """Per-record ``normalize`` + ``add`` (``histogram_from_records``' twin)."""
    hist = MultiDimHistogram(schema.dimensions, tuple(granularity))
    for record in records:
        hist.add(schema.normalize(record.values))
    return hist


def cell_weights_scalar(
    hist: MultiDimHistogram, rect: NormRect
) -> List[Tuple[Tuple[int, ...], float]]:
    """Per-occupied-cell ``count x fractional rect overlap``, cell by cell.

    Walks the sorted cell dict — the row order of the histogram's
    coordinate arrays.
    """
    out = []
    for cell in sorted(hist._cells):
        weight = hist._cells[cell]
        for dim, (lo, hi) in enumerate(rect):
            k = hist.grains[dim]
            b = cell[dim]
            left = max(b / k, lo)
            right = min((b + 1) / k, hi)
            frac = (right - left) * k
            if frac < 0.0:
                frac = 0.0
            elif frac > 1.0:
                frac = 1.0
            weight = weight * frac
        out.append((cell, weight))
    return out


def count_in_rect_scalar(hist: MultiDimHistogram, rect: NormRect) -> float:
    """Sequential sum of the cell weights (so only ulp-close to the pairwise sum)."""
    return float(sum(w for _, w in cell_weights_scalar(hist, rect)))


def split_point_scalar(hist: MultiDimHistogram, rect: NormRect, dim: int) -> float:
    """Scalar ``MultiDimHistogram.split_point`` (same floats out)."""
    lo, hi = rect[dim]
    midpoint = (lo + hi) / 2.0
    weighted = cell_weights_scalar(hist, rect)
    if not weighted:
        return midpoint
    k = hist.grains[dim]
    # Stable sort by the bin index along ``dim`` over the lexicographically
    # sorted cells — the exact order np.argsort (stable) gives the array path.
    by_bin = sorted(((cell[dim], w) for cell, w in weighted), key=lambda bw: bw[0])
    # One running sum over the live masses, recorded at each bin's last
    # cell — the same sequential fold + adjacent-difference the array path
    # performs, so the floats match exactly.
    bins_list: List[int] = []
    cumulative: List[float] = []
    running = 0.0
    for b, mass in by_bin:
        if mass <= 0.0:
            continue
        running += mass
        if bins_list and bins_list[-1] == b:
            cumulative[-1] = running
        else:
            bins_list.append(b)
            cumulative.append(running)
    if not bins_list:
        return midpoint
    total = cumulative[-1]
    if total <= 0.0:
        return midpoint
    half = total / 2.0
    idx = 0
    while cumulative[idx] < half:
        idx += 1
    b = bins_list[idx]
    before = cumulative[idx - 1] if idx > 0 else 0.0
    mass = cumulative[idx] - before
    bin_lo = max(b / k, lo)
    bin_hi = min((b + 1) / k, hi)
    if mass <= 0.0:
        split = bin_lo
    else:
        split = bin_lo + (half - before) / mass * (bin_hi - bin_lo)
    return float(min(max(split, lo + 1e-12), hi - 1e-12))


def even_code_walk(schema: IndexSchema, values: Sequence[float], depth: int) -> str:
    """The even-cut code of a raw point by descent (``Embedding.point_code``'s twin).

    Halves the point's cell ``depth`` times, cycling through the
    dimensions, at ``EvenCuts``' midpoint, and emits one bit per cut:
    ``1`` where the point lies at or above the cut.
    """
    point = schema.normalize(values)
    dims = schema.dimensions
    rect = full_rect(dims)
    bits = []
    for level in range(depth):
        dim = level % dims
        upper = point[dim] >= EvenCuts().split(rect, dim)
        rect = _even_narrow(rect, dim, upper)
        bits.append("1" if upper else "0")
    return "".join(bits)


def _even_narrow(rect: NormRect, dim: int, upper: bool) -> NormRect:
    """``rect`` with side ``dim`` halved at ``EvenCuts``' midpoint."""
    lo, hi = rect[dim]
    split = EvenCuts().split(rect, dim)
    return rect[:dim] + (((split, hi) if upper else (lo, split)),) + rect[dim + 1 :]


def even_rect_walk(dims: int, bits: str) -> NormRect:
    """The even-cut rectangle of a code by descent (``Embedding.region_rect``'s twin)."""
    rect = full_rect(dims)
    for level, bit in enumerate(bits):
        rect = _even_narrow(rect, level % dims, bit == "1")
    return rect


def even_complement_walk(dims: int, own_bits: str, start: int) -> List[Tuple[str, NormRect]]:
    """The complement cells of ``own_bits`` below ``start`` by descent
    (``Embedding.complement_cells``' twin): per level, the sibling's bits
    and the running rectangle narrowed to the other side of the cut."""
    rect = even_rect_walk(dims, own_bits[:start])
    out = []
    for level in range(start, len(own_bits)):
        upper = own_bits[level] == "1"
        out.append(
            (own_bits[:level] + ("0" if upper else "1"), _even_narrow(rect, level % dims, not upper))
        )
        rect = _even_narrow(rect, level % dims, upper)
    return out


def even_query_prefix_walk(dims: int, query_rect: NormRect, depth: int) -> str:
    """The longest even-cut code whose region holds ``query_rect``, by descent
    (``Embedding.query_prefix``'s twin): lower where the query ends at or
    below the cut, upper where it starts at or above it, else stop."""
    rect = full_rect(dims)
    bits = []
    for level in range(depth):
        dim = level % dims
        split = EvenCuts().split(rect, dim)
        q_lo, q_hi = query_rect[dim]
        if q_hi <= split:
            upper = False
        elif q_lo >= split:
            upper = True
        else:
            break
        rect = _even_narrow(rect, dim, upper)
        bits.append("1" if upper else "0")
    return "".join(bits)


class ScalarCutHistogram:
    """A histogram whose cuts come from :func:`split_point_scalar`.

    Stands in for a :class:`MultiDimHistogram` wherever only ``dimensions``
    and ``split_point`` are read — ``derive_cut_tree`` and
    ``BalancedCuts`` — so the scalar column runs production's cut-tree
    walk and point-code descent with only the median swapped out.
    """

    def __init__(self, hist: MultiDimHistogram) -> None:
        self.hist = hist
        self.dimensions = hist.dimensions

    def split_point(self, rect: NormRect, dim: int) -> float:
        return split_point_scalar(self.hist, rect, dim)
