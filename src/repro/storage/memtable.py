"""In-memory, time-partitioned record store: one sorted columnar run.

Records are stored with their *normalized* coordinates so that rectangle
filtering agrees exactly with the embedding's view of the data space
(including the clamping of out-of-domain values to the top of the range).
Partitioning on the raw timestamp attribute prunes the scan for the
periodic monitoring queries the paper issues (5-minute windows over a day
of data).

The whole store is one run of rows held in **(time bucket ascending,
arrival order within a bucket)**: a growing ``float64`` point matrix
(amortized-doubling append), a parallel column of bucket ids
(``timestamp // bucket_s``) and the record list.  A scan is two binary
searches on the bucket column, one vectorized rectangle mask over the
contiguous slice between them and one gather — the batched range-filter
primitive that Skip-Webs-style distributed multi-dimensional indexes are
built around — whatever the slice holds; there is no small-slice twin.
The brute-force scan the equivalence property tests compare against lives
in ``tests/oracles.py``.

Appends never sort.  An arrival whose bucket is at or past the run's last
(time-ordered arrival, the monitoring case) extends the sorted run;
anything else marks the run unsorted and the next read folds it with one
stable ``argsort`` of the bucket column (timsort: a long sorted run plus a
short tail merges adaptively — ~15 us at the ~100 rows a cluster node
holds).  The cost to know about: one out-of-order arrival into a 100k-row
run makes the next read pay a ~7 ms fold.

The bucket column is an ``array('d')`` searched with ``bisect``: a scan
looks up two scalars, at half the cost of ``ndarray.searchsorted`` on
them; the fold, which wants the whole column, sorts it through a NumPy
view of the same memory.
"""

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import NormRect
from repro.core.records import Record
from repro.core.schema import IndexSchema

_INITIAL_CAPACITY = 16


def rect_mask(points: np.ndarray, rect: NormRect) -> Optional[np.ndarray]:
    """Vectorized :func:`~repro.core.query.rect_contains_point` over rows.

    Mirrors the scalar semantics exactly for *normalized* points (which
    ``IndexSchema.normalize`` guarantees lie in ``[0, 1)``): half-open per
    dimension, except a top bound at/above 1.0 admits every in-domain
    point (clamped out-of-domain records sit at ``1 - eps``).  Bounds that
    cannot exclude a normalized point — ``lo <= 0`` and ``hi >= 1`` — are
    skipped entirely; returns ``None`` when every dimension is unbounded
    (all rows match).
    """
    mask: Optional[np.ndarray] = None
    for dim, (lo, hi) in enumerate(rect):
        column = points[:, dim]
        if lo > 0.0:
            test = column >= lo
            mask = test if mask is None else (mask & test)
        if hi < 1.0:
            test = column < hi
            mask = test if mask is None else (mask & test)
    return mask


class TimePartitionedStore:
    """Stores (record, normalized point) pairs, partitioned by time."""

    def __init__(self, schema: IndexSchema, bucket_s: float = 300.0) -> None:
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        self.schema = schema
        self.bucket_s = bucket_s
        self._time_dim = schema.time_dimension()
        self._records: List[Record] = []
        self._points = np.empty((_INITIAL_CAPACITY, schema.dimensions), dtype=np.float64)
        #: Bucket id per row.  Kept as floats (the exact result of the
        #: float floor division): every timestamp orders correctly, where
        #: int64 would overflow from t ~ 1e21 at the default bucket width.
        self._bucket_ids = array("d")
        self._sorted = True
        self._keys: set = set()
        #: Rows handed to :func:`rect_mask` so far — the work a scan did,
        #: for tests to bound without a clock.
        self.rows_masked = 0

    def _bucket_of(self, record: Record) -> float:
        if self._time_dim is None:
            return 0.0
        bucket = record.values[self._time_dim] // self.bucket_s
        if bucket != bucket:
            raise ValueError(f"record timestamp {record.values[self._time_dim]!r} is not finite")
        return bucket

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows in the point matrix."""
        capacity = self._points.shape[0]
        if rows > capacity:
            size = len(self._records)
            grown = np.empty((max(rows, 2 * capacity), self._points.shape[1]), dtype=np.float64)
            grown[:size] = self._points[:size]
            self._points = grown

    # ------------------------------------------------------------------
    def insert(self, record: Record) -> bool:
        """Store a record; returns False if the key was already present.

        Replica re-delivery and query-time dedup both rely on keys being
        unique, so duplicate keys are dropped rather than double counted.
        """
        if record.key in self._keys:
            return False
        self._keys.add(record.key)
        bucket = self._bucket_of(record)
        bucket_ids = self._bucket_ids
        size = len(bucket_ids)
        self._reserve(size + 1)
        self._points[size] = self.schema.normalize(record.values)
        if size and bucket < bucket_ids[-1]:
            self._sorted = False
        bucket_ids.append(bucket)
        self._records.append(record)
        return True

    def insert_batch(self, records: Sequence[Record]) -> int:
        """Bulk insert; returns how many records were new.

        Normalizes the whole batch at once and appends it in arrival
        order; duplicates (against the store and within the batch) are
        dropped exactly as :meth:`insert` would.
        """
        fresh: List[Record] = []
        for record in records:
            if record.key in self._keys:
                continue
            self._keys.add(record.key)
            fresh.append(record)
        if not fresh:
            return 0
        points = self.schema.normalize_batch([r.values for r in fresh])
        size = len(self._records)
        bucket_ids = self._bucket_ids
        bucket_ids.extend([self._bucket_of(r) for r in fresh])
        self._reserve(size + len(fresh))
        self._points[size : size + len(fresh)] = points
        self._records.extend(fresh)
        # From the row before the batch on: does any bucket id step down?
        tail = np.frombuffer(bucket_ids, dtype=np.float64)[max(size - 1, 0) :]
        if (tail[1:] < tail[:-1]).any():
            self._sorted = False
        return len(fresh)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: int) -> bool:
        return key in self._keys

    def newest_bucket_end(self) -> Optional[float]:
        """Raw-time end of the newest bucket held; ``None`` when empty.

        The least ``t`` such that no ``time_range`` starting at or after
        ``t`` selects a row — what a split host reports to its joiner.
        Unbounded (``inf``) for a schema without a time dimension.
        """
        if not self._records:
            return None
        if self._time_dim is None:
            return math.inf
        newest = self._bucket_ids[-1] if self._sorted else max(self._bucket_ids)
        end = (newest + 1) * self.bucket_s
        # The product rounds; step up until ``_slice``'s own floor division
        # puts ``end`` past the newest bucket.
        while end // self.bucket_s <= newest:
            end = math.nextafter(end, math.inf)
        return end

    # ------------------------------------------------------------------
    def _slice(self, time_range: Optional[Tuple[float, float]]) -> Tuple[int, int]:
        """Row span of the buckets overlapping ``time_range`` (folding first).

        Two binary searches on the bucket column, so a wide time range
        over a sparse store costs O(log rows), not O(span / bucket_s).
        """
        size = len(self._records)
        if not self._sorted:
            # Stable, so rows of one bucket keep their arrival order.
            bucket_ids = np.frombuffer(self._bucket_ids, dtype=np.float64)
            order = np.argsort(bucket_ids, kind="stable")
            bucket_ids[:] = bucket_ids[order]
            self._points[:size] = self._points[order]
            self._records = list(map(self._records.__getitem__, order.tolist()))
            self._sorted = True
        if time_range is None or self._time_dim is None:
            return 0, size
        lo, hi = time_range
        first = lo // self.bucket_s
        # The range is half-open, so the last candidate bucket is the one
        # holding the largest representable timestamp below ``hi``.  A
        # fixed epsilon (``hi - 1e-9``) breaks for hi in (0, epsilon): the
        # subtraction crosses zero and prunes bucket 0 even though
        # [lo, hi) intersects it.
        last = max(lo, math.nextafter(hi, -math.inf)) // self.bucket_s
        return bisect_left(self._bucket_ids, first), bisect_right(self._bucket_ids, last)

    def query(
        self,
        rect: NormRect,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> List[Record]:
        """All records whose normalized point lies in ``rect``.

        ``time_range`` (raw units, half-open) prunes the rows scanned to
        the buckets it overlaps; the rectangle check remains authoritative.
        Results come in bucket order, arrival order within a bucket.
        """
        start, stop = self._slice(time_range)
        if start == stop:
            return []
        self.rows_masked += stop - start
        mask = rect_mask(self._points[start:stop], rect)
        if mask is None:
            return self._records[start:stop]
        hits = mask.nonzero()[0]
        hits += start
        return list(map(self._records.__getitem__, hits.tolist()))

    def all_records(self) -> List[Record]:
        start, stop = self._slice(None)
        return self._records[start:stop]

    def points_in_time_range(
        self, time_range: Optional[Tuple[float, float]] = None
    ) -> np.ndarray:
        """Normalized points whose *raw* timestamp lies in ``time_range``.

        Feeds vectorized histogram construction (``MultiDimHistogram.
        add_batch``); with no time dimension or no range, returns every
        stored point.
        """
        start, stop = self._slice(time_range)
        points = self._points[start:stop]
        if time_range is None or self._time_dim is None:
            return points.copy()
        lo, hi = time_range
        # Bucket pruning is coarse; filter on the raw timestamps.
        raw = np.fromiter(
            (r.values[self._time_dim] for r in self._records[start:stop]),
            dtype=np.float64,
            count=stop - start,
        )
        return points[(raw >= lo) & (raw < hi)]

    def drop_before(self, cutoff: float) -> int:
        """Expire whole buckets older than ``cutoff`` (version retirement)."""
        if self._time_dim is None:
            return 0
        _, size = self._slice(None)
        # The run is sorted, so the expired buckets are a prefix of it.
        removed = 0
        for bucket in self._bucket_ids:
            if not (bucket + 1) * self.bucket_s <= cutoff:
                break
            removed += 1
        if removed:
            for record in self._records[:removed]:
                self._keys.discard(record.key)
            del self._records[:removed]
            del self._bucket_ids[:removed]
            self._points = self._points[removed:size].copy()
        return removed
