"""In-memory, time-partitioned record store with a columnar hot path.

Records are stored with their *normalized* coordinates so that rectangle
filtering agrees exactly with the embedding's view of the data space
(including the clamping of out-of-domain values to the top of the range).
Partitioning on the raw timestamp attribute prunes the scan for the
periodic monitoring queries the paper issues (5-minute windows over a day
of data).

Each time bucket keeps its normalized points in a growing ``float64``
matrix (amortized-doubling append), so rectangle containment over a bucket
is a handful of vectorized comparisons instead of a per-record Python
loop — the batched range-filter primitive that Skip-Webs-style distributed
multi-dimensional indexes are built around.  Buckets too small to repay
NumPy's fixed cost (``_VECTOR_MIN_ROWS``) are scanned record by record;
the brute-force scan the equivalence property tests compare against lives
in ``tests/oracles.py``.
"""

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import NormRect, rect_contains_point
from repro.core.records import Record
from repro.core.schema import IndexSchema

_INITIAL_CAPACITY = 16
#: Below this many rows a per-record scan beats the fixed cost of building
#: NumPy masks, so the store drops to the scalar loop per bucket (results
#: are identical either way).
_VECTOR_MIN_ROWS = 48


class _ColumnBucket:
    """One time bucket: a record list plus a columnar point matrix."""

    __slots__ = ("records", "_points", "size")

    def __init__(self, dimensions: int) -> None:
        self.records: List[Record] = []
        self._points = np.empty((_INITIAL_CAPACITY, dimensions), dtype=np.float64)
        self.size = 0

    def append(self, record: Record, point: Sequence[float]) -> None:
        if self.size == self._points.shape[0]:
            grown = np.empty(
                (self._points.shape[0] * 2, self._points.shape[1]), dtype=np.float64
            )
            grown[: self.size] = self._points[: self.size]
            self._points = grown
        self._points[self.size] = point
        self.records.append(record)
        self.size += 1

    def extend(self, records: Sequence[Record], points: np.ndarray) -> None:
        n = len(records)
        if n == 0:
            return
        needed = self.size + n
        if needed > self._points.shape[0]:
            capacity = self._points.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, self._points.shape[1]), dtype=np.float64)
            grown[: self.size] = self._points[: self.size]
            self._points = grown
        self._points[self.size : needed] = points
        self.records.extend(records)
        self.size = needed

    @property
    def points(self) -> np.ndarray:
        return self._points[: self.size]


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
        self._buckets: Dict[int, _ColumnBucket] = {}
        self._count = 0
        self._keys: set = set()

    def _bucket_of(self, record: Record) -> int:
        if self._time_dim is None:
            return 0
        return int(record.values[self._time_dim] // self.bucket_s)

    def _bucket(self, bucket_id: int) -> _ColumnBucket:
        bucket = self._buckets.get(bucket_id)
        if bucket is None:
            bucket = _ColumnBucket(self.schema.dimensions)
            self._buckets[bucket_id] = bucket
        return bucket

    # ------------------------------------------------------------------
    def insert(self, record: Record) -> bool:
        """Store a record; returns False if the key was already present.

        Replica re-delivery and query-time dedup both rely on keys being
        unique, so duplicate keys are dropped rather than double counted.
        """
        if record.key in self._keys:
            return False
        self._keys.add(record.key)
        point = self.schema.normalize(record.values)
        self._bucket(self._bucket_of(record)).append(record, point)
        self._count += 1
        return True

    def insert_batch(self, records: Sequence[Record]) -> int:
        """Bulk insert; returns how many records were new.

        Normalizes the whole batch at once and appends per-bucket slices;
        duplicates (against the store and within the batch) are dropped
        exactly as :meth:`insert` would.
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
        if self._time_dim is None:
            self._bucket(0).extend(fresh, points)
        else:
            bucket_ids = [self._bucket_of(r) for r in fresh]
            by_bucket: Dict[int, List[int]] = {}
            for row, bucket_id in enumerate(bucket_ids):
                by_bucket.setdefault(bucket_id, []).append(row)
            for bucket_id, rows in by_bucket.items():
                self._bucket(bucket_id).extend(
                    [fresh[i] for i in rows], points[rows]
                )
        self._count += len(fresh)
        return len(fresh)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: int) -> bool:
        return key in self._keys

    # ------------------------------------------------------------------
    def query(
        self,
        rect: NormRect,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> List[Record]:
        """All records whose normalized point lies in ``rect``.

        ``time_range`` (raw units, half-open) prunes the buckets scanned;
        the rectangle check remains authoritative.
        """
        out: List[Record] = []
        for bucket_id in self._candidate_buckets(time_range):
            bucket = self._buckets[bucket_id]
            records = bucket.records
            if bucket.size >= _VECTOR_MIN_ROWS:
                mask = rect_mask(bucket.points, rect)
                if mask is None:
                    out.extend(records)
                else:
                    hits = np.flatnonzero(mask)
                    if hits.size == len(records):
                        out.extend(records)
                    else:
                        out.extend(map(records.__getitem__, hits.tolist()))
            else:
                for record, point in zip(records, bucket.points.tolist()):
                    if rect_contains_point(rect, point):
                        out.append(record)
        return out

    def _candidate_buckets(self, time_range: Optional[Tuple[float, float]]) -> Sequence[int]:
        """Bucket ids overlapping ``time_range``, in ascending time order.

        Intersects the requested span with the bucket ids that actually
        exist, so a wide time range over a sparse store costs
        O(buckets log buckets) rather than O(span / bucket_s).
        """
        if time_range is None or self._time_dim is None:
            return sorted(self._buckets)
        lo, hi = time_range
        first = int(lo // self.bucket_s)
        # The range is half-open, so the last candidate bucket is the one
        # holding the largest representable timestamp below ``hi``.  A
        # fixed epsilon (``hi - 1e-9``) breaks for hi in (0, epsilon): the
        # subtraction crosses zero and prunes bucket 0 even though
        # [lo, hi) intersects it.
        last = int(max(lo, math.nextafter(hi, -math.inf)) // self.bucket_s)
        span = last - first + 1
        if span >= len(self._buckets):
            return sorted(b for b in self._buckets if first <= b <= last)
        return [b for b in range(first, last + 1) if b in self._buckets]

    def all_records(self) -> List[Record]:
        return [record for b in sorted(self._buckets) for record in self._buckets[b].records]

    def points_in_time_range(
        self, time_range: Optional[Tuple[float, float]] = None
    ) -> np.ndarray:
        """Normalized points whose *raw* timestamp lies in ``time_range``.

        Feeds vectorized histogram construction (``MultiDimHistogram.
        add_batch``); with no time dimension or no range, returns every
        stored point.
        """
        chunks: List[np.ndarray] = []
        for bucket_id in self._candidate_buckets(time_range):
            bucket = self._buckets[bucket_id]
            points = bucket.points
            if time_range is not None and self._time_dim is not None:
                lo, hi = time_range
                # Bucket pruning is coarse; filter on the raw timestamps.
                raw = np.fromiter(
                    (r.values[self._time_dim] for r in bucket.records),
                    dtype=np.float64,
                    count=bucket.size,
                )
                points = points[(raw >= lo) & (raw < hi)]
            if points.size:
                chunks.append(points)
        if not chunks:
            return np.empty((0, self.schema.dimensions), dtype=np.float64)
        return np.concatenate(chunks, axis=0)

    def drop_before(self, cutoff: float) -> int:
        """Expire whole buckets older than ``cutoff`` (version retirement)."""
        if self._time_dim is None:
            return 0
        removed = 0
        for bucket_id in list(self._buckets):
            if (bucket_id + 1) * self.bucket_s <= cutoff:
                bucket = self._buckets.pop(bucket_id)
                removed += bucket.size
                for record in bucket.records:
                    self._keys.discard(record.key)
        self._count -= removed
        return removed
