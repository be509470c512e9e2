"""In-memory, time-partitioned record store: one sorted columnar run.

Records are stored with their *normalized* coordinates so that rectangle
filtering agrees exactly with the embedding's view of the data space
(including the clamping of out-of-domain values to the top of the range).
Partitioning on the raw timestamp attribute prunes the scan for the
periodic monitoring queries the paper issues (5-minute windows over a day
of data).

The whole store is one run of rows held in **(time bucket ascending,
arrival order within a bucket)**, kept as typed columns rather than as one
object per row:

* the normalized points and the raw values, each a row-major
  ``array('d')`` of ``dimensions`` floats per row;
* the bucket ids (``timestamp // bucket_s``), an ``array('d')``;
* the keys, an ``array('q')``;
* the payloads, a dict by key that holds only the non-empty ones.

Duplicate checks read a sorted copy of the key column, searched with
``bisect``, plus a set of the keys stored since that copy was last
re-sorted; the set is merged once it outgrows an eighth of the copy.  A
Python set of every key cost 110-140 bytes a row (its table runs up to
four times the entries, each key a boxed ``int``); the copy costs 8, the
recent-key set about 10.  So a stored row is its column entries (16
bytes per dimension plus 24) and a share of that set: no ``Record``,
values tuple, float objects or empty payload dict.

Records are built on the way out only.
:meth:`~TimePartitionedStore.query` and ``all_records`` gather the hits
with one ``take`` per column, and ``query(..., wire=True)`` builds the
``Record.to_wire()`` dicts straight from the gathered columns, which is
what a node ships in query answers and sibling fetches.

A scan is two binary searches on the bucket column, one vectorized
rectangle mask over the contiguous slice between them and one gather per
column — the batched range-filter primitive that Skip-Webs-style
distributed multi-dimensional indexes are built around — whatever the
slice holds; there is no small-slice twin.  The brute-force scan the
equivalence property tests compare against lives in ``tests/oracles.py``.

Appends never sort.  An arrival whose bucket is at or past the run's last
(time-ordered arrival, the monitoring case) extends the sorted run;
anything else marks the run unsorted and the next read folds it: one
stable ``argsort`` of the bucket column (timsort: a long sorted run plus
a short tail merges adaptively) and one in-place gather per column.
Payloads are keyed by record key, so a fold leaves them where they are.
The cost to know about: one out-of-order arrival into a 100k-row run
makes the next read pay a ~4 ms fold (~25 us at the ~100 rows a cluster
node holds; 2-vCPU x86 box, CPython 3.11, NumPy 2.4).

Columns are ``array`` objects: an append is one C call with about 6%
over-allocation (a NumPy matrix grown by doubling holds up to twice its
rows), and the bucket column is searched with ``bisect``, at half the
cost of ``ndarray.searchsorted`` for two scalars.  Reads and folds work
on NumPy views of the live buffers (``np.frombuffer``).  The point,
value and key views are made once per run of reads and dropped by the
next write, because an ``array`` with an exported buffer refuses to grow.
"""

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import NormRect
from repro.core.records import Record
from repro.core.schema import IndexSchema

#: Keys stored since the last index rebuild that never trigger one.
_NEW_KEYS_MIN = 16


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
    """Stores records as typed columns, partitioned by time."""

    def __init__(self, schema: IndexSchema, bucket_s: float = 300.0) -> None:
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        self.schema = schema
        self.bucket_s = bucket_s
        self._time_dim = schema.time_dimension()
        self._dims = schema.dimensions
        #: Normalized points and raw values, row-major.
        self._points = array("d")
        self._values = array("d")
        #: Bucket id per row.  Kept as floats (the exact result of the
        #: float floor division): every timestamp orders correctly, where
        #: int64 would overflow from t ~ 1e21 at the default bucket width.
        self._bucket_ids = array("d")
        self._keys = array("q")
        #: NumPy views of the point, value and key columns; dropped before
        #: any append or delete (an exported buffer cannot resize).
        self._views: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: Every stored key is in the sorted ``_key_index`` or in
        #: ``_new_keys``, those stored since the index was last rebuilt.
        self._key_index = array("q")
        self._new_keys: set = set()
        #: Non-empty payloads only, by key.
        self._payloads: Dict[int, Dict[str, Any]] = {}
        self._sorted = True
        #: Rows handed to :func:`rect_mask` so far — the work a scan did,
        #: for tests to bound without a clock.
        self.rows_masked = 0

    def _bucket_of(self, values: Sequence[float]) -> float:
        if self._time_dim is None:
            return 0.0
        bucket = values[self._time_dim] // self.bucket_s
        if bucket != bucket:
            raise ValueError(f"record timestamp {values[self._time_dim]!r} is not finite")
        return bucket

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(points, values, keys)`` as NumPy views, ``(rows, dimensions)``
        for the first two; made once per run of reads between writes."""
        views = self._views
        if views is None:
            dims = self._dims
            views = self._views = (
                np.frombuffer(self._points, dtype=np.float64).reshape(-1, dims),
                np.frombuffer(self._values, dtype=np.float64).reshape(-1, dims),
                np.frombuffer(self._keys, dtype=np.int64),
            )
        return views

    # ------------------------------------------------------------------
    def insert(self, record: Record) -> bool:
        """Store a record; returns False if the key was already present.

        Replica re-delivery and query-time dedup both rely on keys being
        unique, so duplicate keys are dropped rather than double counted.
        A record that fails validation (wrong arity, non-finite
        timestamp, a key outside int64) leaves the store unchanged.
        """
        key = record.key
        if key in self:
            return False
        values = record.values
        bucket = self._bucket_of(values)
        point = self.schema.normalize(values)
        self._views = None
        self._keys.append(key)
        self._values.extend(values)
        self._points.extend(point)
        bucket_ids = self._bucket_ids
        if bucket_ids and bucket < bucket_ids[-1]:
            self._sorted = False
        bucket_ids.append(bucket)
        if record.payload:
            self._payloads[key] = record.payload
        new_keys = self._new_keys
        new_keys.add(key)
        if len(new_keys) > _NEW_KEYS_MIN + (len(self._key_index) >> 3):
            self._index_keys()
        return True

    def insert_batch(self, records: Sequence[Record]) -> int:
        """Bulk insert; returns how many records were new.

        Normalizes the whole batch at once and appends it in arrival
        order; duplicates (against the store and within the batch) are
        dropped exactly as :meth:`insert` would.
        """
        fresh: Dict[int, Record] = {}
        for record in records:
            if record.key not in fresh and record.key not in self:
                fresh[record.key] = record
        if not fresh:
            return 0
        batch = list(fresh.values())
        values = np.asarray([r.values for r in batch], dtype=np.float64)
        points = self.schema.normalize_batch(values)
        buckets = [self._bucket_of(r.values) for r in batch]
        keys = array("q", fresh)
        size = len(self._bucket_ids)
        self._views = None
        self._keys.extend(keys)
        self._values.frombytes(values.tobytes())
        self._points.frombytes(points.tobytes())
        self._bucket_ids.extend(buckets)
        for record in batch:
            if record.payload:
                self._payloads[record.key] = record.payload
        # From the row before the batch on: does any bucket id step down?
        tail = np.frombuffer(self._bucket_ids, dtype=np.float64)[max(size - 1, 0) :]
        if (tail[1:] < tail[:-1]).any():
            self._sorted = False
        self._new_keys.update(fresh)
        if len(self._new_keys) > _NEW_KEYS_MIN + (len(self._key_index) >> 3):
            self._index_keys()
        return len(batch)

    def __len__(self) -> int:
        return len(self._bucket_ids)

    def __contains__(self, key: int) -> bool:
        if key in self._new_keys:
            return True
        index = self._key_index
        at = bisect_left(index, key)
        return at < len(index) and index[at] == key

    def _index_keys(self) -> None:
        """Rebuild the sorted key index from the key column."""
        index = array("q")
        index.frombytes(np.sort(self._columns()[2]).tobytes())
        self._key_index = index
        self._new_keys = set()

    def newest_bucket_end(self) -> Optional[float]:
        """Raw-time end of the newest bucket held; ``None`` when empty.

        The least ``t`` such that no ``time_range`` starting at or after
        ``t`` selects a row — what a split host reports to its joiner.
        Unbounded (``inf``) for a schema without a time dimension.
        """
        if not self._bucket_ids:
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
    def _fold(self) -> None:
        """Sort the run by bucket id, stably: one gather per column, in place."""
        bucket_ids = np.frombuffer(self._bucket_ids, dtype=np.float64)
        order = np.argsort(bucket_ids, kind="stable")
        bucket_ids[:] = bucket_ids[order]
        for column in self._columns():
            column[:] = column[order]
        self._sorted = True

    def _slice(self, time_range: Optional[Tuple[float, float]]) -> Tuple[int, int]:
        """Row span of the buckets overlapping ``time_range`` (folding first).

        Two binary searches on the bucket column, so a wide time range
        over a sparse store costs O(log rows), not O(span / bucket_s).
        """
        if not self._sorted:
            self._fold()
        if time_range is None or self._time_dim is None:
            return 0, len(self._bucket_ids)
        lo, hi = time_range
        first = lo // self.bucket_s
        # The range is half-open, so the last candidate bucket is the one
        # holding the largest representable timestamp below ``hi``.  A
        # fixed epsilon (``hi - 1e-9``) breaks for hi in (0, epsilon): the
        # subtraction crosses zero and prunes bucket 0 even though
        # [lo, hi) intersects it.
        last = max(lo, math.nextafter(hi, -math.inf)) // self.bucket_s
        return bisect_left(self._bucket_ids, first), bisect_right(self._bucket_ids, last)

    def _rows(self, rows: np.ndarray, wire: bool) -> List[Any]:
        """The records at row indices ``rows``, as :class:`Record` objects
        or in wire form: one ``take`` per column, no per-row lookups."""
        _, values, keys = self._columns()
        values = values.take(rows, axis=0).tolist()
        keys = keys.take(rows).tolist()
        payloads = self._payloads
        if wire:
            return [{"values": v, "payload": payloads.get(k, {}), "key": k} for v, k in zip(values, keys)]
        return [Record(v, payloads.get(k), k) for v, k in zip(values, keys)]

    def query(
        self,
        rect: NormRect,
        time_range: Optional[Tuple[float, float]] = None,
        *,
        wire: bool = False,
    ) -> List[Any]:
        """All records whose normalized point lies in ``rect``.

        ``time_range`` (raw units, half-open) prunes the rows scanned to
        the buckets it overlaps; the rectangle check remains authoritative.
        Results come in bucket order, arrival order within a bucket, as
        fresh :class:`Record` objects — or, with ``wire=True``, as the
        ``Record.to_wire()`` dicts a node ships, built without a Record.
        """
        start, stop = self._slice(time_range)
        if start == stop:
            return []
        self.rows_masked += stop - start
        mask = rect_mask(self._columns()[0][start:stop], rect)
        if mask is None:
            return self._rows(np.arange(start, stop), wire)
        hits = mask.nonzero()[0]
        hits += start
        return self._rows(hits, wire)

    def all_records(self) -> List[Record]:
        return self._rows(np.arange(*self._slice(None)), wire=False)

    def points_in_time_range(
        self, time_range: Optional[Tuple[float, float]] = None
    ) -> np.ndarray:
        """Normalized points whose *raw* timestamp lies in ``time_range``.

        Feeds vectorized histogram construction (``MultiDimHistogram.
        add_batch``); with no time dimension or no range, returns every
        stored point.
        """
        start, stop = self._slice(time_range)
        points, values, _ = self._columns()
        points = points[start:stop]
        if time_range is None or self._time_dim is None:
            return points.copy()
        lo, hi = time_range
        # Bucket pruning is coarse; filter on the raw timestamps.
        raw = values[start:stop, self._time_dim]
        return points[(raw >= lo) & (raw < hi)]

    def drop_before(self, cutoff: float) -> int:
        """Expire whole buckets older than ``cutoff`` (version retirement)."""
        if self._time_dim is None:
            return 0
        self._slice(None)
        # The run is sorted, so the expired buckets are a prefix of it.
        removed = 0
        for bucket in self._bucket_ids:
            if not (bucket + 1) * self.bucket_s <= cutoff:
                break
            removed += 1
        if removed:
            if self._payloads:
                for key in self._keys[:removed]:
                    self._payloads.pop(key, None)
            self._views = None
            del self._keys[:removed]
            del self._bucket_ids[:removed]
            del self._points[: removed * self._dims]
            del self._values[: removed * self._dims]
            self._index_keys()
        return removed
