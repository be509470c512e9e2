"""Unit tests for the time-partitioned store."""

import random

import pytest

from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.storage.memtable import TimePartitionedStore


@pytest.fixture
def schema():
    return IndexSchema(
        "s",
        attributes=[
            AttributeSpec("x", 0.0, 100.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        ],
    )


def test_insert_and_len(schema):
    store = TimePartitionedStore(schema)
    assert store.insert(Record([1.0, 10.0]))
    assert len(store) == 1


def test_duplicate_key_dropped(schema):
    store = TimePartitionedStore(schema)
    r = Record([1.0, 10.0])
    assert store.insert(r)
    assert not store.insert(r)
    assert len(store) == 1


def test_query_rect(schema):
    store = TimePartitionedStore(schema)
    a = Record([10.0, 100.0])
    b = Record([90.0, 100.0])
    store.insert(a)
    store.insert(b)
    hits = store.query(((0.0, 0.5), (0.0, 1.0)))
    assert [r.key for r in hits] == [a.key]


def test_query_time_pruning(schema):
    store = TimePartitionedStore(schema, bucket_s=100.0)
    early = Record([10.0, 50.0])
    late = Record([10.0, 5000.0])
    store.insert(early)
    store.insert(late)
    full = ((0.0, 1.0), (0.0, 1.0))
    hits = store.query(full, time_range=(0.0, 100.0))
    assert [r.key for r in hits] == [early.key]
    hits = store.query(full, time_range=(4900.0, 5100.0))
    assert [r.key for r in hits] == [late.key]
    assert len(store.query(full)) == 2


def test_tiny_positive_time_upper_bound_keeps_bucket_zero(schema):
    # Regression (found by the store property test): bucket pruning used a
    # fixed epsilon (hi - 1e-9) to handle the half-open upper bound, so a
    # time range like (-1.0, 1e-308) — hi positive but below the epsilon —
    # pruned bucket 0 and dropped a record at t=0 the rectangle admits.
    store = TimePartitionedStore(schema, bucket_s=100.0)
    at_zero = Record([10.0, 0.0])
    store.insert(at_zero)
    full = ((0.0, 1.0), (0.0, 1.0))
    hits = store.query(full, time_range=(-1.0, 1e-308))
    assert [r.key for r in hits] == [at_zero.key]
    # The half-open bound itself still excludes: [lo, 0.0) holds nothing.
    assert store.query(full, time_range=(-1.0, 0.0)) == []


def test_clamped_records_match_top_rect(schema):
    store = TimePartitionedStore(schema)
    big = Record([1e9, 10.0])  # x beyond domain clamps to top
    store.insert(big)
    hits = store.query(((0.99, 1.0), (0.0, 1.0)))
    assert [r.key for r in hits] == [big.key]


def test_drop_before(schema):
    store = TimePartitionedStore(schema, bucket_s=100.0)
    old = Record([10.0, 50.0])
    new = Record([10.0, 250.0])
    store.insert(old)
    store.insert(new)
    removed = store.drop_before(200.0)
    assert removed == 1
    assert len(store) == 1
    assert old.key not in store
    assert new.key in store


def test_no_time_dimension_single_bucket():
    schema = IndexSchema("nt", attributes=[AttributeSpec("x", 0.0, 10.0)])
    store = TimePartitionedStore(schema)
    store.insert(Record([5.0]))
    assert len(store.query(((0.0, 1.0),))) == 1
    assert store.drop_before(1e9) == 0


def test_many_records_query_consistency(schema):
    store = TimePartitionedStore(schema, bucket_s=300.0)
    rng = random.Random(0)
    records = [Record([rng.uniform(0, 100), rng.uniform(0, 86400)]) for _ in range(500)]
    for r in records:
        store.insert(r)
    rect = ((0.2, 0.7), (0.1, 0.4))
    expected = {
        r.key
        for r in records
        if 20 <= r.values[0] < 70 and 8640 <= r.values[1] < 34560
    }
    got = {r.key for r in store.query(rect)}
    assert got == expected


def test_wide_time_range_intersects_existing_buckets(schema):
    # A huge requested span must cost O(buckets), not O(span / bucket_s):
    # with the old range() materialization this query would build a
    # ~10^12-element candidate list and effectively hang.
    store = TimePartitionedStore(schema, bucket_s=1e-4)
    records = [Record([10.0, t]) for t in (1.0, 2.0, 3.0)]
    for r in records:
        store.insert(r)
    hits = store.query(((0.0, 1.0), (0.0, 1.0)), time_range=(0.0, 1e8))
    assert {r.key for r in hits} == {r.key for r in records}


def test_candidate_buckets_sorted_and_pruned(schema):
    # Arrival order is not time order: results come back bucket-ascending,
    # and a time range returns exactly the buckets it overlaps.
    store = TimePartitionedStore(schema, bucket_s=100.0)
    by_bucket = {}
    for t in (950.0, 50.0, 450.0):
        record = Record([1.0, t])
        store.insert(record)
        by_bucket[int(t // 100.0)] = record.key
    full = ((0.0, 1.0), (0.0, 1.0))

    def buckets(time_range):
        return [int(r.values[1] // 100.0) for r in store.query(full, time_range)]

    assert buckets(None) == [0, 4, 9]
    assert buckets((0.0, 500.0)) == [0, 4]
    assert buckets((400.0, 10_000.0)) == [4, 9]
    assert [r.key for r in store.all_records()] == [by_bucket[b] for b in (0, 4, 9)]


# ----------------------------------------------------------------------
# Work bounds, without a clock: ``rows_masked`` counts the rows a scan
# handed to the rectangle mask.
# ----------------------------------------------------------------------
def test_five_minute_query_masks_only_the_buckets_it_overlaps(schema):
    rng = random.Random(3)
    records = [Record([rng.uniform(0, 100), rng.uniform(0, 86400)]) for _ in range(100_000)]
    store = TimePartitionedStore(schema, bucket_s=300.0)
    store.insert_batch(records)
    t0 = 40_000.0  # not bucket-aligned: the window straddles two buckets
    rect = ((0.0, 1.0), (t0 / 86400.0, (t0 + 300.0) / 86400.0))
    hits = store.query(rect, time_range=(t0, t0 + 300.0))
    overlapped = {t0 // 300.0, (t0 + 299.0) // 300.0}
    assert len(overlapped) == 2
    in_buckets = sum(1 for r in records if r.values[1] // 300.0 in overlapped)
    assert 0 < len(hits) < store.rows_masked == in_buckets < 1000


def test_day_wide_query_is_one_mask_over_the_whole_store(schema):
    rng = random.Random(4)
    store = TimePartitionedStore(schema, bucket_s=300.0)
    for _ in range(100):
        store.insert(Record([rng.uniform(0, 100), rng.uniform(0, 86400)]))
    store.query(((0.2, 0.7), (0.0, 1.0)), time_range=(0.0, 86400.0))
    assert store.rows_masked == 100


def test_empty_slice_masks_nothing(schema):
    store = TimePartitionedStore(schema, bucket_s=300.0)
    full = ((0.0, 1.0), (0.0, 1.0))
    assert store.query(full) == []
    store.insert(Record([1.0, 50.0]))
    store.insert(Record([1.0, 5000.0]))
    assert store.query(full, time_range=(1000.0, 2000.0)) == []
    assert store.rows_masked == 0


def test_non_finite_timestamp_rejected(schema):
    # A NaN bucket id would silently break the run's sort order.
    store = TimePartitionedStore(schema)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            store.insert(Record([1.0, bad]))
        with pytest.raises(ValueError):
            store.insert_batch([Record([1.0, bad])])
    assert len(store) == 0 and store.all_records() == []
