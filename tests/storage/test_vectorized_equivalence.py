"""Property tests: the vectorized hot paths equal the scalar ground truth.

Every batch/columnar path — store inserts and rectangle scans, histogram
binning, balanced-cut derivation, batch point codes — must return
*exactly* what the scalar oracles in ``tests/oracles.py`` return for the
same inputs, including the clamping of out-of-domain values to the top of
the normalized range documented in ``memtable.py``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import derive_cut_tree, histogram_from_records
from repro.core.cuts import BalancedCuts
from repro.core.embedding import Embedding
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.overlay.code import Code
from repro.storage.memtable import TimePartitionedStore
from tests.oracles import (
    ScalarCutHistogram,
    count_in_rect_scalar,
    histogram_from_records_scalar,
    insert_each,
    scan_scalar,
    split_point_scalar,
)

SCHEMA = IndexSchema(
    "equiv",
    attributes=[
        AttributeSpec("x", 0.0, 100.0),
        AttributeSpec("timestamp", 0.0, 1000.0, is_time=True),
        AttributeSpec("v", -50.0, 50.0),
    ],
)

# Values deliberately overflow every domain (x up to 1e6, v down to -1e3)
# so the clamped top/bottom-of-range edge cases are always in play.
values_strategy = st.tuples(
    st.floats(min_value=-10.0, max_value=1.0e6, allow_nan=False, width=32),
    st.floats(min_value=-5.0, max_value=2000.0, allow_nan=False, width=32),
    st.floats(min_value=-1000.0, max_value=60.0, allow_nan=False, width=32),
)

records_strategy = st.lists(values_strategy, min_size=0, max_size=60).map(
    lambda rows: [Record(row) for row in rows]
)

interval_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
).map(lambda pair: (min(pair), max(pair)))

rect_strategy = st.tuples(interval_strategy, interval_strategy, interval_strategy)


def make_store(records):
    store = TimePartitionedStore(SCHEMA, bucket_s=100.0)
    insert_each(store, records)
    return store


def keys(records):
    return [r.key for r in records]


@settings(max_examples=60, deadline=None)
@given(records=records_strategy, rect=rect_strategy)
def test_store_query_identical(records, rect):
    store = make_store(records)
    assert keys(store.query(rect)) == keys(scan_scalar(store, rect))


@settings(max_examples=40, deadline=None)
@given(
    records=records_strategy,
    rect=rect_strategy,
    t_range=st.tuples(
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
    ).map(lambda pair: (min(pair), max(pair))),
)
def test_store_query_with_time_range_identical(records, rect, t_range):
    store = make_store(records)
    assert keys(store.query(rect, time_range=t_range)) == keys(
        scan_scalar(store, rect, time_range=t_range)
    )


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(values_strategy, min_size=0, max_size=200),
    rect=rect_strategy,
    t_range=st.tuples(
        st.integers(min_value=-2, max_value=22), st.integers(min_value=0, max_value=4)
    ).map(lambda pair: (pair[0] * 100.0, (pair[0] + pair[1]) * 100.0)),
    nudge=st.sampled_from([-1e-9, 0.0, 1e-9]),
)
def test_store_query_identical_across_bucket_boundaries(rows, rect, t_range, nudge):
    # 0..200 rows over ~20 buckets, so slices run from empty to the whole
    # store, and time ranges whose ends sit on, just under and just over a
    # bucket boundary (a range ending exactly on one excludes that bucket).
    store = TimePartitionedStore(SCHEMA, bucket_s=100.0)
    store.insert_batch([Record(row) for row in rows])
    t_range = (t_range[0] + nudge, t_range[1] + nudge)
    assert keys(store.query(rect, time_range=t_range)) == keys(
        scan_scalar(store, rect, time_range=t_range)
    )
    assert keys(store.query(rect)) == keys(scan_scalar(store, rect))


@settings(max_examples=40, deadline=None)
@given(records=records_strategy)
def test_insert_batch_matches_scalar_inserts(records):
    one_by_one = TimePartitionedStore(SCHEMA)
    batched = TimePartitionedStore(SCHEMA)
    inserted = insert_each(one_by_one, records)
    assert batched.insert_batch(records) == inserted
    # Re-inserting the same batch is a no-op in both.
    assert batched.insert_batch(records) == 0
    assert len(batched) == len(one_by_one)
    full = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    assert keys(batched.query(full)) == keys(scan_scalar(one_by_one, full))


def test_clamping_edge_case_identical():
    # The documented out-of-domain behavior: values at/beyond hi land in
    # the top of the range and must match a rect whose top edge is 1.0 in
    # both implementations.
    edge = [Record([1e9, 500.0, 0.0]), Record([-1e9, 500.0, 49.999])]
    filler = [Record([50.0, 500.0, 0.0]) for _ in range(48)]
    store = make_store(edge + filler)
    top_rect = ((0.999999, 1.0), (0.0, 1.0), (0.0, 1.0))
    bottom_rect = ((0.0, 1e-9), (0.0, 1.0), (0.0, 1.0))
    assert keys(store.query(top_rect)) == keys(scan_scalar(store, top_rect)) == [edge[0].key]
    assert keys(store.query(bottom_rect)) == keys(scan_scalar(store, bottom_rect)) == [
        edge[1].key
    ]


@settings(max_examples=40, deadline=None)
@given(records=records_strategy)
def test_histogram_bin_counts_identical(records):
    grains = (8, 16, 4)
    scalar = histogram_from_records_scalar(SCHEMA, records, grains)
    vector = histogram_from_records(SCHEMA, records, grains)
    assert scalar.cell_counts() == vector.cell_counts()
    assert scalar.total == vector.total


@settings(max_examples=30, deadline=None)
@given(records=records_strategy, rect=rect_strategy, dim=st.integers(0, 2))
def test_split_point_identical(records, rect, dim):
    grains = (8, 16, 4)
    hist = histogram_from_records(SCHEMA, records, grains)
    # Degenerate rectangles make the cut fall back to the midpoint; keep
    # them out so the weighted-median path itself is what's compared.
    rect = tuple((lo, hi if hi > lo else lo + 0.25) for lo, hi in rect)
    assert hist.split_point(rect, dim) == split_point_scalar(hist, rect, dim)


@settings(max_examples=30, deadline=None)
@given(records=records_strategy, rect=rect_strategy)
def test_count_in_rect_agrees(records, rect):
    grains = (8, 16, 4)
    hist = histogram_from_records(SCHEMA, records, grains)
    vec = hist.count_in_rect(rect)
    sca = count_in_rect_scalar(hist, rect)
    # Summation order differs (pairwise vs sequential), so allow ulps.
    assert math.isclose(vec, sca, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=20, deadline=None)
@given(records=records_strategy, depth=st.integers(0, 6))
def test_derived_cut_trees_identical(records, depth):
    grains = (8, 16, 4)
    hist = histogram_from_records(SCHEMA, records, grains)
    assert derive_cut_tree(hist, depth) == derive_cut_tree(ScalarCutHistogram(hist), depth)


@settings(max_examples=20, deadline=None)
@given(records=st.lists(values_strategy, min_size=1, max_size=40), depth=st.integers(1, 12))
def test_point_codes_batch_matches_scalar(records, depth):
    hist = histogram_from_records(SCHEMA, [Record(v) for v in records], (8, 16, 4))
    embedding = Embedding(SCHEMA, BalancedCuts(hist), code_depth=depth)
    batch = embedding.point_codes_batch(list(records), depth=depth)
    scalar = [embedding.point_code(v, depth) for v in records]
    assert [c.bits for c in batch] == [c.bits for c in scalar]


@settings(max_examples=20, deadline=None)
@given(records=records_strategy, depth=st.integers(0, 5))
def test_preloaded_splits_reproduce_embedding_cuts(records, depth):
    hist = histogram_from_records(SCHEMA, records, (8, 16, 4))
    cuts = derive_cut_tree(hist, depth)
    fresh = Embedding(SCHEMA, BalancedCuts(hist), code_depth=max(depth, 1))
    lazy = Embedding(SCHEMA, BalancedCuts(hist), code_depth=max(depth, 1))
    fresh.preload_splits(cuts)
    assert fresh.cut_table() == cuts
    for prefix in cuts:
        assert fresh.region_rect(Code(prefix)) == lazy.region_rect(Code(prefix))
    # Every cut the lazy walks drew on the way is the derived one.
    assert lazy.cut_table().items() <= cuts.items()
