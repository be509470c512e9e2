"""Property-based tests: the store agrees with brute-force evaluation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import RangeQuery, rect_contains_point
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.storage.memtable import TimePartitionedStore
from tests.storage.test_vectorized_equivalence import interval_strategy

SCHEMA = IndexSchema(
    "prop",
    attributes=[
        AttributeSpec("x", 0.0, 100.0),
        AttributeSpec("timestamp", 0.0, 1000.0, is_time=True),
        AttributeSpec("v", -50.0, 50.0),
    ],
)

value_st = st.tuples(
    st.floats(min_value=0, max_value=99.99),
    st.floats(min_value=0, max_value=999.99),
    st.floats(min_value=-50, max_value=49.99),
)

bound_st = st.one_of(st.none(), st.floats(min_value=-60, max_value=1100))


def make_query(bx, bt, bv):
    def iv(pair):
        lo, hi = pair
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        return (lo, hi)

    return RangeQuery("prop", {"x": iv(bx), "timestamp": iv(bt), "v": iv(bv)})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(value_st, min_size=0, max_size=50),
    st.tuples(bound_st, bound_st),
    st.tuples(bound_st, bound_st),
    st.tuples(bound_st, bound_st),
)
def test_store_query_matches_bruteforce(values, bx, bt, bv):
    store = TimePartitionedStore(SCHEMA, bucket_s=100.0)
    records = [Record(list(v)) for v in values]
    for r in records:
        store.insert(r)
    query = make_query(bx, bt, bv)

    rect = query.normalized_rect(SCHEMA)
    time_dim = SCHEMA.time_dimension()
    lo, hi = query.interval("timestamp")
    t_range = (lo, hi) if lo is not None and hi is not None else None

    got = {r.key for r in store.query(rect, t_range)}
    expected = {r.key for r in records if query.matches(SCHEMA, r)}
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(value_st, min_size=1, max_size=40))
def test_full_space_query_returns_everything(values):
    store = TimePartitionedStore(SCHEMA, bucket_s=50.0)
    records = [Record(list(v)) for v in values]
    for r in records:
        store.insert(r)
    query = RangeQuery("prop", {})
    got = {r.key for r in store.query(query.normalized_rect(SCHEMA))}
    assert got == {r.key for r in records}


@settings(max_examples=30, deadline=None)
@given(st.lists(value_st, min_size=1, max_size=40), st.floats(min_value=0, max_value=1000))
def test_drop_before_then_query(values, cutoff):
    store = TimePartitionedStore(SCHEMA, bucket_s=100.0)
    records = [Record(list(v)) for v in values]
    for r in records:
        store.insert(r)
    store.drop_before(cutoff)
    got = {r.key for r in store.query(RangeQuery("prop", {}).normalized_rect(SCHEMA))}
    # Whole buckets are dropped: records at or after the cutoff survive;
    # records in a partially-covered bucket may survive too (bucket
    # granularity), but nothing at or after the cutoff may vanish.
    must_survive = {r.key for r in records if r.values[1] >= cutoff}
    assert must_survive <= got


# ----------------------------------------------------------------------
# Model-based: random interleavings of every public operation against a
# plain list.  The model keeps records in arrival order and derives what
# the store must return — **bucket ascending, arrival order within a
# bucket** — with exact Python-int bucket ids, so it shares no arithmetic
# with the store's float bucket column.  ``sim_digest`` and the recall
# checks compare key *sets*; this is the only pin on result order.
# ----------------------------------------------------------------------
NO_TIME_SCHEMA = IndexSchema(
    "prop-nt",
    attributes=[AttributeSpec("x", 0.0, 100.0), AttributeSpec("v", -50.0, 50.0)],
)

FULL = (0.0, 1.0)

# Raw timestamps far outside the [0, 1000) domain are legal (normalize
# clamps them); they still have to order and prune correctly.
time_st = st.one_of(
    st.floats(min_value=-500.0, max_value=2000.0, allow_nan=False),
    st.sampled_from(
        [0.0, -0.0, 1e-308, 99.99999999999999, 100.0, 300.0, -1e-9, -1e30, 1e30, 1e8]
    ),
)
model_value_st = st.tuples(
    st.floats(min_value=-10.0, max_value=200.0, allow_nan=False), time_st,
    st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
)
# Few distinct keys, so duplicates arrive within a batch and across calls.
KEYS = range(41)
# Empty (as in most simulated traffic) or not: the store keeps only
# non-empty payloads, so both kinds must come back as they went in.
payload_st = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["node", "source_prefix", "dst_port"]), st.integers(0, 9),
                    min_size=1, max_size=2),
)
model_record_st = st.builds(
    lambda values, payload, key: Record(list(values), payload, key=key),
    model_value_st, payload_st, st.sampled_from(KEYS),
)
time_range_st = st.one_of(
    st.none(),
    st.tuples(time_st, time_st),
    st.tuples(time_st, time_st).map(lambda pair: (min(pair), max(pair))),
    st.sampled_from([(0.0, 1e8), (-1.0, 1e-308), (-1.0, 0.0), (-1e30, 1e30)]),
)
norm_interval_st = st.one_of(st.just(FULL), interval_strategy)
op_st = st.one_of(
    st.tuples(st.just("insert"), model_record_st),
    st.tuples(st.just("insert_batch"), st.lists(model_record_st, max_size=12)),
    st.tuples(st.just("query"), st.tuples(norm_interval_st, norm_interval_st, norm_interval_st),
              time_range_st),
    st.tuples(st.just("all_records")),
    st.tuples(st.just("points_in_time_range"), time_range_st),
    st.tuples(st.just("drop_before"), time_st),
    st.tuples(st.just("newest_bucket_end"), st.floats(min_value=0.0, max_value=1e4),
              st.floats(min_value=0.0, max_value=1e4)),
)


class ListModel:
    """What the store must do, spelled out over a plain list."""

    def __init__(self, schema, bucket_s):
        self.schema = schema
        self.bucket_s = bucket_s
        self.time_dim = schema.time_dimension()
        self.arrived = []  # arrival order, unique keys

    def bucket(self, record):
        if self.time_dim is None:
            return 0
        return int(record.values[self.time_dim] // self.bucket_s)

    def insert(self, record):
        if any(r.key == record.key for r in self.arrived):
            return False
        self.arrived.append(record)
        return True

    def ordered(self):
        return sorted(self.arrived, key=self.bucket)  # stable: arrival within bucket

    def overlapping(self, time_range):
        if time_range is None or self.time_dim is None:
            return self.ordered()
        lo, hi = time_range
        first = int(lo // self.bucket_s)
        last = int(max(lo, math.nextafter(hi, -math.inf)) // self.bucket_s)
        return [r for r in self.ordered() if first <= self.bucket(r) <= last]

    def query(self, rect, time_range):
        return [
            r for r in self.overlapping(time_range)
            if rect_contains_point(rect, self.schema.normalize(r.values))
        ]

    def points_in_time_range(self, time_range):
        rows = self.ordered()
        if time_range is not None and self.time_dim is not None:
            lo, hi = time_range
            rows = [r for r in rows if lo <= r.values[self.time_dim] < hi]
        return [self.schema.normalize(r.values) for r in rows]

    def holds_from(self, lo):
        """Is any row in ``lo``'s bucket or a newer one?"""
        return any(self.bucket(r) >= int(lo // self.bucket_s) for r in self.arrived)

    def drop_before(self, cutoff):
        if self.time_dim is None:
            return 0
        kept = [r for r in self.arrived if not (self.bucket(r) + 1) * self.bucket_s <= cutoff]
        removed = len(self.arrived) - len(kept)
        self.arrived = kept
        return removed


def identities(records):
    # Record equality is by key alone; a duplicate key with other values
    # or another payload must not have replaced the first arrival.
    return [(r.key, r.values, r.payload) for r in records]


def run_ops(schema, bucket_s, ops):
    store = TimePartitionedStore(schema, bucket_s=bucket_s)
    model = ListModel(schema, bucket_s)
    dims = schema.dimensions
    for op in ops:
        if op[0] == "insert":
            record = Record(op[1].values[:dims], op[1].payload, key=op[1].key)
            assert store.insert(record) == model.insert(record)
        elif op[0] == "insert_batch":
            batch = [Record(r.values[:dims], r.payload, key=r.key) for r in op[1]]
            assert store.insert_batch(batch) == sum(model.insert(r) for r in batch)
        elif op[0] == "query":
            rect, time_range = op[1][:dims], op[2]
            expected = model.query(rect, time_range)
            assert identities(store.query(rect, time_range)) == identities(expected)
            # The answer path's rows, built from the columns without a Record.
            assert store.query(rect, time_range, wire=True) == [r.to_wire() for r in expected]
        elif op[0] == "all_records":
            assert identities(store.all_records()) == identities(model.ordered())
        elif op[0] == "points_in_time_range":
            got = store.points_in_time_range(op[1])
            assert got.shape[1] == dims
            assert [tuple(row) for row in got.tolist()] == model.points_in_time_range(op[1])
        elif op[0] == "newest_bucket_end":
            # What a split host reports: no time range starting at or after
            # it selects a row, and it is the least such bound.
            end = store.newest_bucket_end()
            if not model.arrived:
                assert end is None
            elif model.time_dim is None:
                assert end == math.inf
            else:
                assert model.holds_from(math.nextafter(end, -math.inf))
                lo = end + op[1]
                assert not model.holds_from(lo)
                assert store.query((FULL,) * dims, (lo, lo + op[2])) == []
        else:
            assert store.drop_before(op[1]) == model.drop_before(op[1])
        assert len(store) == len(model.arrived)
    assert identities(store.all_records()) == identities(model.ordered())
    stored = {r.key for r in model.arrived}
    assert all((key in store) == (key in stored) for key in KEYS)


@settings(max_examples=150, deadline=None)
@given(bucket_s=st.sampled_from([100.0, 300.0, 7.0, 1e-4]), ops=st.lists(op_st, max_size=30))
def test_store_matches_list_model(bucket_s, ops):
    run_ops(SCHEMA, bucket_s, ops)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(op_st, max_size=20))
def test_store_without_time_dimension_matches_list_model(ops):
    # One bucket: arrival order throughout, ``time_range`` prunes nothing
    # and ``drop_before`` drops nothing.
    run_ops(NO_TIME_SCHEMA, 100.0, ops)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(model_value_st, max_size=40),
    chunks=st.lists(st.integers(1, 6), min_size=40, max_size=40),
    time_range=time_range_st,
)
def test_time_ordered_arrival_never_sorts(values, chunks, time_range):
    # The monitoring case: records arrive in timestamp order, singly and in
    # batches, with reads in between — no read may pay for a sort.
    records = [Record(list(v)) for v in sorted(values, key=lambda v: v[1])]
    ops = []
    while records:
        n = chunks[len(ops) % len(chunks)]
        head, records = records[:n], records[n:]
        ops.append(("insert", head[0]) if n == 1 else ("insert_batch", head))
        ops.append(("query", (FULL, FULL, FULL), time_range))
        ops.append(("points_in_time_range", time_range))
    with mock.patch.object(np, "argsort", side_effect=AssertionError("sorted a sorted run")):
        run_ops(SCHEMA, 100.0, ops)


def test_out_of_order_arrival_sorts_on_the_next_read_only():
    # The counterpart: the patch above does catch a fold, and the fold
    # happens at the read, not at the insert.
    store = TimePartitionedStore(SCHEMA, bucket_s=100.0)
    with mock.patch.object(np, "argsort", side_effect=AssertionError("sorted")):
        store.insert(Record([1.0, 950.0, 0.0]))
        store.insert(Record([1.0, 50.0, 0.0]))
        with pytest.raises(AssertionError, match="sorted"):
            store.all_records()
    assert [r.values[1] for r in store.all_records()] == [50.0, 950.0]


def test_empty_store_reads():
    for schema in (SCHEMA, NO_TIME_SCHEMA):
        store = TimePartitionedStore(schema)
        rect = (FULL,) * schema.dimensions
        assert store.query(rect) == store.query(rect, (0.0, 1e8)) == store.all_records() == []
        assert store.points_in_time_range().shape == (0, schema.dimensions)
        assert store.points_in_time_range((0.0, 1e8)).shape == (0, schema.dimensions)
        assert store.drop_before(1e30) == 0 and len(store) == 0


def test_drop_before_between_an_out_of_order_insert_and_the_next_read():
    # The late arrival is still unfolded when drop_before runs; the expired
    # prefix must be chosen from the folded run, not from arrival order.
    store = TimePartitionedStore(SCHEMA, bucket_s=100.0)
    late, early, mid = (Record([1.0, t, 0.0]) for t in (950.0, 50.0, 450.0))
    for record in (late, early, mid):
        store.insert(record)
    assert store.drop_before(100.0) == 1
    assert early.key not in store and len(store) == 2
    assert identities(store.all_records()) == identities([mid, late])
    # Emptied stores keep working (columns regrow from nothing).
    assert store.drop_before(1e9) == 2
    assert store.all_records() == [] and store.insert(early)
    assert identities(store.query((FULL, FULL, FULL))) == identities([early])
