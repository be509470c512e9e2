"""What a stored row costs: typed columns, not one object per row.

Measured under ``tracemalloc`` with rows whose values and keys nothing but
the store holds, so every float, key and container the store keeps counts.
A store that kept a ``Record`` per row (its values tuple, three boxed
floats, an empty payload dict and the record itself) and a set of every
key retained 420-450 bytes a row here; the columns and the sorted key
index retain 85-110 (3.11, NumPy 2.4).
"""

import gc
import random
import tracemalloc

from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.storage.memtable import TimePartitionedStore

SCHEMA = IndexSchema(
    "mem",
    attributes=[
        AttributeSpec("dst", 0.0, 2.0**32),
        AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        AttributeSpec("fanout", 0.0, 5024.0),
    ],
)

#: Retained bytes per stored row, ceiling.
MAX_BYTES_PER_ROW = 150


def retained_bytes_per_row(stores: int, rows: int) -> float:
    rng = random.Random(11)
    key = 10**9  # past the small-int cache: each key is a fresh object
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = []
        for _ in range(stores):
            store = TimePartitionedStore(SCHEMA)
            for i in range(rows):
                key += 1
                values = [rng.uniform(0, 2.0**32), i * 86400.0 / rows, rng.uniform(0, 5024.0)]
                store.insert(Record(values, key=key))
            held.append(store)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(len(store) for store in held) == stores * rows
    return retained / (stores * rows)


def test_one_large_store_retains_columns_only():
    assert retained_bytes_per_row(1, 20_000) <= MAX_BYTES_PER_ROW


def test_many_small_stores_retain_columns_only():
    # A cluster node holds ~100 rows: per-store overhead counts here.
    assert retained_bytes_per_row(200, 100) <= MAX_BYTES_PER_ROW
