"""The hierarchical cut tree draws the cuts a full scan would.

A balanced cut weighs only the histogram rows an ancestor found live
(``MultiDimHistogram.split_rows``), and ``Embedding`` keeps one memo of
the cuts however the tree is first touched.  Every cut must still be the
float the two-argument full-scan ``split_point`` — and the scalar oracle
in ``tests/oracles.py`` — returns for the same rectangle.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import checks
from repro.core import embedding as embedding_module
from repro.core.balance import derive_cut_tree, histogram_from_records
from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.cuts import BalancedCuts, EvenCuts, strategy_from_wire
from repro.core.embedding import Embedding
from repro.core.histogram import MultiDimHistogram
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net.topology import ABILENE_SITES
from repro.overlay.code import Code
from tests.oracles import ScalarCutHistogram, cell_weights_scalar, split_point_scalar
from tests.storage.test_vectorized_equivalence import (
    SCHEMA,
    rect_strategy,
    records_strategy,
    values_strategy,
)

GRAINS = (8, 16, 4)


def inside(rect, dim, split):
    """The cut ``BalancedCuts.cut`` makes of a raw ``split_point``."""
    lo, hi = rect[dim]
    return split if lo < split < hi else (lo + hi) / 2.0


def narrow(rect, dim, split, upper):
    lo, hi = rect[dim]
    return rect[:dim] + ((split, hi) if upper else (lo, split),) + rect[dim + 1 :]


def full_scan_table(embedding):
    """What a full scan of the embedding's histogram says each drawn cut is."""
    hist, dims = embedding.strategy.histogram, embedding.schema.dimensions
    table = {}
    for prefix in embedding.cut_table():
        rect, dim = embedding.region_rect(Code(prefix)), len(prefix) % dims
        table[prefix] = inside(rect, dim, hist.split_point(rect, dim))
    return table


# ----------------------------------------------------------------------
# split_rows == split_point == split_point_scalar
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    records=records_strategy,
    rect=rect_strategy,
    path=st.lists(st.booleans(), min_size=1, max_size=16),
    shift=st.sampled_from((None, 0.0, 0.1, -0.3)),
)
def test_carried_split_equals_full_scan_and_scalar(records, rect, path, shift):
    hist = histogram_from_records(SCHEMA, records, GRAINS)
    if shift is not None:
        hist = hist.shifted(1, shift)
    # Degenerate rectangles cut at the midpoint; keep the median in play.
    rect = tuple((lo, hi if hi > lo else lo + 0.25) for lo, hi in rect)
    rows = None
    for level, upper in enumerate(path):
        dim = level % 3
        carried, rows = hist.split_rows(rect, dim, rows)
        assert carried == hist.split_point(rect, dim) == split_point_scalar(hist, rect, dim)
        # The rows handed on are exactly the cells with mass in the rectangle.
        coords, _ = hist._arrays()
        assert [tuple(c) for c in coords[rows.index].tolist()] == [
            cell for cell, weight in cell_weights_scalar(hist, rect) if weight > 0.0
        ]
        rect = narrow(rect, dim, inside(rect, dim, carried), upper)


# ----------------------------------------------------------------------
# One cut table, however the tree is first touched
# ----------------------------------------------------------------------
def _touch_in_order(emb, values, rng):
    for v in values:
        emb.point_code(v)


def _touch_shuffled(emb, values, rng):
    for v in rng.sample(values, len(values)):
        emb.point_code(v)


def _touch_regions_first(emb, values, rng):
    deep = [Code(format(rng.getrandbits(emb.code_depth), "0%db" % emb.code_depth))
            for _ in range(6)]
    for code in deep:
        emb.region_rect(code)
    for v in values:
        x = emb.schema.normalize(v)
        emb.query_prefix(tuple((c, min(1.0, c + 1e-9)) for c in x))
    _touch_in_order(emb, values, rng)


def _touch_batch_first(emb, values, rng):
    emb.point_codes_batch(values)
    _touch_in_order(emb, values, rng)


def _touch_below_preloaded(emb, values, rng):
    # Preloaded nodes hold a cut and no rows: the cold descents below
    # them start from a full scan.
    emb.preload_splits(derive_cut_tree(emb.strategy.histogram, min(3, emb.code_depth)))
    _touch_shuffled(emb, values, rng)


TOUCHES = (
    _touch_in_order,
    _touch_shuffled,
    _touch_regions_first,
    _touch_batch_first,
    _touch_below_preloaded,
)


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(values_strategy, min_size=1, max_size=60),
    depth=st.integers(1, 16),
    keep_min=st.sampled_from((1, 4, embedding_module._KEEP_MIN_ROWS)),
    seed=st.integers(0, 2**16),
)
def test_cut_table_does_not_depend_on_touch_order(records, depth, keep_min, seed):
    hist = histogram_from_records(SCHEMA, [Record(v) for v in records], GRAINS)
    values = [tuple(v) for v in records]
    tables, codes = [], []
    with mock.patch.object(embedding_module, "_KEEP_MIN_ROWS", keep_min):
        for touch in TOUCHES:
            emb = Embedding(SCHEMA, BalancedCuts(hist), code_depth=depth)
            touch(emb, values, random.Random(seed))
            codes.append([emb.point_code(v).bits for v in values])
            tables.append(emb.cut_table())
            assert tables[-1] == full_scan_table(emb)
    assert all(c == codes[0] for c in codes)
    # Tables differ in which nodes were reached, never in a cut.
    merged = {}
    for table in tables:
        for prefix, split in table.items():
            assert merged.setdefault(prefix, split) == split
    scalar = Embedding(SCHEMA, BalancedCuts(ScalarCutHistogram(hist)), code_depth=depth)
    assert [scalar.point_code(v).bits for v in values] == codes[0]
    assert scalar.cut_table().items() <= merged.items()


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(values_strategy, min_size=1, max_size=60),
    own_bits=st.text("01", max_size=14),
    start=st.integers(0, 14),
    balanced=st.booleans(),
)
def test_complement_cells_equal_region_rect_per_cell(records, own_bits, start, balanced):
    """The one-walk split yields, per level, the cell and rectangle the
    per-cell root walk gives — drawing the cuts itself (cold) and from the
    memo (warm) — and touches the same tree nodes."""
    hist = histogram_from_records(SCHEMA, [Record(v) for v in records], GRAINS)

    def make():
        return Embedding(SCHEMA, BalancedCuts(hist) if balanced else EvenCuts(), code_depth=16)

    # Callers split only when ``own`` is longer than the addressed region.
    own, start = Code(own_bits), min(start, max(len(own_bits) - 1, 0))
    reference = make()
    expected = []
    for i in range(start, len(own)):
        cell = own.prefix(i + 1).flip(i)
        expected.append((cell, reference.region_rect(cell)))
    walked = make()
    assert list(walked.complement_cells(own, start)) == expected  # cold
    assert list(walked.complement_cells(own, start)) == expected  # warm
    assert walked.cut_table() == reference.cut_table()


def test_degenerate_cut_hands_both_children_their_rows():
    """Where ``split_point``'s clamp lands on an edge of a sliver-thin
    rectangle the tree cuts at the midpoint; the cuts below, along
    the other dimension, still weigh the right cells."""
    schema = IndexSchema("thin", [AttributeSpec("x", 0.0, 1.0), AttributeSpec("y", 0.0, 1.0)])
    hist = MultiDimHistogram(2, (4, 8))
    rng = random.Random(3)
    points = [(0.3 + rng.random() * 1e-3, rng.random()) for _ in range(400)]
    hist.add_batch(np.array(points))
    emb = Embedding(schema, BalancedCuts(hist), code_depth=120)
    scalar = Embedding(schema, BalancedCuts(ScalarCutHistogram(hist)), code_depth=120)
    for p in points[:12]:
        assert emb.point_code(p) == scalar.point_code(p)
        (x_lo, x_hi), _ = emb.region_rect(emb.point_code(p))
        assert x_hi - x_lo < 1e-12  # thinner than the clamp's margin
    assert emb.cut_table() == scalar.cut_table() == full_scan_table(emb)


# ----------------------------------------------------------------------
# Live rows index one build of the histogram's arrays
# ----------------------------------------------------------------------
def _add(hist, points):
    for p in points:
        hist.add(p)


def _merge(hist, points):
    other = MultiDimHistogram(hist.dimensions, hist.grains)
    other.add_batch(np.array(points))
    hist.merge(other)


@pytest.mark.parametrize(
    "mutate", [_add, lambda hist, points: hist.add_batch(np.array(points)), _merge]
)
def test_cuts_after_a_mutation_come_from_the_mutated_histogram(mutate):
    rng = random.Random(11)
    hist = MultiDimHistogram(3, GRAINS)
    hist.add_batch(np.array([[rng.random() ** 2, rng.random(), rng.random() ** 3]
                             for _ in range(600)]))
    emb = Embedding(SCHEMA, BalancedCuts(hist), code_depth=12)
    values = [(rng.uniform(0, 100), rng.uniform(0, 1000), rng.uniform(-50, 50))
              for _ in range(80)]
    for v in values[:40]:
        emb.point_code(v)
    before = emb.cut_table()
    assert emb._live  # rows of the old build are remembered ...
    mutate(hist, [[rng.random(), rng.random() ** 2, rng.random()] for _ in range(300)])
    for v in values[40:]:
        emb.point_code(v)
    after = emb.cut_table()
    drawn = {p: s for p, s in after.items() if p not in before}
    assert len(drawn) > 20
    assert all(after[p] == s for p, s in before.items())
    # ... and never dereferenced: each later cut is the mutated histogram's
    # full-scan median of its rectangle.
    expected = full_scan_table(emb)
    assert all(expected[p] == s for p, s in drawn.items())


# ----------------------------------------------------------------------
# Work bound: a regression to full scans fails here, not in a benchmark
# ----------------------------------------------------------------------
def _skewed_points(n, seed=7):
    """The shape of mindbench's ``layers._day_histogram`` input."""
    rng = np.random.default_rng(seed)
    return np.column_stack([
        (rng.pareto(1.2, n) * 0.02) % 1.0,
        rng.uniform(0.4, 0.5, n),
        np.minimum(rng.pareto(1.5, n) * 0.01, 0.999),
    ])


def test_cold_descents_weigh_their_own_cells_not_the_histogram():
    schema = IndexSchema(
        "work", [AttributeSpec(name, 0.0, 1.0) for name in ("a", "b", "c")]
    )
    hist = MultiDimHistogram(3, (4096, 8192, 64))
    hist.add_batch(_skewed_points(20000))
    depth = 16
    emb = Embedding(schema, BalancedCuts(hist), code_depth=depth)
    for p in _skewed_points(3000, seed=8).tolist():
        emb.point_code(p)
    cuts, cells = len(emb.cut_table()), hist.occupied_cells
    assert cuts > 5000 and cells > 2000
    # A cut weighs what its parent found live, or one sub-threshold set
    # kept above it: about the occupied cells per level (more where cells
    # straddle cuts and stay live on both sides) plus the threshold per cut.
    keep_min = embedding_module._KEEP_MIN_ROWS
    assert hist.rows_scanned <= 2 * (cells * depth + cuts * keep_min)
    assert hist.rows_scanned * 10 <= cuts * cells


# ----------------------------------------------------------------------
# One cut tree per version per process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("isolation", [checks.ISOLATE_OFF, checks.ISOLATE_FREEZE])
def test_a_cluster_shares_one_embedding_per_version(isolation):
    """The node that creates an index or installs a version resolves its
    own wire form through the intern table like every receiver, instead
    of keeping (and deriving a second cut tree for) the caller's instance."""
    day = 86400.0
    schema = IndexSchema(
        "one",
        [AttributeSpec("x", 0.0, 1000.0), AttributeSpec("timestamp", 0.0, 7 * day, is_time=True)],
    )
    with checks.configure(isolation=isolation):
        cluster = MindCluster(ABILENE_SITES, ClusterConfig(seed=23))
    cluster.build()
    cluster.create_index(schema)
    rng = random.Random(23)
    values = [(min(999.0, rng.expovariate(8.0) * 1000.0), rng.uniform(0, day)) for _ in range(120)]
    base = cluster.sim.now
    for i, v in enumerate(values):
        cluster.schedule_insert("one", Record(v), ABILENE_SITES[i % 11].name, base + i * 0.02)
    cluster.advance(30.0)
    cluster.rebalance_daily("one", day_start=day, granularity=(256, 512))

    for version in range(2):
        installed = [node.indices["one"].versions.versions[version][1] for node in cluster.nodes]
        assert len({id(embedding) for embedding in installed}) == 1
    shared = cluster.nodes[0].indices["one"].versions.latest()
    private = Embedding(schema, strategy_from_wire(shared.strategy.to_wire()), shared.code_depth)
    for x, t in values:
        code = shared.point_code((x, t + day))
        assert code == private.point_code((x, t + day))
        assert shared.region_rect(code) == private.region_rect(code)
    cluster.close()
