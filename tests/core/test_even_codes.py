"""Even-cut codes and regions in closed form equal the even-cut tree walk.

Under even cuts every cut on a dimension's k-th level is the dyadic
m/2^k, so ``Embedding`` computes a code as the bit-interleave of the
quantised coordinates, and a region's side as the dyadic interval its
bits name, instead of descending a memoized cut tree.  The walks they
replaced are ``tests.oracles``' ``even_code_walk``, ``even_rect_walk``,
``even_complement_walk`` and ``even_query_prefix_walk``; the closed
forms must agree with them bit for bit, up to the 53 cuts per dimension
a float64 midpoint stays exact for.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.cuts import EvenCuts
from repro.core.embedding import Embedding
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net.topology import ABILENE_SITES
from repro.overlay.code import Code
from tests.oracles import (
    even_code_walk,
    even_complement_walk,
    even_query_prefix_walk,
    even_rect_walk,
)

CAP = 53
TOP = 1.0 - 1e-9


def unit_schema(dims):
    """Raw values equal normalized ones, so dyadics stay exact."""
    return IndexSchema("z", [AttributeSpec(f"a{d}", 0.0, 1.0) for d in range(dims)])


coordinates = st.one_of(
    st.floats(-0.5, 1.5, allow_nan=False),
    st.integers(0, CAP).flatmap(lambda k: st.integers(0, 2**k).map(lambda m: m / 2**k)),
    st.sampled_from((0.0, TOP, 1.0, -1.0, 2.0, 5e-324)),
)


@st.composite
def cases(draw):
    dims = draw(st.integers(1, 4))
    depth = draw(st.integers(0, CAP * dims))
    points = draw(st.lists(st.lists(coordinates, min_size=dims, max_size=dims),
                           min_size=1, max_size=8))
    return dims, depth, points


@settings(max_examples=200, deadline=None)
@given(case=cases())
@example(case=(1, 8, [[m / 256] for m in range(256)]))  # every cut of 8 levels
@example(case=(2, 10, [[0.5, 0.25], [0.75, 0.375], [0.03125, 0.96875]]))
@example(case=(3, 12, [[0.0, 0.0, 0.0], [TOP, TOP, TOP], [1.0, 1.0, 1.0]]))
@example(case=(2, 7, [[-3.0, -1e-300], [1.0, 7.5], [1e300, -1e300]]))  # below lo, at/above hi
@example(case=(1, CAP, [[0.5 + 2.0**-53], [1 - 2.0**-53], [2.0**-53], [TOP]]))
@example(case=(4, CAP * 4, [[1 / 3, 2.0**-52, 0.5 + 2.0**-53, TOP], [0.0, 1.0, -1.0, 0.5]]))
def test_codes_equal_the_walk(case):
    dims, depth, points = case
    schema = unit_schema(dims)
    expected = [even_code_walk(schema, p, depth) for p in points]
    at_depth = Embedding(schema, EvenCuts(), code_depth=max(depth, 1))
    assert [at_depth.point_code(p, depth).bits for p in points] == expected
    assert [c.bits for c in at_depth.point_codes_batch(points, depth)] == expected
    # Depths other than the embedding's own take the per-call plan.
    deepest = Embedding(schema, EvenCuts(), code_depth=CAP * dims)
    assert [deepest.point_code(p, depth).bits for p in points] == expected
    assert [c.bits for c in deepest.point_codes_batch(points, depth)] == expected


@st.composite
def region_cases(draw):
    """A code, a split level in ``0..len(code)`` and a query rectangle whose
    sides often end exactly on one of the code's cuts (the walk's
    ``q_hi <= split`` / ``q_lo >= split`` ties); sides may be empty or
    reversed."""
    dims = draw(st.integers(1, 4))
    own = draw(st.text("01", max_size=CAP * dims))
    start = draw(st.integers(0, len(own)))
    cuts = sorted({x for side in even_rect_walk(dims, own) for x in side})
    edge = st.one_of(coordinates, st.sampled_from(cuts))
    qrect = tuple(draw(st.tuples(edge, edge)) for _ in range(dims))
    depth = draw(st.integers(0, CAP * dims))
    return dims, own, start, qrect, depth


@settings(max_examples=300, deadline=None)
@given(case=region_cases())
@example(case=(1, "0110", 0, ((0.5, 0.5),), 8))  # an empty side on a cut
@example(case=(2, "0110", 2, ((0.25, 0.5), (0.5, 0.75)), 10))  # both ends on cuts
@example(case=(2, "", 0, ((0.75, 0.25), (0.0, 0.5)), 6))  # a reversed side
@example(case=(3, "101", 3, ((-1.0, 2.0), (0.5, 1.0), (0.0, 5e-324)), 9))
@example(case=(1, "1" * CAP, CAP, ((TOP, 1.0),), CAP))
@example(case=(4, "01" * (2 * CAP), 7, ((2.0**-53, 0.5),) * 4, CAP * 4))
def test_regions_equal_the_walk(case):
    dims, own, start, qrect, depth = case
    emb = Embedding(unit_schema(dims), EvenCuts(), code_depth=max(depth, 1))
    assert emb.region_rect(Code(own)) == even_rect_walk(dims, own)
    cells = [(cell.bits, rect) for cell, rect in emb.complement_cells(Code(own), start)]
    assert cells == even_complement_walk(dims, own, start)
    for max_depth in (None, depth, len(own) // dims):
        expected = even_query_prefix_walk(
            dims, qrect, emb.code_depth if max_depth is None else max_depth
        )
        assert emb.query_prefix(qrect, max_depth).bits == expected


@pytest.mark.parametrize("dims", [1, 3])
def test_more_than_53_cuts_per_dimension_is_refused(dims):
    """Past 53 halvings the walk's float midpoint no longer halves: at
    depth 60 one dimension has a sibling region of width 0.0."""
    schema = unit_schema(dims)
    with pytest.raises(ValueError, match="53"):
        Embedding(schema, EvenCuts(), code_depth=CAP * dims + 1)
    emb = Embedding(schema, EvenCuts(), code_depth=CAP * dims)
    assert len(emb.point_code([0.3] * dims)) == CAP * dims
    with pytest.raises(ValueError, match="53"):
        emb.point_code([0.5] * dims, CAP * dims + 1)
    too_deep = Code("1" * (CAP * dims + 1))
    for regions in (
        lambda: emb.region_rect(too_deep),
        lambda: list(emb.complement_cells(too_deep, 0)),
        lambda: emb.query_prefix(((0.25, 0.25),) * dims, CAP * dims + 1),
    ):
        with pytest.raises(ValueError, match="53"):
            regions()


def test_an_even_cluster_draws_no_cut_tree():
    """Inserts and split queries through an even embedding leave the
    balanced-cut memo and its live-row table empty."""
    day = 86400.0
    schema = IndexSchema(
        "even",
        [AttributeSpec("x", 0.0, 1000.0), AttributeSpec("timestamp", 0.0, day, is_time=True)],
    )
    cluster = MindCluster(ABILENE_SITES, ClusterConfig(seed=5))
    cluster.build()
    cluster.create_index(schema)
    rng = random.Random(5)
    sites = [site.name for site in ABILENE_SITES]
    base = cluster.sim.now
    for i in range(2000):
        record = Record((rng.uniform(0, 1000), rng.uniform(0, day)))
        cluster.schedule_insert("even", record, sites[i % len(sites)], base + i * 0.005)
    for i in range(50):
        x0, t0 = rng.uniform(0, 700), rng.uniform(0, day / 2)
        query = RangeQuery("even", {"x": (x0, x0 + 300), "timestamp": (t0, t0 + day / 2)})
        cluster.schedule_query(query, sites[i % len(sites)], base + 12 + i * 0.1)
    cluster.advance(60.0)
    assert sum(m.success for m in cluster.metrics.inserts) == 2000
    assert len(cluster.metrics.queries) == 50
    assert all(m.complete for m in cluster.metrics.queries)
    assert max(m.regions for m in cluster.metrics.queries) > 1  # queries split
    embedding = cluster.nodes[0].indices["even"].versions.latest()
    assert isinstance(embedding.strategy, EvenCuts)
    assert embedding._cuts == {} and embedding._live == {}
    with pytest.raises(ValueError):
        embedding.preload_splits({"": 0.5})
    assert embedding._cuts == {}
    cluster.close()
