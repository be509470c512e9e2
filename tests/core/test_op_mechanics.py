"""The op mechanics MIND's protocols share, each driven in isolation.

The retry ladder (``repro.core.ops``) runs here without a network, a
simulator or a MindNode: a fake scheduler stands in for both timers and a
Hypothesis script plays the failures.  The query split
(``repro.core.querying``) is called directly on one node of a small
cluster with ``route`` stubbed out.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import histogram_from_records
from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.cuts import BalancedCuts, EvenCuts
from repro.core.embedding import Embedding
from repro.core.mind_node import MindConfig
from repro.core.ops import _RetryLadder
from repro.core.query import rect_intersection
from repro.core.querying import _split_to_complement
from repro.core.records import Record
from repro.core.replication import FULL_REPLICATION, failover_targets
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net.topology import ABILENE_SITES
from repro.overlay.code import Code
from tests.storage.test_vectorized_equivalence import SCHEMA, values_strategy

WATCHDOG_S = 7.0


class FakeTimer:
    def __init__(self, delay, fn, args):
        self.delay, self.fn, self.args = delay, fn, args
        self.cancelled = self.fired = False

    def cancel(self):
        self.cancelled = True

    def fire(self):
        assert not self.cancelled and not self.fired
        self.fired = True
        self.fn(*self.args)

    @property
    def armed(self):
        return not (self.cancelled or self.fired)


class LadderOwner:
    """What an insert or a region does around its ladder, minus the routing."""

    def __init__(self, primary, replication, depth, cfg, seed):
        self.cfg, self.replication, self.depth = cfg, replication, depth
        self.metric = SimpleNamespace(retries=0, failovers=0)
        self.rng = random.Random(seed)
        self.ladder = self.make_ladder(primary)
        self.timers = []
        self.launched = []  # (target, stamp) per attempt, in order
        self.backoffs = []  # (attempts on the target so far, delay)
        self.exhausted = False

    def make_ladder(self, primary, stamp=0):
        return _RetryLadder(
            self.metric, primary, self.schedule, self.cfg, self.rng, self.launch,
            self.attempt_failed, ("op",), stamp,
        )

    def schedule(self, delay, fn, *args):
        self.timers.append(FakeTimer(delay, fn, args))
        return self.timers[-1]

    def launch(self, key):
        assert key == "op"
        stamp = self.ladder.open_attempt()
        self.launched.append((self.ladder.target, stamp))

    def attempt_failed(self, key, stamp):
        assert key == "op"
        ladder = self.ladder
        if not ladder.current(stamp):
            return
        attempts = ladder.attempts
        if ladder.retry():
            self.backoffs.append((attempts, ladder.backoff_event.delay))
        elif ladder.fail_over(self.replication, self.depth):
            self.launch(key)
        else:
            self.exhausted = True

    def snapshot(self):
        ladder = self.ladder
        return (
            ladder.target, ladder.attempts, ladder.stamp, ladder.inflight,
            None if ladder.queue is None else list(ladder.queue),
            ladder.attempt_timer, ladder.backoff_event,
            [t.armed for t in self.timers], self.metric.retries, self.metric.failovers,
        )


@settings(max_examples=200, deadline=None)
@given(
    bits=st.text(alphabet="01", min_size=1, max_size=10),
    replication=st.sampled_from([0, 1, 2, 3, FULL_REPLICATION]),
    depth=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    max_attempts=st.integers(min_value=1, max_value=4),
    backoff=st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 10.0)),
    seed=st.integers(0, 2**32),
    script=st.lists(st.sampled_from(["fail", "watchdog", "stale", "succeed"]), max_size=60),
)
def test_ladder_walk(bits, replication, depth, max_attempts, backoff, seed, script):
    base_s, max_s = backoff
    cfg = MindConfig(
        retry_max_attempts=max_attempts, retry_backoff_base_s=base_s, retry_backoff_max_s=max_s,
        attempt_timeout_s=WATCHDOG_S,
    )
    primary = Code(bits)
    owner = LadderOwner(primary, replication, depth, cfg, seed)
    ladder = owner.ladder
    owner.launch("op")
    succeeded = False
    for step in script:
        if owner.exhausted:
            break
        if step == "stale":
            # A report for a superseded attempt (or, during a backoff, for
            # the attempt that already failed) changes nothing.
            before = owner.snapshot()
            owner.attempt_failed("op", ladder.stamp - 1 if ladder.inflight else ladder.stamp)
            assert owner.snapshot() == before
        elif ladder.backoff_event is not None:
            # Between attempts the only live timer is the backoff.
            assert not ladder.inflight and ladder.attempt_timer is None
            ladder.backoff_event.fire()
        elif step == "succeed":
            ladder.cancel()  # what every finish path does
            succeeded = True
            break
        elif step == "fail":
            owner.attempt_failed("op", ladder.stamp)
        else:
            assert ladder.attempt_timer.delay == WATCHDOG_S
            ladder.attempt_timer.fire()

    # Stamps are 1, 2, 3 … across targets.
    assert [stamp for _, stamp in owner.launched] == list(range(1, len(owner.launched) + 1))
    # Targets: the primary, then the replica-holder regions in order, each
    # visited once and tried at most ``retry_max_attempts`` times.
    ladder_targets = [primary]
    if depth is not None:
        ladder_targets += failover_targets(primary, replication, depth)
    visited = []
    for target, _ in owner.launched:
        if not visited or visited[-1][0] != target:
            visited.append([target, 0])
        visited[-1][1] += 1
    assert [target for target, _ in visited] == ladder_targets[: len(visited)]
    assert all(count <= max_attempts for _, count in visited)
    assert owner.metric.failovers == len(visited) - 1
    assert owner.metric.retries == len(owner.backoffs)
    # The n-th backoff on a target lies in [b, 1.1 b], b = min(base 2^(n-1), max).
    for n, delay in owner.backoffs:
        b = min(base_s * 2 ** (n - 1), max_s)
        assert b <= delay <= 1.1 * b
    if owner.exhausted:
        # Every target got its full share before the ladder gave up.
        assert [target for target, _ in visited] == ladder_targets
        assert all(count == max_attempts for _, count in visited)
        if depth is None:
            # Out of the overlay: nothing was enumerated, nothing tried.
            assert ladder.queue == [] and owner.metric.failovers == 0
    if owner.exhausted or succeeded:
        assert not any(timer.armed for timer in owner.timers)
        assert ladder.attempt_timer is None and ladder.backoff_event is None


def test_adopted_attempt_counts_as_the_first():
    # A responder-spawned sub-query: somebody else routed attempt ``stamp``;
    # the originator only watches it, then owns the retries.
    cfg = MindConfig(retry_max_attempts=2, attempt_timeout_s=WATCHDOG_S)
    owner = LadderOwner(Code("0110"), 0, 4, cfg, seed=1)
    owner.ladder = ladder = owner.make_ladder(Code("0110"), stamp=3)
    assert ladder.current(3) and not ladder.current(2)
    ladder.watch()
    assert ladder.attempt_timer.delay == WATCHDOG_S
    ladder.attempt_timer.fire()
    assert owner.backoffs and owner.backoffs[0][0] == 1
    ladder.backoff_event.fire()
    assert owner.launched == [(Code("0110"), 4)]
    ladder.attempt_timer.fire()
    assert owner.exhausted and not any(timer.armed for timer in owner.timers)


def test_split_is_one_mechanism_for_subqueries_and_trigger_installs():
    schema = IndexSchema(
        "s",
        attributes=[
            AttributeSpec("x", 0.0, 100.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        ],
    )
    cluster = MindCluster(ABILENE_SITES[:8], ClusterConfig(seed=83))
    cluster.build()
    cluster.create_index(schema)
    node = max(cluster.nodes, key=lambda n: len(n.code))
    state = node.indices["s"]
    embedding = state.versions.latest()
    routed = []
    node.route = lambda target, kind, inner, **kw: routed.append((target.bits, kind, inner, kw))

    def split(kind, region, rect):
        inner = {"index": "s", "version": float("-inf"), "rect": [list(side) for side in rect]}
        envelope = {
            "target": region, "inner_kind": kind, "inner": inner,
            "origin": "elsewhere", "attempt": 3,
        }
        del routed[:]
        spawned = _split_to_complement(node, envelope, state, rect, lambda bits: (kind, bits))
        assert [bits for bits, _, _, _ in routed] == spawned
        for bits, routed_kind, routed_inner, kw in routed:
            assert routed_kind == kind
            assert routed_inner == inner and routed_inner is not inner
            assert kw == {"op_id": (kind, bits), "origin": "elsewhere", "attempt": 3}
        return spawned

    everything = ((0.0, 1.0), (0.0, 1.0))
    for region in ("", node.code.bits[:1], node.code.bits):
        cells = list(embedding.complement_cells(node.code, len(region)))
        # Every cell, none (the node's own rectangle touches no complement
        # cell), and exactly one (the cells tile disjointly).
        cases = [(everything, [c.bits for c, _ in cells]), (embedding.region_rect(node.code), [])]
        if cells:
            cases.append((cells[-1][1], [cells[-1][0].bits]))
        for rect, expected in cases:
            assert split("subquery", region, rect) == expected
            assert split("trigger_install", region, rect) == expected


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(values_strategy, min_size=1, max_size=40),
    own_bits=st.text("01", min_size=1, max_size=16),
    start=st.integers(0, 15),
    balanced=st.booleans(),
    data=st.data(),
)
def test_split_spawns_the_cells_the_query_meets(records, own_bits, start, balanced, data):
    """The split tests each cell on the sides that changed since the last
    one; it must spawn, in order, exactly the cells ``rect_intersection``
    finds non-empty, ties on a cut (``hi <= lo``) included."""
    hist = histogram_from_records(SCHEMA, [Record(v) for v in records], (8, 16, 4))
    emb = Embedding(SCHEMA, BalancedCuts(hist) if balanced else EvenCuts(), code_depth=16)
    own, start = Code(own_bits), min(start, len(own_bits) - 1)
    cells = list(emb.complement_cells(own, start))
    cuts = sorted({x for _, rect in cells for side in rect for x in side})
    edge = st.one_of(st.sampled_from(cuts), st.floats(-0.25, 1.25, allow_nan=False))
    # Sides open to one end, or to both, let the query meet a cell on
    # every side but the one a tie decides.
    side = st.one_of(
        st.tuples(edge, edge), st.tuples(st.just(0.0), edge), st.tuples(edge, st.just(1.0)),
        st.just((0.0, 1.0)),
    )
    qrect = tuple(data.draw(side) for _ in range(SCHEMA.dimensions))
    expected = [cell.bits for cell, rect in cells if rect_intersection(rect, qrect) is not None]
    assert split_alone(emb, own, start, qrect) == expected


@pytest.mark.parametrize("balanced", [False, True])
def test_split_drops_the_cells_the_query_only_touches(balanced):
    """A query that ends exactly on a level's cut meets the running
    rectangle but not that level's cell: the cell is not spawned."""
    hist = histogram_from_records(
        SCHEMA, [Record((i * 7.0, i * 13.0, i - 30.0)) for i in range(60)], (8, 16, 4)
    )
    emb = Embedding(SCHEMA, BalancedCuts(hist) if balanced else EvenCuts(), code_depth=16)
    own = Code("011010")
    cells = list(emb.complement_cells(own, 0))
    for level, (cell, rect) in enumerate(cells):
        dim = level % SCHEMA.dimensions
        lo, hi = rect[dim]
        touch = (0.0, lo) if own.bits[level] == "0" else (hi, 1.0)
        qrect = tuple(touch if side == dim else (0.0, 1.0) for side in range(SCHEMA.dimensions))
        spawned = split_alone(emb, own, 0, qrect)
        assert cell.bits not in spawned
        assert spawned == [c.bits for c, r in cells if rect_intersection(r, qrect) is not None]


def split_alone(emb, own, start, qrect):
    """``_split_to_complement`` on a node that owns ``own``,
    for a sub-query addressed to ``own``'s first ``start`` bits; returns
    the spawned bits after checking they were routed, in order."""
    routed = []
    node = SimpleNamespace(
        _owned_region_for=lambda region: own,
        route=lambda cell, kind, inner, **kw: routed.append(cell.bits),
    )
    state = SimpleNamespace(versions=SimpleNamespace(embedding_for_version=lambda version: emb))
    envelope = {
        "target": own.bits[:start], "inner_kind": "subquery", "inner": {"version": 0.0},
        "origin": "elsewhere", "attempt": 1,
    }
    spawned = _split_to_complement(node, envelope, state, qrect, lambda bits: bits)
    assert spawned == routed
    return spawned
