"""Message-isolation sanitizer: clone semantics and cross-node aliasing.

The property tests sweep *every* registered message kind (direct and
routed) with registry-driven synthetic payloads.  Delivered through a
real :class:`~repro.net.network.SimNetwork` at the ``freeze`` level,
every container in the payload refuses mutation — the invariant the
paper's TCP serialization provided for free.  A ``copy`` clone, which is
how :meth:`~repro.net.network.SimNetwork.resend` re-sends, is mutated all
the way down and the sender-side object must never change.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import checks
from repro.net import protocol
from repro.net.message import (
    ISOLATE_COPY,
    ISOLATE_FREEZE,
    ISOLATE_OFF,
    FrozenListView,
    FrozenSetView,
    Message,
    MappingProxyType,
    copy_payload,
    freeze_payload,
    thaw_payload,
)
from repro.net.topology import Site
from repro.sim.kernel import Simulator
from tests.helpers import make_network

pytestmark = pytest.mark.sanitize

ALL_KINDS = sorted(protocol.REGISTRY) + sorted(protocol.ROUTED)


# ----------------------------------------------------------------------
# Payload helpers
# ----------------------------------------------------------------------
#: scalars that can live anywhere in a payload
_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
)

#: nested container values, small on purpose (shape matters, size doesn't)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.tuples(inner, inner),
        st.sets(st.integers(-50, 50), max_size=3),
    ),
    max_leaves=8,
)


def draw_payload(data, kind_name):
    """Registry-driven synthetic payload for ``kind_name``.

    Direct kinds get a value for every declared key; routed kinds are
    wrapped in a full ``route`` envelope, which is how they cross the
    wire for real.
    """
    def body(decl):
        return {key: data.draw(_values, label=key) for key in sorted(decl.all_keys())}

    if kind_name == "route":
        # the direct "route" kind must carry a registered inner kind
        kind_name = data.draw(st.sampled_from(sorted(protocol.ROUTED)), label="inner_kind")
    if kind_name in protocol.ROUTED:
        inner = body(protocol.ROUTED[kind_name])
        return "route", {
            "target": "0101",
            "inner_kind": kind_name,
            "inner": inner,
            "op_id": data.draw(st.one_of(st.text(max_size=4), st.tuples(st.text(max_size=2), st.integers(0, 9)))),
            "origin": "a",
            "hops": 0,
            "path": ["a"],
            "exclude": [],
            "attempt": 1,
            "tuples": 0,
        }
    return kind_name, body(protocol.REGISTRY[kind_name])


def mutate_everything(value):
    """Mutate every mutable container reachable from ``value``."""
    if isinstance(value, dict):
        for item in list(value.values()):
            mutate_everything(item)
        value["__mutated__"] = "x"
    elif isinstance(value, list):
        for item in value:
            mutate_everything(item)
        value.append("__mutated__")
    elif isinstance(value, set):
        value.add("__mutated__")
    elif isinstance(value, tuple):
        for item in value:
            mutate_everything(item)


def assert_all_frozen(value):
    """Every container reachable from ``value`` must refuse mutation."""
    if isinstance(value, MappingProxyType):
        with pytest.raises(TypeError):
            value["__mutated__"] = "x"
        for item in value.values():
            assert_all_frozen(item)
    elif isinstance(value, tuple):  # includes FrozenListView
        assert not hasattr(value, "append")
        for item in value:
            assert_all_frozen(item)
    elif isinstance(value, frozenset):  # includes FrozenSetView
        assert not hasattr(value, "add")
    else:
        assert not isinstance(value, (dict, list, set)), f"unfrozen container: {value!r}"


def deliver(kind, payload, level):
    """Send (kind, payload) a->b over a real SimNetwork; return delivery."""
    sim = Simulator(seed=3)
    sites = {"a": Site("a", 0.0, 0.0, "t"), "b": Site("b", 1.0, 1.0, "t")}
    with checks.configure(isolation=level):
        network = make_network(sim, sites)
    received = []
    network.register("a", received.append)
    network.register("b", received.append)
    network.send("a", "b", kind, payload)
    sim.run_until_idle()
    assert len(received) == 1
    return received[0]


# ----------------------------------------------------------------------
# The cross-node aliasing property, over all 50 registered kinds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind_name", ALL_KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_copy_isolation_never_aliases_sender(kind_name, data):
    kind, payload = draw_payload(data, kind_name)
    snapshot = copy.deepcopy(payload)
    clone = Message(src="a", dst="b", kind=kind, payload=payload).clone(level=ISOLATE_COPY)
    assert clone.payload == payload
    mutate_everything(clone.payload)
    assert payload == snapshot, "receiver-side mutation reached the sender's payload"


@pytest.mark.parametrize("kind_name", ALL_KINDS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_freeze_isolation_delivers_read_only_views(kind_name, data):
    kind, payload = draw_payload(data, kind_name)
    snapshot = copy.deepcopy(payload)
    msg = deliver(kind, payload, ISOLATE_FREEZE)
    assert_all_frozen(msg.payload)
    # a thawed private copy equals the original and mutating it is safe
    thawed = thaw_payload(msg.payload)
    assert thawed == payload
    mutate_everything(thawed)
    assert payload == snapshot


def test_off_isolation_aliases_by_reference():
    # Documents the hazard the sanitizer exists for: with isolation off,
    # delivery shares the very object the sender still holds.
    payload = {"joiner": "x"}
    msg = deliver("join_lookup", payload, ISOLATE_OFF)
    assert msg.payload is payload


# ----------------------------------------------------------------------
# copy/freeze/thaw round trips
# ----------------------------------------------------------------------
def test_copy_payload_preserves_container_types():
    payload = {"l": [1, {"k": 2}], "t": (1, [2]), "s": {3}, "f": frozenset({4})}
    out = copy_payload(payload)
    assert out == payload
    assert out is not payload
    assert out["l"] is not payload["l"]
    assert out["l"][1] is not payload["l"][1]
    assert isinstance(out["t"], tuple) and out["t"][1] is not payload["t"][1]
    assert isinstance(out["s"], set) and out["s"] is not payload["s"]
    assert isinstance(out["f"], frozenset)


def test_freeze_thaw_round_trip_preserves_types():
    payload = {
        "op_id": ("ins", "op-1", 2),  # tuple op_ids are dict keys downstream
        "path": ["a", "b"],
        "nested": {"inner": [1, (2, 3)]},
        "seen": {1, 2},
    }
    frozen = freeze_payload(payload)
    assert isinstance(frozen, MappingProxyType)
    assert isinstance(frozen["op_id"], tuple) and not isinstance(frozen["op_id"], FrozenListView)
    assert isinstance(frozen["path"], FrozenListView)
    assert isinstance(frozen["seen"], FrozenSetView)

    thawed = thaw_payload(frozen)
    assert thawed == payload
    assert isinstance(thawed["op_id"], tuple), "tuples must survive freeze+thaw"
    assert hash(thawed["op_id"]) == hash(payload["op_id"])
    assert isinstance(thawed["path"], list)
    assert isinstance(thawed["seen"], set) and not isinstance(thawed["seen"], frozenset)
    assert isinstance(thawed["nested"]["inner"], list)
    assert isinstance(thawed["nested"]["inner"][1], tuple)


def test_thaw_of_unfrozen_payload_is_a_deep_copy():
    payload = {"path": ["a"], "rect": [[0, 1], [2, 3]]}
    out = thaw_payload(payload)
    assert out == payload
    out["path"].append("b")
    out["rect"][0].append(9)
    assert payload == {"path": ["a"], "rect": [[0, 1], [2, 3]]}


# ----------------------------------------------------------------------
# Message.clone
# ----------------------------------------------------------------------
def test_clone_copy_isolates_payload_and_keeps_identity():
    msg = Message(src="a", dst="b", kind="join_lookup", payload={"joiner": "x"}, size_bytes=77)
    clone = msg.clone(level=ISOLATE_COPY)
    assert clone.msg_id == msg.msg_id
    assert clone.size_bytes == 77
    assert clone.wire_size == msg.wire_size, "re-framing must not double-count headers"
    assert clone.payload == msg.payload and clone.payload is not msg.payload


def test_clone_fresh_id_for_resend_attempts():
    msg = Message(src="a", dst="b", kind="join_lookup", payload={"joiner": "x"})
    clone = msg.clone(level=ISOLATE_COPY, fresh_id=True)
    assert clone.msg_id != msg.msg_id
    assert clone.size_bytes == msg.size_bytes


def test_clone_off_shares_payload():
    msg = Message(src="a", dst="b", kind="join_lookup", payload={"joiner": "x"})
    assert msg.clone(level=ISOLATE_OFF).payload is msg.payload


def test_clone_rejects_unknown_level():
    msg = Message(src="a", dst="b", kind="join_lookup", payload={"joiner": "x"})
    with pytest.raises(ValueError):
        msg.clone(level="bogus")


def test_network_resend_never_aliases_between_attempts():
    sim = Simulator(seed=5)
    sites = {"a": Site("a", 0.0, 0.0, "t"), "b": Site("b", 1.0, 1.0, "t")}
    with checks.configure(isolation=ISOLATE_OFF):
        network = make_network(sim, sites)
    received = []
    network.register("a", received.append)
    network.register("b", received.append)
    first = network.send("a", "b", "join_lookup", {"joiner": "x"}, size_bytes=99)
    second = network.resend(first)
    sim.run_until_idle()
    assert second.msg_id != first.msg_id
    assert second.size_bytes == 99, "resend must preserve the declared body size"
    assert second.payload == first.payload and second.payload is not first.payload


# ----------------------------------------------------------------------
# End-to-end parity: isolation must not change any observable metric
# ----------------------------------------------------------------------
def _run_seeded_workload(level):
    """A small seeded cluster workload; returns every observable metric."""
    import random

    from repro.core.cluster import ClusterConfig, MindCluster
    from repro.core.query import RangeQuery
    from repro.core.records import Record
    from repro.core.schema import AttributeSpec, IndexSchema
    from repro.net.topology import ABILENE_SITES

    schema = IndexSchema(
        "iso-parity",
        attributes=[
            AttributeSpec("dest", 0.0, 1024.0),
            AttributeSpec("timestamp", 0.0, 86400.0, is_time=True),
        ],
    )
    with checks.configure(isolation=level):
        cluster = MindCluster(
            ABILENE_SITES, ClusterConfig(seed=1234, track_ground_truth=True)
        )
        cluster.build()
        cluster.create_index(schema)
        rng = random.Random(99)
        origins = [s.name for s in ABILENE_SITES]
        inserts = []
        # Record keys are a process-global counter, so runs compare by
        # per-run insertion ordinal instead of raw key.
        ordinal = {}
        for i in range(30):
            record = Record([rng.uniform(0, 1024), rng.uniform(10000, 20000)])
            ordinal[record.key] = i
            metric = cluster.insert_now(schema.name, record, origin=rng.choice(origins))
            inserts.append((metric.success, metric.hops, round(metric.latency, 9)))
        queries = []
        for _ in range(5):
            lo = rng.uniform(0, 900)
            query = RangeQuery(
                schema.name, {"dest": (lo, lo + 200), "timestamp": (10000, 20000)}
            )
            metric = cluster.query_now(query, origin=rng.choice(origins))
            reference = cluster.reference_answer(query)
            recall = len(metric.record_keys & reference) / len(reference) if reference else 1.0
            queries.append(
                (
                    sorted(ordinal[k] for k in metric.record_keys),
                    recall,
                    metric.complete,
                    round(metric.latency, 9),
                    len(metric.nodes_visited),
                )
            )
        return {
            "inserts": inserts,
            "queries": queries,
            "messages": cluster.network.messages_sent,
        }


@pytest.mark.slow
def test_end_to_end_metrics_identical_with_isolation_on_and_off():
    baseline = _run_seeded_workload(ISOLATE_OFF)
    assert baseline["queries"], "workload produced no queries"
    assert _run_seeded_workload(ISOLATE_FREEZE) == baseline
