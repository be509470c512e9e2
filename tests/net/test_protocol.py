"""Unit tests for the wire-protocol registry and debug-mode validation."""

import pytest

from repro import checks
from repro.baselines.centralized import CentralizedSystem
from repro.baselines.dht import UniformHashSystem
from repro.baselines.flooding import QueryFloodingSystem
from repro.core.mind_node import MindNode
from repro.core.records import Record
from repro.core.schema import AttributeSpec, IndexSchema
from repro.net import protocol
from repro.net.message import Message
from repro.net.protocol import ProtocolError, validate_wire
from repro.net.topology import ABILENE_SITES
from repro.overlay.node import OverlayNode
from repro.sim.kernel import Simulator

from tests.helpers import make_network


def test_registry_covers_every_layer():
    layers = {decl.layer for decl in protocol.REGISTRY.values()}
    assert layers == {"overlay", "mind", "baseline"}
    assert all(decl.layer == "routed" for decl in protocol.ROUTED.values())


def test_registered_kind_with_exact_payload_passes():
    validate_wire("heartbeat", {"code": "010"})
    validate_wire("insert_ack", {"op_id": "a:1", "hops": 3})


def test_optional_keys_are_accepted_but_not_required():
    validate_wire("op_failed", {"kind": "insert", "op_id": "a:1"})
    validate_wire(
        "op_failed",
        {"kind": "subquery", "op_id": "a:1", "version": 0.0, "region_bits": "01", "attempt": 2},
    )


def test_unknown_kind_rejected():
    with pytest.raises(ProtocolError, match="unregistered message kind"):
        validate_wire("heartbeet", {"code": "010"})


def test_missing_required_key_rejected():
    with pytest.raises(ProtocolError, match="missing required"):
        validate_wire("heartbeat", {})


def test_undeclared_key_rejected():
    with pytest.raises(ProtocolError, match="undeclared"):
        validate_wire("heartbeat", {"code": "010", "cod": "typo"})


def test_route_envelope_checks_inner_kind():
    envelope = {
        "target": "01",
        "inner_kind": "adopt_probe",
        "inner": {"claimant": "a", "probe": "01"},
        "op_id": 1,
        "origin": "a",
        "hops": 0,
        "path": ["a"],
        "exclude": [],
        "attempt": 1,
        "tuples": 0,
    }
    validate_wire("route", envelope)
    envelope["inner_kind"] = "adopt_prob"
    with pytest.raises(ProtocolError, match="unregistered routed kind"):
        validate_wire("route", envelope)
    envelope["inner_kind"] = "adopt_probe"
    envelope["inner"] = {"claimant": "a"}
    with pytest.raises(ProtocolError, match="missing required"):
        validate_wire("route", envelope)


def test_message_construction_validates_when_enabled():
    with checks.configure(validate=True):
        Message("a", "b", "heartbeat", {"code": "0"})
        with pytest.raises(ProtocolError):
            Message("a", "b", "heartbeat", {"cod": "0"})
    with checks.configure(validate=False):
        Message("a", "b", "totally-made-up", {"whatever": 1})


def test_dispatch_table_refuses_an_unregistered_kind():
    def handler(msg):
        return None

    table = protocol.dispatch_table({"heartbeat": handler})
    assert len(table) == protocol.NUM_KINDS + 1
    assert table[protocol.KIND_IDS["heartbeat"]] is handler
    assert table[protocol.UNKNOWN_KIND_ID] is None
    with pytest.raises(ProtocolError, match="unregistered message kind 'mystery'"):
        protocol.dispatch_table({"heartbeat": handler, "mystery": handler})


def test_baseline_node_with_an_unregistered_handler_raises_at_first_delivery():
    schema = IndexSchema("b", attributes=[AttributeSpec("x", 0.0, 1000.0)])
    system = CentralizedSystem(ABILENE_SITES[:3], schema)
    server = system.by_address[system.server]
    server.handlers["mystery"] = lambda msg: None
    with pytest.raises(ProtocolError, match="mystery"):
        system.insert_now(Record([1.0]), origin=ABILENE_SITES[1].name)


def test_registry_is_exactly_what_the_live_handler_tables_handle():
    # Every declared kind has a handler somewhere and every handler's
    # kind is declared: no kind is sent that nothing handles (validation
    # refuses an undeclared send), and no registry entry is dead.
    sim = Simulator(0)
    mind = MindNode(sim, make_network(sim), "m")
    direct = set(mind._handlers) | set(mind.recovery.handlers) | set(mind.extra_handlers())
    schema = IndexSchema("b", attributes=[AttributeSpec("x", 0.0, 1000.0)])
    for system_cls in (QueryFloodingSystem, UniformHashSystem, CentralizedSystem):
        for node in system_cls(ABILENE_SITES[:3], schema).nodes:
            direct |= set(node.handlers)
    assert direct == set(protocol.REGISTRY)
    assert set(mind._routed) == set(protocol.ROUTED)


def test_a_routed_kind_without_a_handler_raises_under_validation():
    # A plain overlay node handles only adoption probes; a MIND kind
    # reaching it is a wiring bug.  Without validation (timed runs) it is
    # dropped, as a synthetic kind routed only to time hops must be.
    sim = Simulator(0)
    node = OverlayNode(sim, make_network(sim), "a")
    envelope = {"inner_kind": "insert", "inner": {}, "target": "", "origin": "a"}
    with checks.configure(validate=True):
        with pytest.raises(ProtocolError, match="no handler for routed kind 'insert'"):
            node.on_route_arrival(envelope)
        with pytest.raises(ProtocolError, match="no handler for routed kind 'insert'"):
            node.on_route_failed(envelope, "ttl-exceeded")
    with checks.configure(validate=False):
        node.on_route_arrival(envelope)
        node.on_route_failed(envelope, "ttl-exceeded")
