"""Unit tests for the resource-lifecycle ledger (repro-leak, runtime half)."""

import pytest

from repro import checks
from repro.sim.kernel import Simulator
from repro.sim.resources import ResourceLeakError, ResourceLedger


def test_register_release_round_trip():
    ledger = ResourceLedger()
    ledger.register("op:insert", "node001")
    ledger.register("op:insert", "node001")
    ledger.register("net:call-wheel", "node002")
    assert ledger.live() == 3
    assert ledger.snapshot() == [
        ("net:call-wheel", "node002", 1),
        ("op:insert", "node001", 2),
    ]
    ledger.release("op:insert", "node001")
    ledger.release("op:insert", "node001")
    ledger.release("net:call-wheel", "node002")
    assert ledger.live() == 0
    ledger.assert_quiescent("test")  # empty: no raise


def test_release_without_register_raises():
    # Strict by design: a removal path running twice (or against state it
    # never created) is itself a lifecycle bug, not something to mask.
    ledger = ResourceLedger()
    with pytest.raises(ResourceLeakError, match="release without matching register"):
        ledger.release("op:query", "node009")
    ledger.register("op:query", "node009")
    ledger.release("op:query", "node009")
    with pytest.raises(ResourceLeakError):
        ledger.release("op:query", "node009")


def test_quiescence_diff_names_owners():
    ledger = ResourceLedger()
    ledger.register("op:trigger-reg", "node004")
    ledger.register("op:trigger-reg", "node004")
    ledger.register("net:call-wheel", "node007")
    with pytest.raises(ResourceLeakError) as excinfo:
        ledger.assert_quiescent("run_until_idle")
    text = str(excinfo.value)
    assert "run_until_idle: 3 resource(s) still live" in text
    assert "op:trigger-reg 'node004' x2" in text
    assert "net:call-wheel 'node007' x1" in text


def test_run_until_idle_raises_on_leaked_registration():
    with checks.configure(track_resources=True):
        sim = Simulator(seed=3)
    sim.resources.register("op:insert", "node000")
    sim.schedule(1.0, lambda: None)
    with pytest.raises(ResourceLeakError, match="op:insert 'node000' x1"):
        sim.run_until_idle()
    # Releasing the entry makes the same checkpoint pass.
    sim.resources.release("op:insert", "node000")
    sim.run_until_idle()


def test_tracking_off_costs_nothing():
    with checks.configure(track_resources=False):
        sim = Simulator(seed=4)
    assert sim.resources is None
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()  # no ledger, no check
