"""repro.checks: the environment parser, the configure scope, capture."""

import dataclasses
from types import MappingProxyType

import pytest

from repro import checks
from repro.checks import (
    FUZZ_OFF,
    FUZZ_REVERSE,
    FUZZ_SHUFFLE,
    ISOLATE_FREEZE,
    ISOLATE_OFF,
    Checks,
)
from repro.net.message import thaw_payload
from repro.net.network import SimNetwork
from repro.sim.kernel import Simulator

FALSEY = ["", "0", "off", "false", "no", "OFF", " No "]

#: (variable, record field, value when off, value a bare "1" arms)
SWITCHES = [
    ("REPRO_PROTOCOL_VALIDATE", "validate", False, True),
    ("REPRO_ISOLATE_MESSAGES", "isolation", ISOLATE_OFF, ISOLATE_FREEZE),
    ("REPRO_TRACK_RESOURCES", "track_resources", False, True),
]


def test_empty_environment_arms_nothing():
    assert checks.from_env({}) == Checks()


@pytest.mark.parametrize("raw", FALSEY)
@pytest.mark.parametrize(
    "variable,field,off",
    [(v, f, off) for v, f, off, _ in SWITCHES] + [("REPRO_SCHEDULE_FUZZ", "fuzz", FUZZ_OFF)],
)
def test_every_variable_shares_one_falsey_set(variable, field, off, raw):
    # Regression: REPRO_TRACK_RESOURCES=off|false|no used to *arm* the ledger.
    assert getattr(checks.from_env({variable: raw}), field) == off


@pytest.mark.parametrize("raw", ["1", "on", "true", "yes", "TRUE"])
@pytest.mark.parametrize("variable,field,on", [(v, f, on) for v, f, _, on in SWITCHES])
def test_truthy_spellings_arm_the_check(variable, field, on, raw):
    # Regression: REPRO_PROTOCOL_VALIDATE=true|on used to leave validation off.
    assert getattr(checks.from_env({variable: raw}), field) == on


@pytest.mark.parametrize(
    "variable,field,raw,expected",
    [
        ("REPRO_ISOLATE_MESSAGES", "isolation", "freeze", ISOLATE_FREEZE),
        ("REPRO_ISOLATE_MESSAGES", "isolation", "FREEZE", ISOLATE_FREEZE),
        ("REPRO_SCHEDULE_FUZZ", "fuzz", "shuffle", FUZZ_SHUFFLE),
        ("REPRO_SCHEDULE_FUZZ", "fuzz", "Reverse", FUZZ_REVERSE),
        ("REPRO_SCHEDULE_FUZZ_SEED", "fuzz_seed", "17", 17),
        ("REPRO_SCHEDULE_FUZZ_SEED", "fuzz_seed", "", 0),
    ],
)
def test_named_values(variable, field, raw, expected):
    assert getattr(checks.from_env({variable: raw}), field) == expected


@pytest.mark.parametrize(
    "variable,raw",
    [
        ("REPRO_PROTOCOL_VALIDATE", "ture"),
        # Regression: a typo'd isolation level used to mean ``copy``.
        ("REPRO_ISOLATE_MESSAGES", "freze"),
        # ``copy`` is no longer a level: it hid mutations ``freeze`` raises on.
        ("REPRO_ISOLATE_MESSAGES", "copy"),
        ("REPRO_SCHEDULE_FUZZ", "random"),
        # Schedule fuzz has no default armed mode: it must be named.
        ("REPRO_SCHEDULE_FUZZ", "1"),
        ("REPRO_SCHEDULE_FUZZ_SEED", "seven"),
        ("REPRO_TRACK_RESOURCES", "2"),
    ],
)
def test_unrecognised_value_raises_naming_the_variable(variable, raw):
    with pytest.raises(ValueError, match=variable):
        checks.from_env({variable: raw})


def test_from_env_reads_the_process_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULE_FUZZ", "reverse")
    monkeypatch.setenv("REPRO_SCHEDULE_FUZZ_SEED", "5")
    record = checks.from_env()
    assert (record.fuzz, record.fuzz_seed) == (FUZZ_REVERSE, 5)


# ----------------------------------------------------------------------
# configure(...)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "changes",
    [
        {"validate": False},
        {"isolation": ISOLATE_FREEZE},
        {"fuzz": FUZZ_SHUFFLE, "fuzz_seed": 9},
        {"track_resources": True},
        {"validate": False, "isolation": ISOLATE_OFF, "fuzz": FUZZ_REVERSE},
    ],
)
def test_configure_applies_then_restores(changes):
    before = dataclasses.replace(checks.active)
    with checks.configure(**changes) as record:
        assert record is checks.active
        assert checks.active == dataclasses.replace(before, **changes)
    assert checks.active == before


def test_configure_restores_when_the_block_raises():
    before = dataclasses.replace(checks.active)
    with pytest.raises(RuntimeError):
        with checks.configure(fuzz=FUZZ_REVERSE, track_resources=True):
            raise RuntimeError("boom")
    assert checks.active == before


def test_configure_none_leaves_a_field_alone():
    with checks.configure(fuzz=FUZZ_SHUFFLE, fuzz_seed=4):
        with checks.configure(fuzz=FUZZ_REVERSE, fuzz_seed=None):
            assert (checks.active.fuzz, checks.active.fuzz_seed) == (FUZZ_REVERSE, 4)


@pytest.mark.parametrize(
    "changes",
    [{"isolation": "bogus"}, {"isolation": True}, {"fuzz": "random"}, {"isolation": "copy"}],
)
def test_configure_rejects_unknown_values(changes):
    before = dataclasses.replace(checks.active)
    with pytest.raises(ValueError):
        with checks.configure(**changes):
            pass
    assert checks.active == before


def test_armed_names_the_variable_of_every_check_that_is_on():
    with checks.configure(
        validate=False, isolation=ISOLATE_OFF, fuzz=FUZZ_OFF, track_resources=False
    ):
        assert checks.armed() == []
        with checks.configure(isolation=ISOLATE_FREEZE, track_resources=True):
            assert [variable for variable, _ in checks.armed()] == [
                "REPRO_ISOLATE_MESSAGES",
                "REPRO_TRACK_RESOURCES",
            ]
        with checks.configure(validate=True, fuzz=FUZZ_SHUFFLE, fuzz_seed=3):
            assert [variable for variable, _ in checks.armed()] == [
                "REPRO_PROTOCOL_VALIDATE",
                "REPRO_SCHEDULE_FUZZ",
            ]


# ----------------------------------------------------------------------
# Capture at construction
# ----------------------------------------------------------------------
def test_simulator_and_network_keep_what_they_captured():
    with checks.configure(
        isolation=ISOLATE_OFF, fuzz=FUZZ_OFF, track_resources=False, validate=False
    ):
        plain = Simulator(seed=1)
        plain_net = SimNetwork(plain, {})
        with checks.configure(
            fuzz=FUZZ_REVERSE, track_resources=True, isolation=ISOLATE_FREEZE
        ):
            armed = Simulator(seed=1)
            armed_net = SimNetwork(armed, {})
        # After the block: the armed pair keeps all three...
        assert armed.resources is not None
        assert armed_net.isolation == ISOLATE_FREEZE
        fired = []
        for tag in range(4):
            armed.schedule(1.0, fired.append, tag)
        armed.run_until_idle()
        assert fired == [3, 2, 1, 0]
        # ...and arming them later never retrofitted the plain pair.
        assert plain.resources is None
        assert plain_net.isolation == ISOLATE_OFF
        for tag in range(4):
            plain.schedule(1.0, fired.append, tag)
        plain.run_until_idle()
        assert fired[4:] == [0, 1, 2, 3]


def test_both_delivery_paths_honour_the_captured_isolation():
    # _deliver serves both engines (push_at uncoalesced, the slot wheel
    # coalesced) and reads the per-network snapshot: delivery freezes even
    # though the live record has gone back to ``off`` by the time the
    # messages arrive.
    for window in (0.0, 0.05):
        with checks.configure(isolation=ISOLATE_FREEZE, validate=False):
            sim = Simulator(seed=2)
            net = SimNetwork(sim, {}, coalesce_window_s=window)
        with checks.configure(isolation=ISOLATE_OFF, validate=False):
            received = []
            net.register("a", received.append)
            net.register("b", received.append)
            payload = {"items": [1, 2]}
            net.send("a", "b", "ping", payload)
            sim.run_until_idle()
        assert isinstance(received[0].payload, MappingProxyType), f"window={window}"
        assert thaw_payload(received[0].payload) == payload

