"""Unit tests for the discrete-event kernel."""

import pytest

from repro import checks
from repro.sim.kernel import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_schedule_and_run_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fifo():
    # FIFO within a timestamp is the *default* tie-break; pin schedule
    # fuzz off so the assertion holds under a fuzzed suite run too.
    with checks.configure(fuzz="off"):
        sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run_until(2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run_until(5.0)
    assert fired == [1, 5]


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(3.0)
    with pytest.raises(SimulationError):
        sim.run_until(1.0)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run_until_idle()
    assert fired == []


def test_events_scheduled_during_run():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_run_until_idle_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_run_until_predicate_true_early():
    sim = Simulator()
    state = {"done": False}
    sim.schedule(1.0, state.__setitem__, "done", True)
    sim.schedule(100.0, lambda: None)
    assert sim.run_until_predicate(lambda: state["done"], timeout=10.0)
    assert sim.now < 100.0


def test_run_until_predicate_timeout():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    assert not sim.run_until_predicate(lambda: False, timeout=5.0)
    assert sim.now == 5.0


def test_named_rng_streams_independent():
    a = Simulator(seed=7).rng("x").random()
    b = Simulator(seed=7).rng("x").random()
    c = Simulator(seed=7).rng("y").random()
    assert a == b
    assert a != c


def test_exceptions_propagate():
    sim = Simulator()

    def boom():
        raise RuntimeError("bad")

    sim.schedule(0.0, boom)
    with pytest.raises(RuntimeError):
        sim.run_until_idle()


def test_run_until_predicate_timeout_with_empty_queue_advances_clock():
    sim = Simulator()
    assert not sim.run_until_predicate(lambda: False, timeout=5.0)
    assert sim.now == 5.0


def test_run_until_predicate_never_rewinds_clock():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run_until(10.0)
    assert sim.now == 10.0
    # A zero timeout checks the predicate without moving time at all...
    assert not sim.run_until_predicate(lambda: False, timeout=0.0)
    assert sim.now == 10.0
    # ...and a (misuse) negative timeout must not move time backwards.
    assert not sim.run_until_predicate(lambda: False, timeout=-3.0)
    assert sim.now == 10.0


def test_run_until_predicate_timeout_leaves_future_events_pending():
    sim = Simulator()
    fired = []
    sim.schedule(100.0, fired.append, "late")
    assert not sim.run_until_predicate(lambda: False, timeout=5.0)
    assert sim.now == 5.0
    assert not fired
    assert sim.pending_events == 1


def test_run_until_predicate_batches_predicate_calls():
    # Regression: the loop used to evaluate the predicate after *every*
    # event regardless of poll_events (the since_check counter was dead).
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    calls = {"n": 0}

    def predicate():
        calls["n"] += 1
        return False

    assert not sim.run_until_predicate(predicate, timeout=100.0, poll_events=5)
    # One up-front check, one per 5-event batch (10 events = 2 batches),
    # and one final check when the queue drains at the deadline.
    assert calls["n"] == 1 + 2 + 1


def test_run_until_predicate_poll_events_checks_at_batch_boundary():
    # With poll_events=4 a condition that becomes true at event 3 is only
    # observed at the batch boundary (event 4) — that is the documented
    # cost of batching an expensive predicate.
    sim = Simulator()
    state = {"count": 0}
    for i in range(10):
        sim.schedule(float(i + 1), state.__setitem__, "count", i + 1)
    assert sim.run_until_predicate(
        lambda: state["count"] >= 3, timeout=100.0, poll_events=4
    )
    assert state["count"] == 4
    assert sim.now == 4.0


def test_run_until_predicate_rejects_bad_poll_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run_until_predicate(lambda: True, timeout=1.0, poll_events=0)
