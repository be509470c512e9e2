"""Schedule fuzz: seeded perturbation of same-timestamp event ordering.

The only check that no code depends on the FIFO tie-break:
``REPRO_SCHEDULE_FUZZ=shuffle|reverse`` replaces it among equal-time
events with a seeded pseudo-random (or reversed) one.  These tests pin the contract: the
perturbation is deterministic per seed, touches *only* ties, and loses
no event.
"""

from repro import checks
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator


def _drain(queue):
    tags = []
    while True:
        event = queue.pop()
        if event is None:
            return tags
        tags.append(event.args[0])


def _same_time_order(mode, seed, count=12):
    with checks.configure(fuzz=mode, fuzz_seed=seed):
        queue = EventQueue()
    for i in range(count):
        queue.push(1.0, lambda: None, (i,))
    return _drain(queue)


def test_off_is_fifo():
    assert _same_time_order("off", 0) == list(range(12))


def test_reverse_is_lifo():
    assert _same_time_order("reverse", 0) == list(reversed(range(12)))


def test_shuffle_is_a_nontrivial_permutation():
    order = _same_time_order("shuffle", 1)
    assert sorted(order) == list(range(12))
    assert order != list(range(12))
    assert order != list(reversed(range(12)))


def test_shuffle_is_deterministic_per_seed():
    assert _same_time_order("shuffle", 7) == _same_time_order("shuffle", 7)


def test_shuffle_seeds_select_different_orders():
    orders = {tuple(_same_time_order("shuffle", seed)) for seed in range(4)}
    assert len(orders) > 1


def test_distinct_times_unaffected_by_fuzz():
    times = [5.0, 1.0, 3.0, 2.0, 4.0]
    for mode, seed in (("off", 0), ("shuffle", 3), ("reverse", 0)):
        with checks.configure(fuzz=mode, fuzz_seed=seed):
            queue = EventQueue()
        for t in times:
            queue.push(t, lambda: None, (t,))
        assert _drain(queue) == sorted(times), mode


def test_mode_captured_at_queue_construction():
    with checks.configure(fuzz="reverse"):
        queue = EventQueue()
    # Mode changes after construction must not affect an existing queue.
    for i in range(4):
        queue.push(1.0, lambda: None, (i,))
    assert _drain(queue) == [3, 2, 1, 0]


def test_zero_delay_push_while_draining_is_not_lost():
    # Once a timestamp is partially drained, a same-timestamp push may
    # draw a shuffled tie key *below* an already-fired entry's; it must
    # still fire, exactly once, and the rest in tie-key order.
    hazard_exercised = False
    for seed in range(8):
        with checks.configure(fuzz="shuffle", fuzz_seed=seed):
            queue = EventQueue()
        first = [queue.push(1.0, lambda: None, ("a", i)) for i in range(3)]
        fired = [queue.pop()]
        consumed_key = fired[0].key
        late = [queue.push(1.0, lambda: None, ("b", i)) for i in range(6)]
        if any(event.key < consumed_key for event in late):
            hazard_exercised = True
        while True:
            event = queue.pop()
            if event is None:
                break
            fired.append(event)
        # Identity, not count: a queue that fires a consumed entry a
        # second time in place of a lost push keeps the length right.
        tags = sorted(e.args for e in fired)
        expected = sorted(e.args for e in first + late)
        assert tags == expected, f"lost/duplicated events under shuffle seed {seed}"
        keys = [e.key for e in fired[1:]]
        assert keys == sorted(keys), "unconsumed suffix left unsorted"
    assert hazard_exercised, "no seed produced a below-cursor tie key"


def test_simulator_time_order_preserved_under_fuzz():
    for mode, seed in (("shuffle", 2), ("reverse", 0)):
        with checks.configure(fuzz=mode, fuzz_seed=seed):
            sim = Simulator(seed=9)
        seen = []
        for i in range(50):
            sim.schedule(float(i % 7) * 0.5, seen.append, i)
        sim.run_until_idle()
        # Time order is sacred; only ties within a timestamp may move.
        times = {i: float(i % 7) * 0.5 for i in range(50)}
        fired_times = [times[i] for i in seen]
        assert fired_times == sorted(fired_times)
        assert sorted(seen) == list(range(50))
