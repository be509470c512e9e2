"""Schedule fuzz: seeded perturbation of same-timestamp event ordering.

The runtime half of repro-race: ``REPRO_SCHEDULE_FUZZ=shuffle|reverse``
replaces the FIFO tie-break among equal-time events with a seeded
pseudo-random (or reversed) one.  These tests pin the contract: the
perturbation is deterministic per seed, touches *only* ties, and the
calendar and heap engines observe the identical perturbed order.
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


def _same_time_order(mode, seed, count=12, num_slots=None):
    with checks.configure(fuzz=mode, fuzz_seed=seed):
        queue = EventQueue() if num_slots is None else EventQueue(num_slots=num_slots)
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


def test_heap_and_calendar_engines_agree_under_fuzz():
    # The tie key is part of the stored entry, so the calendar-fronted
    # queue and the plain heap must produce the identical perturbed order.
    schedule = [(0.001 * (i % 5), i) for i in range(40)]  # dense ties
    for seed in range(3):
        orders = []
        for num_slots in (None, 0):
            with checks.configure(fuzz="shuffle", fuzz_seed=seed):
                queue = (
                    EventQueue() if num_slots is None else EventQueue(num_slots=0)
                )
            for t, tag in schedule:
                queue.push(t, lambda: None, (tag,))
            orders.append(_drain(queue))
        assert orders[0] == orders[1], f"engines diverge under shuffle seed {seed}"


def test_mode_captured_at_queue_construction():
    with checks.configure(fuzz="reverse"):
        queue = EventQueue()
    # Mode changes after construction must not affect an existing queue.
    for i in range(4):
        queue.push(1.0, lambda: None, (i,))
    assert _drain(queue) == [3, 2, 1, 0]


def test_zero_delay_push_while_draining_is_not_lost():
    # Regression for the cursor-slot insort clamp: once a slot is sorted
    # and partially consumed, a same-timestamp push may draw a shuffled
    # tie key *below* an already-fired entry's.  An unclamped insort
    # buries such an entry behind the cursor and the event never fires.
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
        # Identity, not count: the unclamped-insort failure mode fires the
        # already-consumed entry a second time in place of the lost push,
        # so a bare length check would not catch it.
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
