"""Calendar-queue edge cases: slot boundaries, cursor-slot mutation, drains.

The calendar front is an *ordering-transparent* accelerator: every test
here asserts the same observable sequence with the calendar on and off
(``num_slots=0``), under the default FIFO tie-break pinned explicitly so
the assertions hold in a schedule-fuzzed suite run too.
"""

from repro import checks
from repro.sim.events import DEFAULT_SLOT_WIDTH, EventQueue


def _pair(**kwargs):
    """A calendar-fronted queue and a plain-heap queue, fuzz pinned off."""
    with checks.configure(fuzz="off"):
        return EventQueue(**kwargs), EventQueue(num_slots=0)


def _drain(queue):
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append((event.time, event.seq))


def test_slot_boundary_times_keep_global_order():
    # Times at exact slot-width multiples sit on bucket boundaries; the
    # (time, key) order must be unaffected by which bucket they land in.
    cal, heap = _pair()
    w = DEFAULT_SLOT_WIDTH
    times = [0.0, w, w, 2 * w, w / 2, 3 * w, 2 * w, w]
    for t in times:
        cal.push(t, lambda: None, ())
        heap.push(t, lambda: None, ())
    got_cal, got_heap = _drain(cal), _drain(heap)
    assert got_cal == got_heap
    assert got_cal == sorted(got_cal)


def test_cancel_in_cursor_slot_during_drain():
    # Cancel entries of the *current* (sorted, partially consumed) slot
    # between pops: the live remainder must still come out in order and
    # the live length must track exactly.
    cal, heap = _pair()
    events_cal = [cal.push(1.0, lambda: None, (i,)) for i in range(6)]
    events_heap = [heap.push(1.0, lambda: None, (i,)) for i in range(6)]
    assert cal.pop().args == heap.pop().args == (0,)
    # Now the calendar cursor sits inside a sorted slot; cancel ahead.
    for ev in (events_cal[2], events_cal[4]):
        ev.cancel()
    for ev in (events_heap[2], events_heap[4]):
        ev.cancel()
    assert len(cal) == len(heap) == 3
    assert [e.args[0] for e in iter(cal.pop, None)] == [1, 3, 5]
    assert [e.args[0] for e in iter(heap.pop, None)] == [1, 3, 5]
    assert len(cal) == 0 and cal.pop() is None


def test_push_into_sorted_cursor_slot_mid_drain():
    # A zero-delay push lands in the slot the cursor is consuming; with
    # FIFO keys it must fire after everything already scheduled there,
    # exactly as in the heap engine.
    cal, heap = _pair()
    for q in (cal, heap):
        for i in range(4):
            q.push(1.0, lambda: None, (i,))
    assert cal.pop().args == heap.pop().args == (0,)
    cal.push(1.0, lambda: None, (99,))
    heap.push(1.0, lambda: None, (99,))
    assert [e.args[0] for e in iter(cal.pop, None)] == [1, 2, 3, 99]
    assert [e.args[0] for e in iter(heap.pop, None)] == [1, 2, 3, 99]


def test_far_future_overflow_and_idle_jump_reanchor():
    # Events beyond the calendar horizon overflow to the heap; after the
    # near-future entries drain, the cursor re-anchors on the next push
    # and ordering across the jump stays exact.
    cal, heap = _pair(num_slots=8)
    w = DEFAULT_SLOT_WIDTH
    for q in (cal, heap):
        q.push(2 * w, lambda: None, ("near",))
        q.push(1e6, lambda: None, ("far",))
    assert cal.pop().args == heap.pop().args == ("near",)
    # Idle jump: the next near-future push re-anchors far from slot 0.
    for q in (cal, heap):
        q.push(5000.0, lambda: None, ("later",))
    assert [e.args[0] for e in iter(cal.pop, None)] == ["later", "far"]
    assert [e.args[0] for e in iter(heap.pop, None)] == ["later", "far"]


def test_push_behind_cursor_goes_to_heap_not_lost():
    # After the cursor advances past a slot, a push for an earlier time
    # (allowed by EventQueue even if the kernel forbids it) must fall
    # back to the heap and still pop first.
    cal, _ = _pair()
    w = DEFAULT_SLOT_WIDTH
    cal.push(10 * w, lambda: None, ("late",))
    assert cal.pop().args == ("late",)
    cal.push(10 * w, lambda: None, ("same-slot",))
    cal.push(2 * w, lambda: None, ("behind",))
    assert [e.args[0] for e in iter(cal.pop, None)] == ["behind", "same-slot"]


def test_interleaved_cancel_push_pop_matches_heap():
    # A deterministic stress mix over both engines: pushes clustered on
    # few timestamps (ties), interleaved cancels (including entries in
    # the cursor slot), and periodic pops.
    cal, heap = _pair(num_slots=16)
    live = ([], [])
    script = [(i * 37 % 11, i) for i in range(120)]
    out = ([], [])
    for step, (slot, i) in enumerate(script):
        t = slot * DEFAULT_SLOT_WIDTH
        for k, q in enumerate((cal, heap)):
            live[k].append(q.push(t, lambda: None, (i,)))
        if step % 5 == 4:
            for k in (0, 1):
                live[k][(step * 13) % len(live[k])].cancel()
        if step % 7 == 6:
            for k, q in enumerate((cal, heap)):
                ev = q.pop()
                if ev is not None:
                    out[k].append((ev.time, ev.seq))
        assert len(cal) == len(heap)
    out[0].extend(_drain(cal))
    out[1].extend(_drain(heap))
    assert out[0] == out[1]
