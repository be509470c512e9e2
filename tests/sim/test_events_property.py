"""Property tests: EventQueue vs a naive sorted-list model.

The queue is a binary heap with lazy cancellation and periodic
compaction; the model is a plain list of ``(time, key, event)`` tuples
ordered by ``min()`` — ``key`` is the tie-break key, which equals ``seq``
unless schedule fuzz is on, so the same model checks the fuzzed orders
too.  Any sequence of push/cancel/pop/pop_due/peek operations must be
observationally identical between the two — including pushes earlier
than already-popped times, duplicate times (tie-break), cancels of
already-popped events, and compaction rebuilds.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue

_TIMES = st.integers(0, 2000).map(lambda i: i / 8.0)
_OPS = st.lists(
    st.sampled_from(["push", "push", "push", "pop", "pop_due", "cancel", "peek"]),
    min_size=1,
    max_size=200,
)


def _noop():  # events are never fired by these tests
    raise AssertionError("queue tests never run callbacks")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_event_queue_matches_sorted_model(data):
    queue = EventQueue()
    model = []  # live (time, key, event) tuples; min() is the next pop
    created = []  # every event ever pushed, for cancel-after-pop ops

    for op in data.draw(_OPS):
        if op == "push":
            t = data.draw(_TIMES)
            event = queue.push(t, _noop, ())
            model.append((t, event.key, event))
            created.append((t, event.key, event))
        elif op == "cancel" and created:
            # May hit a live, already-popped, or already-cancelled event;
            # all must be safe and only the live case changes the queue.
            entry = created[data.draw(st.integers(0, len(created) - 1))]
            entry[2].cancel()
            if entry in model:
                model.remove(entry)
        elif op == "pop":
            expected = min(model) if model else None
            got = queue.pop()
            if expected is None:
                assert got is None
            else:
                assert got is expected[2]
                model.remove(expected)
        elif op == "pop_due":
            limit = data.draw(_TIMES)
            due = [entry for entry in model if entry[0] <= limit]
            expected = min(due) if due else None
            got = queue.pop_due(limit)
            if expected is None:
                assert got is None
            else:
                assert got is expected[2]
                model.remove(expected)
        elif op == "peek":
            expected = min(model)[0] if model else None
            assert queue.peek_time() == expected
        assert len(queue) == len(model)

    # Drain: the tail must come out in exact (time, key) order.
    drained = []
    while True:
        event = queue.pop()
        if event is None:
            break
        drained.append(event)
    assert drained == [entry[2] for entry in sorted(model)]
    assert len(queue) == 0
    assert queue.peek_time() is None


def test_event_queue_compaction_matches_model():
    # Long seeded run with a heavy cancel mix: drives _dead past the
    # compaction threshold many times so the rebuild path itself is
    # exercised, which short hypothesis sequences rarely reach.
    rng = random.Random(42)
    queue = EventQueue()
    model = []
    for _ in range(6000):
        r = rng.random()
        if r < 0.5 or not model:
            t = rng.randrange(0, 20000) / 8.0
            event = queue.push(t, _noop, ())
            model.append((t, event.key, event))
        elif r < 0.85:
            entry = model.pop(rng.randrange(len(model)))
            entry[2].cancel()
        else:
            expected = min(model)
            assert queue.pop() is expected[2]
            model.remove(expected)
        assert len(queue) == len(model)
    # ~1800 cancels happened while the live size stayed ~1000, so only
    # compaction can have kept the dead count under its trigger bound.
    assert queue._dead < 64 or queue._dead * 2 < len(queue._heap)
    drained = []
    while True:
        event = queue.pop()
        if event is None:
            break
        drained.append(event)
    assert drained == [entry[2] for entry in sorted(model)]
