"""Event objects and the time-ordered event queue.

Events fire in ``(time, key)`` order, where ``key`` is the insertion
sequence number unless schedule fuzz is on (see below), so two events
scheduled for the same instant fire in the order they were scheduled.
Cancellation is lazy: a cancelled event stays queued but is skipped when
popped, which keeps cancellation O(1) and avoids heap surgery.  The queue
still reports its *live* length — cancelled-but-unpopped timers are
excluded — so quiescence checks and progress logs aren't inflated by
lazily-cancelled events.

Two things keep the per-event constant small enough for ~10^7-event runs:

* **Tuple-backed ordering.**  The heap stores ``(time, key, event)``
  triples with unique keys, so every comparison is C-speed tuple
  comparison and never reaches the :class:`Event` objects.
* **Heap compaction.**  Million-timer churn runs cancel most of what they
  schedule (per-attempt watchdogs, heartbeats of crashed nodes).  When at
  least half of the stored entries are dead the queue rebuilds itself,
  dropping them in one O(n) pass instead of paying O(dead) on every pop.

Schedule fuzzing (the tie-order sanitizer)
------------------------------------------
FIFO tie-breaking among same-timestamp events is a *simulator* guarantee,
not one the deployed WAN makes: concurrent messages arrive in arbitrary
order.  ``REPRO_SCHEDULE_FUZZ=shuffle`` (or ``reverse``) replaces the
``seq`` component of every stored entry with a seeded *tie key* — a
bijective mix of ``seq`` under ``shuffle``, ``-seq`` under ``reverse`` —
so equal-time events fire in a perturbed but fully deterministic order.
Events at distinct times are unaffected, and ``REPRO_SCHEDULE_FUZZ_SEED``
selects among shuffle orders.  Handlers whose outcome changes under fuzz
depend on insertion order; no static rule looks for that, so this is
the only check of it.  The mode and seed are the ``fuzz``/``fuzz_seed``
fields of :mod:`repro.checks`, captured per :class:`EventQueue` at
construction; tests wrap simulator construction in
``checks.configure(fuzz=..., fuzz_seed=...)``.
"""

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro import checks
from repro.checks import FUZZ_OFF, FUZZ_REVERSE

_INF = float("inf")

_M64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a bijection on 64-bit ints.

    Bijectivity is what makes the shuffled tie keys collision-free for
    distinct ``seq`` values, so the total order stays strict and tuple
    comparisons never fall through to the :class:`Event` objects.
    """
    value = (value + 0x9E3779B97F4A7C15) & _M64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _M64
    return value ^ (value >> 31)


def schedule_fuzz_mode() -> str:
    """The fuzz mode new :class:`EventQueue`\\ s will capture."""
    return checks.active.fuzz


def _tie_key_fn(mode: str, seed: int) -> Optional[Callable[[int], int]]:
    """The ``seq -> tie key`` map for ``mode``, or ``None`` for identity."""
    if mode == FUZZ_OFF:
        return None
    if mode == FUZZ_REVERSE:
        return int.__neg__
    salt = _mix64(seed & _M64)
    return lambda seq: _mix64(seq ^ salt)


#: Compaction trigger: rebuild when at least this many entries are dead
#: *and* they make up at least half of everything stored.
_COMPACT_MIN_DEAD = 64


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Simulator.schedule`;
    user code only holds them to :meth:`cancel` a pending timer.
    """

    __slots__ = ("time", "key", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        key: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        queue: "EventQueue",
    ) -> None:
        self.time = time
        #: Tie-break key within a timestamp: the insertion sequence number
        #: normally, a seeded perturbation of it under ``REPRO_SCHEDULE_FUZZ``.
        self.key = key
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The queue still storing this event; ``None`` once popped, so a
        #: cancel after firing leaves the queue's dead count alone.
        self._queue: Optional["EventQueue"] = queue

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"


class EventQueue:
    """Binary heap of :class:`Event` with stable ordering."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        #: ``seq -> tie key`` under schedule fuzz, ``None`` when off.
        #: Captured once so the per-push cost of the off mode is a single
        #: ``is None`` test.
        self._tie_key = _tie_key_fn(checks.active.fuzz, checks.active.fuzz_seed)
        #: Cancelled entries still stored awaiting lazy removal.
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return len(self._heap) - self._dead

    def _note_cancelled(self) -> None:
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 >= len(self._heap):
            heap = self._heap
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapify(heap)
            self._dead = 0

    def push(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]) -> Event:
        seq = next(self._counter)
        tie = self._tie_key
        key = seq if tie is None else tie(seq)
        event = Event(time, key, callback, args, self)
        heappush(self._heap, (time, key, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        return self.pop_due(_INF)

    def pop_due(self, limit: float) -> Optional[Event]:
        """Pop the earliest live event with ``time <= limit``, else ``None``."""
        heap = self._heap
        while heap:
            if heap[0][0] > limit:
                return None
            event = heappop(heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            event._queue = None
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry[0]
            heappop(heap)
            self._dead -= 1
        return None
