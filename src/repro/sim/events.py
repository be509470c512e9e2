"""Event objects and the time-ordered event queue.

Events compare by ``(time, sequence)`` so that two events scheduled for the
same instant fire in the order they were scheduled.  Cancellation is lazy:
a cancelled event stays queued but is skipped when popped, which keeps
cancellation O(1) and avoids heap surgery.  The queue still reports its
*live* length — cancelled-but-unpopped timers are excluded — so quiescence
checks and progress logs aren't inflated by lazily-cancelled events.

Scaling design (the 1k-node / 1M-record regime)
-----------------------------------------------
Three things keep the per-event constant small enough for ~10^7-event runs:

* **Tuple-backed ordering.**  The heap and the calendar slots store
  ``(time, key, event)`` triples (``key`` is ``seq`` unless schedule fuzz
  is on — see below), so every comparison is C-speed tuple comparison
  instead of a Python ``Event.__lt__`` call — the dominant cost of a
  large pure-``Event`` heap.
* **A slotted calendar queue in front of the heap.**  The overwhelming
  majority of events in a network simulation are near-future (message
  deliveries and service completions microseconds-to-seconds out).  Those
  land in a ring of time slots appended O(1); a slot is sorted once, when
  the cursor reaches it.  Far-future events (long timers) overflow to the
  binary heap.  Pop/peek take the minimum of the two heads, so ordering is
  *exactly* the global ``(time, key)`` order — seeded runs are
  byte-identical with the calendar on or off (``num_slots=0`` disables
  it; the queue-level model tests compare against that heap-only form).
* **Heap compaction.**  Million-timer churn runs cancel most of what they
  schedule (per-attempt watchdogs, heartbeats of crashed nodes).  When
  more than half of the stored entries are dead the queue rebuilds itself,
  dropping them in one O(n) pass instead of paying O(dead) on every pop.

Schedule fuzzing (the repro-race runtime sanitizer)
---------------------------------------------------
FIFO tie-breaking among same-timestamp events is a *simulator* guarantee,
not one the deployed WAN makes: concurrent messages arrive in arbitrary
order.  ``REPRO_SCHEDULE_FUZZ=shuffle`` (or ``reverse``) replaces the
``seq`` component of every stored entry with a seeded *tie key* — a
bijective mix of ``seq`` under ``shuffle``, ``-seq`` under ``reverse`` —
so equal-time events fire in a perturbed but fully deterministic order.
Events at distinct times are unaffected, the heap and the calendar see
the same keys (the two engines stay order-equivalent), and
``REPRO_SCHEDULE_FUZZ_SEED`` selects among shuffle orders.  Handlers
whose outcome changes under fuzz depend on insertion order — exactly the
latent races the ordering lint hunts statically.  The mode and seed are
the ``fuzz``/``fuzz_seed`` fields of :mod:`repro.checks`, captured per
:class:`EventQueue` at construction; tests wrap simulator construction
in ``checks.configure(fuzz=..., fuzz_seed=...)``.
"""

import heapq
import itertools
from bisect import insort
from typing import Any, Callable, ContextManager, Iterable, List, Optional, Tuple

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


def schedule_fuzz(mode: str, seed: Optional[int] = None) -> ContextManager:
    """Scope a fuzz mode: ``checks.configure(fuzz=mode, fuzz_seed=seed)``."""
    return checks.configure(fuzz=mode, fuzz_seed=seed)


def _tie_key_fn(mode: str, seed: int) -> Optional[Callable[[int], int]]:
    """The ``seq -> tie key`` map for ``mode``, or ``None`` for identity."""
    if mode == FUZZ_OFF:
        return None
    if mode == FUZZ_REVERSE:
        return int.__neg__
    salt = _mix64(seed & _M64)
    return lambda seq: _mix64(seq ^ salt)


#: Default near-future slot width in virtual seconds.  Message deliveries
#: and CPU service completions cluster well under this; a slot therefore
#: holds a handful of events and sorts in effectively constant time.  The
#: width is tuned to the dense regime (tens of thousands of events per
#: virtual second at the 1k-node scale tier): per-slot sorts are the
#: calendar's dominant cost and shrink with the slot, while the cursor's
#: empty-slot scan stays immaterial at any realistic density.
DEFAULT_SLOT_WIDTH = 0.001

#: Default number of calendar slots; with the default width the calendar
#: horizon is ``num_slots * slot_width`` ≈ 8 s, which captures message
#: deliveries and service completions.  Events beyond the horizon —
#: heartbeat and churn timers, mostly — go to the heap, whose traffic is
#: orders of magnitude lighter.
DEFAULT_NUM_SLOTS = 8192

#: Compaction trigger: rebuild when at least this many entries are dead
#: *and* they make up at least half of everything stored.
_COMPACT_MIN_DEAD = 64


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Simulator.schedule`;
    user code only holds them to :meth:`cancel` a pending timer.
    """

    __slots__ = ("time", "seq", "key", "callback", "args", "cancelled", "_queue", "_in_heap")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        queue: Optional["EventQueue"] = None,
        key: Optional[int] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        #: Tie-break key within a timestamp: ``seq`` normally, a seeded
        #: perturbation of it under ``REPRO_SCHEDULE_FUZZ``.
        self.key = seq if key is None else key
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue
        self._in_heap = queue is not None

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None and self._in_heap:
            self._queue._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.key) < (other.time, other.key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"


class EventQueue:
    """Calendar-queue-fronted heap of :class:`Event` with stable ordering.

    ``num_slots=0`` disables the calendar and degrades to the plain binary
    heap — same observable behavior; the queue-level model tests use it as
    the reference the calendar is compared against.
    """

    def __init__(
        self,
        slot_width: float = DEFAULT_SLOT_WIDTH,
        num_slots: int = DEFAULT_NUM_SLOTS,
    ) -> None:
        if slot_width <= 0:
            raise ValueError("slot_width must be positive")
        if num_slots < 0:
            raise ValueError("num_slots must be >= 0")
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        #: ``seq -> tie key`` under schedule fuzz, ``None`` when off.
        #: Captured once so the per-push cost of the off mode is a single
        #: ``is None`` test.
        self._tie_key = _tie_key_fn(checks.active.fuzz, checks.active.fuzz_seed)
        #: Entries stored anywhere (heap + calendar), including cancelled.
        self._size = 0
        #: Cancelled entries still stored awaiting lazy removal.
        self._dead = 0

        self._slot_width = slot_width
        self._num_slots = num_slots
        self._slots: List[List[Tuple[float, int, Event]]] = [
            [] for _ in range(num_slots)
        ]
        #: Entries currently stored in calendar slots (including cancelled).
        self._cal_size = 0
        #: Absolute slot number (``floor(time / slot_width)``) of the cursor.
        self._cur_slot = 0
        #: Next unconsumed position in the (sorted) current slot.
        self._cur_pos = 0
        #: Whether the current slot's bucket has been sorted yet.
        self._cur_sorted = False
        #: Cached reference to the cursor slot's bucket (``None`` when the
        #: cursor has moved and the bucket must be re-resolved).
        self._cur_bucket: Optional[List[Tuple[float, int, Event]]] = None

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return self._size - self._dead

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 >= self._size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild, dropping every cancelled entry in one pass.

        Live near-future entries migrate to the heap; the calendar
        repopulates from subsequent pushes.  Ordering is unaffected — pops
        always take the global ``(time, key)`` minimum of both structures.
        """
        live = [entry for entry in self._heap if not entry[2].cancelled]
        for dead in self._heap:
            if dead[2].cancelled:
                dead[2]._in_heap = False
        # Entries already consumed from the current (sorted) slot are
        # popped-but-not-yet-cleared; they must not be resurrected.
        cur_bucket = (
            self._slots[self._cur_slot % self._num_slots] if self._num_slots else None
        )
        consumed = self._cur_pos if self._cur_sorted else 0
        for bucket in self._slots:
            if not bucket:
                continue
            start = consumed if bucket is cur_bucket else 0
            for entry in bucket[start:]:
                if entry[2].cancelled:
                    entry[2]._in_heap = False
                else:
                    live.append(entry)
            del bucket[:]
        self._cur_pos = 0
        self._cur_sorted = False
        self._cur_bucket = None
        self._cal_size = 0
        heapq.heapify(live)
        self._heap = live
        self._size = len(live)
        self._dead = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def push(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]) -> Event:
        seq = next(self._counter)
        tie = self._tie_key
        key = seq if tie is None else tie(seq)
        event = Event(time, seq, callback, args, queue=self, key=key)
        entry = (time, key, event)
        # Near-future calendar insert, inlined from :meth:`_insert` — this
        # is the hottest allocation site of a large run.
        num_slots = self._num_slots
        if num_slots and self._cal_size:
            slot = int(time / self._slot_width)
            offset = slot - self._cur_slot
            if 0 <= offset < num_slots:
                self._size += 1
                bucket = self._slots[slot % num_slots]
                if offset == 0 and self._cur_sorted:
                    insort(bucket, entry, self._cur_pos)
                else:
                    bucket.append(entry)
                self._cal_size += 1
                return event
        self._insert(entry)
        return event

    def push_many(
        self, items: Iterable[Tuple[float, Callable[..., Any], Tuple[Any, ...]]]
    ) -> List[Event]:
        """Bulk :meth:`push`; one call amortizes the per-event overhead."""
        counter = self._counter
        tie = self._tie_key
        insert = self._insert
        events = []
        for time, callback, args in items:
            seq = next(counter)
            key = seq if tie is None else tie(seq)
            event = Event(time, seq, callback, args, queue=self, key=key)
            insert((time, key, event))
            events.append(event)
        return events

    def _insert(self, entry: Tuple[float, int, Event]) -> None:
        self._size += 1
        num_slots = self._num_slots
        if num_slots:
            slot = int(entry[0] / self._slot_width)
            cal_size = self._cal_size
            if cal_size:
                offset = slot - self._cur_slot
                if 0 <= offset < num_slots:
                    bucket = self._slots[slot % num_slots]
                    if offset == 0 and self._cur_sorted:
                        # The slot under the cursor is already sorted and
                        # partially consumed; keep the *unconsumed* suffix
                        # ordered.  ``lo=_cur_pos`` pins the insertion
                        # point past the consumed prefix: under schedule
                        # fuzz a zero-delay push can draw a tie key below
                        # an already-fired entry's, and an unclamped
                        # insort would bury it behind the cursor, losing
                        # the event.  (With fuzz off the clamp is a no-op:
                        # new entries always sort after consumed ones.)
                        insort(bucket, entry, self._cur_pos)
                    else:
                        bucket.append(entry)
                    self._cal_size = cal_size + 1
                    return
                # Past the cursor's slot (possible after an idle-period
                # jump) or beyond the horizon: the heap handles any time.
            else:
                # Empty calendar: re-anchor the cursor at this entry's
                # slot.  Pop order stays exact because pop/peek always
                # compare the calendar head against the heap head.
                self._cur_slot = slot
                self._cur_pos = 0
                self._cur_sorted = False
                bucket = self._slots[slot % num_slots]
                self._cur_bucket = bucket
                bucket.append(entry)
                self._cal_size = 1
                return
        heapq.heappush(self._heap, entry)

    # ------------------------------------------------------------------
    # Head access
    # ------------------------------------------------------------------
    def _cal_head(self) -> Optional[Tuple[float, int, Event]]:
        """The calendar's earliest live entry, advancing the cursor to it."""
        while self._cal_size:
            bucket = self._cur_bucket
            if bucket is None:
                bucket = self._slots[self._cur_slot % self._num_slots]
                self._cur_bucket = bucket
            if not self._cur_sorted:
                if not bucket:
                    self._cur_slot += 1
                    self._cur_bucket = None
                    continue
                bucket.sort()
                self._cur_sorted = True
                self._cur_pos = 0
            pos = self._cur_pos
            n = len(bucket)
            while pos < n:
                entry = bucket[pos]
                event = entry[2]
                if not event.cancelled:
                    self._cur_pos = pos
                    return entry
                event._in_heap = False
                self._dead -= 1
                self._size -= 1
                self._cal_size -= 1
                pos += 1
            del bucket[:]
            self._cur_sorted = False
            self._cur_pos = 0
            self._cur_slot += 1
            self._cur_bucket = None
        return None

    def _heap_head(self) -> Optional[Tuple[float, int, Event]]:
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry
            heapq.heappop(heap)
            entry[2]._in_heap = False
            self._dead -= 1
            self._size -= 1
        return None

    def _take(self, entry: Tuple[float, int, Event], from_calendar: bool) -> Event:
        if from_calendar:
            self._cur_pos += 1
            self._cal_size -= 1
            if not self._cal_size:
                # Scrub the consumed prefix now so a later re-anchor never
                # lands new entries in a bucket holding popped leftovers.
                del self._slots[self._cur_slot % self._num_slots][:]
                self._cur_pos = 0
                self._cur_sorted = False
        else:
            heapq.heappop(self._heap)
        self._size -= 1
        event = entry[2]
        event._in_heap = False
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        return self.pop_due(_INF)

    def pop_due(self, limit: float) -> Optional[Event]:
        """Pop the earliest live event with ``time <= limit``, else ``None``.

        The kernel's ``run_until`` hot path: the common case — cursor
        bucket sorted, its head live and not preempted by the heap — is
        fully inlined; everything else (cancelled heads, slot advances,
        heap wins) drops to :meth:`_pop_due_slow`.
        """
        bucket = self._cur_bucket
        if bucket is not None and self._cur_sorted:
            pos = self._cur_pos
            if pos < len(bucket):
                entry = bucket[pos]
                event = entry[2]
                if not event.cancelled:
                    heap = self._heap
                    if heap and heap[0] < entry:
                        return self._pop_due_slow(limit)
                    if entry[0] > limit:
                        return None
                    self._cur_pos = pos + 1
                    self._cal_size -= 1
                    self._size -= 1
                    if not self._cal_size:
                        # Mirror _take: scrub the consumed prefix so a
                        # later re-anchor never lands new entries in a
                        # bucket holding popped leftovers.
                        del bucket[:]
                        self._cur_pos = 0
                        self._cur_sorted = False
                    event._in_heap = False
                    return event
        return self._pop_due_slow(limit)

    def _pop_due_slow(self, limit: float) -> Optional[Event]:
        cal = self._cal_head() if self._num_slots else None
        top = self._heap_head()
        if cal is None:
            if top is None or top[0] > limit:
                return None
            return self._take(top, False)
        if top is None or cal < top:
            if cal[0] > limit:
                return None
            return self._take(cal, True)
        if top[0] > limit:
            return None
        return self._take(top, False)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        cal = self._cal_head() if self._num_slots else None
        top = self._heap_head()
        if cal is None:
            return top[0] if top is not None else None
        if top is None or cal < top:
            return cal[0]
        return top[0]
