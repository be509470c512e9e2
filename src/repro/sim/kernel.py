"""The discrete-event simulation kernel.

A :class:`Simulator` owns the virtual clock and the event queue.  Components
schedule callbacks with :meth:`Simulator.schedule` (or in bulk with
:meth:`Simulator.schedule_many`); the driver advances time with
:meth:`run_until` or :meth:`run_until_idle`.

Design notes
------------
* Time is a float number of **seconds** of virtual time.
* Callbacks run to completion; there is no preemption.  Long computations in
  a callback cost zero virtual time unless the component models a service
  time explicitly (the storage DAC and node CPU models do).
* Exceptions raised by callbacks abort the run: errors should never pass
  silently in an experiment.
* The event queue is one binary heap (see :mod:`repro.sim.events`).
  With delivery coalescing on, the network's slot wheel
  (:meth:`repro.net.network.SimNetwork.call_in_slot`) bins near-future
  message work in front of it.
* The runtime checks (:mod:`repro.checks`) are captured here, at
  construction: the queue takes the schedule-fuzz tie-break, the
  simulator the resource ledger.
"""

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro import checks
from repro.sim.events import Event, EventQueue
from repro.sim.randomness import RandomStreams
from repro.sim.resources import ResourceLedger


class SimulationError(RuntimeError):
    """Raised for kernel misuse, e.g. scheduling in the past."""


class Simulator:
    """Virtual clock plus event queue plus named random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.streams = RandomStreams(seed)
        self._queue = EventQueue()
        self._events_processed = 0
        #: Resource-lifecycle ledger (repro-leak runtime half); ``None``
        #: unless ``track_resources`` was armed at construction.
        self.resources: Optional[ResourceLedger] = (
            ResourceLedger() if checks.active.track_resources else None
        )
        #: Unchecked fast-path scheduler for per-message hot paths:
        #: ``push_at(time, callback, args_tuple)`` with no past-time
        #: validation and no ``*args`` repacking.  Callers must guarantee
        #: ``time >= now`` by construction (delivery/service completion
        #: times always are).
        self.push_at = self._queue.push

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} (now is {self.now:.6f})"
            )
        return self._queue.push(time, callback, args)

    def schedule_many(
        self, items: Iterable[Tuple[float, Callable[..., Any], Tuple[Any, ...]]]
    ) -> List[Event]:
        """Schedule a batch of ``(at_time, callback, args)`` items at once.

        The bulk path for workload replay: one call validates and enqueues
        the whole batch, amortizing the per-event scheduling overhead that
        dominates million-record experiment setup.  Times are absolute
        virtual times (as in :meth:`schedule_at`).
        """
        now = self.now
        batch = list(items)
        for time, _, _ in batch:
            if time < now:
                raise SimulationError(
                    f"cannot schedule at t={time:.6f} (now is {now:.6f})"
                )
        push = self._queue.push
        return [push(time, callback, args) for time, callback, args in batch]

    def rng(self, name: str):
        """Return the named deterministic random stream."""
        return self.streams.stream(name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue returned an event from the past")
        self.now = event.time
        self._events_processed += 1
        event.callback(*event.args)
        return True

    def run_until(self, time: float) -> None:
        """Advance the clock to ``time``, running every event due before it."""
        if time < self.now:
            raise SimulationError(f"cannot run backwards to t={time:.6f}")
        pop_due = self._queue.pop_due
        while True:
            event = pop_due(time)
            if event is None:
                break
            self.now = event.time
            self._events_processed += 1
            event.callback(*event.args)
        self.now = time

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain; returns the number of events run.

        An empty queue is the kernel's quiescence point: nothing can run
        again without outside input, so with resource tracking enabled
        every pending op and per-node table entry must have been
        reclaimed — a non-empty ledger here raises with a named diff.
        """
        ran = 0
        while self.step():
            ran += 1
            if max_events is not None and ran >= max_events:
                raise SimulationError(
                    f"simulation did not quiesce within {max_events} events"
                )
        if self.resources is not None:
            self.resources.assert_quiescent("run_until_idle")
        return ran

    def run_until_predicate(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        poll_events: int = 1,
    ) -> bool:
        """Run events until ``predicate()`` is true or ``timeout`` elapses.

        Returns ``True`` if the predicate became true, ``False`` on timeout.
        The predicate is checked once up front, then after every
        ``poll_events`` processed events — an expensive predicate (e.g. a
        full-cluster scan) really does run only every ``poll_events``
        events, not per event.  Timeout semantics are exact regardless of
        ``poll_events``: no event past the deadline ever runs, and the
        clock never rewinds (a non-positive timeout must not move time
        backwards).
        """
        if poll_events < 1:
            raise SimulationError("poll_events must be at least 1")
        deadline = self.now + timeout
        if predicate():
            return True
        since_check = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > deadline:
                # Let the remaining timeout elapse, but never rewind the
                # clock.
                self.now = max(self.now, deadline)
                return predicate()
            self.step()
            since_check += 1
            if since_check >= poll_events:
                since_check = 0
                if predicate():
                    return True
