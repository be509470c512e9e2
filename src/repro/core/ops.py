"""Originator-side op state, shared by MIND's protocols.

Every op a node starts — an insert, a query, a sibling fetch, a trigger
registration, a histogram collection — is an :class:`_Op` filed in the
node's one :class:`OpTable` under its op id.  Inserts and sub-query regions
walk a :class:`_RetryLadder`.
"""

from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.core.replication import failover_targets
from repro.overlay.code import Code

#: Wire size of one record (an insert, replica or trigger fire), and the
#: fixed part of a sub-query answer or sibling fetch carrying rows.
RECORD_WIRE_BYTES = 120
RESPONSE_BASE_BYTES = 150


class _RetryLadder:
    """The retry → backoff → failover walk of one routed request.

    Shared by inserts and sub-query regions: the current ``target`` — the
    primary code, then each replica-holder region from
    :func:`failover_targets` — gets up to ``retry_max_attempts`` routing
    attempts with exponential backoff before the walk moves on.  It is bound
    once to its scheduler, ``MindConfig`` and RNG, the ``launch(*key)`` that
    routes an attempt and the watchdog ``failed(*key, stamp)``; it touches
    no network, so it can be driven in isolation.
    """

    __slots__ = (
        "metric", "primary", "target", "attempts", "stamp", "inflight", "queue",
        "attempt_timer", "backoff_event", "schedule", "cfg", "rng", "launch", "failed", "key",
    )

    def __init__(
        self, metric, primary: Code, schedule, cfg, rng, launch, failed, key: Tuple, stamp: int = 0
    ) -> None:
        #: The op's metric; the ladder counts its ``retries``/``failovers``.
        self.metric = metric
        self.primary = self.target = primary
        #: Monotonic attempt stamp across targets; echoed by failure reports so
        #: stale failures from superseded attempts are discarded.  A non-zero
        #: initial stamp adopts an attempt somebody else already routed (a
        #: responder-spawned sub-query) as the target's first.
        self.stamp = stamp
        self.attempts = 1 if stamp else 0
        self.inflight = stamp > 0
        #: Replica-holder regions still to try; ``None`` until the primary
        #: is exhausted and they are enumerated (once).
        self.queue: Optional[List[Code]] = None
        self.attempt_timer: Any = None
        self.backoff_event: Any = None
        self.schedule, self.cfg, self.rng = schedule, cfg, rng
        self.launch, self.failed, self.key = launch, failed, key

    def open_attempt(self) -> int:
        """Open the next attempt on the current target; the caller routes it."""
        self.backoff_event = None
        self.attempts += 1
        self.stamp += 1
        self.inflight = True
        self.watch()
        return self.stamp

    def watch(self) -> None:
        """Arm the watchdog: ``failed(*key, stamp)`` unless answered first."""
        self.attempt_timer = self.schedule(
            self.cfg.attempt_timeout_s, self.failed, *self.key, self.stamp
        )

    def current(self, stamp: int) -> bool:
        """Is ``stamp`` the attempt in flight (not a superseded one)?"""
        return self.inflight and stamp == self.stamp

    def retry(self) -> bool:
        """The attempt in flight is dead: back off, then ``launch(*key)``;
        ``False`` once the current target has used up its attempts."""
        self.inflight = False
        if self.attempt_timer is not None:
            self.attempt_timer.cancel()
            self.attempt_timer = None
        cfg = self.cfg
        if self.attempts >= cfg.retry_max_attempts:
            return False
        self.metric.retries += 1
        # Exponential backoff (with a little jitter) before attempt N+1.
        base = min(cfg.retry_backoff_base_s * (2 ** (self.attempts - 1)), cfg.retry_backoff_max_s)
        self.backoff_event = self.schedule(
            base * (1.0 + 0.1 * self.rng.random()), self.launch, *self.key
        )
        return True

    def fail_over(self, replication: int, depth: Optional[int]) -> bool:
        """Move on to the next replica-holder region; ``False`` if none is left.

        ``depth`` estimates the owner's code length (:func:`failover_targets`);
        ``None`` — an originator outside the overlay has none — enumerates nothing.
        """
        if self.queue is None:
            self.queue = [] if depth is None else failover_targets(self.primary, replication, depth)
        if not self.queue:
            return False
        self.target = self.queue.pop(0)
        self.attempts = 0
        self.metric.failovers += 1
        return True

    def cancel(self) -> None:
        for event in (self.attempt_timer, self.backoff_event):
            if event is not None:
                event.cancel()
        self.attempt_timer = self.backoff_event = None


class _Op:
    """The lifecycle every originator-side op shares.

    :meth:`OpTable.open` files an op with a ``deadline`` (the cancel handle
    of the timer that ends it) and holds a ledger entry under ``tag``;
    :meth:`OpTable.close` undoes all three, and :meth:`OpTable.end` closes
    the op and calls :meth:`finish`.
    """

    tag: ClassVar[str]
    deadline: Any = None

    def finish(self, now: float) -> None:
        """Tell the caller how the closed op stands."""

    def crash(self, now: float) -> None:
        """The originator crashed with the op open: it finishes failed."""
        self.finish(now)


class OpTable(Dict[str, _Op]):
    """A node's open ops by id.  One counter mints every id, so kinds share
    the table without colliding."""

    def __init__(self, sim, address: str) -> None:
        super().__init__()
        self.sim = sim
        self.address = address
        #: Resource ledger (repro-leak quiescence sanitizer); ``None``
        #: when tracking is off.
        self._res = sim.resources

    def open(self, op_id: str, op: _Op, deadline) -> None:
        """Start an op: file it with its ``deadline`` handle, and hold a
        ledger entry for it."""
        op.deadline = deadline
        self[op_id] = op
        if self._res is not None:
            self._res.register(op.tag, self.address)

    def close(self, op_id: str) -> Optional[_Op]:
        """End an op on any exit path: pop it, cancel its deadline and
        release its ledger entry.  ``None`` if it was closed already."""
        op = self.pop(op_id, None)
        if op is not None:
            op.deadline.cancel()
            if self._res is not None:
                self._res.release(op.tag, self.address)
        return op

    def end(self, op_id: str, *args: Any) -> None:
        """Close an op and tell its caller how it stands (``args`` go to
        its :meth:`_Op.finish`); nothing if it was closed already."""
        op = self.close(op_id)
        if op is not None:
            op.finish(self.sim.now, *args)

    def crash(self) -> None:
        """Close every open op, each as a crash ends it (:meth:`_Op.crash`)."""
        for op_id in list(self):
            op = self.close(op_id)
            if op is not None:
                op.crash(self.sim.now)
