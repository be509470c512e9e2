"""Resource-lifecycle ledger: the runtime half of repro-leak.

The lifecycle lint (:mod:`repro.analysis.lifecycle_lint`) proves
statically that every per-op table has a removal path; this module
proves dynamically that the paths actually run.  With
``REPRO_TRACK_RESOURCES=1`` every Simulator constructed afterwards
carries a :class:`ResourceLedger`; instrumented sites register each
pending-op record, watchdog, or per-node table entry at creation and
release it on every exit path.  At quiescence — the end of
``run_until_idle`` or an explicit ``MindCluster.close()`` — the ledger
must be empty; a leak raises :class:`ResourceLeakError` with a
named-owner diff (``category owner xN``), so the failing table and key
are in the traceback, not just "memory grew".

Tracking is off by default: the ledger costs a dict write per op on the
hot path, so the perf runner refuses timed runs with it enabled (like
the isolation and schedule-fuzz sanitizers).  The tests enable it
suite-wide via a conftest fixture.

It is the ``track_resources`` field of :mod:`repro.checks`, captured at
Simulator construction: only simulators created inside a
``checks.configure(track_resources=True)`` block (or with the variable
set) carry a ledger.  Instrumented sites cache the (possibly ``None``)
ledger once and guard each register/release with ``if ledger is not
None`` — the tracking-off cost is one attribute load and an identity
test.
"""

from typing import Dict, List, Tuple

from repro import checks


def tracking_enabled() -> bool:
    """True when newly constructed simulators will carry a ledger."""
    return checks.active.track_resources


class ResourceLeakError(AssertionError):
    """The ledger was not empty at a quiescence checkpoint."""


class ResourceLedger:
    """Counts live resources keyed by ``(category, owner)``.

    ``category`` names the resource class (``"op:insert"``,
    ``"net:call-wheel"``, ...) and ``owner`` the holder (a node address,
    a callback name) — together they name the leaking table entry in the
    quiescence diff.  Multiple registrations of the same pair are
    counted, so N leaked entries show as ``xN`` rather than hiding
    behind set semantics.
    """

    def __init__(self) -> None:
        self._live: Dict[Tuple[str, str], int] = {}

    def register(self, category: str, owner: str) -> None:
        key = (category, owner)
        self._live[key] = self._live.get(key, 0) + 1

    def release(self, category: str, owner: str) -> None:
        """Release one registration; strict — a double release raises.

        Release-without-register is itself a lifecycle bug (a removal
        path running twice, or against state it never created), so the
        ledger refuses to go negative instead of masking it.
        """
        key = (category, owner)
        count = self._live.get(key, 0)
        if count <= 0:
            raise ResourceLeakError(
                f"release without matching register: {category} {owner!r}"
            )
        if count == 1:
            del self._live[key]
        else:
            self._live[key] = count - 1

    def live(self) -> int:
        """Total live registrations (the soak test's bound)."""
        return sum(self._live.values())

    def snapshot(self) -> List[Tuple[str, str, int]]:
        """Sorted ``(category, owner, count)`` rows of everything live."""
        return sorted(
            (category, owner, count)
            for (category, owner), count in self._live.items()
        )

    def assert_quiescent(self, context: str) -> None:
        """Raise :class:`ResourceLeakError` unless the ledger is empty."""
        if not self._live:
            return
        rows = [
            f"  {category} {owner!r} x{count}"
            for category, owner, count in self.snapshot()
        ]
        raise ResourceLeakError(
            f"{context}: {self.live()} resource(s) still live at "
            "quiescence:\n" + "\n".join(rows)
        )
