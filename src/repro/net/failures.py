"""Failure injection: transient link outages and node churn.

The paper observes two failure classes on PlanetLab:

* **transient overlay link failures** ("presumably caused by transient
  routing failures in the underlying network") that heal after reconnect
  attempts — modeled as timed link outages, and
* **node failures / rejoins** (the 102-node experiment ran with 70-102 live
  nodes) — modeled as crash and restore events, optionally as a stationary
  churn process.
"""

from typing import Callable, List, Optional, Tuple

from repro.net.network import SimNetwork
from repro.sim.kernel import Simulator

NodeHook = Callable[[str], None]


class FailureInjector:
    """Schedules failures against a :class:`SimNetwork`.

    Node crash/restore also invoke optional hooks so that the cluster driver
    can tell the node object itself to stop or resume processing.
    """

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        on_crash: Optional[NodeHook] = None,
        on_restore: Optional[NodeHook] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.on_crash = on_crash
        self.on_restore = on_restore
        self._rng = sim.rng("failures")
        self.crash_log: List[Tuple[float, str, str]] = []
        self._churn_event = None
        #: Bumped on every (re)start/stop; in-flight ticks from an older
        #: generation see the mismatch and die instead of re-scheduling.
        self._churn_generation = 0

    # ------------------------------------------------------------------
    # Direct injection
    # ------------------------------------------------------------------
    def link_outage(self, a: str, b: str, start_in_s: float, duration_s: float) -> None:
        """Take the (bidirectional) link a<->b down for ``duration_s``."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.sim.schedule(start_in_s, self.network.set_link_down, a, b, duration_s)

    def crash_node(self, address: str, at_in_s: float = 0.0) -> None:
        self.sim.schedule(at_in_s, self._do_crash, address)

    def restore_node(self, address: str, at_in_s: float) -> None:
        self.sim.schedule(at_in_s, self._do_restore, address)

    def crash_and_restore(self, address: str, at_in_s: float, downtime_s: float) -> None:
        self.crash_node(address, at_in_s)
        self.restore_node(address, at_in_s + downtime_s)

    # ------------------------------------------------------------------
    # Stationary churn (large-scale experiment)
    # ------------------------------------------------------------------
    def start_churn(
        self,
        addresses: List[str],
        mean_uptime_s: float,
        mean_downtime_s: float,
        min_live: int,
    ) -> None:
        """Randomly crash/restore nodes from ``addresses``.

        Exponential up/down times; never drives the live population below
        ``min_live`` (the paper's experiment floated between 70 and 102 live
        nodes out of 102).
        """
        if min_live < 1:
            raise ValueError("min_live must be at least 1")
        # Idempotent: a second start replaces the running process instead
        # of stacking a second tick loop (which would double the churn
        # rate and leave one loop uncancellable forever).
        self.stop_churn()
        self._churn_addresses = list(addresses)
        self._churn_mean_up = mean_uptime_s
        self._churn_mean_down = mean_downtime_s
        self._churn_min_live = min_live
        self._churn_event = self.sim.schedule(
            self._rng.expovariate(1.0 / mean_uptime_s), self._churn_tick, self._churn_generation
        )

    def stop_churn(self) -> None:
        """Cancel the churn process; crashed nodes still get their restores."""
        self._churn_generation += 1
        if self._churn_event is not None:
            self._churn_event.cancel()
            self._churn_event = None

    @property
    def churn_active(self) -> bool:
        return self._churn_event is not None

    def _churn_tick(self, generation: int) -> None:
        if generation != self._churn_generation:
            return
        live = [a for a in self._churn_addresses if self.network.is_node_up(a)]
        if len(live) > self._churn_min_live:
            victim = self._rng.choice(live)
            downtime = self._rng.expovariate(1.0 / self._churn_mean_down)
            self._do_crash(victim)
            self.sim.schedule(downtime, self._do_restore, victim)
        self._churn_event = self.sim.schedule(
            self._rng.expovariate(1.0 / self._churn_mean_up), self._churn_tick, generation
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _do_crash(self, address: str) -> None:
        if not self.network.is_node_up(address):
            return
        self.network.set_node_up(address, False)
        # repro-lint: ignore[leak-unbounded-growth] experiment log for churn summaries, bounded by the churn duration
        self.crash_log.append((self.sim.now, address, "crash"))
        if self.on_crash is not None:
            self.on_crash(address)

    def _do_restore(self, address: str) -> None:
        if self.network.is_node_up(address):
            return
        self.network.set_node_up(address, True)
        self.crash_log.append((self.sim.now, address, "restore"))
        if self.on_restore is not None:
            self.on_restore(address)
