"""Injectable traffic anomalies with exact ground truth.

Three event types match the anomaly classes of Lakhina et al. that the
paper replays in Section 5: alpha flows (unusually large point-to-point
volume), DoS attacks (many sources hammering one destination) and port
scans (one source probing many hosts in a destination prefix).

Every event knows which monitors observed it (the route of the anomalous
traffic through the backbone — the paper's Figure 17 lists exactly these
router sets for its two DoS flows) and can generate its sampled flows for
any window, deterministically.
"""

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.traffic.flows import FlowRecord
from repro.traffic.prefixes import Prefix


@dataclass(frozen=True)
class AnomalyEvent:
    """Common shape of an injected anomaly."""

    name: str
    start: float            # absolute time (day*86400 + time-of-day)
    duration: float
    src_prefix: Prefix
    dst_prefix: Prefix
    monitors: Tuple[str, ...]

    def active_in(self, day: int, window_start_s: float, window_s: float) -> bool:
        t0 = day * 86400.0 + window_start_s
        return t0 < self.start + self.duration and self.start < t0 + window_s

    def flows_for_window(
        self, monitor: str, day: int, window_start_s: float, window_s: float, rng: random.Random
    ) -> List[FlowRecord]:
        if monitor not in self.monitors or not self.active_in(day, window_start_s, window_s):
            return []
        return self._emit(monitor, day * 86400.0 + window_start_s, window_s, rng)

    def _emit(self, monitor: str, t0: float, window_s: float, rng: random.Random) -> List[FlowRecord]:
        raise NotImplementedError


@dataclass(frozen=True)
class AlphaFlowEvent(AnomalyEvent):
    """A high-volume point-to-point flow (detected via Index-2 octets)."""

    octets_per_window: int = 6_000_000

    def _emit(self, monitor, t0, window_s, rng):
        src = self.src_prefix.base + 1
        dst = self.dst_prefix.base + 1
        pieces = 4
        return [
            FlowRecord(
                monitor=monitor,
                start=t0 + (i + rng.random()) * window_s / pieces,
                src_addr=src,
                dst_addr=dst,
                dst_port=80,
                protocol=6,
                octets=self.octets_per_window // pieces,
                packets=self.octets_per_window // pieces // 1000,
            )
            for i in range(pieces)
        ]


@dataclass(frozen=True)
class DoSEvent(AnomalyEvent):
    """Many (spoofed) sources flooding one destination host.

    Produces a large *fanout* of short connection attempts from the source
    prefix to the destination prefix (detected via Index-1).
    """

    attempts_per_window: int = 2500

    def _emit(self, monitor, t0, window_s, rng):
        dst = self.dst_prefix.base + 7
        flows = []
        for _ in range(self.attempts_per_window):
            src = self.src_prefix.random_host(rng)
            flows.append(
                FlowRecord(
                    monitor=monitor,
                    start=t0 + rng.random() * window_s,
                    src_addr=src,
                    dst_addr=dst,
                    dst_port=80,
                    protocol=6,
                    octets=rng.randint(40, 120),
                    packets=1,
                )
            )
        return flows


@dataclass(frozen=True)
class PortScanEvent(AnomalyEvent):
    """One source probing many hosts of a destination prefix (Index-1)."""

    attempts_per_window: int = 2000
    dst_port: int = 3306

    def _emit(self, monitor, t0, window_s, rng):
        src = self.src_prefix.base + 13
        flows = []
        for _ in range(self.attempts_per_window):
            dst = self.dst_prefix.random_host(rng)
            flows.append(
                FlowRecord(
                    monitor=monitor,
                    start=t0 + rng.random() * window_s,
                    src_addr=src,
                    dst_addr=dst,
                    dst_port=self.dst_port,
                    protocol=6,
                    octets=rng.randint(40, 80),
                    packets=1,
                )
            )
        return flows
