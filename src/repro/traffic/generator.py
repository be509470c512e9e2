"""Synthetic backbone NetFlow generator.

Each monitor (backbone router) emits sampled flow records window by window.
Window contents are derived from a seed keyed on (master seed, monitor,
day, window index), so any window of any day can be regenerated
independently and identically — the property the daily-versioned
experiments rely on.

Distributional knobs and what they reproduce:

* ``zipf_s`` prefix popularity     -> storage skew (Figures 2, 13)
* log-normal flow sizes            -> alpha-flow tail (Figure 17)
* diurnal rate + stable daily mix  -> low day-to-day, high hour-to-hour
                                      mismatch (Figure 3)
* per-network sampling rates       -> Abilene injects more tuples than
                                      GÉANT (Figure 12's imbalance)

The order in which a window draws from its stream is a contract: every
flow, aggregate, index record and mindbench ``sim_digest`` depends on it.
:meth:`BackboneTrafficGenerator.flows_for_window` spells the draws out
for speed, and ``tests/traffic/test_generator_oracle.py`` pins them, flow
for flow, to the plain one-call-per-draw loop kept in ``tests/oracles.py``.
"""

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net.topology import Site
from repro.sim.randomness import derive_seed
from repro.traffic.flows import FlowRecord
from repro.traffic.prefixes import PrefixPool

#: Well-known destination ports, most popular first.
COMMON_PORTS = [80, 443, 25, 53, 110, 21, 22, 119, 3306, 6667, 8080, 1433]

#: Relative flow-record rate by network — the ratio of the paper's packet
#: sampling rates (Abilene 1/100 vs GÉANT 1/1000) shows up directly in how
#: many sampled flow records each monitor exports.
NETWORK_RATE_FACTOR = {"abilene": 1.0, "geant": 0.35, "planetlab": 1.0}


def window_index(window_start_s: float, window_s: float) -> int:
    """The index of the window that starts at ``window_start_s``.

    A start that is a grid point up to float rounding gets that point's
    index: ``0.5 // 0.1`` is 4.0, since the double nearest 0.1 is a
    little above it, but the window at 0.5 is window 5.  Any other start
    falls in window ``floor(window_start_s / window_s)``.
    """
    nearest = round(window_start_s / window_s)
    if abs(window_start_s - nearest * window_s) <= 1e-9 * window_s:
        return nearest
    return int(window_start_s // window_s)


def poisson(rng: random.Random, lam: float) -> int:
    """Poisson sample; Knuth for small lambda, normal approx otherwise."""
    if lam <= 0:
        return 0
    if lam > 30.0:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


@dataclass
class TrafficConfig:
    """Knobs of the synthetic workload."""

    seed: int = 0
    #: Mean sampled flow records per second per monitor at the diurnal mean.
    flows_per_second: float = 1.2
    diurnal_amplitude: float = 0.45
    peak_time_s: float = 14.5 * 3600.0
    #: Day-to-day multiplicative drift of the overall rate (stationarity
    #: is approximate, not exact — Figure 3 shows ~10-20% daily mismatch).
    day_jitter: float = 0.08
    prefixes_per_network: int = 192
    zipf_s: float = 1.25
    #: Log-normal sampled flow size (bytes).
    size_mu: float = 8.2
    size_sigma: float = 1.9
    #: Fraction of flows that are short connection attempts (tiny flows
    #: contributing to fanout rather than volume).
    short_flow_fraction: float = 0.35
    #: Fraction of a monitor's sources drawn from its "home" prefix slice —
    #: the spatial locality that makes traffic differ across monitors.
    home_bias: float = 0.6


class BackboneTrafficGenerator:
    """Generates sampled flows for a set of backbone monitor sites."""

    def __init__(
        self,
        sites: Sequence[Site],
        config: Optional[TrafficConfig] = None,
        anomalies: Sequence = (),
    ) -> None:
        if not sites:
            raise ValueError("need at least one monitor site")
        self.sites = list(sites)
        self.config = config or TrafficConfig()
        self.anomalies = list(anomalies)
        cfg = self.config
        self.pools: Dict[str, PrefixPool] = {}
        first_octets = {"abilene": 128, "geant": 62, "planetlab": 192}
        for network in sorted({site.network for site in self.sites}):
            octet = first_octets.get(network, 100)
            self.pools[network] = PrefixPool(octet, cfg.prefixes_per_network, cfg.zipf_s)
        # Each monitor owns a slice of its network's prefixes as "home".
        by_network: Dict[str, List[Site]] = {}
        for site in self.sites:
            by_network.setdefault(site.network, []).append(site)
        self._home_slices: Dict[str, List[int]] = {}
        for network, members in by_network.items():
            pool = self.pools[network]
            per = max(1, len(pool) // len(members))
            for i, site in enumerate(sorted(members, key=lambda s: s.name)):
                lo = (i * per) % len(pool)
                self._home_slices[site.name] = list(range(lo, min(lo + per, len(pool))))
        self._sites_by_name = {site.name: site for site in self.sites}
        self._drift: Tuple[Optional[int], float] = (None, 0.0)

    # ------------------------------------------------------------------
    # Rate model
    # ------------------------------------------------------------------
    def rate_at(self, monitor: str, time_of_day_s: float, day: int) -> float:
        """Mean sampled flows/second for one monitor at one instant."""
        cfg = self.config
        site = self._sites_by_name[monitor]
        diurnal = 1.0 + cfg.diurnal_amplitude * math.cos(
            2.0 * math.pi * (time_of_day_s - cfg.peak_time_s) / 86400.0
        )
        factor = NETWORK_RATE_FACTOR.get(site.network, 1.0)
        return cfg.flows_per_second * diurnal * self._day_drift(day) * factor

    def _day_drift(self, day: int) -> float:
        """The day's multiplicative rate drift, drawn once per day.

        Generation runs day by day, so the last day's draw is all there is
        to keep.
        """
        memo_day, drift = self._drift
        if memo_day != day:
            day_rng = random.Random(derive_seed(self.config.seed, f"day.{day}"))
            drift = 1.0 + self.config.day_jitter * (2.0 * day_rng.random() - 1.0)
            self._drift = (day, drift)
        return drift

    # ------------------------------------------------------------------
    # Flow generation
    # ------------------------------------------------------------------
    def _window_rng(self, monitor: str, day: int, window_index: int) -> random.Random:
        return random.Random(derive_seed(self.config.seed, f"{monitor}.{day}.{window_index}"))

    def flows_for_window(
        self, monitor: str, day: int, window_start_s: float, window_s: float
    ) -> List[FlowRecord]:
        """All sampled flows one monitor exports for one time window.

        ``window_start_s`` is the time-of-day of the window start; the
        absolute timestamp of emitted flows is ``day*86400 + offset``.

        Per flow, the draws from the window's stream come in this order
        (the contract of the module docstring): source prefix (home slice
        or Zipf), destination prefix, source host, destination host, port,
        size, start offset.  ``_randbelow`` stands in for the
        ``randrange``/``randint``/``choice`` calls that wrap it, and the
        ``paretovariate(1.0)`` and ``lognormvariate`` formulas are inline.
        """
        cfg = self.config
        site = self._sites_by_name[monitor]
        pool = self.pools[site.network]
        rng = self._window_rng(monitor, day, window_index(window_start_s, window_s))
        lam = self.rate_at(monitor, window_start_s + window_s / 2.0, day) * window_s
        count = poisson(rng, lam)
        base_t = day * 86400.0 + window_start_s
        home = self._home_slices[monitor]

        rand = rng.random
        randbelow = rng._randbelow
        pick_index = pool.pick_index
        bases = pool.bases
        spans = pool.spans
        n_home = len(home)
        home_bias = cfg.home_bias
        short_fraction = cfg.short_flow_fraction
        mu, sigma = cfg.size_mu, cfg.size_sigma
        nv_magic = random.NV_MAGICCONST
        last_port = len(COMMON_PORTS) - 1
        flows = []
        for _ in range(count):
            if rand() < home_bias:
                src_i = home[randbelow(n_home)]
            else:
                src_i = pick_index(rand())
            dst_i = pick_index(rand())
            src = bases[src_i] + randbelow(spans[src_i])
            dst = bases[dst_i] + randbelow(spans[dst_i])
            # Zipf-ish over common ports with a tail of ephemeral high ports.
            if rand() < 0.85:
                port = COMMON_PORTS[min(int((1.0 - rand()) ** -1.0) - 1, last_port)]
            else:
                port = 1024 + randbelow(64512)
            if rand() < short_fraction:
                octets = 40 + randbelow(1461)
                packets = max(1, octets // 600)
            else:
                # random.normalvariate (Kinderman-Monahan), then exp.
                while True:
                    u1 = rand()
                    u2 = 1.0 - rand()
                    z = nv_magic * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -math.log(u2):
                        break
                octets = max(40, int(math.exp(mu + z * sigma)))
                packets = max(1, octets // 1000)
            flows.append(
                FlowRecord(monitor, base_t + rand() * window_s, src, dst, port, 6, octets, packets)
            )
        for event in self.anomalies:
            flows.extend(event.flows_for_window(monitor, day, window_start_s, window_s, rng))
        return flows

    def generate(
        self,
        day: int,
        start_s: float = 0.0,
        duration_s: float = 86400.0,
        window_s: float = 30.0,
        monitors: Optional[Sequence[str]] = None,
    ) -> Iterator[List[FlowRecord]]:
        """Yield per-(window, monitor) flow batches across a time span.

        Window ``i`` starts at ``start_s + i * window_s``: a product, not
        a running sum, so a fractional width does not drift off its grid.
        """
        names = list(monitors) if monitors else [s.name for s in self.sites]
        end = start_s + duration_s - 1e-9
        i = 0
        while (t := start_s + i * window_s) < end:
            for name in names:
                yield self.flows_for_window(name, day, t, window_s)
            i += 1
