"""Latency model for the simulated wide-area network.

One-way delay between two sites is modeled as::

    base + distance / (c * fiber_factor) + jitter [+ pathology]

where ``base`` covers last-mile and per-hop router latency, the propagation
term uses great-circle distance over fiber (light in fiber travels at about
two thirds of c, and real paths are longer than great circles), ``jitter``
is log-normal, and ``pathology`` is an occasional heavy-tailed extra delay
reproducing the overloaded-PlanetLab-node behaviour the paper repeatedly
observed ("the performance of paths that we can attribute to the
experimental nature of the PlanetLab testbed").
"""

import math
import random

from repro.net.topology import Site

EARTH_RADIUS_KM = 6371.0
#: Effective signal speed in fiber, km per second (2/3 c), further reduced
#: by a route-inflation factor folded into :data:`ROUTE_FACTOR`.
FIBER_KM_PER_S = 200_000.0
#: Real paths are not great circles; 1.6 is a common empirical inflation.
ROUTE_FACTOR = 1.6
#: Pareto shape of a pathological event's extra delay.  At 1.5 the tail
#: has infinite variance: rare messages take tens of seconds.
PATHOLOGY_ALPHA = 1.5


def great_circle_km(a: Site, b: Site) -> float:
    """Great-circle distance between two sites in kilometres (haversine)."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


class LatencyModel:
    """Draw one-way delays between sites.

    Parameters
    ----------
    base_s:
        Fixed per-message overhead (OS, NIC, access links).
    jitter_sigma:
        Sigma of the log-normal multiplicative jitter on the propagation
        component.
    pathology_prob:
        Probability that a message hits a PlanetLab-style pathology (swapped
        out VM, overloaded host) and picks up a Pareto-tailed extra delay.
    pathology_scale_s:
        Minimum extra delay of a pathological event; the extra delay is
        Pareto with shape :data:`PATHOLOGY_ALPHA`.
    """

    def __init__(
        self,
        base_s: float = 0.004,
        jitter_sigma: float = 0.15,
        pathology_prob: float = 0.003,
        pathology_scale_s: float = 0.4,
    ) -> None:
        if not 0.0 <= pathology_prob <= 1.0:
            raise ValueError("pathology_prob must be a probability")
        self.base_s = base_s
        self.jitter_sigma = jitter_sigma
        self.pathology_prob = pathology_prob
        self.pathology_scale_s = pathology_scale_s

    def propagation_s(self, src: Site, dst: Site) -> float:
        """Deterministic propagation component of the one-way delay.

        Not memoised: the network computes it once per link and keeps it
        with the link (``SimNetwork._lk_prop``).
        """
        return great_circle_km(src, dst) * ROUTE_FACTOR / FIBER_KM_PER_S

    def one_way_s(self, src: Site, dst: Site, rng: random.Random) -> float:
        """Sample a one-way delay for a message from ``src`` to ``dst``."""
        propagation = self.propagation_s(src, dst)
        jitter = rng.lognormvariate(0.0, self.jitter_sigma)
        delay = self.base_s + propagation * jitter
        if rng.random() < self.pathology_prob:
            delay += self.pathology_scale_s * rng.paretovariate(PATHOLOGY_ALPHA)
        return delay
