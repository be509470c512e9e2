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
from math import asin, sin, sqrt
from typing import Dict, Mapping, Tuple

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


#: A site's haversine terms: latitude and longitude in radians, and the
#: cosine of the latitude.
SiteTerms = Tuple[float, float, float]


def _terms(site: Site) -> SiteTerms:
    """The per-site half of the haversine, computed once per site."""
    lat = math.radians(site.latitude)
    return (lat, math.radians(site.longitude), math.cos(lat))


def _haversine_km(a: SiteTerms, b: SiteTerms) -> float:
    """Great-circle distance in kilometres between two sites' terms.

    The one haversine: :func:`great_circle_km` and the network's
    per-message latency class both go through it, so they agree bit for
    bit.
    """
    lat1, lon1, cos1 = a
    lat2, lon2, cos2 = b
    h = sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) / 2.0) ** 2
    root = sqrt(h)
    return 2.0 * EARTH_RADIUS_KM * asin(root if root < 1.0 else 1.0)


def great_circle_km(a: Site, b: Site) -> float:
    """Great-circle distance between two sites in kilometres (haversine)."""
    return _haversine_km(_terms(a), _terms(b))


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

    def site_terms(self, sites: Mapping[str, Site]) -> Dict[str, SiteTerms]:
        """Each address's :data:`SiteTerms`, computed once per site.

        Addresses that share one :class:`Site` object share one tuple, so
        a caller tells co-located endpoints (the LAN case) apart by
        identity, as it would the sites themselves.
        """
        by_site = {id(site): _terms(site) for site in sites.values()}
        return {address: by_site[id(site)] for address, site in sites.items()}

    def wan_propagation_s(self, src: SiteTerms, dst: SiteTerms) -> float:
        """Deterministic propagation component between two sites' terms.

        The network calls this once per WAN message rather than keeping a
        value per link, so its state grows with sites, not with pairs.
        """
        return _haversine_km(src, dst) * ROUTE_FACTOR / FIBER_KM_PER_S

    def propagation_s(self, src: Site, dst: Site) -> float:
        """Deterministic propagation component of the one-way delay."""
        return self.wan_propagation_s(_terms(src), _terms(dst))

    def one_way_s(self, src: Site, dst: Site, rng: random.Random) -> float:
        """Sample a one-way delay for a message from ``src`` to ``dst``."""
        propagation = self.propagation_s(src, dst)
        jitter = rng.lognormvariate(0.0, self.jitter_sigma)
        delay = self.base_s + propagation * jitter
        if rng.random() < self.pathology_prob:
            delay += self.pathology_scale_s * rng.paretovariate(PATHOLOGY_ALPHA)
        return delay
