"""Unit tests for sites, distances and the latency model."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checks import configure
from repro.net.latency import (
    EARTH_RADIUS_KM,
    FIBER_KM_PER_S,
    ROUTE_FACTOR,
    LatencyModel,
    great_circle_km,
)
from repro.net.message import HEADER_BYTES
from repro.net.network import SimNetwork
from repro.net.topology import (
    ABILENE_SITES,
    GEANT_SITES,
    Site,
    backbone_sites,
    sites_by_name,
    synthetic_planetlab_sites,
)
from repro.sim.kernel import Simulator


def site(name, lat, lon, network="test"):
    return Site(name, lat, lon, network)


def test_backbone_site_counts():
    assert len(ABILENE_SITES) == 11
    assert len(GEANT_SITES) == 23
    assert len(backbone_sites()) == 34


def test_site_names_unique():
    names = [s.name for s in backbone_sites()]
    assert len(set(names)) == len(names)


def test_sites_by_name_rejects_duplicates():
    a = site("X", 0, 0)
    with pytest.raises(ValueError):
        sites_by_name([a, a])


def test_great_circle_known_distance():
    nyc = site("NYC", 40.713, -74.006)
    la = site("LA", 34.052, -118.244)
    d = great_circle_km(nyc, la)
    assert 3800 < d < 4100  # ~3,936 km


def test_great_circle_zero_for_same_point():
    a = site("A", 50.0, 8.0)
    b = site("B", 50.0, 8.0)
    assert great_circle_km(a, b) == pytest.approx(0.0, abs=1e-6)


def test_latency_scales_with_distance():
    model = LatencyModel(jitter_sigma=0.0, pathology_prob=0.0)
    rng = random.Random(0)
    near = model.one_way_s(site("A", 40.0, -74.0), site("B", 41.0, -74.0), rng)
    far = model.one_way_s(site("A", 40.0, -74.0), site("C", 34.0, -118.0), rng)
    assert far > near
    # Transatlantic one-way should be tens of milliseconds.
    eu = model.one_way_s(site("A", 40.7, -74.0), site("D", 51.5, -0.1), rng)
    assert 0.02 < eu < 0.1


def test_latency_jitter_varies():
    model = LatencyModel(pathology_prob=0.0)
    rng = random.Random(1)
    a, b = site("A", 40.0, -74.0), site("B", 48.0, 2.0)
    samples = {model.one_way_s(a, b, rng) for _ in range(10)}
    assert len(samples) == 10


def test_pathology_adds_heavy_tail():
    model = LatencyModel(pathology_prob=1.0, pathology_scale_s=0.5)
    rng = random.Random(2)
    a, b = site("A", 40.0, -74.0), site("B", 41.0, -74.0)
    assert model.one_way_s(a, b, rng) > 0.5


def test_invalid_pathology_prob():
    with pytest.raises(ValueError):
        LatencyModel(pathology_prob=1.5)


def test_synthetic_sites():
    rng = random.Random(3)
    sites = synthetic_planetlab_sites(102, rng)
    assert len(sites) == 102
    assert len({s.name for s in sites}) == 102
    assert all(s.network == "planetlab" for s in sites)
    regions = {s.name.rsplit("-", 1)[-1] for s in sites}
    assert regions == {"eu", "no"} or regions  # NA and EU tags present


def test_synthetic_sites_negative_count():
    with pytest.raises(ValueError):
        synthetic_planetlab_sites(-1, random.Random(0))


# ----------------------------------------------------------------------
# The per-site latency class is bit-identical to the per-pair formula
# ----------------------------------------------------------------------


def _pairwise_km(a, b):
    """The haversine as it read when each link computed its own class
    from two Site objects: the reference the per-site terms must match."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    h = math.sin((lat2 - lat1) / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(
        (lon2 - lon1) / 2.0
    ) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _assert_per_site_path_exact(sites):
    model = LatencyModel()
    terms = model.site_terms({s.name: s for s in sites})
    for a in sites:
        for b in sites:
            expected = _pairwise_km(a, b) * ROUTE_FACTOR / FIBER_KM_PER_S
            got = model.wan_propagation_s(terms[a.name], terms[b.name])
            assert got == expected, (a, b, got, expected)
            assert great_circle_km(a, b) * ROUTE_FACTOR / FIBER_KM_PER_S == expected


def test_per_site_propagation_exact_on_every_planetlab_pair():
    _assert_per_site_path_exact(synthetic_planetlab_sites(256, random.Random(1)))


def test_per_site_propagation_exact_on_every_backbone_pair():
    _assert_per_site_path_exact(backbone_sites())


_LAT = st.one_of(st.sampled_from([-90.0, 90.0, 0.0]), st.floats(-90.0, 90.0))
_LON = st.one_of(st.sampled_from([-180.0, 180.0, 179.999, -179.999, 0.0]), st.floats(-180.0, 180.0))


@settings(max_examples=300, deadline=None)
@given(lat1=_LAT, lon1=_LON, lat2=_LAT, lon2=_LON, same=st.booleans())
@example(lat1=90.0, lon1=0.0, lat2=-90.0, lon2=0.0, same=False)  # pole to pole
@example(lat1=10.0, lon1=179.9, lat2=10.0, lon2=-179.9, same=False)  # antimeridian
@example(lat1=45.0, lon1=-180.0, lat2=45.0, lon2=180.0, same=False)  # one meridian, two names
def test_per_site_propagation_exact_anywhere(lat1, lon1, lat2, lon2, same):
    if same:
        lat2, lon2 = lat1, lon1
    _assert_per_site_path_exact([site("A", lat1, lon1), site("B", lat2, lon2)])


def _first_delay(sites, src, dst, model):
    """Total delay of the first message on ``src -> dst`` (an idle link)."""
    with configure(validate=False):
        sim = Simulator(seed=4)
        net = SimNetwork(sim, sites, latency_model=model, record_links=True)
        for address in {src, dst}:
            net.register(address, lambda m: None)
        net.send(src, dst, "x", size_bytes=100)
        sim.run_until_idle()
    return net.link_stats[(src, dst)].delay_samples[0][1]


def test_network_delay_uses_the_per_site_class():
    # Jitter sigma 0 draws exactly 1.0, so the WAN delay is transmission
    # plus base plus the propagation term, to the bit.
    model = LatencyModel(jitter_sigma=0.0, pathology_prob=0.0)
    sites = {s.name: s for s in backbone_sites()}
    transmission = (100 + HEADER_BYTES) * 8.0 / 10e6
    for src, dst in (("ATLA", "CHIN"), ("CHIN", "ATLA"), ("NYCM", "UK-London")):
        expected = transmission + (model.base_s + model.propagation_s(sites[src], sites[dst]) * 1.0)
        assert _first_delay(sites, src, dst, model) == expected


def test_lan_fallback_for_missing_or_shared_sites():
    model = LatencyModel(pathology_prob=0.0)
    here, there = site("H", 40.0, -74.0), site("T", 51.5, -0.1)
    lan = (0.0005, 0.0015)  # LAN draw plus this message's transmission
    # A site missing on either side.
    for sites in ({"a": here}, {"b": here}, {}):
        assert lan[0] <= _first_delay(sites, "a", "b", model) < lan[1]
    # One Site object shared by two addresses is one machine room.
    assert lan[0] <= _first_delay({"a": here, "b": here}, "a", "b", model) < lan[1]
    # Two distinct Site objects, even at one point, are a WAN pair.
    twin = site("H2", 40.0, -74.0)
    assert _first_delay({"a": here, "b": twin}, "a", "b", model) >= model.base_s
    assert _first_delay({"a": here, "b": there}, "a", "b", model) > 0.02
