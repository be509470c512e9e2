"""Tests for the synthetic backbone flow generator."""

import math

import pytest

from repro.net.topology import ABILENE_SITES, GEANT_SITES, backbone_sites
from repro.traffic.generator import BackboneTrafficGenerator, TrafficConfig, poisson, window_index
from repro.traffic.prefixes import prefix16_of

import random


def make_gen(seed=0, **kwargs):
    return BackboneTrafficGenerator(backbone_sites(), TrafficConfig(seed=seed, **kwargs))


def test_poisson_zero_lambda():
    assert poisson(random.Random(0), 0.0) == 0


def test_poisson_mean_small_lambda():
    rng = random.Random(1)
    samples = [poisson(rng, 5.0) for _ in range(2000)]
    assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.1)


def test_poisson_mean_large_lambda():
    rng = random.Random(2)
    samples = [poisson(rng, 200.0) for _ in range(500)]
    assert sum(samples) / len(samples) == pytest.approx(200.0, rel=0.05)


def test_windows_are_deterministic():
    a = make_gen(seed=5).flows_for_window("CHIN", 0, 3600.0, 30.0)
    b = make_gen(seed=5).flows_for_window("CHIN", 0, 3600.0, 30.0)
    assert a == b


def test_different_seeds_differ():
    a = make_gen(seed=5).flows_for_window("CHIN", 0, 3600.0, 30.0)
    b = make_gen(seed=6).flows_for_window("CHIN", 0, 3600.0, 30.0)
    assert a != b


def test_flow_timestamps_within_window():
    gen = make_gen()
    flows = gen.flows_for_window("NYCM", 2, 7200.0, 30.0)
    base = 2 * 86400.0 + 7200.0
    assert flows
    for f in flows:
        assert base <= f.start < base + 30.0
        assert f.monitor == "NYCM"


def test_diurnal_rate_peaks_in_afternoon():
    gen = make_gen()
    assert gen.rate_at("CHIN", 14.5 * 3600, 0) > 1.5 * gen.rate_at("CHIN", 2.5 * 3600, 0)


def test_abilene_emits_more_than_geant():
    # Sampling-rate asymmetry: Abilene (1/100) exports more sampled flows
    # than GÉANT (1/1000).
    gen = make_gen(seed=8)
    abilene = sum(len(gen.flows_for_window("CHIN", 0, t * 30.0, 30.0)) for t in range(40))
    geant = sum(len(gen.flows_for_window("DE-Frankfurt", 0, t * 30.0, 30.0)) for t in range(40))
    assert abilene > 1.5 * geant


def test_addresses_come_from_network_pools():
    gen = make_gen()
    flows = gen.flows_for_window("CHIN", 0, 43200.0, 30.0)
    pool_bases = {p.base for p in gen.pools["abilene"].prefixes} | {
        p.base for p in gen.pools["geant"].prefixes
    }
    for f in flows:
        assert prefix16_of(f.src_addr) in pool_bases


def test_generate_iterates_all_monitors():
    gen = make_gen()
    batches = list(gen.generate(day=0, start_s=0.0, duration_s=60.0, window_s=30.0))
    assert len(batches) == 2 * 34


def test_fractional_windows_draw_distinct_streams():
    # 0.5 // 0.1 is 4.0, so a floor-derived index once gave the windows at
    # 0.4 s and 0.5 s one seed, and a running sum of 0.1 s drifted off the
    # grid.
    gen = make_gen(seed=3, flows_per_second=1000.0)
    batches = list(gen.generate(0, 0.0, 1.0, 0.1, monitors=["CHIN"]))
    assert len(batches) == 10
    draws = [tuple((f.src_addr, f.dst_addr, f.dst_port, f.octets) for f in b) for b in batches]
    assert all(draws)
    assert len(set(draws)) == 10
    assert batches == [gen.flows_for_window("CHIN", 0, i * 0.1, 0.1) for i in range(10)]


def test_window_index_is_exact_on_the_grid():
    assert [window_index(i * 0.1, 0.1) for i in range(2000)] == list(range(2000))
    assert window_index(0.3, 0.1) == 3
    assert window_index(3600.0, 30.0) == 120
    # A start off the grid falls in the window that holds it.
    assert window_index(3615.0, 30.0) == 120
    assert window_index(3629.9, 30.0) == 120


def test_day_rates_are_similar_but_not_identical():
    gen = make_gen()
    r0 = gen.rate_at("CHIN", 43200.0, 0)
    r1 = gen.rate_at("CHIN", 43200.0, 1)
    assert r0 != r1
    assert abs(r0 - r1) / r0 < 0.25


def test_empty_sites_rejected():
    with pytest.raises(ValueError):
        BackboneTrafficGenerator([], TrafficConfig())
