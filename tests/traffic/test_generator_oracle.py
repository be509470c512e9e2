"""The traffic pipeline equals its plain per-call loops, record for record.

``BackboneTrafficGenerator.flows_for_window`` spells its draws out
(``_randbelow`` for ``randrange``/``randint``/``choice``, the
``paretovariate(1.0)`` and ``lognormvariate`` formulas inline, a bisected
Zipf pick, one drift draw per day) and ``aggregate_flows`` keys each flow
once.  Both must draw the same ``random.Random`` stream and build the
same records as the loops they replaced, kept in ``tests.oracles``:
every flow, aggregate and index record, and through them every
mindbench ``sim_digest``, depends on it.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workload import timed_index_records
from repro.net.topology import backbone_sites
from repro.traffic.aggregation import AggregationConfig, aggregate_flows
from repro.traffic.datasets import abilene_generator, baseline_generator, lakhina_anomalies
from repro.traffic.flows import FlowRecord
from repro.traffic.generator import BackboneTrafficGenerator, TrafficConfig
from repro.traffic.prefixes import PrefixPool
from tests.oracles import (
    aggregate_flows_loop,
    flows_for_window_loop,
    generate_loop,
    pick_loop,
    rate_at_loop,
    timed_index_records_loop,
)

#: Two Abilene and two GÉANT monitors.
MONITORS = ("CHIN", "NYCM", "DE-Frankfurt", "UK-London")

#: The digest of rebalance_day's smoke-size inputs (seed 1, both days),
#: recorded with the per-call loop before it was unrolled.
REBALANCE_SMOKE_INPUTS = "d476237547ad5a7c"


def timed_rows(timed):
    """What a timed record carries apart from its process-wide key."""
    return [
        (t.at, t.origin, t.index, t.record.values, sorted(t.record.payload.items()))
        for t in timed
    ]


def inputs_digest(days):
    h = hashlib.sha256()
    for timed in days:
        for row in timed_rows(timed):
            h.update(repr(row).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("day", [0, 1, 2])
def test_windows_equal_the_loop(seed, day):
    gen = BackboneTrafficGenerator(backbone_sites(), TrafficConfig(seed=seed))
    for monitor in MONITORS:
        # Night and peak rates, and a start off the window grid.
        for start in (7200.0, 3615.0, 52200.0):
            got = gen.flows_for_window(monitor, day, start, 30.0)
            assert got == flows_for_window_loop(gen, monitor, day, start, 30.0)
            assert all(type(f) is FlowRecord for f in got)


def test_both_poisson_branches_equal_the_loop():
    # lambda > 30 takes poisson's normal approximation; GÉANT's night
    # rate stays under it.
    gen = BackboneTrafficGenerator(backbone_sites(), TrafficConfig(seed=4, flows_per_second=3.0))
    lams = {
        (monitor, start): gen.rate_at(monitor, start + 15.0, 0) * 30.0
        for monitor, start in (("CHIN", 52200.0), ("UK-London", 7200.0))
    }
    assert lams[("CHIN", 52200.0)] > 30.0 >= lams[("UK-London", 7200.0)]
    for monitor, start in lams:
        got = gen.flows_for_window(monitor, 0, start, 30.0)
        assert got
        assert got == flows_for_window_loop(gen, monitor, 0, start, 30.0)


def test_day_drift_equals_a_fresh_draw_per_call():
    gen = BackboneTrafficGenerator(backbone_sites(), TrafficConfig(seed=9))
    for day in (0, 1, 2, 0):
        for monitor in MONITORS:
            assert gen.rate_at(monitor, 43200.0, day) == rate_at_loop(gen, monitor, 43200.0, day)


def test_anomaly_windows_equal_the_loop():
    gen = abilene_generator(seed=2)
    gen.anomalies.extend(lakhina_anomalies(gen))
    kinds = set()
    # 13:30 alpha flows; 19:50 two DoS and a scan; 19:55 DoS bursts.
    for start in (48600.0, 48630.0, 71400.0, 71460.0, 71700.0):
        for monitor in ("CHIN", "IPLS", "NYCM", "DNVR"):
            got = gen.flows_for_window(monitor, 0, start, 30.0)
            assert got == flows_for_window_loop(gen, monitor, 0, start, 30.0)
            kinds.update(
                type(e).__name__ for e in gen.anomalies
                if monitor in e.monitors and e.active_in(0, start, 30.0)
            )
    assert kinds == {"AlphaFlowEvent", "DoSEvent", "PortScanEvent"}


def test_generate_equals_the_loop():
    gen = baseline_generator(config=TrafficConfig(seed=1, flows_per_second=3.0))
    got = list(gen.generate(1, 39600.0, 90.0, 30.0, monitors=MONITORS))
    assert got == list(generate_loop(gen, 1, 39600.0, 90.0, 30.0, monitors=MONITORS))


class FixedDraw:
    """A stream whose every ``random()`` is ``x``."""

    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


def test_zipf_pick_equals_the_binary_search():
    pool = PrefixPool(128, 192, 1.25)
    a, b = random.Random(3), random.Random(3)
    for _ in range(5000):
        assert pool.pick(a) is pick_loop(pool, b)
    # Bounds exactly, and draws above the float-rounded total.
    edges = [0.0, pool._cumulative[0], pool._cumulative[1], pool._cumulative[-2],
             pool._cumulative[-1], 1.0 - 2**-53, 1.0]
    for x in edges:
        assert pool.prefixes[pool.pick_index(x)] is pick_loop(pool, FixedDraw(x))
    assert pool.pick_index(1.0) == len(pool) - 1


@pytest.fixture(scope="module")
def anomalous_flows():
    """Five minutes of Abilene from 19:50: background, DoS and scan flows."""
    gen = abilene_generator(seed=3, config=TrafficConfig(seed=3, flows_per_second=4.0))
    gen.anomalies.extend(lakhina_anomalies(gen))
    return [f for batch in gen.generate(0, 71400.0, 300.0) for f in batch]


@pytest.mark.parametrize("window_s", [1.0, 10.0, 30.0, 300.0])
def test_aggregates_of_generated_flows_equal_the_loop(anomalous_flows, window_s):
    flows = anomalous_flows
    cfg = AggregationConfig(window_s=window_s)
    got = aggregate_flows(flows, cfg)
    assert got == aggregate_flows_loop(flows, cfg)
    assert any(a.connections > 1 for a in got)


def flow(src, dst, port, octets, start=10.0, monitor="CHIN"):
    return FlowRecord(monitor, start, src, dst, port, 6, octets, max(1, octets // 1000))


def test_multi_flow_groups_and_top_port_tie():
    flows = [
        flow(0x80010001, 0x80020001, 443, 700),
        flow(0x80010002, 0x80020002, 80, 500),
        flow(0x80010003, 0x80020003, 80, 200),  # port 80 ties 443 at 700 octets
        flow(0x80010001, 0x80050001, 25, 90_000),
        flow(0x80010001, 0x80050001, 25, 100),  # the same connection, short
        flow(0x80010001, 0x80020001, 443, 20, start=40.0),  # next window
    ]
    got = aggregate_flows(flows)
    assert got == aggregate_flows_loop(flows)
    rows = [(a.window_start, a.dst_prefix, a.octets, a.connections, a.fanout, a.top_port)
            for a in got]
    assert rows == [
        (0.0, 0x80020000, 1400, 3, 3, 80),  # the tie goes to the lower port
        (0.0, 0x80050000, 90_100, 1, 1, 25),
        (30.0, 0x80020000, 20, 1, 1, 443),
    ]


flows_st = st.lists(
    st.builds(
        flow,
        src=st.sampled_from([0x80010001, 0x80010002, 0x80030001]),
        dst=st.sampled_from([0x80020001, 0x80020002, 0x80040001]),
        port=st.sampled_from([80, 443, 3306]),
        octets=st.sampled_from([40, 1500, 1501, 5000]),
        start=st.sampled_from([0.0, 29.5, 30.0, 61.0]),
        monitor=st.sampled_from(["CHIN", "NYCM"]),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(flows_st)
def test_aggregates_equal_the_loop(flows):
    assert aggregate_flows(flows) == aggregate_flows_loop(flows)


def test_timed_index_records_equal_the_loop():
    gen = abilene_generator(seed=5, config=TrafficConfig(seed=5, flows_per_second=4.0))
    gen.anomalies.extend(lakhina_anomalies(gen))
    # Day 0 holds the 19:50 DoS and scan bursts (Index-1); day 1 has none.
    for day, indices in ((0, {"index1", "index2", "index3"}), (1, {"index2", "index3"})):
        got = timed_index_records(gen, day, 71390.0, 240.0)
        want = timed_index_records_loop(gen, day, 71390.0, 240.0)
        assert {t.index for t in got} == indices
        assert timed_rows(got) == timed_rows(want)


def test_rebalance_day_smoke_inputs_are_pinned():
    # benchmarks/mindbench's rebalance_day at --smoke: 120 s of both days.
    gen = baseline_generator(config=TrafficConfig(seed=1, flows_per_second=3.0))
    days = [
        timed_index_records(
            gen, day, 39600.0, 120.0, indices=("index2",), thresholds={"index2": 10_000.0}
        )
        for day in (0, 1)
    ]
    assert [len(d) for d in days] == [1826, 1722]
    assert inputs_digest(days) == REBALANCE_SMOKE_INPUTS


def test_flow_record_contract():
    f = flow(0x80010001, 0x80020001, 80, 1000)
    with pytest.raises(ValueError):
        FlowRecord("CHIN", 0.0, 1, 2, 80, 6, -1, 1)
    with pytest.raises(ValueError):
        FlowRecord("CHIN", 0.0, 1, 2, 80, 6, 1, -1)
    with pytest.raises(AttributeError):
        f.octets = 5
    with pytest.raises(AttributeError):
        f.extra = 5
    same = FlowRecord(
        monitor="CHIN", start=10.0, src_addr=0x80010001, dst_addr=0x80020001,
        dst_port=80, protocol=6, octets=1000, packets=1,
    )
    assert f == same and hash(f) == hash(same)
    assert len({f, same}) == 1
    assert f == ("CHIN", 10.0, 0x80010001, 0x80020001, 80, 6, 1000, 1)
