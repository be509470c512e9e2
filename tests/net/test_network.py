"""Unit tests for the simulated network layer."""

import dataclasses

import pytest

from repro import checks
from repro.net.message import HEADER_BYTES, Message
from repro.net import network
from repro.net.network import LinkStats, SimNetwork, decimate_step
from repro.net.topology import Site
from repro.sim.kernel import Simulator


@pytest.fixture(autouse=True)
def _adhoc_kinds():
    # These unit tests exercise the transport with ad-hoc message kinds
    # ("ping", "x", ...) that are deliberately not part of the registry.
    with checks.configure(validate=False):
        yield


def make_net(sites=None, **kwargs):
    sim = Simulator(seed=1)
    return sim, SimNetwork(sim, sites or {}, **kwargs)


def test_message_header_overhead():
    msg = Message("a", "b", "k", size_bytes=100)
    assert msg.size_bytes == 100
    assert msg.wire_size == 100 + HEADER_BYTES


def test_reframed_message_does_not_double_count_header():
    msg = Message("a", "b", "k", size_bytes=100)
    copy = dataclasses.replace(msg)
    assert copy.size_bytes == 100
    assert copy.wire_size == msg.wire_size == 100 + HEADER_BYTES


def test_message_negative_size_rejected():
    with pytest.raises(ValueError):
        Message("a", "b", "k", size_bytes=-1)


def test_register_and_deliver():
    sim, net = make_net()
    got = []
    net.register("a", got.append)
    net.register("b", got.append)
    net.send("a", "b", "ping", {"x": 1})
    sim.run_until_idle()
    assert len(got) == 1
    assert got[0].kind == "ping"
    assert got[0].payload == {"x": 1}


def test_duplicate_registration_rejected():
    sim, net = make_net()
    net.register("a", lambda m: None)
    with pytest.raises(ValueError):
        net.register("a", lambda m: None)


def test_unknown_destination_fails():
    sim, net = make_net()
    net.register("a", lambda m: None)
    failures = []
    net.send("a", "ghost", "ping", on_fail=lambda m, r: failures.append(r))
    sim.run_until_idle()
    assert failures == ["unknown-destination"]


def test_link_down_fails_send():
    sim, net = make_net()
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    net.set_link_down("a", "b", duration_s=10.0)
    failures = []
    net.send("a", "b", "ping", on_fail=lambda m, r: failures.append(r))
    sim.run_until_idle()
    assert failures == ["link-down"]
    assert not net.is_link_up("a", "b")
    assert not net.is_link_up("b", "a")  # bidirectional by default


def test_link_recovers_after_duration():
    sim, net = make_net()
    got = []
    net.register("a", lambda m: None)
    net.register("b", got.append)
    net.set_link_down("a", "b", duration_s=5.0)
    sim.run_until(6.0)
    assert net.is_link_up("a", "b")
    net.send("a", "b", "ping")
    sim.run_until_idle()
    assert len(got) == 1


def test_peer_down_fails_send():
    sim, net = make_net()
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    net.set_node_up("b", False)
    failures = []
    net.send("a", "b", "ping", on_fail=lambda m, r: failures.append(r))
    sim.run_until_idle()
    assert failures == ["peer-down"]


def test_crashed_sender_drops_silently():
    sim, net = make_net()
    got = []
    net.register("a", lambda m: None)
    net.register("b", got.append)
    net.set_node_up("a", False)
    net.send("a", "b", "ping")
    sim.run_until_idle()
    assert got == []
    assert net.messages_failed == 1


def test_peer_crash_in_flight():
    sim, net = make_net()
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    failures = []
    net.send("a", "b", "ping", on_fail=lambda m, r: failures.append(r))
    net.set_node_up("b", False)  # crashes before delivery completes
    sim.run_until_idle()
    assert failures == ["peer-down"]


def test_bandwidth_serializes_transmissions():
    # Two 10 kB messages over a 10 kbit/s link: the second waits for the
    # first's transmission slot.
    sim, net = make_net(bandwidth_bps=1e4)
    arrivals = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: arrivals.append(sim.now))
    net.send("a", "b", "x", size_bytes=10_000 - HEADER_BYTES)
    net.send("a", "b", "y", size_bytes=10_000 - HEADER_BYTES)
    sim.run_until_idle()
    assert len(arrivals) == 2
    assert arrivals[1] - arrivals[0] == pytest.approx(8.0, rel=0.05)


def test_link_stats_accumulate():
    sim, net = make_net(record_link_delays=True)
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    net.send("a", "b", "x", tuples=3, size_bytes=100)
    net.send("a", "b", "y", tuples=2, size_bytes=100)
    sim.run_until_idle()
    stats = net.link_stats[("a", "b")]
    assert stats.messages == 2
    assert stats.tuples == 5
    assert stats.bytes == 2 * (100 + HEADER_BYTES)
    assert len(stats.delay_samples) == 2


def _materialized_link_stats(net):
    """Every link's snapshot at once: what ``link_stats`` used to rebuild
    on each access."""
    out = {}
    for src, by_dst in net._link_ids.items():
        for dst, link_id in by_dst.items():
            samples, stride, _ = net._lk_sampler.get(link_id, ([], 1, 0))
            out[(src, dst)] = LinkStats(
                tuples=net._lk_tuples[link_id],
                messages=net._lk_messages[link_id],
                bytes=net._lk_bytes[link_id],
                delay_samples=samples,
                delay_sample_stride=stride,
            )
    return out


def test_link_stats_view_reads_like_the_materialized_dict(monkeypatch):
    sim, net = make_net(record_link_delays=True)
    for name in "abc":
        net.register(name, lambda m: None)
    for src, dst in ("ab", "ba", "ac", "ab", "cb"):
        net.send(src, dst, "x", tuples=2, size_bytes=50)
    sim.run_until_idle()
    view = net.link_stats
    expected = _materialized_link_stats(net)
    assert dict(view) == expected and list(view) == list(expected)
    assert view == expected and len(view) == 4
    assert [stats.messages for stats in view.values()] == [2, 1, 1, 1]
    assert ("a", "b") in view and ("b", "c") not in view and "ab" not in view
    with pytest.raises(KeyError):
        view[("a", "z")]
    with pytest.raises(TypeError):
        view[("a", "b")] = LinkStats()

    built = []

    class CountingStats(LinkStats):
        def __init__(self, **fields):
            built.append(fields)
            super().__init__(**fields)

    monkeypatch.setattr(network, "LinkStats", CountingStats)
    assert view[("a", "b")].messages == 2
    assert len(built) == 1


def test_colocated_nodes_lan_latency():
    sim, net = make_net()  # no sites -> LAN delays
    times = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: times.append(sim.now))
    net.send("a", "b", "x")
    sim.run_until_idle()
    assert times[0] < 0.005


def test_wan_latency_uses_sites():
    ny = Site("NY", 40.7, -74.0, "t")
    ldn = Site("LDN", 51.5, -0.1, "t")
    sim = Simulator(seed=2)
    net = SimNetwork(sim, {"NY": ny, "LDN": ldn})
    times = []
    net.register("NY", lambda m: None)
    net.register("LDN", lambda m: times.append(sim.now))
    net.send("NY", "LDN", "x")
    sim.run_until_idle()
    assert times[0] > 0.02


def test_draw_block_wan_delays_stay_in_model_support():
    # Block-drawn jitters are a different (numpy) stream from the stdlib
    # RNG, but they must sample the same model: every WAN delay is at
    # least base_s + transmission, and positive jitter keeps it finite.
    ny = Site("NY", 40.7, -74.0, "t")
    ldn = Site("LDN", 51.5, -0.1, "t")
    sim = Simulator(seed=3)
    net = SimNetwork(
        sim, {"NY": ny, "LDN": ldn},
        draw_block=8, record_link_delays=True, link_delay_sample_cap=None,
    )
    net.register("NY", lambda m: None)
    net.register("LDN", lambda m: None)
    for _ in range(100):  # > draw_block, so refills happen mid-run
        net.send("NY", "LDN", "x")
    sim.run_until_idle()
    delays = [d for _, d in net.link_stats[("NY", "LDN")].delay_samples]
    assert len(delays) == 100
    assert all(d >= net.latency.base_s for d in delays)


def test_draw_block_lan_delays_stay_in_model_support():
    sim, net = make_net(
        draw_block=8, record_link_delays=True, link_delay_sample_cap=None
    )
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    for _ in range(100):
        net.send("a", "b", "x")
    sim.run_until_idle()
    # LAN latency is uniform on [0.5ms, 1ms); the recorded delay adds
    # transmission and queueing (all 100 sends share one link), so only
    # the floor and the unqueued first message bound it from both sides.
    delays = [d for _, d in net.link_stats[("a", "b")].delay_samples]
    assert len(delays) == 100
    assert all(d >= 0.0005 for d in delays)
    assert delays[0] < 0.002


def test_draw_block_validated():
    with pytest.raises(ValueError):
        make_net(draw_block=-1)


def test_link_delay_samples_bounded_by_cap():
    sim, net = make_net(record_link_delays=True, link_delay_sample_cap=16)
    net.register("a", lambda msg: None)
    net.register("b", lambda msg: None)
    for _ in range(500):
        net.send("a", "b", "k")
    stats = net.link_stats[("a", "b")]
    assert stats.messages == 500
    assert len(stats.delay_samples) < 16
    assert stats.delay_sample_stride > 1
    # Decimation keeps the series in send order (the Fig 8/12 shape).
    times = [t for t, _ in stats.delay_samples]
    assert times == sorted(times)


def test_link_delay_samples_unbounded_when_cap_disabled():
    sim, net = make_net(record_link_delays=True, link_delay_sample_cap=None)
    net.register("a", lambda msg: None)
    net.register("b", lambda msg: None)
    for _ in range(300):
        net.send("a", "b", "k")
    stats = net.link_stats[("a", "b")]
    assert len(stats.delay_samples) == 300
    assert stats.delay_sample_stride == 1


def test_link_delay_sample_cap_validated():
    with pytest.raises(ValueError):
        make_net(record_link_delays=True, link_delay_sample_cap=1)


# ----------------------------------------------------------------------
# Link-level delivery coalescing
# ----------------------------------------------------------------------


def test_coalesced_window_validated():
    with pytest.raises(ValueError):
        make_net(coalesce_window_s=-0.001)


def test_coalesced_batch_delivers_all_messages_at_window_boundary():
    sim, net = make_net(coalesce_window_s=0.05)
    arrivals = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: arrivals.append((sim.now, m.kind)))
    for i in range(5):
        net.send("a", "b", f"k{i}")
    sim.run_until_idle()
    assert [kind for _, kind in arrivals] == [f"k{i}" for i in range(5)]
    assert net.messages_delivered == 5
    # All five LAN deliveries land in the first window and drain together
    # at its boundary — one simulated instant, one drain event.
    times = {t for t, _ in arrivals}
    assert len(times) == 1
    assert next(iter(times)) == pytest.approx(0.05)


def test_coalesced_slot_delivers_across_links_in_send_order():
    # Two links into one destination, sends interleaved inside one window:
    # the slot runs in the order it was scheduled, not link by link (the
    # per-link batches this replaced delivered a1, a2, b1).
    sim, net = make_net(coalesce_window_s=0.05)
    arrivals = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    net.register("d", lambda m: arrivals.append(m.kind))
    net.send("a", "d", "a1")
    net.send("b", "d", "b1")
    net.send("a", "d", "a2")
    sim.run_until_idle()
    assert arrivals == ["a1", "b1", "a2"]


def test_slot_shares_one_kernel_event_between_deliveries_and_calls():
    sim, net = make_net(coalesce_window_s=0.05)
    order = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: order.append(m.kind))
    net.send("a", "b", "first")
    net.call_in_slot(0.01, order.append, ("call",))
    net.send("a", "b", "second")
    net.call_in_slot(0.04, order.append, ("late-call",))
    before = sim.events_processed
    sim.run_until_idle()
    assert order == ["first", "call", "second", "late-call"]
    assert sim.events_processed - before == 1
    assert sim.now == pytest.approx(0.05)


def test_coalescing_batches_only_same_link_and_window():
    sim, net = make_net(coalesce_window_s=0.05)
    arrivals = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: arrivals.append(("b", sim.now)))
    net.register("c", lambda m: arrivals.append(("c", sim.now)))
    net.send("a", "b", "x")
    net.send("a", "c", "x")  # different link, same window
    sim.schedule_at(0.07, net.send, "a", "b", "x")  # same link, later window
    sim.run_until_idle()
    assert len(arrivals) == 3
    assert arrivals[0][1] == arrivals[1][1] == pytest.approx(0.05)
    assert arrivals[2] == ("b", pytest.approx(0.10))


def test_coalesced_drain_fails_exactly_the_undelivered_messages():
    # Satellite: the destination dies between two windows of a stream.
    # The already-drained window's messages were delivered; every message
    # still in a slot fails with its *own* on_fail — per message, not
    # per slot, and nothing on other links is touched.
    sim, net = make_net(coalesce_window_s=0.05)
    delivered = []
    failures = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: delivered.append(m.kind))
    net.register("c", lambda m: delivered.append(m.kind))

    def fail(m, reason):
        failures.append((m.kind, reason))

    net.send("a", "b", "early1", on_fail=fail)
    net.send("a", "b", "early2", on_fail=fail)
    sim.schedule_at(0.06, lambda: net.send("a", "b", "late1", on_fail=fail))
    sim.schedule_at(0.06, lambda: net.send("a", "b", "late2", on_fail=fail))
    sim.schedule_at(0.06, lambda: net.send("a", "c", "other", on_fail=fail))
    sim.schedule_at(0.08, net.set_node_up, "b", False)
    sim.run_until_idle()

    assert sorted(delivered) == ["early1", "early2", "other"]
    assert sorted(failures) == [("late1", "peer-down"), ("late2", "peer-down")]
    assert net.messages_delivered == 3
    assert net.messages_failed == 2


def test_coalesced_link_stats_match_per_message_accounting():
    sim, net = make_net(coalesce_window_s=0.05, record_link_delays=True)
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    for _ in range(4):
        net.send("a", "b", "x", size_bytes=100, tuples=2)
    sim.run_until_idle()
    stats = net.link_stats[("a", "b")]
    assert stats.messages == 4
    assert stats.tuples == 8
    assert stats.bytes == 4 * (100 + HEADER_BYTES)
    assert len(stats.delay_samples) == 4


# ----------------------------------------------------------------------
# Coalesced deliveries vs endpoint liveness
# ----------------------------------------------------------------------


def test_unregister_flushes_pending_coalesced_batches():
    # A node that leaves with traffic still coalesced: each parked message
    # resolves on its own at the drain boundary.  Deliveries to it fail
    # peer-down; traffic sent *from* it before it went down still lands.
    sim, net = make_net(coalesce_window_s=0.05)
    delivered = []
    failures = []
    net.register("a", lambda m: delivered.append(m.kind))
    net.register("b", lambda m: delivered.append(m.kind))
    net.send("a", "b", "to-b", on_fail=lambda m, r: failures.append((m.kind, r)))
    net.send("b", "a", "from-b")

    net.set_node_up("b", False)

    sim.run_until_idle()
    assert sim.now == pytest.approx(0.05)
    assert delivered == ["from-b"]
    assert failures == [("to-b", "peer-down")]
    assert net.messages_delivered == 1
    assert net.messages_failed == 1


def test_coalesced_delivery_resolves_against_the_endpoint_at_the_boundary():
    # Liveness is decided when the slot drains, not when the message was
    # sent: down by then -> peer-down; down and back -> delivered.
    sim, net = make_net(coalesce_window_s=0.05)
    delivered, failures = [], []
    for name in ("a", "b", "c"):
        net.register(name, lambda m, _n=name: delivered.append((_n, m.kind)))

    def fail(m, reason):
        failures.append((m.kind, reason))

    net.send("a", "b", "to-b", on_fail=fail)
    net.send("a", "c", "to-c", on_fail=fail)
    net.set_node_up("b", False)
    net.set_node_up("c", False)
    net.set_node_up("c", True)
    sim.run_until_idle()
    assert delivered == [("c", "to-c")]
    assert failures == [("to-b", "peer-down")]
    assert (net.messages_delivered, net.messages_failed) == (1, 1)


def test_call_wheel_drains_after_unregister():
    # call_in_slot entries are time-keyed, not node-keyed: a callback
    # scheduled before its node went down still fires (stale callbacks
    # self-guard), and the wheel is empty at idle.
    sim, net = make_net(coalesce_window_s=0.05)
    fired = []
    net.register("a", lambda m: None)
    net.call_in_slot(0.02, fired.append, ("tick",))
    net.set_node_up("a", False)
    sim.run_until_idle()
    assert fired == ["tick"]
    assert net._call_wheel == {}


def test_resource_ledger_drains_through_unregister():
    # With tracking on, parked deliveries release their ledger slots when
    # they resolve, failed or not: run_until_idle's quiescence check passes
    # even when an endpoint goes down with traffic still coalesced.
    with checks.configure(track_resources=True, validate=False):
        sim = Simulator(seed=1)
        net = SimNetwork(sim, {}, coalesce_window_s=0.05)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.send("a", "b", "ping")
        net.send("b", "a", "pong")
        net.call_in_slot(0.02, lambda: None, ())
        assert sim.resources.live() == 3  # two parked deliveries, one call
        net.set_node_up("b", False)
        sim.run_until_idle()  # would raise ResourceLeakError on residue
        assert sim.resources.live() == 0
        assert (net.messages_delivered, net.messages_failed) == (1, 1)
        assert net._call_wheel == {}


# ----------------------------------------------------------------------
# Delay-sample decimation
# ----------------------------------------------------------------------


def test_decimation_realigns_phase_on_stride_doubling():
    # Regression: when cap-thinning doubled the stride, the phase was
    # left counting from the pre-thinning grid, so the first sample after
    # a doubling drifted off the even-spacing grid the Fig 8/12 plots
    # assume.  Feed sends at t = send index; retained times must stay an
    # arithmetic progression at the current stride, for both parities of
    # the just-appended sample surviving the thinning (cap even/odd).
    for cap in (7, 8):
        samples, stride, phase = [], 1, 0
        for send in range(100):
            stride, phase = decimate_step(samples, stride, phase, cap, float(send), 0.001)
        times = [t for t, _ in samples]
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert times[0] == 0.0
        assert diffs and all(d == stride for d in diffs), (cap, stride, times)
        assert len(times) <= cap


def test_decimation_spacing_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(cap=st.integers(2, 33), n=st.integers(1, 400))
    def check(cap, n):
        samples, stride, phase = [], 1, 0
        for send in range(n):
            stride, phase = decimate_step(samples, stride, phase, cap, float(send), 0.001)
        times = [t for t, _ in samples]
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert all(d == stride for d in diffs), (cap, n, stride, times)
        assert len(times) <= cap
        if times:
            assert times[0] == 0.0

    check()
