"""Continuous monitoring with triggers: alerts instead of polling.

Run with::

    python examples/continuous_monitoring.py

The paper notes that triggers (standing queries) are supported by the same
machinery as queries.  Here a security console at one PoP registers two
standing queries — high-fanout aggregates (DoS/scan) and alpha-flow-sized
aggregates — and gets notified the moment matching traffic summaries are
inserted anywhere in the overlay, instead of polling every five minutes.
"""

from repro.bench.workload import replay, timed_index_records
from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.query import RangeQuery
from repro.net.topology import ABILENE_SITES
from repro.traffic.anomalies import DoSEvent
from repro.traffic.generator import BackboneTrafficGenerator, TrafficConfig
from repro.traffic.indices import index1_schema

TRACE_START = 54000.0
TRACE_LEN = 420.0
CONSOLE = "WASH"


def main() -> None:
    gen = BackboneTrafficGenerator(ABILENE_SITES, TrafficConfig(seed=55, flows_per_second=1.0))
    pool = gen.pools["abilene"]
    dos = DoSEvent(
        "dos-live", TRACE_START + 180.0, 120.0, pool.prefixes[25], pool.prefixes[26],
        ("CHIN", "KSCY"), attempts_per_window=2400,
    )
    gen.anomalies.append(dos)

    cluster = MindCluster(ABILENE_SITES, ClusterConfig(seed=56))
    cluster.build()
    cluster.create_index(index1_schema(86400.0))

    # The console registers a standing query: fanout above 1500, anywhere.
    alerts = []
    installed = []
    console = cluster.by_address[CONSOLE]
    console.triggers.create(
        RangeQuery("index1", {"fanout": (1500.0, None)}),
        callback=lambda record: alerts.append((cluster.sim.now, record)),
        installed=installed.append,
    )
    cluster.sim.run_until_predicate(lambda: bool(installed), timeout=60.0)
    print(f"trigger installed across the overlay (success={installed[0]})")

    print("replaying traffic; the console is idle, not polling ...")
    timed = timed_index_records(gen, 0, TRACE_START, TRACE_LEN, indices=("index1",))
    start, end = replay(cluster, timed, trace_start=TRACE_START)
    cluster.advance((end - start) + 60.0)

    print(f"\n{len(alerts)} alerts pushed to {CONSOLE}:")
    for t, record in alerts[:8]:
        print(f"  t={t:7.1f}s  fanout={record.values[2]:6.0f}  "
              f"dest={int(record.values[0]):#x}  seen at {record.payload['node']}")
    if len(alerts) > 8:
        print(f"  ... and {len(alerts) - 8} more")

    assert alerts, "the DoS burst must raise alerts"
    reporting = {record.payload["node"] for _, record in alerts}
    assert set(dos.monitors) <= reporting
    print(f"\nattack path reported by: {sorted(reporting)}")
    first_alert = min(t for t, _ in alerts)
    attack_offset = dos.start - TRACE_START
    alert_offset = first_alert - start
    print(f"attack began {attack_offset:.0f}s into the trace; first alert at "
          f"{alert_offset:.1f}s — {alert_offset - attack_offset:.1f}s after onset "
          f"(one 30 s aggregation window + delivery)")
    assert alert_offset >= attack_offset


if __name__ == "__main__":
    main()
