"""Histogram-balanced cuts vs even cuts under skewed backbone traffic.

Run with::

    python examples/load_balancing_demo.py

Demonstrates Section 3.7 end to end: insert one trace slice under the
naive even-cut embedding and under balanced cuts derived from the previous
day's histogram (collected *on-line* across the overlay, the paper's
planned extension), then compare per-node storage.  This is the Figure
5/13 story in miniature, plus a daily version install.
"""

from repro.bench.workload import replay, timed_index_records
from repro.core.balance import next_day_embedding
from repro.core.cluster import ClusterConfig, MindCluster
from repro.net.topology import ABILENE_SITES
from repro.traffic.generator import BackboneTrafficGenerator, TrafficConfig
from repro.traffic.indices import index2_schema

TRACE_START = 43200.0
TRACE_LEN = 900.0


def storage_report(cluster: MindCluster, index: str) -> str:
    dist = sorted(cluster.storage_distribution(index).items())
    total = sum(count for _, count in dist) or 1
    lines = []
    for address, count in dist:
        bar = "#" * int(40 * count / total)
        lines.append(f"  {address:6s} {count:5d} {bar}")
    counts = [c for _, c in dist if c]
    spread = (max(counts) / max(1, min(counts))) if counts else 0.0
    lines.append(f"  max/min imbalance: {spread:.1f}x")
    return "\n".join(lines)


def main() -> None:
    gen = BackboneTrafficGenerator(ABILENE_SITES, TrafficConfig(seed=41, flows_per_second=3.0))
    cluster = MindCluster(ABILENE_SITES, ClusterConfig(seed=42))
    cluster.build()

    schema = index2_schema(7 * 86400.0)
    cluster.create_index(schema)  # day 0: even cuts (no histogram yet)

    print("day 0: inserting under EVEN cuts ...")
    day0 = timed_index_records(gen, 0, TRACE_START, TRACE_LEN, indices=("index2",))
    start, end = replay(cluster, day0)
    cluster.advance((end - start) + 60.0)
    print(storage_report(cluster, "index2"))

    # Collect the day-0 distribution on-line: the designated node floods a
    # histogram request and merges every node's local histogram.
    print("\ncollecting day-0 histogram across the overlay ...")
    collector = cluster.nodes[0]
    merged = []
    collector.histograms.collect(
        "index2",
        # /16-resolution bins on the destination prefix, fine bins on the
        # timestamp (so a 15-minute trace slice is resolved), coarse bins
        # on the octet count.
        granularity=[65536, 4096, 64],
        time_range=(0.0, 86400.0),
        expected_replies=len(cluster.nodes),
        callback=merged.append,
    )
    cluster.sim.run_until_predicate(lambda: bool(merged), timeout=120.0)
    histogram = merged[0]
    print(f"histogram: {histogram.occupied_cells} occupied cells, "
          f"{histogram.total:.0f} records")

    # Install the day-1 version with balanced cuts (valid from t=86400).
    # next_day_embedding advances the histogram's timestamp dimension by
    # one day first: stationarity is about the mix, not the absolute time.
    balanced = next_day_embedding(schema, histogram)
    cluster.install_version("index2", 86400.0, balanced)

    print("\nday 1: inserting the same traffic profile under BALANCED cuts ...")
    day1 = timed_index_records(gen, 1, TRACE_START, TRACE_LEN, indices=("index2",))
    before = cluster.storage_distribution("index2")
    start, end = replay(cluster, day1)
    cluster.advance((end - start) + 60.0)
    after = cluster.storage_distribution("index2")

    print("day-1 records per node (balanced cuts only):")
    day1_only = {a: after[a] - before.get(a, 0) for a in after}
    total = sum(day1_only.values()) or 1
    counts = [c for c in day1_only.values() if c]
    for address in sorted(day1_only):
        count = day1_only[address]
        print(f"  {address:6s} {count:5d} {'#' * int(40 * count / total)}")
    print(f"  max/min imbalance: {max(counts) / max(1, min(counts)):.1f}x")


if __name__ == "__main__":
    main()
