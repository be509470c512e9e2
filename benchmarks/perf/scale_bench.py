"""The ``scale`` perf tier: a 1000-node / 1M-record Figure-14 regime, timed.

The regular perf tiers time isolated components (embedding batches, query
scans); this one times the full event kernel end to end at the cluster
size the paper's Section 4.3 extrapolates to.  Three things make the
million-record run tractable:

* **Lazy workload generation.**  Pre-scheduling 10^6 insert events would
  hold the whole workload in the event queue at once; instead a driver
  tick materializes one virtual second of records at a time through
  :meth:`repro.sim.kernel.Simulator.schedule_many`, keeping the pending
  set bounded by the in-flight traffic (a few thousand events).
* **GC frozen around the timed section.**  The steady state allocates and
  frees acyclically (messages, envelopes, metrics); generational GC scans
  are pure overhead at this rate — about a quarter of the run on a
  reference box — so the permanent cluster topology is frozen and
  collection disabled for the duration, then restored.
* **Aggregated metrics.**  Per-insert :class:`InsertMetric` objects are
  reduced to counters and a bounded latency reservoir on the fly rather
  than accumulated (10^6 retained dataclasses would dominate peak RSS).
"""

import gc
import random
import resource
import time
from typing import Dict, List, Optional

from repro.core.cluster import ClusterConfig, MindCluster
from repro.core.mind_node import MindConfig
from repro.core.records import Record
from repro.net.topology import synthetic_planetlab_sites
from repro.overlay.node import OverlayConfig
from repro.traffic.indices import index1_schema

#: Default bound on retained latency samples.  The reservoir takes every
#: stride-th successful insert with ``stride = records // cap``, so the
#: retained set is a uniform systematic sample of the whole run (not a
#: prefix) and its memory is capped independently of workload size.
_LATENCY_SAMPLE_CAP = 20_000

#: Records issued per workload-driver event.  One driver event per record
#: would add 10^6 kernel events that model nothing; batches of a few keep
#: the arrival process fine-grained (batch members target different
#: origin nodes, so no queueing artifact) while shedding that overhead.
_DRIVER_BATCH = 4


def _percentile(sorted_values: List[float], frac: float) -> Optional[float]:
    if not sorted_values:
        return None
    idx = min(len(sorted_values) - 1, int(frac * len(sorted_values)))
    return sorted_values[idx]


def run_scale_scenario(
    nodes: int = 1000,
    records: int = 1_000_000,
    rate_per_node: float = 2.0,
    seed: int = 11,
    hb_interval_s: float = 10.0,
    replication: int = 0,
    churn_min_live: Optional[int] = None,
    drain_s: float = 60.0,
    coalesce_window_s: float = 0.001,
    latency_sample_cap: int = _LATENCY_SAMPLE_CAP,
) -> Dict[str, object]:
    """Run the scaled Fig-14 insert workload; return perf + sanity metrics.

    ``churn_min_live`` switches on the stationary churn process (never
    fewer than that many nodes live) for the robustness variant; the
    timed perf tier runs without churn so the numbers are comparable
    across commits.  The timed tier also defaults to ``replication=0``:
    replica fan-out adds ~20% more events without exercising any code the
    failover tier doesn't already gate, and the churn variant — where
    replicas actually matter — passes ``replication=1`` explicitly.

    ``coalesce_window_s`` batches deliveries that land in the same 1 ms
    arrival slot into one drain event — a bounded timing
    perturbation (each delivery defers < 1 ms, far below the modeled WAN
    latencies) that cuts kernel events per message.  Pass ``0.0`` for
    bit-exact uncoalesced delivery.  ``latency_sample_cap`` bounds the
    latency reservoir; the effective stride is recorded in the output.
    """
    build_t0 = time.perf_counter()
    sites = synthetic_planetlab_sites(nodes, random.Random(7))
    config = ClusterConfig(
        seed=seed,
        overlay=OverlayConfig(
            service_time_s=0.01,
            service_jitter_sigma=0.8,
            liveness_enabled=True,
            hb_interval_s=hb_interval_s,
            # Piggyback heartbeats on the insert traffic for the clean
            # timed run: at 2 inserts/s/node every hypercube link carries
            # routed messages well inside any heartbeat window, so nearly
            # the whole heartbeat volume is redundant liveness signal.
            # Churn runs keep explicit heartbeats (code changes propagate
            # through them).
            hb_suppress_s=(hb_interval_s if churn_min_live is None else None),
            hb_timeout_s=4.0 * hb_interval_s,
            adoption_delay_s=3.0,
            # Vectorized jitter draws: the stdlib lognormvariate costs a
            # Python-level rejection loop per message; at 10^7 messages
            # block draws of the same distribution are a measurable slice
            # of the whole run.
            service_draw_block=1024,
        ),
        mind=MindConfig(),
        slow_factor=3.0,
        track_ground_truth=False,
        latency_draw_block=4096,
        coalesce_window_s=coalesce_window_s,
    )
    cluster = MindCluster(sites, config)
    cluster.build()
    # Settle-predicate evaluation scans every node; at cluster scale
    # checking it on every event dominates the build, so thin it out.
    cluster.create_index(
        index1_schema(86400.0), replication=replication, settle_poll_events=64
    )
    build_wall_s = time.perf_counter() - build_t0

    sim = cluster.sim
    by_address = cluster.by_address
    addrs = [n.address for n in cluster.nodes]
    rng = random.Random(13)
    per_second = max(1, int(rate_per_node * nodes))

    # Pre-draw the record values outside the timed section: the workload
    # generator's RNG cost is bench overhead, not system cost.  Kept as
    # one float64 array (3 columns) and converted a virtual second at a
    # time, so peak RSS grows by 24 bytes/record, not a Record object.
    import numpy as np

    _np_rng = np.random.default_rng(13)
    values_arr = np.column_stack(
        [
            _np_rng.uniform(0, 2**32, records),
            _np_rng.uniform(0, 86400.0, records),
            _np_rng.uniform(0, 5024.0, records),
        ]
    )

    stats = {
        "issued": 0,
        "completed": 0,
        "succeeded": 0,
        "hops_sum": 0,
        "hops_n": 0,
    }
    latency_reservoir: List[float] = []
    latency_stride = max(1, records // max(1, latency_sample_cap))

    def on_done(metric) -> None:
        stats["completed"] += 1
        if metric.success:
            stats["succeeded"] += 1
            if metric.latency is not None and stats["succeeded"] % latency_stride == 0:
                latency_reservoir.append(metric.latency)
            if metric.hops is not None:
                stats["hops_sum"] += metric.hops
                stats["hops_n"] += 1

    def do_insert(pairs) -> None:
        for record, origin in pairs:
            node = by_address[origin]
            if node.in_overlay() and node.has_index("index1"):
                stats["issued"] += 1
                node.insert_record("index1", record, callback=on_done)

    def tick(second: int) -> None:
        base = sim.now
        start = second * per_second
        stop = min(start + per_second, records)
        values = values_arr[start:stop].tolist()
        items = []
        i = start
        while i < stop:
            j = min(i + _DRIVER_BATCH, stop)
            pairs = []
            for k in range(i, j):
                record = Record(values[k - start], key=k + 1)
                pairs.append((record, addrs[k % nodes]))
            items.append((base + rng.random(), do_insert, (pairs,)))
            i = j
        sim.schedule_many(items)
        if stop < records:
            sim.schedule_at(base + 1.0, tick, second + 1)

    if churn_min_live is not None:
        cluster.failures.start_churn(
            addrs[1:],
            mean_uptime_s=60.0,
            mean_downtime_s=30.0,
            min_live=churn_min_live,
        )

    duration_s = records / per_second

    ev0 = sim.events_processed
    msg0 = cluster.network.messages_sent
    tick(0)
    gc.collect()
    gc.freeze()
    gc.disable()
    wall_t0 = time.perf_counter()
    cpu_t0 = time.process_time()
    try:
        cluster.advance(duration_s + drain_s)
    finally:
        gc.enable()
        gc.unfreeze()
    wall_s = time.perf_counter() - wall_t0
    cpu_s = time.process_time() - cpu_t0

    events = sim.events_processed - ev0
    messages = cluster.network.messages_sent - msg0
    latency_reservoir.sort()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    return {
        "nodes": nodes,
        "records": records,
        "rate_per_node": rate_per_node,
        "replication": replication,
        "hb_interval_s": hb_interval_s,
        "churn_min_live": churn_min_live,
        "coalesce_window_s": coalesce_window_s,
        "seed": seed,
        "build_wall_s": round(build_wall_s, 2),
        "wall_s": round(wall_s, 2),
        "cpu_s": round(cpu_s, 2),
        "events": events,
        "events_per_s": round(events / wall_s, 1) if wall_s else None,
        "messages": messages,
        "messages_per_s": round(messages / wall_s, 1) if wall_s else None,
        "peak_rss_mb": round(peak_rss_kb / 1024.0, 1),
        "inserts_issued": stats["issued"],
        "inserts_completed": stats["completed"],
        "inserts_succeeded": stats["succeeded"],
        "complete_fraction": (
            round(stats["completed"] / stats["issued"], 4) if stats["issued"] else None
        ),
        "mean_hops": (
            round(stats["hops_sum"] / stats["hops_n"], 2) if stats["hops_n"] else None
        ),
        "latency_median_s": _percentile(latency_reservoir, 0.5),
        "latency_p90_s": _percentile(latency_reservoir, 0.9),
        "latency_p99_s": _percentile(latency_reservoir, 0.99),
        "latency_samples": len(latency_reservoir),
        "latency_sample_cap": latency_sample_cap,
        "latency_sample_stride": latency_stride,
    }


def main(argv=None) -> int:
    """CLI face: run the scenario, print its metrics as JSON on stdout.

    ``run.py --scale`` invokes this in a fresh interpreter so the timed
    section runs on a clean heap (and ``ru_maxrss`` reports the kernel's
    high-water mark, not whatever the parent process did before).
    """
    import argparse
    import json
    import sys

    from repro import checks

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--records", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--replication", type=int, default=0)
    parser.add_argument("--churn-min-live", type=int, default=None)
    parser.add_argument("--coalesce-window", type=float, default=0.001,
                        help="link-delivery coalescing window in seconds "
                             "(0 disables coalescing)")
    parser.add_argument("--latency-sample-cap", type=int,
                        default=_LATENCY_SAMPLE_CAP,
                        help="max retained latency samples (stride-sampled)")
    parser.add_argument("--profile-out", type=str, default=None,
                        help="write a cProfile top-N report of the timed "
                             "section to this path (skews wall timings)")
    args = parser.parse_args(argv)

    checks.active.validate = False
    for variable, what in checks.armed():
        print(f"{what} is ON; unset {variable} for timed scale runs", file=sys.stderr)
        return 1

    profiler = None
    if args.profile_out:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    metrics = run_scale_scenario(
        nodes=args.nodes,
        records=args.records,
        seed=args.seed,
        replication=args.replication,
        churn_min_live=args.churn_min_live,
        coalesce_window_s=args.coalesce_window,
        latency_sample_cap=args.latency_sample_cap,
    )
    if profiler is not None:
        import io
        import pstats

        profiler.disable()
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(30)
        with open(args.profile_out, "w") as fh:
            fh.write(buf.getvalue())
        metrics["profiled"] = True
    json.dump(metrics, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
