"""Turning runs into the numbers people read: the traced run's per-layer
ledger, the printed tables, and the one-line contract object."""

from typing import Any, Dict

from benchmarks.mindbench import harness, layers

#: Which clock each end-to-end metric reads; everything else is sim time.
HOST_METRICS = ("setup_s", "ops_per_s", "peak_rss_mb")


def traced_result(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """The per-layer ledger of one workload.

    ``plain`` and ``traced`` are two fresh-process replicas of the same
    workload, the second under the span wrappers.  Counts come from the
    untraced replica, self times from the traced one, and the isolated
    microbenches run here, in a process that never installed a wrapper.
    The traced replica must reproduce the untraced ``sim_digest``: tracing
    may cost host time but must not change what is simulated.
    """
    trace = traced["trace"]
    micro = layers.run_microbenches()
    counts, extras = plain["counts"], plain["extras"]
    ops = counts["inserts"] + counts["queries"]
    answered = max(1, counts["queries_answered"])
    calls = {(row["layer"], row["name"]): row["calls"] for row in trace["aggregate"]}
    day_ratio = 0.0
    if "day1_s" in extras:
        day_ratio = (extras["day1_s"] / extras["day1_inserts"]) / (
            extras["day0_s"] / extras["day0_inserts"]
        )
    plain_wall_s, traced_wall_s = sum(plain["run_laps"]), sum(traced["run_laps"])
    metrics = dict(micro)
    metrics.update({
        "sim.events": counts["events"],
        "sim.events_per_msg": counts["events"] / counts["messages"],
        "net.messages": counts["messages"],
        "net.bytes": counts["bytes"],
        "net.msgs_per_op": counts["messages"] / ops,
        "net.failed_msgs": counts["failed_msgs"],
        "overlay.mean_hops": counts["hops_sum"] / max(1, counts["inserts_ok"]),
        "overlay.p99_hops": counts["hops_p99"],
        "core.rebalance_s": extras.get("rebalance_s", 0.0),
        "core.day1_vs_day0_insert_ratio": day_ratio,
        "core.query_nodes_visited_mean": counts["nodes_visited"] / answered,
        "core.query_regions_mean": counts["regions"] / answered,
        "core.records_per_query": counts["records_returned"] / answered,
        "core.insert_retries": counts["insert_retries"],
        "core.query_retries": counts["query_retries"],
        "core.failovers": counts["failovers"],
        "core.retry_frac": counts["ops_retried"] / ops,
        "core.insert_p99_s": plain["sim_metrics"]["insert_p99_s"],
        "core.query_p99_s": plain["sim_metrics"]["query_p99_s"],
        "storage.records_stored": counts["records_stored"] + counts["replicas_stored"],
        "storage.scan_calls": calls.get(("storage", "TimePartitionedStore.query"), 0),
        "storage.hits": trace["counters"].get("storage.hits", 0),
        "traffic.self_s": extras.get("traffic_s", 0.0),
        "trace.overhead_ratio": traced_wall_s / plain_wall_s,
        "trace.unattributed_frac": trace["unattributed_frac"],
        "layers.sum_vs_wall": trace["sum_vs_wall"],
    })
    for layer in ("sim", "net", "overlay", "core", "storage"):
        metrics[f"{layer}.self_s"] = trace["layers"][layer]["self_s"]
        metrics[f"{layer}.self_frac"] = trace["layers"][layer]["self_frac"]

    result = harness.merge_replicas([plain])
    result["traced"] = True
    result["checks"]["traced_replica_correct"] = traced["correct"]
    result["checks"]["tracing_preserves_sim_digest"] = traced["sim_digest"] == plain["sim_digest"]
    result["correct"] = all(result["checks"].values())
    result["end_to_end"] = result["metrics"]
    result["metrics"] = metrics
    result["plain_wall_s"], result["traced_wall_s"] = plain_wall_s, traced_wall_s
    result["trace"] = trace
    return result


# ----------------------------------------------------------------------
def contract_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The object the driver reads from the last line of standard output."""
    if result["traced"]:
        units = {metric.name: metric.unit for metric in layers.PER_LAYER}
    else:
        units = dict(harness.END_TO_END)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }


def print_result(result: Dict[str, Any]) -> None:
    kind = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']}  seed={result['seed']} seconds={result['seconds']:g}"
          f" per replica ({kind})")
    samples, counts = result["samples"], result["counts"]
    end_to_end = result.get("end_to_end", result["metrics"])
    for name, unit in harness.END_TO_END:
        note = ""
        if name.startswith("insert_"):
            note = f"  n={samples['insert']} first-attempt inserts"
        elif name.startswith("query_"):
            note = f"  n={samples['query']} first-attempt queries"
        clock = "host" if name in HOST_METRICS else "sim"
        print(f"  {name:<18} {end_to_end[name]:>14.6f} {unit:<9}{clock:<5}{note}")
    print(f"  sim_digest {result['sim_digest']}   {counts['messages']} messages, "
          f"{counts['events']} events, {result['sim_seconds']:.0f} s simulated")
    print(f"  timed section {result['timed_s']:.3f} s host undisturbed; replicas took "
          f"{', '.join('%.2f' % s for s in result['replica_wall_s'])} s "
          f"(set-up {', '.join('%.2f' % s for s in result['replica_setup_s'])} s)")
    for name, ok in result["checks"].items():
        if not ok:
            print(f"  CHECK FAILED: {name}")
    if not result["traced"]:
        return
    metrics = result["metrics"]
    print("  -- per-layer ledger (host time; *_ns/us/ms from isolated microbenches)")
    for metric in layers.PER_LAYER:
        print(f"  {metric.name:<32} {metrics[metric.name]:>16.4f} {metric.unit:<9} -> {metric.moves}")
    print("  -- top spans by self time (traced replica)")
    for row in result["trace"]["aggregate"][:12]:
        print(f"  {row['layer']:<8} {row['name']:<46} calls {row['calls']:>8} "
              f"self {row['self_s']:>8.3f} s  total {row['total_s']:>8.3f} s")
    if result["workload"] == "insert_steady":
        model = (metrics["sim.queue_push_pop_ns"] * metrics["sim.events_per_msg"]
                 + metrics["net.send_deliver_coalesced_ns"]) / 1e3 + metrics["overlay.route_hop_us"]
        measured = result["plain_wall_s"] / counts["messages"] * 1e6
        print(f"  hop pipeline: microbench sum {model:.2f} us/message vs measured "
              f"{measured:.2f} us/message (gap {100.0 * (model - measured) / measured:+.0f}%)")
