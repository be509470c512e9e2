"""Perf-regression runner: execute the microbench suite, write BENCH_PERF.json.

Usage::

    PYTHONPATH=src python benchmarks/perf/run.py [--records N] [--queries Q]
                                                 [--output PATH] [--scale]

``--scale`` additionally runs the 1000-node/1M-record scale tier
(minutes of wall clock; ``--scale-nodes``/``--scale-records`` downsize
it) and gates on its wall-clock budget and completion fraction.

Exits non-zero (loudly) if the vectorized path is slower than the scalar
oracle on the query-scan microbenchmark — the core regression guard —
and prints per-bench speedups for the rest so trajectory changes are
visible in CI logs.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from benchmarks.perf.failover_bench import run_failover_scenario  # noqa: E402
from benchmarks.perf.microbench import (  # noqa: E402
    bench_isolation_overhead,
    bench_resource_tracking_overhead,
    bench_schedule_fuzz_overhead,
    make_records,
    run_suite,
)
from repro import checks  # noqa: E402
from repro.analysis import analyze_paths  # noqa: E402

#: Regression gates for the full-size scale tier (1M records, 1000 nodes,
#: seed 7).  Embedded in the BENCH_PERF.json scale block and enforced on
#: every run that has a full-size block — fresh or carried forward — so a
#: stale baseline that breaches the budget fails loudly instead of riding
#: along unexamined.  History: PR 7 documented a 300 s budget but only
#: printed it; the recorded 399.7 s baseline predated a join-livelock fix
#: and was unreproducible on the reference box.  The data-plane
#: flattening (interned kinds, table dispatch, slot-shared delivery
#: coalescing, call wheel) brought a clean reproducible run to ~295 s /
#: ~20k messages/s; the 160 s / 37.5k msg/s target that motivated the
#: work needs ~27 µs per message end to end, and the measured floor of
#: the pure-Python hop pipeline is ~45 µs — so the budget below is the
#: measured baseline plus ~10% headroom, not the aspiration.  Tightening
#: it further means shrinking per-hop interpreter work (or moving the hop
#: loop out of Python), not more event-count trimming: events/message is
#: already down to ~0.4.
SCALE_GATES = {
    "wall_s_max": 330.0,
    "messages_per_s_min": 18_000.0,
    "complete_fraction_min": 0.999,
}


def check_scale_gates(scale, fresh: bool) -> list:
    """Breach messages for a full-size scale block (empty when healthy)."""
    if scale.get("records", 0) < 1_000_000:
        return []  # downsized smoke runs say nothing about the 1M budget
    if scale.get("profiled"):
        return []  # profiler overhead skews wall timings; numbers not gated
    origin = "fresh run" if fresh else "carried-forward baseline"
    breaches = []
    if scale["wall_s"] >= SCALE_GATES["wall_s_max"]:
        breaches.append(
            f"PERF REGRESSION ({origin}): the 1M-record scale run took "
            f"{scale['wall_s']:.0f}s (budget {SCALE_GATES['wall_s_max']:.0f}s)"
        )
    if scale["messages_per_s"] is not None and (
        scale["messages_per_s"] < SCALE_GATES["messages_per_s_min"]
    ):
        breaches.append(
            f"PERF REGRESSION ({origin}): scale tier ran at "
            f"{scale['messages_per_s']:,.0f} messages/s "
            f"(floor {SCALE_GATES['messages_per_s_min']:,.0f})"
        )
    if scale["complete_fraction"] is not None and (
        scale["complete_fraction"] < SCALE_GATES["complete_fraction_min"]
    ):
        breaches.append(
            f"SCALE REGRESSION ({origin}): inserts failed to complete "
            f"({scale['complete_fraction']:.1%})"
        )
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=100_000,
                        help="records per microbench (default 100k)")
    parser.add_argument("--queries", type=int, default=50,
                        help="queries for the scan/workload benches")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_PERF.json")
    parser.add_argument("--scale", action="store_true",
                        help="also run the 1000-node/1M-record scale tier "
                             "(several minutes of wall clock)")
    parser.add_argument("--scale-nodes", type=int, default=1000)
    parser.add_argument("--scale-records", type=int, default=1_000_000)
    parser.add_argument("--profile", action="store_true",
                        help="run every bench under cProfile and write a "
                             "top-N report next to BENCH_PERF.json "
                             "(profiler overhead skews timings; perf gates "
                             "are skipped)")
    args = parser.parse_args(argv)

    # Timed sections measure the modeled system cost only, and every
    # runtime check (repro.checks) adds work that is not part of it:
    # isolation deep-copies each payload at delivery, schedule fuzz changes
    # which paths the timed scenarios take (retry counts, message
    # volumes), the resource ledger adds a dict update per op — so a
    # baseline recorded under any of them is not comparable to one
    # recorded without.  Wire validation is simply forced off for the
    # in-process benches, but the scale tier runs in a fresh interpreter
    # that would inherit it from the environment, so there it is refused
    # like the rest rather than silently overridden.
    if not args.scale:
        checks.active.validate = False
    for variable, what in checks.armed():
        print(
            f"{what} is ON; unset {variable} for timed perf runs — "
            "refusing to record a perf baseline",
            file=sys.stderr,
        )
        return 1

    # A perf baseline recorded from a tree that fails static analysis is
    # poisoned: nondeterminism or protocol drift makes the numbers
    # unreproducible.  Refuse to write BENCH_PERF.json in that case.
    lint = analyze_paths([str(REPO_ROOT / "src" / "repro")], check_coverage=True)
    if not lint.ok:
        for finding in lint.active:
            print(finding.render(), file=sys.stderr)
        print(
            f"repro-lint reported {len(lint.active)} finding(s); refusing to "
            "record a perf baseline from a failing tree",
            file=sys.stderr,
        )
        return 1

    # --profile wraps every bench in its own cProfile session and writes
    # one top-N report per bench to BENCH_PROFILE.txt next to the JSON —
    # the next bottleneck should be attributable, not guessed.  Profiler
    # overhead skews the recorded timings, so profiled runs skip the
    # perf-threshold gates (correctness gates still apply).
    profile_sections = []
    profiler_hook = None
    if args.profile:
        import cProfile
        import io
        import pstats

        def profiler_hook(name, thunk):
            prof = cProfile.Profile()
            prof.enable()
            try:
                result = thunk()
            finally:
                prof.disable()
            buf = io.StringIO()
            stats = pstats.Stats(prof, stream=buf)
            stats.sort_stats("cumulative").print_stats(30)
            profile_sections.append((name, buf.getvalue()))
            return result

    benches = run_suite(args.records, args.queries, args.seed, profiler=profiler_hook)
    if profiler_hook is not None:
        failure_handling = profiler_hook(
            "failover_scenario", lambda: run_failover_scenario(seed=args.seed)
        )
    else:
        failure_handling = run_failover_scenario(seed=args.seed)
    # One-shot documentation benches (not gates): what copy-on-deliver
    # would cost per message if isolation were left on, what the fuzzed
    # tie-break would cost per event if schedule fuzz were, and what the
    # resource ledger would cost per delivery if tracking were.
    isolation_overhead = bench_isolation_overhead(make_records(256, args.seed))
    schedule_fuzz_overhead = bench_schedule_fuzz_overhead()
    resource_tracking_overhead = bench_resource_tracking_overhead()

    # The scale tier is opt-in (minutes of wall clock); when it is not
    # re-run, carry the previously recorded block forward so a quick
    # microbench refresh never silently drops the scale baseline.
    scale = None
    if args.scale:
        # The scale tier runs in a fresh interpreter.  The microbench
        # suite above allocates and frees gigabytes; timing the event
        # kernel afterwards inside that fragmented heap measurably skews
        # the wall clock, and ru_maxrss would report the microbenches'
        # high-water mark instead of the kernel's.
        import os
        import subprocess

        env = dict(os.environ)
        path_parts = [str(REPO_ROOT), str(REPO_ROOT / "src")]
        if env.get("PYTHONPATH"):
            path_parts.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(path_parts)
        cmd = [
            sys.executable, "-m", "benchmarks.perf.scale_bench",
            "--nodes", str(args.scale_nodes),
            "--records", str(args.scale_records),
            "--seed", str(args.seed),
        ]
        scale_profile_path = None
        if args.profile:
            scale_profile_path = args.output.with_name(".scale_profile.tmp")
            cmd += ["--profile-out", str(scale_profile_path)]
        proc = subprocess.run(
            cmd, cwd=str(REPO_ROOT), env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("scale tier subprocess failed", file=sys.stderr)
            return 1
        scale = json.loads(proc.stdout)
        if scale_profile_path is not None and scale_profile_path.exists():
            profile_sections.append(("scale_tier", scale_profile_path.read_text()))
            scale_profile_path.unlink()
    elif args.output.exists():
        try:
            scale = json.loads(args.output.read_text()).get("scale")
        except (ValueError, OSError):
            scale = None

    payload = {
        "meta": {
            "records": args.records,
            "queries": args.queries,
            "seed": args.seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "benches": benches,
        "failure_handling": failure_handling,
        "isolation_overhead": isolation_overhead,
        "schedule_fuzz_overhead": schedule_fuzz_overhead,
        "resource_tracking_overhead": resource_tracking_overhead,
    }
    if scale is not None:
        scale["gates"] = SCALE_GATES
        payload["scale"] = scale
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"wrote {args.output}")
    if args.profile:
        profile_path = args.output.with_name("BENCH_PROFILE.txt")
        profile_path.write_text(
            "".join(
                f"==== {name} ====\n{text}\n" for name, text in profile_sections
            )
        )
        print(f"wrote {profile_path}")
    for name, entry in benches.items():
        print(
            f"  {name:16s} scalar {entry['scalar_s']:8.3f}s"
            f"  vectorized {entry['vectorized_s']:8.3f}s"
            f"  speedup {entry['speedup']:7.2f}x"
        )

    counters = failure_handling["counters"]
    print(
        f"  failover scenario: complete {failure_handling['complete_fraction']:.0%}"
        f"  recall {failure_handling['full_recall_fraction']:.0%}"
        f"  retries {counters['query_retries']}"
        f"  failovers {counters['query_failovers']}"
        f"  replica records {counters['replica_records']}"
    )

    # The store masks every scan with NumPy, whatever the size of the day,
    # so the vectorized side has to beat the scalar oracle at smoke size
    # too.  A genuine vectorization regression lands far below parity;
    # the 10% tolerance absorbs scheduler noise.
    scan = benches["query_scan"]
    if scan["speedup"] < 0.9 and not args.profile:
        print(
            "PERF REGRESSION: vectorized query scan is SLOWER than the "
            f"scalar oracle ({scan['speedup']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    if failure_handling["complete_fraction"] < 1.0:
        print(
            "ROBUSTNESS REGRESSION: queries failed to complete via replica "
            f"failover (complete {failure_handling['complete_fraction']:.0%})",
            file=sys.stderr,
        )
        return 1
    if args.scale:
        print(
            f"  scale tier: {scale['nodes']} nodes, {scale['records']:,} records"
            f"  wall {scale['wall_s']:.0f}s"
            f"  events/s {scale['events_per_s']:,.0f}"
            f"  messages/s {scale['messages_per_s']:,.0f}"
            f"  peak RSS {scale['peak_rss_mb']:.0f} MB"
        )
    # The scale gates fire whenever a full-size block is present — a
    # carried-forward baseline that breaches the budget is a recorded
    # regression, not a bygone, and must fail just as loudly as a fresh
    # run.  Downsized smoke runs (records < 1M) say nothing about the
    # 10^6-record budget and are exempt.
    if scale is not None:
        breaches = check_scale_gates(scale, fresh=args.scale)
        if breaches:
            for breach in breaches:
                print(breach, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
