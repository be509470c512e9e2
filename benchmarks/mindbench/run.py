"""One measured run of one workload — the command ``BENCHMARK.json`` names.

``python3 benchmarks/mindbench/run.py --workload W --seed N --seconds S
--trace 0|1`` prints every metric by name and, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ledger with ``--trace 1``).  A run whose output checks fail
exits non-zero without writing a result.

A run is ``REPLICAS`` fresh interpreters (``--replica``, started with
``PYTHONHASHSEED=0``), each setting up and running the same deterministic
workload sized for its share of ``--seconds``; this process only merges
them.  ``harness.merge_replicas`` says why.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def spawn_replica(args, trace: bool, tmp: str, tag: str) -> dict:
    """Run one replica in a fresh interpreter and return its result."""
    from benchmarks.mindbench import harness

    out = os.path.join(tmp, f"replica-{tag}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--replica",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / harness.REPLICAS),
           "--trace", str(int(trace)), "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode == 2:
        raise harness.BenchmarkRefused("a replica refused to run (see above)")
    if proc.returncode != 0:
        raise harness.OutputCheckFailed(f"replica {tag} exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def replica_main(args) -> int:
    """``--replica``: set up and run once in this process, write the result."""
    from benchmarks.mindbench import harness, tracing, workloads

    tracer = tracing.Tracer().install() if args.trace else None
    try:
        result = harness.run_replica(
            workloads.BY_NAME[args.workload], args.seed, args.seconds, args.smoke, tracer
        )
    except harness.BenchmarkRefused as exc:
        print(f"mindbench: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        result["trace"] = tracer.report(sum(result["run_laps"]))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds of timed work, shared between the replicas")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks plumbing, times nothing worth reading")
    parser.add_argument("--out", default=None, help="also write the full result JSON here")
    parser.add_argument("--replica", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        from benchmarks.mindbench import harness, report, workloads
    except ModuleNotFoundError as exc:
        print(f"mindbench: the program under test is missing ({exc}); "
              "run from a checkout that has src/repro", file=sys.stderr)
        return 3

    if args.workload not in workloads.BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.BY_NAME)}")
    if args.replica:
        return replica_main(args)
    try:
        harness.refuse_sanitizers()
        os.makedirs(RESULTS, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            if args.trace:
                result = report.traced_result(
                    spawn_replica(args, False, tmp, "plain"),
                    spawn_replica(args, True, tmp, "traced"),
                )
            else:
                result = harness.merge_replicas(
                    [spawn_replica(args, False, tmp, str(i)) for i in range(harness.REPLICAS)]
                )
    except harness.BenchmarkRefused as exc:
        print(f"mindbench: {exc}", file=sys.stderr)
        return 2
    except harness.OutputCheckFailed as exc:
        print(f"mindbench: {exc}", file=sys.stderr)
        return 1
    result["fingerprint"] = harness.fingerprint(ROOT)

    report.print_result(result)
    if not result["correct"]:
        failed = [name for name, ok in result["checks"].items() if not ok]
        print(f"mindbench: output checks failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    kind = "trace" if args.trace else "run"
    for path in (args.out, os.path.join(RESULTS, f"{kind}-{args.workload}.json")):
        if path:
            with open(path, "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(report.contract_line(result)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
