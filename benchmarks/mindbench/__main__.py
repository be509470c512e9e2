"""``python -m benchmarks.mindbench run|compare`` — the human entry point.

``run`` executes every workload through ``run.py`` (fresh interpreters
with ``PYTHONHASHSEED=0``, outputs checked), prints every metric by name
with its unit and clock, overwrites ``results/latest.json`` and appends
one line to ``results/history.jsonl``.  ``run --trace`` prints the
per-layer ledger instead; ``run --smoke`` is a seconds-long plumbing
check that times nothing worth reading and keeps no history.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict

from benchmarks.mindbench import compare, harness, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")


def run_suite(seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """Every workload once; returns the suite result ``compare`` reads."""
    suite: Dict[str, Any] = {
        "fingerprint": harness.fingerprint(os.path.dirname(os.path.dirname(HERE))),
        "seed": seed, "seconds": seconds, "traced": trace, "smoke": smoke, "workloads": {},
    }
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for cls in workloads.WORKLOADS:
            out = os.path.join(tmp, f"{cls.name}.json")
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", cls.name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace)), "--out", out]
            if smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            # Everything but the machine-readable last line is for people.
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.returncode == 0
                             else proc.stdout)
            if proc.returncode != 0:
                raise SystemExit(proc.returncode)
            with open(out) as fh:
                result = json.load(fh)
            result.pop("trace", None)  # kept in results/trace-<workload>.json
            suite["workloads"][cls.name] = result
    return suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.mindbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="host seconds of timed work per workload "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", action="store_true", help="print the per-layer ledger")
    run.add_argument("--smoke", action="store_true")
    cmp_parser = sub.add_parser("compare", help="compare two suite results")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        rows = compare.compare(args.a, args.b)
        compare.print_rows(rows, args.a, args.b)
        return 1 if any(row["verdict"] in ("worse", "DIFFERENT") for row in rows) else 0

    seconds = args.seconds
    if seconds is None:
        with open(compare.BENCHMARK_JSON) as fh:
            seconds = float(json.load(fh)["run_seconds"])
    suite = run_suite(args.seed, seconds, args.trace, args.smoke)
    if not (args.smoke or args.trace):
        with open(os.path.join(RESULTS, "latest.json"), "w") as fh:
            json.dump(suite, fh, indent=1, sort_keys=True)
        with open(os.path.join(RESULTS, "history.jsonl"), "a") as fh:
            fh.write(json.dumps(suite, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
