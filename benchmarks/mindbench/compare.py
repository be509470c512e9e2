"""``compare A.json B.json``: did B get worse than A, by the benchmark's bounds?

Both files are suite results written by ``python -m benchmarks.mindbench
run`` (``results/latest.json`` or a copy of it).  One row per (workload,
end-to-end metric): both values, the ratio with its base, and a verdict.
A metric whose run-to-run spread is wider than its bound is reported as
``unresolved``, never as ``unchanged``.  Sim metrics repeat exactly, so
only ``ops_per_s`` has a spread: how far its estimate moves when any one
replica is left out.
"""

import json
import os
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_bounds() -> Dict[str, Dict[str, Any]]:
    with open(BENCHMARK_JSON) as fh:
        return {metric["name"]: metric for metric in json.load(fh)["end_to_end"]}


def spread(result: Dict[str, Any], name: str) -> float:
    """Run-to-run spread of one metric as a share of its value."""
    if name != "ops_per_s":
        return 0.0
    values = result["ops_per_s_leave_one_out"]
    return (max(values) - min(values)) / result["metrics"][name]


def verdict(metric: Dict[str, Any], a: float, b: float, spread_ab: float) -> str:
    bound = metric["bound"]
    if spread_ab > bound:
        return "unresolved"
    change = (b - a) / abs(a)
    if metric["better"] == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str) -> List[Dict[str, Any]]:
    bounds = load_bounds()
    with open(path_a) as fh:
        suite_a = json.load(fh)
    with open(path_b) as fh:
        suite_b = json.load(fh)
    rows = []
    for workload, a in suite_a["workloads"].items():
        b = suite_b["workloads"].get(workload)
        if b is None:
            continue
        for name, metric in bounds.items():
            va, vb = a["metrics"][name], b["metrics"][name]
            rows.append({
                "workload": workload, "metric": name, "a": va, "b": vb,
                "ratio_b_over_a": vb / va, "bound": metric["bound"],
                "verdict": verdict(metric, va, vb, max(spread(a, name), spread(b, name))),
            })
        rows.append({
            "workload": workload, "metric": "sim_digest",
            "a": a["sim_digest"], "b": b["sim_digest"],
            "verdict": "equal" if a["sim_digest"] == b["sim_digest"] else "DIFFERENT",
        })
    return rows


def print_rows(rows: List[Dict[str, Any]], path_a: str, path_b: str) -> None:
    print(f"A = {path_a}\nB = {path_b}\n(ratio is B/A, base A)")
    print(f"{'workload':<15}{'metric':<19}{'A':>14}{'B':>14}{'B/A':>9}{'bound':>7}  verdict")
    for row in rows:
        if row["metric"] == "sim_digest":
            print(f"{row['workload']:<15}{'sim_digest':<19}{row['a'][:13]:>14}{row['b'][:13]:>14}"
                  f"{'':>16}  {row['verdict']}")
        else:
            print(f"{row['workload']:<15}{row['metric']:<19}{row['a']:>14.5f}{row['b']:>14.5f}"
                  f"{row['ratio_b_over_a']:>9.4f}{row['bound']:>7.3f}  {row['verdict']}")
