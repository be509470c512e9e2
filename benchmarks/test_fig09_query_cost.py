"""Figure 9: query cost — the number of overlay nodes visited per query.

Paper: with uniformly random attribute ranges and 5-minute time windows
over all three indices, MIND's locality preservation keeps over 90% of
queries at 4 visited nodes or fewer.

Here: the query workload of the shared baseline run, same definition of
cost (every node a query or sub-query touched, forwarding or resolving).
"""

from benchmarks.baseline_run import get_baseline_run
from benchmarks.helpers import run_once

from repro.bench.stats import format_table


def test_fig09_query_cost(benchmark):
    run = run_once(benchmark, get_baseline_run)
    costs = [m.cost for m in run.all_queries if m.end is not None]
    assert len(costs) >= 100, "need a meaningful query sample"

    rows = []
    for bound in (1, 2, 3, 4, 6, 8, 12):
        frac = sum(1 for c in costs if c <= bound) / len(costs)
        rows.append([f"<= {bound}", f"{100 * frac:.1f}%"])
    print(f"\nFigure 9 — query cost distribution ({len(costs)} queries)")
    print(format_table(["nodes visited", "fraction of queries"], rows))
    print(f"max nodes visited: {max(costs)}")

    frac_le4 = sum(1 for c in costs if c <= 4) / len(costs)
    assert frac_le4 >= 0.8, f"locality should keep most queries cheap, got {frac_le4:.2f} <= 4 nodes"
    assert max(costs) <= 34, "cost can never exceed the overlay size"

