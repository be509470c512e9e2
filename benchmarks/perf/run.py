"""The scale tier: mindbench's ``insert_steady`` at Figure-14 size, with a history.

    python -m benchmarks.perf.run [--smoke]

Runs :class:`ScaleTier` (1000 nodes, 1M uniform Index-1 records, 1,200
cell probes on the coalescing engine, the regime paper Section 4.3
extrapolates to) through mindbench's ``run_replica``, so the tier gets
mindbench's timed-run hygiene and output checks: no phantom records,
acknowledged inserts stored, full recall, every op succeeded, and the
live codes tile the code space.  Beforehand it times what each runtime
sanitizer would add per unit of work, which is why timed runs refuse them.
Afterwards an untimed memory probe runs the tier's engine at 256 nodes /
100k records under ``tracemalloc`` in a fresh interpreter and reports the
bytes still allocated per stored record, by the ``src/repro`` package
that allocated them.

A full-size run refuses to start from a tree with ``repro.analysis``
findings, appends one line to ``BENCH_HISTORY.jsonl`` at the repository
root (its ``tree`` names the commit it timed; see :func:`tree`) and exits non-zero unless the run is correct and inside the gates
derived from the median of the history's last three lines with the same
``sim_digest`` that kept that gate (wall <= 1.1x, messages/s >= 0.9x,
peak RSS <= 1.1x; see :func:`gates` for a new digest).
``--smoke`` (64 nodes / 20k records / 200 probes; a 32-node / 2k-record
probe) runs the same path in seconds, prints everything, exits non-zero
unless it is correct, and records nothing.
"""

import argparse
import gc
import json
import math
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HISTORY = os.path.join(ROOT, "BENCH_HISTORY.jsonl")
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.mindbench import harness  # noqa: E402
from benchmarks.mindbench.workloads import (  # noqa: E402
    DAY_S,
    SYSTEM_SEED,
    InsertSteady,
    build_cluster,
    cell_probe,
    scale_engine,
    uniform_index1,
)
from repro import checks  # noqa: E402
from repro.analysis import analyze_paths  # noqa: E402
from repro.core.cluster import ClusterConfig  # noqa: E402
from repro.core.records import Record  # noqa: E402
from repro.net import protocol  # noqa: E402
from repro.net.message import Message  # noqa: E402
from repro.net.network import SimNetwork  # noqa: E402
from repro.net.topology import synthetic_planetlab_sites  # noqa: E402
from repro.sim.events import EventQueue  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.traffic.indices import index1_schema  # noqa: E402

#: Input seed of the recorded run (the system itself is ``SYSTEM_SEED``).
SEED = 1
#: Gates on a full-size run, relative to the median of the history's last
#: ``GATE_LINES`` lines that share the run's ``sim_digest`` (:func:`gates`).
WALL_GATE = 1.1
MESSAGES_PER_S_GATE = 0.9
PEAK_RSS_GATE = 1.1
GATE_LINES = 3
#: The ``src/repro`` packages the memory probe attributes bytes to; the
#: rest (the harness, other packages, the interpreter) is ``other``.
PACKAGES = ("sim", "net", "overlay", "core", "storage")


class ScaleTier(InsertSteady):
    """``insert_steady`` at 1000 nodes: same engine, rate and inputs."""

    name = "scale_tier"
    why = ("the Figure-14 regime: 1000 sites, 1M uniform Index-1 inserts at 2 rec/s/node "
           "and single-cell probes on the coalescing engine")
    #: (nodes, records, probes) of a full-size and a ``--smoke`` run.
    FULL = (1000, 1_000_000, 1200)
    SMOKE = (64, 20_000, 200)
    REPLICATION = 0

    def engine(self) -> ClusterConfig:
        return scale_engine()

    def setup(self) -> None:
        nodes, inserts, probes = self.SMOKE if self.smoke else self.FULL
        schema = index1_schema(DAY_S)
        sites = synthetic_planetlab_sites(nodes, harness.sub_rng(SYSTEM_SEED, "sites"))
        self.cluster = build_cluster(self, sites, self.engine(), schema, self.REPLICATION)
        rng = harness.np_rng(self.seed, "records")
        qrng = harness.sub_rng(self.seed, "queries")
        self.loop = harness.OpenLoop(
            self.cluster, schema, uniform_index1(rng, inserts),
            [cell_probe(qrng, schema.name) for _ in range(probes)],
        )
        self.timed_inserts = range(inserts)
        self.timed_queries = range(probes)
        self._rate = 2.0 * nodes
        self._origins = rng.integers(0, nodes, inserts)
        self._q_origins = rng.integers(0, nodes, probes)

    def check(self) -> Dict[str, bool]:
        # Live primary plus adopted codes must cover the code space exactly
        # once; a region nobody owns shows up as a Kraft sum below 1.
        live = [node for node in self.cluster.nodes if node.in_overlay()]
        regions = [node.code for node in live] + [r for node in live for r in node.adopted]
        return {"codes_tile_the_space": math.fsum(2.0 ** -len(r) for r in regions) == 1.0}


class ScaleChurn(ScaleTier):
    """The tier under stationary churn, as Figure 14's robustness run: replication 1,
    explicit heartbeats, never fewer than 70% of the nodes live."""

    name = "scale_churn"
    fault_free = False
    REPLICATION = 1
    #: Churn stops this long before the last insert is issued, so takeovers
    #: and rejoins have finished when the checks run.
    HEAL_S = 60.0

    def engine(self) -> ClusterConfig:
        config = scale_engine()
        config.overlay.hb_suppress_s = None  # code changes travel on heartbeats
        return config

    def setup(self) -> None:
        super().setup()
        failures = self.cluster.failures
        addresses = [node.address for node in self.cluster.nodes]
        failures.start_churn(
            addresses[1:], mean_uptime_s=60.0, mean_downtime_s=30.0,
            min_live=int(0.7 * len(addresses)),
        )
        churn_s = len(self.timed_inserts) / self._rate - self.HEAL_S
        self.cluster.sim.schedule(churn_s, failures.stop_churn)


class MemoryProbe(ScaleTier):
    """The tier's engine and inputs at 256 nodes / 100k records, run untimed."""

    name = "memory_probe"
    FULL = (256, 100_000, 200)
    SMOKE = (32, 2_000, 50)


def memory(smoke: bool) -> Dict[str, Any]:
    """Bytes still allocated after one :class:`MemoryProbe` run, per stored
    record, by the package whose code allocated them.

    Measured in a fresh interpreter: process-wide caches (interned codes
    among them) that an earlier run warmed were allocated before tracing
    starts, so in this process the reading would depend on what ran first."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(_retained, smoke).result()


def _retained(smoke: bool) -> Dict[str, Any]:
    protocol.set_validation(False)
    workload = MemoryProbe(SEED, 0.0, smoke)
    gc.collect()
    tracemalloc.start()
    try:
        workload.setup()
        workload.run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    cluster = workload.cluster
    records = sum(node.records_stored for node in cluster.nodes)
    cluster.close()
    src = os.path.join(ROOT, "src", "repro") + os.sep
    retained = dict.fromkeys(PACKAGES + ("other",), 0)
    for stat in snapshot.statistics("filename"):
        path = stat.traceback[0].filename
        package = path[len(src):].split(os.sep)[0] if path.startswith(src) else "other"
        retained[package if package in retained else "other"] += stat.size
    per_record = {name: round(size / records, 1) for name, size in retained.items()}
    per_record["total"] = round(sum(retained.values()) / records, 1)
    return {"nodes": len(cluster.nodes), "records": records, "bytes_per_record": per_record}


def tier_summary(result: Dict[str, Any]) -> Dict[str, Any]:
    """The numbers of one ``run_replica`` result that the history keeps."""
    nodes, records, probes = ScaleTier.SMOKE if result["smoke"] else ScaleTier.FULL
    counts = result["counts"]
    wall = sum(result["run_laps"])
    summary = {
        "nodes": nodes, "records": records, "probes": probes, "seed": result["seed"],
        "wall_s": round(wall, 2),
        "setup_s": round(sum(result["setup_laps"]), 2),
        "messages_per_s": round(counts["messages"] / wall, 1),
        "events_per_s": round(counts["events"] / wall, 1),
        "peak_rss_mb": round(result["peak_rss_mb"], 1),
        "mean_hops": round(counts["hops_sum"] / max(1, counts["inserts_ok"]), 3),
    }
    summary.update((name, round(value, 4)) for name, value in result["sim_metrics"].items())
    return summary


def _extra_cost(work: Callable[[Any], None], off: Any, on: Any, units: int) -> float:
    """Best-of-five seconds per unit that ``work(on)`` adds over ``work(off)``
    (interleaved, so a slow spell of the machine hits both arms)."""
    best = {off: math.inf, on: math.inf}
    for _ in range(5):
        for arm in (off, on):
            start = time.perf_counter()
            work(arm)
            best[arm] = min(best[arm], time.perf_counter() - start)
    return (best[on] - best[off]) / units


def overheads() -> Dict[str, float]:
    """What each runtime sanitizer adds: isolation per cloned ``query_response``
    of 64 records, schedule fuzz per event of a tie-heavy queue, the
    resource ledger per coalesced message."""
    rows = uniform_index1(harness.np_rng(SEED, "overheads"), 64).tolist()
    msg = Message(src="a", dst="b", kind="query_response", payload={
        "qid": "q", "version": 0.0, "region": "0101", "spawned": [],
        "records": [Record(row, key=k + 1).to_wire() for k, row in enumerate(rows)],
        "path": [f"node-{i}" for i in range(8)], "responder": "node-0",
        "attempt": 1, "failover": False,
    })
    clones, events, sends = 2000, 50_000, 50_000

    def clone(level: str) -> None:
        for _ in range(clones):
            msg.clone(level=level)

    def drain(mode: str) -> None:
        with checks.configure(fuzz=mode, fuzz_seed=1):
            queue = EventQueue()
        for i in range(events):
            queue.push(float(i % 50), int, ())
        while queue.pop() is not None:
            pass

    def stream(tracked: bool) -> None:
        with checks.configure(track_resources=tracked, validate=False):
            sim = Simulator(seed=13)
            net = SimNetwork(sim, {}, coalesce_window_s=0.05)
            for address in ("a", "b"):
                net.register(address, lambda delivered: None)
            for i in range(sends):
                net.send("a", "b", "bench_noop", {"i": i})
            sim.run_until_idle()

    return {
        "isolation_freeze_us_per_msg": round(
            1e6 * _extra_cost(clone, checks.ISOLATE_OFF, checks.ISOLATE_FREEZE, clones), 3),
        "schedule_fuzz_ns_per_event": round(
            1e9 * _extra_cost(drain, checks.FUZZ_OFF, checks.FUZZ_SHUFFLE, events), 1),
        "resource_ledger_ns_per_msg": round(1e9 * _extra_cost(stream, False, True, sends), 1),
    }


def _git(root: str, *args: str) -> Optional[str]:
    """``git args`` in ``root``: its stripped output, or ``None`` when it fails."""
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tree(root: str) -> Optional[str]:
    """The commit that holds the tree a run times, for its history line.

    ``HEAD`` when the worktree is clean.  When tracked files differ from
    ``HEAD``, ``git stash create``: a commit of the worktree, made without
    touching the worktree, the index or the stash list (``git show`` reads
    it back until ``git gc`` prunes it as unreachable).  Untracked files are
    not captured.  ``None`` outside git, or when git cannot write the commit."""
    stash = _git(root, "stash", "create")
    if stash is None:
        return None
    return stash or _git(root, "rev-parse", "HEAD")


def gates(tier: Dict[str, Any], digest: str) -> Dict[str, Any]:
    """Limits derived from the history, and whether ``tier`` kept them.

    Each limit scales the median of the last ``GATE_LINES`` history lines
    that share ``digest`` and did not fail that same gate themselves, so a
    run in a slow spell never loosens the limit for the next one.  When no
    line shares ``digest`` (the simulation changed), the baseline is the
    history's lines of any digest; an empty history gates ``tier`` against
    itself.  ``baseline`` says which of the three applied."""
    lines = []
    if os.path.exists(HISTORY):
        with open(HISTORY) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    same = [line for line in lines if line["sim_digest"] == digest]
    pool = same or lines or [{"tier": tier}]

    def median(name: str) -> float:
        kept = [line for line in pool if line.get("gates", {}).get("passed", {}).get(name, True)]
        return statistics.median(line["tier"][name] for line in (kept or pool)[-GATE_LINES:])

    wall_max = round(WALL_GATE * median("wall_s"), 2)
    rate_min = round(MESSAGES_PER_S_GATE * median("messages_per_s"), 1)
    rss_max = round(PEAK_RSS_GATE * median("peak_rss_mb"), 1)
    return {
        "baseline": "same digest" if same else "other digests" if lines else "none",
        "wall_s_max": wall_max,
        "messages_per_s_min": rate_min,
        "peak_rss_mb_max": rss_max,
        "passed": {
            "wall_s": tier["wall_s"] <= wall_max,
            "messages_per_s": tier["messages_per_s"] >= rate_min,
            "peak_rss_mb": tier["peak_rss_mb"] <= rss_max,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--smoke", action="store_true",
                        help="64 nodes / 20k records: check the path, record nothing")
    args = parser.parse_args(argv)

    try:
        harness.refuse_sanitizers()
    except harness.BenchmarkRefused as exc:
        print(f"benchmarks.perf: {exc}", file=sys.stderr)
        return 2
    if not args.smoke:
        # Nondeterminism or protocol drift makes a recorded number
        # unreproducible, so a failing tree records nothing.
        lint = analyze_paths([os.path.join(ROOT, "src", "repro")])
        if not lint.ok:
            for finding in lint.active:
                print(finding.render(), file=sys.stderr)
            print(f"benchmarks.perf: repro.analysis reported {len(lint.active)} finding(s); "
                  "refusing to record from a failing tree", file=sys.stderr)
            return 1

    # Named before the run: the worktree may change while it runs.
    timed_tree = None if args.smoke else tree(ROOT)
    # Before the tier: on the heap it leaves behind, a collection of its
    # objects can land in either arm of a sanitizer's timing.
    costs = overheads()
    result = harness.run_replica(ScaleTier, SEED, 0.0, args.smoke)
    probe = memory(args.smoke)
    tier = tier_summary(result)
    line = {
        "fingerprint": harness.fingerprint(ROOT),
        "tree": timed_tree,
        "tier": tier,
        "counts": result["counts"],
        "sim_digest": result["sim_digest"],
        "checks": result["checks"],
        "correct": result["correct"],
        "overheads": costs,
        "memory": probe,
    }
    for section in ("tier", "checks", "overheads"):
        print(f"  -- {section}")
        for name, value in line[section].items():
            print(f"  {name:28s} {value}")
    print(f"  -- memory: bytes per stored record after the {probe['nodes']}-node / "
          f"{probe['records']}-record probe")
    for name, value in probe["bytes_per_record"].items():
        print(f"  {name:28s} {value}")
    print(f"  {'sim_digest':28s} {line['sim_digest']}")
    if not result["correct"]:
        failed = [name for name, ok in result["checks"].items() if not ok]
        print(f"benchmarks.perf: output checks failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    if args.smoke:
        return 0

    line["gates"] = gates(tier, line["sim_digest"])
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"appended to {HISTORY}: gates {line['gates']}")
    return 0 if all(line["gates"]["passed"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
