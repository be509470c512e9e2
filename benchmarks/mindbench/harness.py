"""Experiment / Workload harness: bootstrap -> registered workloads -> teardown.

A :class:`Workload` builds its own cluster and inputs from a seed
(``setup``), runs one timed section (``run``) and names the checks that
are particular to it (``check``).  :func:`run_replica` owns what every
workload shares — timed-run hygiene, the GC-frozen timed section, output
verification against a NumPy reference, the sim metrics and the
``sim_digest`` — and :func:`merge_replicas` turns the fresh-process
replicas of a run into its end-to-end metrics.

Two clocks appear in every result and are never mixed: **host** is wall
seconds of this Python process, **sim** is simulated seconds of the
modelled WAN.  Sim numbers are bit-exact for a fixed ``(seed, seconds)``.

The load generator is an open loop in sim time: every insert and query
has a fixed scheduled issue time that does not depend on completions
(:class:`OpenLoop`).  The generator is exact — an op is issued by a
kernel event at its scheduled time — so lateness is zero by construction
and latency is measured from the scheduled issue time.
"""

import gc
import hashlib
import math
import os
import platform
import random
import resource
import subprocess
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.cluster import MindCluster
from repro.core.query import RangeQuery
from repro.core.records import Record
from repro.core.schema import IndexSchema
from repro.net import message, protocol
from repro.sim import events, resources

#: Fresh-process replicas per run: each sets up and runs the same
#: deterministic workload; host metrics combine them lap by lap
#: (:func:`undisturbed_seconds`).  ``--seconds`` is shared between them.
REPLICAS = 3

#: Simulated seconds per host-time lap of :meth:`Workload.advance`
#: (10-50 ms of host time on every workload).
CHUNK_SIM_S = 0.5

#: Inserts issued per generator event.  One kernel event per insert would
#: add events that model nothing (+50% on ``insert_steady``); members of a
#: batch start at different origin nodes, so no queueing artifact.
DRIVER_BATCH = 4

#: Sim latency percentiles of first-attempt ops.  p50 and p90 are
#: end-to-end metrics; p99 needs ~10^4 samples to be steady across seeds
#: and is reported in the per-layer ledger, without a bound.
PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))

SANITIZER_ENV = ("REPRO_ISOLATE_MESSAGES", "REPRO_SCHEDULE_FUZZ", "REPRO_TRACK_RESOURCES")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("insert_p50_s", "s"),
    ("insert_p90_s", "s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("success_frac", "fraction"),
    ("full_recall_frac", "fraction"),
)


class BenchmarkRefused(RuntimeError):
    """The environment cannot give a meaningful timed run."""


class OutputCheckFailed(RuntimeError):
    """The program's outputs were wrong; no result is written."""


def sub_rng(seed: int, label: str) -> random.Random:
    """A stdlib stream derived from the run seed (str seeds hash by sha512)."""
    return random.Random(f"mindbench:{seed}:{label}")


def np_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def refuse_sanitizers() -> None:
    """Timed runs are meaningless under the runtime sanitizers."""
    armed = [name for name in SANITIZER_ENV if os.environ.get(name, "") not in ("", "0")]
    if (
        armed
        or message.isolation_level() != message.ISOLATE_OFF
        or events.schedule_fuzz_mode() != events.FUZZ_OFF
        or resources.tracking_enabled()
    ):
        raise BenchmarkRefused(
            "refusing to time with a runtime sanitizer armed "
            f"({', '.join(armed) or 'set programmatically'}); unset it and run again"
        )


def fingerprint(root: str) -> Dict[str, Any]:
    """The box a result was measured on, recorded in every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def percentile(ordered: Sequence[float], frac: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    return ordered[min(len(ordered) - 1, int(frac * len(ordered)))]


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class OpenLoop:
    """Pre-generated inserts and queries, issued at their scheduled times.

    Rows of ``values`` are the records (row ``k`` has key ``k + 1``);
    ``queries`` are the range queries.  Both are generated up front by the
    workload from its seed, so ``src/repro`` only ever sees inputs.  Events
    are materialised one simulated second at a time, which keeps the
    kernel's pending set bounded by the traffic in flight.
    """

    def __init__(
        self,
        cluster: MindCluster,
        schema: IndexSchema,
        values: np.ndarray,
        queries: Sequence[RangeQuery],
        payloads: Optional[Sequence[Dict[str, Any]]] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.schema = schema
        self.index = schema.name
        self.values = values
        self.payloads = payloads
        self.queries = list(queries)
        self._nodes = cluster.nodes
        nan = math.nan
        n, q = len(values), len(self.queries)
        self.ins_origin: List[int] = [0] * n
        self.ins_start = [nan] * n
        self.ins_end = [nan] * n
        self.ins_ok = [False] * n
        self.ins_hops = [0] * n
        self.ins_retries = [0] * n
        self.ins_failovers = [0] * n
        self.q_origin: List[int] = [0] * q
        self.q_start = [nan] * q
        self.q_end = [nan] * q
        self.q_complete = [False] * q
        self.q_keys: List[Optional[set]] = [None] * q
        self.q_nodes = [0] * q
        self.q_regions = [0] * q
        self.q_retries = [0] * q
        self.q_failovers = [0] * q
        self._ins_slot: Dict[str, int] = {}
        self._q_slot: Dict[str, int] = {}

    # -- scheduling -----------------------------------------------------
    def schedule_inserts(self, rows: range, at: np.ndarray, origins: np.ndarray) -> None:
        """Issue records ``rows`` at absolute sim times ``at`` (ascending)."""
        self.ins_origin[rows.start:rows.stop] = origins.tolist()
        self._stream(rows.start, at.tolist(), self._issue_inserts, DRIVER_BATCH)

    def schedule_queries(self, rows: range, at: np.ndarray, origins: np.ndarray) -> None:
        self.q_origin[rows.start:rows.stop] = origins.tolist()
        self._stream(rows.start, at.tolist(), self._issue_queries, 1)

    def _stream(self, first: int, at: List[float], emit, batch: int) -> None:
        sim = self.sim
        n = len(at)

        def tick(pos: int) -> None:
            horizon = at[pos] + 1.0
            stop = pos
            items = []
            while stop < n and at[stop] < horizon:
                nxt = min(stop + batch, n)
                items.append((at[stop], emit, (first + stop, first + nxt)))
                stop = nxt
            sim.schedule_many(items)
            if stop < n:
                sim.schedule_at(max(at[stop], sim.now), tick, stop)

        if n:
            sim.schedule_at(at[0], tick, 0)

    # -- issue and completion -------------------------------------------
    def _issue_inserts(self, lo: int, hi: int) -> None:
        now = self.sim.now
        values, payloads, nodes, index = self.values, self.payloads, self._nodes, self.index
        for k in range(lo, hi):
            node = nodes[self.ins_origin[k]]
            self.ins_start[k] = now
            if not (node.in_overlay() and node.has_index(index)):
                self.ins_end[k] = now  # refused at the origin: attempted and failed
                continue
            record = Record(
                values[k].tolist(), payloads[k] if payloads is not None else None, key=k + 1
            )
            self._ins_slot[node.insert_record(index, record, self._insert_done)] = k

    def _insert_done(self, metric) -> None:
        k = self._ins_slot.pop(metric.op_id)
        self.ins_end[k] = metric.end
        self.ins_ok[k] = metric.success
        self.ins_hops[k] = metric.hops or 0
        self.ins_retries[k] = metric.retries
        self.ins_failovers[k] = metric.failovers

    def _issue_queries(self, lo: int, hi: int) -> None:
        now = self.sim.now
        for j in range(lo, hi):
            node = self._nodes[self.q_origin[j]]
            self.q_start[j] = now
            if not (node.in_overlay() and node.has_index(self.index)):
                self.q_end[j] = now
                continue
            self._q_slot[node.query_index(self.queries[j], self._query_done)] = j

    def _query_done(self, metric) -> None:
        j = self._q_slot.pop(metric.op_id)
        self.q_end[j] = metric.end
        self.q_complete[j] = metric.complete
        self.q_keys[j] = metric.record_keys
        self.q_nodes[j] = len(metric.nodes_visited)
        self.q_regions[j] = metric.regions
        self.q_retries[j] = metric.retries
        self.q_failovers[j] = metric.failovers


# ----------------------------------------------------------------------
# Output verification
# ----------------------------------------------------------------------
def verify_queries(loop: OpenLoop, rows: range) -> Dict[str, int]:
    """Compare every query's key set with a vectorised NumPy reference.

    Reads and writes may overlap, so the reference is a pair of sets per
    query: ``must`` — matching records whose insert was acknowledged
    before the query started — and ``may`` — matching records whose insert
    was issued before the query ended.  A query has full recall when it is
    complete and ``must <= returned <= may``; a returned key outside
    ``may`` is a phantom and fails the run.  With no concurrent writes
    both sets are the plain reference answer.
    """
    schema = loop.schema
    points = schema.normalize_batch(loop.values)
    time_dim = schema.time_dimension()
    order = np.argsort(points[:, time_dim], kind="stable")
    points = points[order]
    times = points[:, time_dim]
    start = np.asarray(loop.ins_start)[order]
    acked = np.where(np.asarray(loop.ins_ok)[order], np.asarray(loop.ins_end)[order], np.inf)
    keys = order + 1

    full = phantom = 0
    for j in rows:
        returned = loop.q_keys[j]
        if returned is None:
            continue  # never returned, or refused at the origin
        rect = loop.queries[j].normalized_rect(schema)
        t_lo, t_hi = rect[time_dim]
        i0 = int(np.searchsorted(times, t_lo, side="left"))
        i1 = len(times) if t_hi >= 1.0 else int(np.searchsorted(times, t_hi, side="left"))
        mask = np.ones(i1 - i0, dtype=bool)
        for dim, (lo, hi) in enumerate(rect):
            if dim == time_dim:
                continue
            column = points[i0:i1, dim]
            mask &= column >= lo
            if hi < 1.0:
                mask &= column < hi
        hit = np.flatnonzero(mask) + i0
        may = set(keys[hit[start[hit] < loop.q_end[j]]].tolist())
        if not returned <= may:
            phantom += 1
            continue
        must = set(keys[hit[acked[hit] <= loop.q_start[j]]].tolist())
        if loop.q_complete[j] and must <= returned:
            full += 1
    return {"full_recall": full, "phantom": phantom}


def stored_keys(cluster: MindCluster, index: str) -> set:
    """Every record key held by any node's store (durable across crashes)."""
    held: set = set()
    for node in cluster.nodes:
        state = node.indices.get(index)
        if state is not None:
            held.update(record.key for record in state.store.all_records())
    return held


# ----------------------------------------------------------------------
# Workloads and the experiment that runs them
# ----------------------------------------------------------------------
class Workload:
    """One named set of inputs.  Subclasses fill in ``setup``/``run``/``check``.

    Host time is recorded in *laps*: every phase of set-up and every
    ``CHUNK_SIM_S`` of simulated time in :meth:`advance` closes one lap.
    The simulation is deterministic, so lap ``i`` is the same work in every
    replica of a run, which is what :func:`merge_replicas` relies on.
    """

    name = ""
    why = ""
    #: Fault-free workloads must complete every op with full recall.
    fault_free = True

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.cluster: Optional[MindCluster] = None
        self.loop: Optional[OpenLoop] = None
        #: Rows of ``loop.values`` / ``loop.queries`` issued in the timed
        #: section (set-up may have preloaded earlier rows).
        self.timed_inserts = range(0)
        self.timed_queries = range(0)
        #: Named host-time phases and counts particular to the workload.
        self.extras: Dict[str, float] = {}
        self.laps: List[float] = []
        self._lap_start = time.perf_counter()

    def lap(self) -> float:
        """Close one lap: host seconds since the previous lap closed."""
        now = time.perf_counter()
        elapsed = now - self._lap_start
        self.laps.append(elapsed)
        self._lap_start = now
        return elapsed

    def take_laps(self) -> List[float]:
        """Close the open lap and hand over every lap recorded so far."""
        self.lap()
        laps, self.laps = self.laps, []
        return laps

    def advance(self, sim_seconds: float) -> float:
        """Run the simulation forward, one lap per chunk; returns host seconds."""
        sim = self.cluster.sim
        start = sim.now
        chunks = max(1, math.ceil(sim_seconds / CHUNK_SIM_S))
        first = len(self.laps)
        for i in range(1, chunks + 1):
            sim.run_until(start + sim_seconds * i / chunks)
            self.lap()
        return sum(self.laps[first:])

    def setup(self) -> None:
        """Build overlay + index, generate inputs, preload."""
        raise NotImplementedError

    def run(self) -> None:
        """The timed section."""
        raise NotImplementedError

    def check(self) -> Dict[str, bool]:
        """Workload-specific output checks, by name."""
        return {}


def run_replica(workload_cls, seed: int, seconds: float, smoke: bool = False,
                tracer=None) -> Dict[str, Any]:
    """Set up and run one workload once, in this process, under timed-run
    hygiene; returns sim metrics, counts, checks and the host-time laps."""
    refuse_sanitizers()
    protocol.set_validation(False)
    gc.collect()
    workload = workload_cls(seed, seconds, smoke)
    workload.setup()
    setup_laps = workload.take_laps()

    cluster = workload.cluster
    net = cluster.network
    ev0, msg0, fail0 = cluster.sim.events_processed, net.messages_sent, net.messages_failed
    bytes0 = sum(s.bytes for s in net.link_stats.values())
    # GC frozen around the timed section, as the scale tier does: the
    # steady state allocates acyclically and generational scans of the
    # permanent topology are pure overhead.
    gc.collect()
    gc.freeze()
    gc.disable()
    if tracer is not None:
        tracer.start()
    workload.take_laps()  # the GC pass above is not part of any section
    try:
        workload.run()
        run_laps = workload.take_laps()
    finally:
        if tracer is not None:
            tracer.stop()
        gc.enable()
        gc.unfreeze()
    counters = {
        "events": cluster.sim.events_processed - ev0,
        "messages": net.messages_sent - msg0,
        "failed_msgs": net.messages_failed - fail0,
        "bytes": sum(s.bytes for s in net.link_stats.values()) - bytes0,
    }
    result = _assemble(workload, counters)
    result.update(
        seed=seed, seconds=seconds, smoke=smoke, traced=tracer is not None,
        setup_laps=setup_laps, run_laps=run_laps,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    cluster.close()
    return result


def _assemble(workload: Workload, counters: Dict[str, int]) -> Dict[str, Any]:
    loop = workload.loop
    ins, qs = workload.timed_inserts, workload.timed_queries
    ins_ok = [k for k in ins if loop.ins_ok[k]]
    q_ok = [j for j in qs if loop.q_complete[j]]
    # Latency percentiles are taken over ops that completed on their first
    # attempt: a retried op sits on the 30 s attempt-watchdog cliff, so a
    # percentile that straddles the retried share would read a 1% shift of
    # that share as a 30x move.  The retried share is reported beside them
    # (core.retry_frac).
    ins_lat = sorted(
        loop.ins_end[k] - loop.ins_start[k]
        for k in ins_ok if not (loop.ins_retries[k] or loop.ins_failovers[k])
    )
    q_lat = sorted(
        loop.q_end[j] - loop.q_start[j]
        for j in q_ok if not (loop.q_retries[j] or loop.q_failovers[j])
    )
    attempted = len(ins) + len(qs)
    failed = attempted - len(ins_ok) - len(q_ok)

    verdict = verify_queries(loop, qs)
    succeeded_keys = {k + 1 for k in range(len(loop.values)) if loop.ins_ok[k]}
    checks = {
        "no_phantom_records": verdict["phantom"] == 0,
        "acked_inserts_stored": succeeded_keys <= stored_keys(workload.cluster, loop.index),
        "both_op_classes_sampled": bool(ins_lat) and bool(q_lat),
    }
    if workload.fault_free:
        checks["all_ops_succeeded"] = failed == 0
        checks["all_queries_full_recall"] = verdict["full_recall"] == len(qs)
        checks["stored_total_equals_inserts"] = (
            sum(workload.cluster.storage_distribution(loop.index).values())
            == len(succeeded_keys)
        )
    checks.update(workload.check())

    sim_metrics: Dict[str, float] = {
        "success_frac": 1.0 - failed / attempted,
        "full_recall_frac": verdict["full_recall"] / len(qs),
    }
    for name, lat in (("insert", ins_lat), ("query", q_lat)):
        for label, frac in PERCENTILES:
            sim_metrics[f"{name}_{label}_s"] = percentile(lat, frac) if lat else math.nan

    hops = sorted(loop.ins_hops[k] for k in ins_ok)
    done_q = [j for j in qs if loop.q_keys[j] is not None]
    counts = dict(counters)
    counts.update(
        inserts=len(ins), inserts_ok=len(ins_ok), queries=len(qs), queries_ok=len(q_ok),
        queries_answered=len(done_q),
        ops_retried=(len(ins_ok) - len(ins_lat)) + (len(q_ok) - len(q_lat)),
        hops_sum=sum(hops), hops_p99=percentile(hops, 0.99) if hops else 0,
        insert_retries=sum(loop.ins_retries[k] for k in ins),
        query_retries=sum(loop.q_retries[j] for j in qs),
        failovers=sum(loop.ins_failovers[k] for k in ins)
        + sum(loop.q_failovers[j] for j in qs),
        nodes_visited=sum(loop.q_nodes[j] for j in done_q),
        regions=sum(loop.q_regions[j] for j in done_q),
        records_returned=sum(len(loop.q_keys[j]) for j in done_q),
        records_stored=sum(n.records_stored for n in workload.cluster.nodes),
        replicas_stored=sum(n.replicas_stored for n in workload.cluster.nodes),
    )
    digest = hashlib.sha256(
        repr((sorted(counts.items()), sum(ins_lat).hex(), sum(q_lat).hex())).encode()
    ).hexdigest()[:16]
    return {
        "workload": workload.name,
        "sim_metrics": sim_metrics,
        "samples": {"insert": len(ins_lat), "query": len(q_lat)},  # first-attempt ops
        "sim_digest": digest,
        "counts": counts,
        "sim_seconds": workload.cluster.sim.now,
        "extras": workload.extras,
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
    }


# ----------------------------------------------------------------------
# Host time on a noisy box
# ----------------------------------------------------------------------
def undisturbed_seconds(lap_lists: Sequence[Sequence[float]]) -> float:
    """Host seconds the laps would take on an undisturbed machine.

    The sandbox's cores flip between a fast and a ~1.45x slower state for
    seconds at a time, so the wall time of a 10 s section varies by up to
    40% run to run.  Every replica executes the same deterministic laps;
    the fastest execution of each lap is the one least disturbed, and the
    sum of those is far steadier than any replica's total while still
    counting all the work (unlike a low quantile of lap throughput, which
    is blind to an optimisation of the expensive laps).
    """
    return sum(min(laps) for laps in zip(*lap_lists))


def merge_replicas(replicas: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One result from the fresh-process replicas of a run."""
    first = replicas[0]
    checks = dict(first["checks"])
    checks["every_replica_correct"] = all(r["correct"] for r in replicas)
    checks["replicas_bit_identical"] = all(
        r["sim_digest"] == first["sim_digest"] and len(r["run_laps"]) == len(first["run_laps"])
        and len(r["setup_laps"]) == len(first["setup_laps"])
        for r in replicas
    )
    ops = first["counts"]["inserts_ok"] + first["counts"]["queries_ok"]
    timed_s = undisturbed_seconds([r["run_laps"] for r in replicas])
    metrics = {
        "setup_s": undisturbed_seconds([r["setup_laps"] for r in replicas]),
        "ops_per_s": ops / timed_s,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in replicas),
    }
    metrics.update(first["sim_metrics"])
    # How far the estimate moves when any one replica is left out: the
    # run-to-run spread ``compare`` holds against each bound.
    leave_one_out = [
        ops / undisturbed_seconds([r["run_laps"] for r in replicas if r is not left])
        for left in replicas
    ] if len(replicas) > 2 else [metrics["ops_per_s"]]
    result = {key: first[key] for key in (
        "workload", "seed", "seconds", "smoke", "traced", "samples", "sim_digest", "counts",
        "sim_seconds", "extras", "attempted", "failed",
    )}
    result.update(
        metrics=metrics,
        checks=checks,
        correct=all(checks.values()),
        timed_s=timed_s,
        replica_wall_s=[sum(r["run_laps"]) for r in replicas],
        replica_setup_s=[sum(r["setup_laps"]) for r in replicas],
        ops_per_s_leave_one_out=leave_one_out,
    )
    return result
