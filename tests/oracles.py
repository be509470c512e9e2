"""Scalar reference implementations of the NumPy hot paths.

Production (`TimePartitionedStore`, `MultiDimHistogram`,
`histogram_from_records`, `derive_cut_tree`, the closed-form even-cut
`Embedding.point_code`, `region_rect`, `complement_cells` and
`query_prefix`, and the traffic generator and aggregation) runs one
array-based, arithmetic or unrolled path; these per-record / per-cell /
per-cut / per-call loops are what that path must equal.  The equivalence
property tests (``tests/storage/test_vectorized_equivalence.py``,
``tests/core/test_even_codes.py``,
``tests/traffic/test_generator_oracle.py``) compare the two byte for byte.  The
production paths are timed by mindbench's per-layer ledger; these loops
are not timed anywhere.

The histogram oracles apply the same IEEE operations in the same order as
the array code (per-dimension overlap products, one sequential running sum
over the live masses), so cuts come out as identical floats, not merely
close ones.
"""

import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bench.workload import RECORD_BUILDERS, TimedRecord

from repro.core.cuts import EvenCuts
from repro.core.histogram import MultiDimHistogram
from repro.core.query import NormRect, full_rect, rect_contains_point
from repro.core.records import Record
from repro.core.schema import IndexSchema
from repro.sim.randomness import derive_seed
from repro.storage.memtable import TimePartitionedStore
from repro.traffic.aggregation import AggregatedFlow, AggregationConfig
from repro.traffic.flows import FlowRecord
from repro.traffic.generator import (
    COMMON_PORTS,
    NETWORK_RATE_FACTOR,
    BackboneTrafficGenerator,
    poisson,
)
from repro.traffic.prefixes import Prefix, PrefixPool, prefix16_of


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def insert_each(store: TimePartitionedStore, records: Iterable[Record]) -> int:
    """Per-record inserts; returns how many were new (``insert_batch``'s twin)."""
    return sum(1 for record in records if store.insert(record))


def scan_scalar(
    store: TimePartitionedStore,
    rect: NormRect,
    time_range: Optional[Tuple[float, float]] = None,
) -> List[Record]:
    """Brute-force ``store.query``: test every record of every candidate bucket.

    Public API only: walks ``all_records()``, keeps the records whose time
    bucket (``timestamp // bucket_s``) overlaps the half-open
    ``time_range``, and re-normalizes each one for the containment test.
    """
    schema = store.schema
    time_dim = schema.time_dimension()
    pruned = time_range is not None and time_dim is not None
    if pruned:
        lo, hi = time_range
        first = lo // store.bucket_s
        # Half-open: the last bucket is the one holding the largest
        # representable timestamp below ``hi``.
        last = max(lo, math.nextafter(hi, -math.inf)) // store.bucket_s
    out: List[Record] = []
    for record in store.all_records():
        if pruned and not first <= record.values[time_dim] // store.bucket_s <= last:
            continue
        if rect_contains_point(rect, schema.normalize(record.values)):
            out.append(record)
    return out


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def histogram_from_records_scalar(
    schema: IndexSchema, records: Iterable[Record], granularity: Sequence[int]
) -> MultiDimHistogram:
    """Per-record ``normalize`` + ``add`` (``histogram_from_records``' twin)."""
    hist = MultiDimHistogram(schema.dimensions, tuple(granularity))
    for record in records:
        hist.add(schema.normalize(record.values))
    return hist


def cell_weights_scalar(
    hist: MultiDimHistogram, rect: NormRect
) -> List[Tuple[Tuple[int, ...], float]]:
    """Per-occupied-cell ``count x fractional rect overlap``, cell by cell.

    Walks the sorted cell dict — the row order of the histogram's
    coordinate arrays.
    """
    out = []
    for cell in sorted(hist._cells):
        weight = hist._cells[cell]
        for dim, (lo, hi) in enumerate(rect):
            k = hist.grains[dim]
            b = cell[dim]
            left = max(b / k, lo)
            right = min((b + 1) / k, hi)
            frac = (right - left) * k
            if frac < 0.0:
                frac = 0.0
            elif frac > 1.0:
                frac = 1.0
            weight = weight * frac
        out.append((cell, weight))
    return out


def count_in_rect_scalar(hist: MultiDimHistogram, rect: NormRect) -> float:
    """Sequential sum of the cell weights (so only ulp-close to the pairwise sum)."""
    return float(sum(w for _, w in cell_weights_scalar(hist, rect)))


def split_point_scalar(hist: MultiDimHistogram, rect: NormRect, dim: int) -> float:
    """Scalar ``MultiDimHistogram.split_point`` (same floats out)."""
    lo, hi = rect[dim]
    midpoint = (lo + hi) / 2.0
    weighted = cell_weights_scalar(hist, rect)
    if not weighted:
        return midpoint
    k = hist.grains[dim]
    # Stable sort by the bin index along ``dim`` over the lexicographically
    # sorted cells — the exact order np.argsort (stable) gives the array path.
    by_bin = sorted(((cell[dim], w) for cell, w in weighted), key=lambda bw: bw[0])
    # One running sum over the live masses, recorded at each bin's last
    # cell — the same sequential fold + adjacent-difference the array path
    # performs, so the floats match exactly.
    bins_list: List[int] = []
    cumulative: List[float] = []
    running = 0.0
    for b, mass in by_bin:
        if mass <= 0.0:
            continue
        running += mass
        if bins_list and bins_list[-1] == b:
            cumulative[-1] = running
        else:
            bins_list.append(b)
            cumulative.append(running)
    if not bins_list:
        return midpoint
    total = cumulative[-1]
    if total <= 0.0:
        return midpoint
    half = total / 2.0
    idx = 0
    while cumulative[idx] < half:
        idx += 1
    b = bins_list[idx]
    before = cumulative[idx - 1] if idx > 0 else 0.0
    mass = cumulative[idx] - before
    bin_lo = max(b / k, lo)
    bin_hi = min((b + 1) / k, hi)
    if mass <= 0.0:
        split = bin_lo
    else:
        split = bin_lo + (half - before) / mass * (bin_hi - bin_lo)
    return float(min(max(split, lo + 1e-12), hi - 1e-12))


def even_code_walk(schema: IndexSchema, values: Sequence[float], depth: int) -> str:
    """The even-cut code of a raw point by descent (``Embedding.point_code``'s twin).

    Halves the point's cell ``depth`` times, cycling through the
    dimensions, at ``EvenCuts``' midpoint, and emits one bit per cut:
    ``1`` where the point lies at or above the cut.
    """
    point = schema.normalize(values)
    dims = schema.dimensions
    rect = full_rect(dims)
    bits = []
    for level in range(depth):
        dim = level % dims
        upper = point[dim] >= EvenCuts().split(rect, dim)
        rect = _even_narrow(rect, dim, upper)
        bits.append("1" if upper else "0")
    return "".join(bits)


def _even_narrow(rect: NormRect, dim: int, upper: bool) -> NormRect:
    """``rect`` with side ``dim`` halved at ``EvenCuts``' midpoint."""
    lo, hi = rect[dim]
    split = EvenCuts().split(rect, dim)
    return rect[:dim] + (((split, hi) if upper else (lo, split)),) + rect[dim + 1 :]


def even_rect_walk(dims: int, bits: str) -> NormRect:
    """The even-cut rectangle of a code by descent (``Embedding.region_rect``'s twin)."""
    rect = full_rect(dims)
    for level, bit in enumerate(bits):
        rect = _even_narrow(rect, level % dims, bit == "1")
    return rect


def even_complement_walk(dims: int, own_bits: str, start: int) -> List[Tuple[str, NormRect]]:
    """The complement cells of ``own_bits`` below ``start`` by descent
    (``Embedding.complement_cells``' twin): per level, the sibling's bits
    and the running rectangle narrowed to the other side of the cut."""
    rect = even_rect_walk(dims, own_bits[:start])
    out = []
    for level in range(start, len(own_bits)):
        upper = own_bits[level] == "1"
        out.append(
            (own_bits[:level] + ("0" if upper else "1"), _even_narrow(rect, level % dims, not upper))
        )
        rect = _even_narrow(rect, level % dims, upper)
    return out


def even_query_prefix_walk(dims: int, query_rect: NormRect, depth: int) -> str:
    """The longest even-cut code whose region holds ``query_rect``, by descent
    (``Embedding.query_prefix``'s twin): lower where the query ends at or
    below the cut, upper where it starts at or above it, else stop."""
    rect = full_rect(dims)
    bits = []
    for level in range(depth):
        dim = level % dims
        split = EvenCuts().split(rect, dim)
        q_lo, q_hi = query_rect[dim]
        if q_hi <= split:
            upper = False
        elif q_lo >= split:
            upper = True
        else:
            break
        rect = _even_narrow(rect, dim, upper)
        bits.append("1" if upper else "0")
    return "".join(bits)


class ScalarCutHistogram:
    """A histogram whose cuts come from :func:`split_point_scalar`.

    Stands in for a :class:`MultiDimHistogram` wherever only ``dimensions``
    and ``split_point`` are read — ``derive_cut_tree`` and
    ``BalancedCuts`` — so the scalar column runs production's cut-tree
    walk and point-code descent with only the median swapped out.
    """

    def __init__(self, hist: MultiDimHistogram) -> None:
        self.hist = hist
        self.dimensions = hist.dimensions

    def split_point(self, rect: NormRect, dim: int) -> float:
        return split_point_scalar(self.hist, rect, dim)


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
# The per-call flow loop, Zipf pick and aggregation that
# ``BackboneTrafficGenerator.flows_for_window``, ``PrefixPool`` and
# ``aggregate_flows`` replaced, kept verbatim (``self`` renamed) so the
# oracle tests in ``tests/traffic/test_generator_oracle.py`` can show the
# production paths draw the same stream and build the same records.
def pick_loop(pool: PrefixPool, rng: random.Random) -> Prefix:
    """Draw a prefix by Zipf popularity (hand-written binary search)."""
    x = rng.random()
    lo, hi = 0, len(pool._cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pool._cumulative[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return pool.prefixes[lo]


def rate_at_loop(generator: BackboneTrafficGenerator, monitor: str, time_of_day_s: float, day: int) -> float:
    """Mean sampled flows/second, re-seeding the day's drift stream per call."""
    cfg = generator.config
    site = generator._sites_by_name[monitor]
    diurnal = 1.0 + cfg.diurnal_amplitude * math.cos(
        2.0 * math.pi * (time_of_day_s - cfg.peak_time_s) / 86400.0
    )
    day_rng = random.Random(derive_seed(cfg.seed, f"day.{day}"))
    drift = 1.0 + cfg.day_jitter * (2.0 * day_rng.random() - 1.0)
    factor = NETWORK_RATE_FACTOR.get(site.network, 1.0)
    return cfg.flows_per_second * diurnal * drift * factor


def _pick_port_loop(rng: random.Random) -> int:
    # Zipf-ish over common ports with a tail of ephemeral high ports.
    if rng.random() < 0.85:
        weights_idx = min(int(rng.paretovariate(1.0)) - 1, len(COMMON_PORTS) - 1)
        return COMMON_PORTS[weights_idx]
    return rng.randint(1024, 65535)


def flows_for_window_loop(
    generator: BackboneTrafficGenerator, monitor: str, day: int, window_start_s: float, window_s: float
) -> List[FlowRecord]:
    """``flows_for_window`` one ``random.Random`` call per draw."""
    cfg = generator.config
    site = generator._sites_by_name[monitor]
    pool = generator.pools[site.network]
    window_index = int(window_start_s // window_s)
    rng = generator._window_rng(monitor, day, window_index)
    lam = rate_at_loop(generator, monitor, window_start_s + window_s / 2.0, day) * window_s
    count = poisson(rng, lam)
    base_t = day * 86400.0 + window_start_s
    home = generator._home_slices[monitor]

    flows = []
    for _ in range(count):
        if rng.random() < cfg.home_bias:
            src_prefix = pool.prefixes[rng.choice(home)]
        else:
            src_prefix = pick_loop(pool, rng)
        dst_prefix = pick_loop(pool, rng)
        src = src_prefix.random_host(rng)
        dst = dst_prefix.random_host(rng)
        port = _pick_port_loop(rng)
        if rng.random() < cfg.short_flow_fraction:
            octets = rng.randint(40, 1500)
            packets = max(1, octets // 600)
        else:
            octets = max(40, int(rng.lognormvariate(cfg.size_mu, cfg.size_sigma)))
            packets = max(1, octets // 1000)
        flows.append(
            FlowRecord(
                monitor=monitor,
                start=base_t + rng.random() * window_s,
                src_addr=src,
                dst_addr=dst,
                dst_port=port,
                protocol=6,
                octets=octets,
                packets=packets,
            )
        )
    for event in generator.anomalies:
        flows.extend(event.flows_for_window(monitor, day, window_start_s, window_s, rng))
    return flows


def generate_loop(
    generator: BackboneTrafficGenerator,
    day: int,
    start_s: float,
    duration_s: float,
    window_s: float = 30.0,
    monitors: Optional[Sequence[str]] = None,
) -> Iterator[List[FlowRecord]]:
    """``generate`` with a running window start (exact for integer widths)."""
    names = list(monitors) if monitors else [s.name for s in generator.sites]
    t = start_s
    while t < start_s + duration_s - 1e-9:
        for name in names:
            yield flows_for_window_loop(generator, name, day, t, window_s)
        t += window_s


class _Group:
    __slots__ = ("octets", "connections", "pairs", "ports")

    def __init__(self) -> None:
        self.octets = 0
        self.connections: set = set()
        self.pairs: set = set()
        self.ports: Dict[int, int] = {}


def aggregate_flows_loop(
    flows: Iterable[FlowRecord],
    config: AggregationConfig = None,
) -> List[AggregatedFlow]:
    """Aggregate raw flows into per-window prefix-pair records."""
    cfg = config or AggregationConfig()
    groups: Dict[Tuple[str, float, int, int], _Group] = {}
    for flow in flows:
        window_start = (flow.start // cfg.window_s) * cfg.window_s
        key = (flow.monitor, window_start, prefix16_of(flow.src_addr), prefix16_of(flow.dst_addr))
        group = groups.get(key)
        if group is None:
            group = _Group()
            groups[key] = group
        group.octets += flow.octets
        group.connections.add((flow.src_addr, flow.dst_addr, flow.dst_port))
        if flow.octets <= cfg.short_flow_octets:
            group.pairs.add((flow.src_addr, flow.dst_addr))
        group.ports[flow.dst_port] = group.ports.get(flow.dst_port, 0) + flow.octets

    out = []
    for (monitor, window_start, src_prefix, dst_prefix), group in groups.items():
        top_port = max(group.ports.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        out.append(
            AggregatedFlow(
                monitor=monitor,
                window_start=window_start,
                src_prefix=src_prefix,
                dst_prefix=dst_prefix,
                octets=group.octets,
                connections=len(group.connections),
                fanout=len(group.pairs),
                top_port=top_port,
            )
        )
    out.sort(key=lambda a: (a.window_start, a.monitor, a.src_prefix, a.dst_prefix))
    return out


def timed_index_records_loop(
    generator: BackboneTrafficGenerator,
    day: int,
    start_s: float,
    duration_s: float,
    indices: Sequence[str] = ("index1", "index2", "index3"),
    window_s: float = 30.0,
    thresholds: Optional[Dict[str, float]] = None,
) -> List[TimedRecord]:
    """``timed_index_records`` over the loops above."""
    cfg = AggregationConfig(window_s=window_s)
    aligned = (start_s // window_s) * window_s
    start_s, duration_s = aligned, duration_s + (start_s - aligned)
    thresholds = thresholds or {}
    timed: List[TimedRecord] = []
    for batch in generate_loop(generator, day, start_s, duration_s, window_s):
        if not batch:
            continue
        origin = batch[0].monitor
        aggregates = aggregate_flows_loop(batch, cfg)
        insert_at = (min(f.start for f in batch) // window_s) * window_s + window_s
        for index in indices:
            builder = RECORD_BUILDERS[index]
            if index in thresholds:
                records = builder(aggregates, thresholds[index])
            else:
                records = builder(aggregates)
            for record in records:
                timed.append(TimedRecord(at=insert_at, origin=origin, index=index, record=record))
    timed.sort(key=lambda t: t.at)
    return timed
