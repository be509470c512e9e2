"""Convenience API for building balanced-cut embeddings.

The paper's operators compute balanced cuts off-line from a day of records
and install them (Section 3.7).  These helpers package that workflow:
choose a sensible per-dimension histogram granularity for a schema, build
the histogram from records, and produce the embedding — used by the
examples, the benchmarks and (via :func:`next_day_embedding`) the daily
re-versioning loop, which :class:`HistogramCollection` feeds on-line.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.cuts import BalancedCuts
from repro.core.embedding import Embedding
from repro.core.histogram import MultiDimHistogram
from repro.core.ops import _Op
from repro.core.query import NormRect, full_rect
from repro.core.records import Record
from repro.core.schema import IndexSchema
from repro.net.message import Message

#: Granularity heuristics per attribute role: addresses need /16-level
#: resolution (their occupied span is a sliver of 2^32), timestamps need
#: bins finer than the trace slices being balanced, scalar attributes are
#: smooth enough for coarse bins.
ADDRESS_GRAINS = 65536
TIME_GRAINS = 8192
SCALAR_GRAINS = 64
_ADDRESS_DOMAIN = 2.0**31  # anything with a domain this large is address-like


def recommended_granularity(schema: IndexSchema) -> Tuple[int, ...]:
    """Per-dimension histogram granularity suited to a schema."""
    grains = []
    for attr in schema.attributes:
        if attr.is_time:
            grains.append(TIME_GRAINS)
        elif (attr.hi - attr.lo) >= _ADDRESS_DOMAIN:
            grains.append(ADDRESS_GRAINS)
        else:
            grains.append(SCALAR_GRAINS)
    return tuple(grains)


def histogram_from_records(
    schema: IndexSchema,
    records: Iterable[Record],
    granularity: Optional[Sequence[int]] = None,
) -> MultiDimHistogram:
    """Histogram a record sample in the schema's normalized space.

    Normalizes the whole sample with :meth:`IndexSchema.normalize_batch`
    and bins it with one :meth:`MultiDimHistogram.add_batch` call.
    """
    grains = tuple(granularity) if granularity is not None else recommended_granularity(schema)
    hist = MultiDimHistogram(schema.dimensions, grains)
    values = [record.values for record in records]
    if values:
        hist.add_batch(schema.normalize_batch(values))
    return hist


def derive_cut_tree(
    histogram: MultiDimHistogram,
    depth: int,
    rect: Optional[NormRect] = None,
) -> Dict[str, float]:
    """The complete balanced-cut tree to ``depth``, keyed by code prefix.

    Walks the cut tree breadth-first, computing each cut as the
    histogram-weighted median of the rectangle being split (cycling
    through the dimensions like the embedding does).  The frontier
    carries each node's live histogram rows to its children, so a level
    costs about one pass over the occupied cells however many nodes it
    has.  The result can seed :meth:`Embedding.preload_splits` so
    repeated point-code descents never recompute a cut.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    dims = histogram.dimensions
    cut = BalancedCuts(histogram).cut
    cuts: Dict[str, float] = {}
    frontier = [("", rect if rect is not None else full_rect(dims), None)]
    for level in range(depth):
        dim = level % dims
        next_frontier = []
        for prefix, node_rect, rows in frontier:
            split, rows = cut(node_rect, dim, rows)
            cuts[prefix] = split
            lo, hi = node_rect[dim]
            left = node_rect[:dim] + ((lo, split),) + node_rect[dim + 1 :]
            right = node_rect[:dim] + ((split, hi),) + node_rect[dim + 1 :]
            next_frontier.append((prefix + "0", left, rows))
            next_frontier.append((prefix + "1", right, rows))
        frontier = next_frontier
    return cuts


def balanced_embedding(
    schema: IndexSchema,
    records: Iterable[Record],
    granularity: Optional[Sequence[int]] = None,
    code_depth: int = 16,
) -> Embedding:
    """A balanced-cut embedding derived from a record sample."""
    hist = histogram_from_records(schema, records, granularity)
    return Embedding(schema, BalancedCuts(hist), code_depth=code_depth)


def next_day_embedding(
    schema: IndexSchema,
    histogram: MultiDimHistogram,
    day_s: float = 86400.0,
    code_depth: int = 16,
) -> Embedding:
    """Tomorrow's embedding from today's histogram.

    The histogram's timestamp dimension is advanced by one day before
    deriving the cuts — stationarity is a property of the traffic *mix*;
    the clock still moves (Section 3.7's daily versioning).
    """
    time_dim = schema.time_dimension()
    if time_dim is None:
        shifted = histogram
    else:
        horizon = schema.attributes[time_dim].hi - schema.attributes[time_dim].lo
        shifted = histogram.shifted(time_dim, day_s / horizon)
    return Embedding(schema, BalancedCuts(shifted), code_depth=code_depth)


@dataclass
class _HistoCollection(_Op):
    """One on-line histogram collection at its collector."""

    tag = "op:histo"
    merged: MultiDimHistogram
    expected: int
    callback: Callable[[MultiDimHistogram], None]
    replies: int = 0

    def finish(self, now: float) -> None:
        """Hand over what merged: every expected reply, or those that beat
        the deadline."""
        self.callback(self.merged)

    def crash(self, now: float) -> None:
        """A crashed collector drops the collection unanswered."""


class HistogramCollection:
    """On-line histogram collection (Section 3.7's planned extension) for one
    node, which it reads through ``self.node``: a collector floods a
    request and merges per-node histograms of an index's data."""

    def __init__(self, node: Any) -> None:
        self.node = node
        self.sim = node.sim
        self.ops = node.ops
        self.handlers = {
            "histo_request": self._on_histo_request, "histo_reply": self._on_histo_reply,
        }

    def collect(
        self, index: str, granularity: int, time_range: Tuple[float, float],
        expected_replies: int, callback: Callable[[MultiDimHistogram], None],
        timeout_s: float = 60.0,
    ) -> str:
        """Aggregate a data-distribution histogram from every node.

        The designated collector (this node) floods a request; every node
        histograms its local records for the index/time range and replies
        directly.  ``callback`` fires with the merged histogram once
        ``expected_replies`` arrive or the timeout expires.
        """
        node = self.node
        state = node._state(index)
        req_id = node._next_op_id()
        collection = _HistoCollection(
            MultiDimHistogram(state.schema.dimensions, granularity), expected_replies, callback
        )
        self.ops.open(req_id, collection, self.sim.schedule(timeout_s, self.ops.end, req_id))
        payload = {
            "req_id": req_id, "index": index, "granularity": granularity,
            "time_range": list(time_range), "collector": node.address,
        }
        node._flood("histo_request", payload)
        self._reply_local(payload)
        return req_id

    def _on_histo_request(self, msg: Message) -> None:
        if self.node._flood("histo_request", dict(msg.payload)):
            self._reply_local(msg.payload)

    def _reply_local(self, payload: Dict[str, Any]) -> None:
        node = self.node
        state = node.indices.get(payload["index"])
        if state is None:
            return
        hist = MultiDimHistogram(state.schema.dimensions, payload["granularity"])
        lo, hi = payload["time_range"]
        t_range = (lo, hi) if state.schema.time_dimension() is not None else None
        hist.add_batch(state.store.points_in_time_range(t_range))
        reply = {"req_id": payload["req_id"], "histogram": hist.to_wire()}
        node._reply(
            payload["collector"], "histo_reply", reply, self._merge_reply,
            size_bytes=200 + 16 * hist.occupied_cells,
        )

    def _on_histo_reply(self, msg: Message) -> None:
        self._merge_reply(msg.payload)

    def _merge_reply(self, payload: Dict[str, Any]) -> None:
        collection = self.ops.get(payload["req_id"])
        if collection is None:
            return
        collection.merged.merge(MultiDimHistogram.from_wire(payload["histogram"]))
        collection.replies += 1
        if collection.replies >= collection.expected:
            self.ops.end(payload["req_id"])
