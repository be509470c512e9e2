"""Query processing (Sections 3.4 and 3.6).

A query routes to its prefix region and is split into sub-queries covering
the overlay's actual regions, with all responses returned directly to the
originator, which merges them.  A freshly joined node's sibling pointer
forwards queries for its region to its split host until the host's
pre-split data has aged.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.metrics import QueryMetric
from repro.core.ops import RECORD_WIRE_BYTES, RESPONSE_BASE_BYTES, _Op, _RetryLadder
from repro.core.query import NormRect, RangeQuery, rect_contains_point
from repro.core.records import Record
from repro.core.replication import FULL_REPLICATION, failover_targets
from repro.net.message import Message
from repro.overlay.code import Code, intern_code


@dataclass
class _RegionState:
    """One sub-query region of a query op.

    The region being targeted is ``ladder.target``; it starts at the
    primary and moves through the replica-holder regions when the
    primary's attempts are exhausted.  The op's region table and answered
    set are keyed by ``"{valid_from}:{bits}"`` of the *current* target, so
    a failover re-keys the region under its new target.
    """

    valid_from: float
    ladder: _RetryLadder
    #: Primary regions whose failover collapsed onto this region state
    #: (two dead primaries sharing a replica holder); reported missing as
    #: a group if this state also fails permanently.
    merged_primaries: List[str] = field(default_factory=list)


@dataclass
class _QueryOp(_Op):
    tag = "op:query"
    metric: QueryMetric
    query: RangeQuery
    #: ``query`` as a normalized rectangle, built once: every returned
    #: record is re-checked against it.
    rect: NormRect
    #: Regions still awaiting an answer; the op finishes when it empties.
    regions: Dict[str, _RegionState] = field(default_factory=dict)
    answered: Set[str] = field(default_factory=set)
    records: Dict[int, Record] = field(default_factory=dict)
    failed_regions: Set[str] = field(default_factory=set)
    #: Sub-query payload template per index version (keyed by valid_from),
    #: kept so any region — including responder-spawned ones — can be
    #: re-launched from the originator.
    inner_by_version: Dict[float, Dict[str, Any]] = field(default_factory=dict)
    replication: int = 0
    callback: Optional[Callable[[QueryMetric], None]] = None

    def finish(self, now: float) -> None:
        """Complete when every region answered, else degraded."""
        for region in self.regions.values():
            region.ladder.cancel()
        metric = self.metric
        metric.failed_regions = set(self.failed_regions)
        metric.end = now
        metric.records = len(self.records)
        metric.record_keys = set(self.records)
        metric.results = list(self.records.values())
        metric.complete = not self.failed_regions and not self.regions
        metric.nodes_visited.discard(metric.origin)
        if self.callback is not None:
            self.callback(metric)

    def report_missing(self, region: _RegionState) -> None:
        """Name a region that never answered by its primary identity (and
        those merged onto it), so a degraded result says what is missing."""
        for primary in [region.ladder.primary.bits, *region.merged_primaries]:
            self.failed_regions.add(_region_key(region.valid_from, primary))


@dataclass
class _SiblingFetch(_Op):
    """A sub-query answer held back while the split host's pre-split rows
    are fetched (Section 3.4's sibling pointer); a crash drops it."""

    tag = "op:sibling"
    envelope: Dict[str, Any]
    spawned: List[str]
    #: The local matches by key, which the sibling's rows join.
    matches: Dict[int, Dict[str, Any]]


def _region_key(valid_from: float, bits: str) -> str:
    return f"{valid_from}:{bits}"


def _clamp_time(rect, schema, time_dim: Optional[int], seg_lo, seg_hi):
    """Restrict the rect's time dimension to a version segment."""
    if time_dim is None:
        return rect
    attr = schema.attributes[time_dim]
    lo, hi = rect[time_dim]
    if seg_lo is not None:
        lo = max(lo, attr.normalize(seg_lo))
    if seg_hi is not None and seg_hi < attr.hi:
        hi = min(hi, attr.normalize(seg_hi))
    return rect[:time_dim] + ((lo, hi),) + rect[time_dim + 1 :]


def _split_to_complement(
    node, envelope: Dict[str, Any], state, qrect: NormRect, cell_op_id
) -> List[str]:
    """The paper's query splitting at the first abutting node.

    If ``node`` owns only a sub-region of the addressed region, route the
    request on — same kind, same origin — to each complement cell the
    rectangle touches, as ``cell_op_id(bits)``; returns their bits.
    """
    inner = envelope["inner"]
    start = len(envelope["target"])
    own = node._owned_region_for(intern_code(envelope["target"]))
    spawned: List[str] = []
    if own is None or len(own.bits) <= start:
        return spawned
    embedding = state.versions.embedding_for_version(inner["version"])
    dims = len(qrect)
    # A cell is the running rectangle (``own``'s prefix) with the
    # level's side swapped for the other half of its cut, so of its
    # sides only that one and the one narrowed a level earlier are
    # new; the first cell brings all of them.  Each side is tested as
    # ``rect_intersection`` does, its ``min``/``max`` written out:
    # empty where ``min(hi, q_hi) <= max(lo, q_lo)``.  Cuts only
    # narrow, so once a running side misses the query every later
    # cell misses it too.
    fresh = range(dims)
    for level, (cell, cell_rect) in enumerate(embedding.complement_cells(own, start), start):
        dim = level % dims
        for side in fresh:
            if side != dim:
                lo, hi = cell_rect[side]
                q_lo, q_hi = qrect[side]
                if (q_hi if q_hi < hi else hi) <= (q_lo if q_lo > lo else lo):
                    return spawned
        fresh = (dim,)
        lo, hi = cell_rect[dim]
        q_lo, q_hi = qrect[dim]
        if (q_hi if q_hi < hi else hi) <= (q_lo if q_lo > lo else lo):
            continue
        spawned.append(cell.bits)
        node.route(
            cell, envelope["inner_kind"], dict(inner), op_id=cell_op_id(cell.bits),
            origin=envelope["origin"], attempt=envelope["attempt"],
        )
    return spawned


def _plausible_failover_holder(node, failed: Code, level: int) -> bool:
    """Could ``node`` hold level-``level`` replicas of ``failed``'s data?

    The originator flips bits of the failed region as if it were a
    single dead owner's region.  The node sees the region's interior
    through its neighbor table: if the region was subdivided deeper
    than the replication level reaches outward, every surviving copy
    lived *inside* the dead region and answering would fake
    completeness — refuse instead, so the originator reports the
    region missing.  A known interior owner at depth ``k`` only
    replicates outside a region of length ``f`` when ``level > k - f``.
    """
    if node.code is None or level == 0:
        return False
    deepest = len(failed)
    for _, code in node.links(alive_only=False):
        if code.comparable(failed) and len(code) > deepest:
            deepest = len(code)
    m = deepest if level == FULL_REPLICATION else level
    if m <= deepest - len(failed):
        return False
    return any(
        node.code.comparable(target) for target in failover_targets(failed, level, len(failed))
    )


class Querying:
    """The query protocol of one node, which it reads through ``self.node``."""

    def __init__(self, node: Any) -> None:
        self.node = node
        self.sim = node.sim
        self.cfg = node.mind_config
        self.ops = node.ops
        self.handlers = {
            "query_response": self._on_query_response, "sibling_fetch": self._on_sibling_fetch,
            "sibling_data": self._on_sibling_data,
        }
        self._routed = {"subquery": (self._arrive_subquery, self._unroutable)}

    def query(self, query: RangeQuery, callback=None) -> str:
        node = self.node
        state = node._state(query.index)
        schema = state.schema
        rect = query.normalized_rect(schema)
        time_dim = schema.time_dimension()
        attr = None if time_dim is None else schema.attributes[time_dim].name
        t_lo, t_hi = (None, None) if attr is None else query.interval(attr)
        op_id = node._next_op_id()
        now = self.sim.now
        metric = QueryMetric(op_id=op_id, index=query.index, origin=node.address, start=now)
        op = _QueryOp(metric, query, rect, callback=callback, replication=state.replication)
        deadline = self.sim.schedule(self.cfg.query_timeout_s, self._timed_out, op_id)
        self.ops.open(op_id, op, deadline)
        for valid_from, embedding, seg_lo, seg_hi in state.versions.segments(t_lo, t_hi):
            seg_rect = _clamp_time(rect, schema, time_dim, seg_lo, seg_hi)
            prefix = embedding.query_prefix(seg_rect)
            op.inner_by_version[valid_from] = {
                "index": query.index, "qid": op_id, "rect": [list(side) for side in seg_rect],
                "version": valid_from, "time_range": [seg_lo, seg_hi],
            }
            key = _region_key(valid_from, prefix.bits)
            op.regions[key] = _RegionState(valid_from, self._ladder(op, prefix, key))
            self._launch(op_id, key)
        return op_id

    def _ladder(self, op: _QueryOp, primary: Code, key: str, stamp: int = 0) -> _RetryLadder:
        return _RetryLadder(
            op.metric, primary, self.sim.schedule, self.cfg, self.node._rng, self._launch,
            self._attempt_failed, (op.metric.op_id, key), stamp,
        )

    def _launch(self, op_id: str, key: str) -> None:
        op = self.ops.get(op_id)
        region = op.regions.get(key) if op is not None else None
        if region is None:
            return
        ladder = region.ladder
        stamp = ladder.open_attempt()
        inner = dict(op.inner_by_version[region.valid_from])
        inner["attempt"] = stamp
        if ladder.target is not ladder.primary:
            inner["failover"] = True
            inner["failover_for"] = ladder.primary.bits
        op_key = ("sub", op_id, region.valid_from, ladder.target.bits, stamp)
        self.node.route(ladder.target, "subquery", inner, op_id=op_key, attempt=stamp)

    def subquery_failed(self, op_id: str, valid_from: float, bits: str, stamp: int) -> None:
        """A failure report for attempt ``stamp`` of one region."""
        op = self.ops.get(op_id)
        key = _region_key(valid_from, bits)
        if op is None or key in op.answered:
            return
        if key not in op.regions and valid_from in op.inner_by_version:
            # A responder-spawned sub-query failed before the response
            # announcing it arrived; adopt the region so the retry
            # machinery owns it from here.
            ladder = self._ladder(op, intern_code(bits), key, stamp)
            op.regions[key] = _RegionState(valid_from, ladder)
        self._attempt_failed(op_id, key, stamp)

    def _attempt_failed(self, op_id: str, key: str, stamp: int) -> None:
        """Attempt ``stamp`` is dead (a failure report, or its watchdog):
        retry with backoff, fail over to a replica-holder region, or record
        the region as missing."""
        op = self.ops.get(op_id)
        region = op.regions.get(key) if op is not None else None
        if region is None or not region.ladder.current(stamp):
            return  # answered, or a stale failure from a superseded attempt
        ladder = region.ladder
        if ladder.retry():
            return
        del op.regions[key]
        # The flips assume the failed region is one dead owner's region.
        # When it is actually a subdivided subtree the targets may not
        # hold its replicas — the responder-side holder check
        # (:func:`_plausible_failover_holder`) rejects those sub-queries
        # so a non-holder's answer can't fake completeness.
        if ladder.fail_over(op.replication, len(ladder.primary)):
            new_key = _region_key(region.valid_from, ladder.target.bits)
            other = op.regions.get(new_key)
            if other is not None:
                # Another failed primary is already querying this replica
                # region; ride along and share its fate.
                other.merged_primaries.append(ladder.primary.bits)
                other.merged_primaries.extend(region.merged_primaries)
                return
            if new_key not in op.answered:
                op.regions[new_key] = region
                ladder.key = (op_id, new_key)
                self._launch(op_id, new_key)
                return
            # The replica region already answered this op from its whole
            # local store, so the failed region's surviving copies are
            # in the merged results; nothing left to fetch.
        else:
            op.report_missing(region)
        if not op.regions:
            self.ops.end(op_id)

    def _timed_out(self, op_id: str) -> None:
        op = self.ops.get(op_id)
        if op is None:
            return
        for region in op.regions.values():
            op.report_missing(region)
        if not op.regions:
            op.failed_regions.add("timeout")
        self.ops.end(op_id)

    def _unroutable(self, envelope: Dict[str, Any], reason: str) -> None:
        inner = envelope["inner"]
        payload = {
            "kind": "subquery", "op_id": inner["qid"], "version": inner["version"],
            "region_bits": envelope["target"], "attempt": inner["attempt"],
        }
        self.node._reply(envelope["origin"], "op_failed", payload, self.node._apply_op_failure)

    def _arrive_subquery(self, envelope: Dict[str, Any]) -> None:
        node = self.node
        state = node._arrival_index(envelope)
        if state is None:
            return
        inner = envelope["inner"]
        qrect = tuple(map(tuple, inner["rect"]))
        spawned: List[str] = []
        if inner.get("failover"):
            # Failed-over sub-queries skip the split: replicas are placed
            # by the dead node's code, not by the query rectangle, so rect
            # pruning would be wrong — the holder answers from its whole
            # local store instead.
            if not _plausible_failover_holder(
                node, intern_code(inner["failover_for"]), state.replication
            ):
                # We cover the flip target but never received this region's
                # replicas (it was subdivided past the replication level's
                # outward reach) — answering would fake completeness.
                node.on_route_failed(envelope, "not-replica-holder")
                return
        else:
            spawned = _split_to_complement(
                node, envelope, state, qrect,
                lambda bits: ("sub", inner["qid"], inner["version"], bits, envelope["attempt"]),
            )

        t_lo, t_hi = inner["time_range"]
        t_range = None if t_lo is None or t_hi is None else (t_lo, t_hi)
        # Answer from the whole local store, exactly as the prototype's DAC
        # ran the query predicate against its local MySQL: this returns
        # resident replicas and not-yet-migrated data too.  The originator
        # deduplicates by record key, and failed-over regions are served
        # from whichever replica holder the sub-query lands on.
        matches = state.store.query(qrect, t_range, wire=True)
        state.dac.submit(
            state.dac.query_cost(len(matches)), self._after_query_dac,
            envelope, spawned, matches, qrect, t_range,
        )

    def _after_query_dac(
        self, envelope: Dict[str, Any], spawned: List[str], matches: List[Dict[str, Any]],
        effective, t_range,
    ) -> None:
        node = self.node
        if not node.in_overlay():
            return
        pointer = node.sibling_pointer
        held_until = pointer.held_until.get(envelope["inner"]["index"]) if pointer else None
        if held_until is not None and (t_range is None or t_range[0] < held_until):
            # Pre-split data for our region still lives at the split host,
            # in buckets this sub-query reaches: fetch it before responding
            # (Section 3.4's sibling pointer).
            node.sibling_fetches += 1
            fetch_id = node._next_op_id()
            fetch = _SiblingFetch(envelope, spawned, {row["key"]: row for row in matches})
            # Deadline: a sibling that received the fetch but died (or left
            # the overlay) before replying sends neither data nor a
            # failure, so without it the sub-query response never goes
            # out.  It answers with the local matches we already have.
            deadline = self.sim.schedule(
                self.cfg.attempt_timeout_s, self._answer_sibling_fetch, fetch_id
            )
            self.ops.open(fetch_id, fetch, deadline)

            def fetch_failed(msg, reason, _fid=fetch_id):
                self._answer_sibling_fetch(_fid)

            fetch_req = {
                "fetch_id": fetch_id, "index": envelope["inner"]["index"],
                "rect": [list(side) for side in effective],
                "time_range": list(t_range) if t_range else None,
            }
            node._send(pointer.sibling, "sibling_fetch", fetch_req, on_fail=fetch_failed)
            return
        self._respond(envelope, spawned, matches)

    def _on_sibling_fetch(self, msg: Message) -> None:
        node = self.node
        payload = msg.payload
        state = node.indices.get(payload["index"])
        if state is None:
            node._send(msg.src, "sibling_data", {"fetch_id": payload["fetch_id"], "records": []})
            return
        rect = tuple(map(tuple, payload["rect"]))
        t_range = tuple(payload["time_range"]) if payload["time_range"] else None
        matches = state.store.query(rect, t_range, wire=True)
        state.dac.submit(
            state.dac.query_cost(len(matches)), node._send, msg.src, "sibling_data",
            {"fetch_id": payload["fetch_id"], "records": matches},
            RESPONSE_BASE_BYTES + RECORD_WIRE_BYTES * len(matches),
        )

    def _answer_sibling_fetch(self, fetch_id: str, records=()) -> None:
        """Close the fetch and answer its sub-query: with the sibling's
        ``records`` merged in, or — send failure, deadline — with the local
        matches alone."""
        fetch = self.ops.close(fetch_id)
        if fetch is None:
            return
        matches = fetch.matches
        for row in records:
            matches[row["key"]] = row
        self._respond(fetch.envelope, fetch.spawned, list(matches.values()))

    def _on_sibling_data(self, msg: Message) -> None:
        self._answer_sibling_fetch(msg.payload["fetch_id"], msg.payload["records"])

    def _respond(
        self, envelope: Dict[str, Any], spawned: List[str], matches: List[Dict[str, Any]]
    ) -> None:
        """Answer a sub-query with ``matches``, rows in ``Record.to_wire`` form."""
        node = self.node
        inner = envelope["inner"]
        payload = {
            "qid": inner["qid"], "version": inner["version"], "region": envelope["target"],
            "spawned": spawned, "records": matches,
            # Copy-on-send: the envelope's path list stays live in retained
            # state (sibling fetches hold the envelope), so ship a snapshot.
            "path": list(envelope["path"]), "responder": node.address,
            "attempt": inner["attempt"], "failover": bool(inner.get("failover", False)),
        }
        size = RESPONSE_BASE_BYTES + RECORD_WIRE_BYTES * len(matches)
        node._reply(
            envelope["origin"], "query_response", payload, self._apply_query_response,
            size_bytes=size, on_fail=self._resend_response,
        )

    def _resend_response(self, msg: Message, reason: str) -> None:
        # The paper saw exactly this: responders unable to reach the
        # originator during routing outages retry the direct connection
        # (Figure 11's spikes) until the op ages out at the originator.
        # Each attempt is a fresh clone, so no payload aliases another.
        self.node.network.resend(msg, on_fail=self._resend_response)

    def _on_query_response(self, msg: Message) -> None:
        self._apply_query_response(msg.payload)

    def _apply_query_response(self, payload: Dict[str, Any]) -> None:
        op = self.ops.get(payload["qid"])
        if op is None:
            return
        valid_from = payload["version"]
        key = _region_key(valid_from, payload["region"])
        from_failover = payload["failover"]
        op.metric.nodes_visited.update(payload["path"])
        op.metric.nodes_visited.add(payload["responder"])
        normalize = self.node._state(op.query.index).schema.normalize
        rect = op.rect
        records = op.records
        for wire in payload["records"]:
            values = wire["values"]
            if rect_contains_point(rect, normalize(values)):
                record_key = wire["key"]
                if from_failover and record_key not in records:
                    op.metric.replica_records += 1
                records[record_key] = Record(values, wire["payload"], record_key)
        if key not in op.answered:
            # Responses can arrive out of order (a child sub-query may beat
            # the parent that spawned it), so track answered regions and
            # only add spawned regions not yet accounted for.
            op.answered.add(key)
            region = op.regions.pop(key, None)
            if region is not None:
                region.ladder.cancel()
            for spawned in payload["spawned"]:
                self._track_spawned(op, valid_from, spawned, payload["attempt"])
            op.metric.regions += 1
        if not op.regions:
            self.ops.end(payload["qid"])

    def _track_spawned(self, op: _QueryOp, valid_from: float, bits: str, stamp: int) -> None:
        """Adopt a responder-spawned sub-query region into the retry
        machinery.  The responder routed its first attempt; the originator
        arms the watchdog, so one that dies silently is re-launched here."""
        key = _region_key(valid_from, bits)
        if key in op.answered or key in op.regions:
            return
        ladder = self._ladder(op, intern_code(bits), key, stamp)
        ladder.watch()
        op.regions[key] = _RegionState(valid_from, ladder)
