"""Operation metrics collected by the cluster driver.

Everything the paper's evaluation plots comes from these records:
insertion path length and latency (Figures 7, 14), query cost — the number
of overlay nodes visited — and query latency (Figures 9, 10), and query
success/recall under failures (Figure 16).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set


@dataclass
class InsertMetric:
    op_id: str
    index: str
    origin: str
    start: float
    end: Optional[float] = None
    hops: Optional[int] = None
    success: bool = False
    #: Re-sends of the same target after a routing failure or attempt timeout.
    retries: int = 0
    #: Times the op re-targeted a replica-holder region after the current
    #: target's attempts were exhausted.
    failovers: int = 0

    @property
    def latency(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def stored_via_failover(self) -> bool:
        """The record landed on a replica-holder region, not its primary."""
        return self.success and self.failovers > 0


@dataclass
class QueryMetric:
    op_id: str
    index: str
    origin: str
    start: float
    end: Optional[float] = None
    records: int = 0
    record_keys: Set[int] = field(default_factory=set)
    #: The matching records themselves (available once the query finishes).
    results: List = field(default_factory=list)
    nodes_visited: Set[str] = field(default_factory=set)
    regions: int = 0
    complete: bool = False
    #: Per-region sub-query re-launches (backoff retries of the same target).
    retries: int = 0
    #: Per-region re-targets to a replica-holder region after the primary
    #: (or a previous replica target) was exhausted.
    failovers: int = 0
    #: Result records first served by a failed-over (replica) sub-query.
    replica_records: int = 0
    #: Regions (``"{valid_from}:{bits}"``) that exhausted primaries *and*
    #: replicas — exactly what is missing from an incomplete result.
    failed_regions: Set[str] = field(default_factory=set)

    @property
    def latency(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def cost(self) -> int:
        """Query cost as defined in Section 4.1: overlay nodes visited."""
        return len(self.nodes_visited)

    @property
    def degraded_complete(self) -> bool:
        """Full results, but only because replica failover filled in."""
        return self.complete and self.failovers > 0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample set."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    # Round half up: ``round`` goes half to even, which put the median of
    # an even-sized sample above the middle for n = 4, 8 and below it for
    # n = 6, 10.
    rank = int((q / 100.0) * (len(ordered) - 1) + 0.5)
    return ordered[rank]


class MetricsCollector:
    """Accumulates per-operation metrics for one experiment run."""

    def __init__(self) -> None:
        self.inserts: List[InsertMetric] = []
        self.queries: List[QueryMetric] = []

    # ------------------------------------------------------------------
    def insert_latencies(self, successful_only: bool = True) -> List[float]:
        return [
            m.latency
            for m in self.inserts
            if m.latency is not None and (m.success or not successful_only)
        ]

    def insert_hops(self) -> List[int]:
        return [m.hops for m in self.inserts if m.hops is not None]

    def failure_handling(self) -> Dict[str, int]:
        """Aggregate retry/failover counters across all recorded ops.

        Reported by the churn harness (``MindCluster.run_churn_experiment``),
        so regressions in failure handling show up next to recall ones.
        """
        return {
            "insert_retries": sum(m.retries for m in self.inserts),
            "insert_failovers": sum(m.failovers for m in self.inserts),
            "inserts_via_failover": sum(1 for m in self.inserts if m.stored_via_failover),
            "query_retries": sum(m.retries for m in self.queries),
            "query_failovers": sum(m.failovers for m in self.queries),
            "replica_records": sum(m.replica_records for m in self.queries),
            "degraded_complete_queries": sum(1 for m in self.queries if m.degraded_complete),
            "incomplete_queries": sum(
                1 for m in self.queries if m.end is not None and not m.complete
            ),
        }

    def query_success_fraction(self, expected: Dict[str, Set[int]]) -> float:
        """Fraction of queries that returned exactly the expected keys.

        ``expected`` maps query op_id to the ground-truth record key set
        (from a centralized reference evaluation); a query succeeds when it
        completed and achieved perfect recall — the paper's Figure 16
        success criterion.
        """
        if not self.queries:
            raise ValueError("no queries recorded")
        relevant = [m for m in self.queries if m.op_id in expected]
        if not relevant:
            raise ValueError("no queries match the expected set")
        good = sum(1 for m in relevant if expected[m.op_id] <= m.record_keys)
        return good / len(relevant)
