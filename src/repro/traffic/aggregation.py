"""Flow aggregation and pre-filtering (Section 2.2 / Figure 1).

Raw sampled flows are grouped per (monitor, time window, source /16,
destination /16); each group becomes one :class:`AggregatedFlow` carrying
the quantities the three paper indices need:

* ``octets``      — total reported bytes (Index-2),
* ``fanout``      — distinct (source host, destination host) pairs among
  *short* flows, i.e. connection attempts (Index-1),
* ``flow_size``   — average bytes per distinct connection (Index-3),
* ``top_port``    — the dominant destination port (Index-3 payload).

Aggregation plus thresholds is where the two-orders-of-magnitude record
reduction of Figure 1 comes from.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.traffic.flows import FlowRecord
from repro.traffic.prefixes import PREFIX16_MASK


@dataclass
class AggregationConfig:
    window_s: float = 30.0
    #: Flows at or under this size count as short connection attempts.
    short_flow_octets: int = 1500


@dataclass
class AggregatedFlow:
    """One (monitor, window, src prefix, dst prefix) traffic aggregate."""

    monitor: str
    window_start: float
    src_prefix: int
    dst_prefix: int
    octets: int
    connections: int
    fanout: int
    top_port: int

    @property
    def flow_size(self) -> float:
        """Average traffic per distinct connection in the window."""
        if self.connections == 0:
            return 0.0
        return self.octets / self.connections


def aggregate_flows(
    flows: Iterable[FlowRecord],
    config: AggregationConfig = None,
) -> List[AggregatedFlow]:
    """Aggregate raw flows into per-window prefix-pair records.

    Sorted by (window start, monitor, source prefix, destination prefix).
    Most groups hold a single flow (about 1.2 flows per aggregate on the
    backbone workload), which needs no sets and no port tally.
    """
    cfg = config or AggregationConfig()
    window_s = cfg.window_s
    short = cfg.short_flow_octets
    groups: Dict[Tuple[float, str, int, int], List[FlowRecord]] = {}
    for flow in flows:
        key = (
            (flow.start // window_s) * window_s,
            flow.monitor,
            flow.src_addr & PREFIX16_MASK,
            flow.dst_addr & PREFIX16_MASK,
        )
        groups.setdefault(key, []).append(flow)

    out = []
    for key in sorted(groups):
        window_start, monitor, src_prefix, dst_prefix = key
        members = groups[key]
        if len(members) == 1:
            _, _, _, _, top_port, _, octets, _ = members[0]
            connections = 1
            fanout = 1 if octets <= short else 0
        else:
            octets = 0
            conns: set = set()
            pairs: set = set()
            ports: Dict[int, int] = {}
            for _, _, src, dst, port, _, size, _ in members:
                octets += size
                conns.add((src, dst, port))
                if size <= short:
                    pairs.add((src, dst))
                ports[port] = ports.get(port, 0) + size
            connections = len(conns)
            fanout = len(pairs)
            top_port = max(ports.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        out.append(
            AggregatedFlow(
                monitor, window_start, src_prefix, dst_prefix, octets, connections, fanout, top_port
            )
        )
    return out
