"""Shared test utilities: building small overlays, invariant checks, and a
fake host for MIND's protocol objects."""

import itertools
from typing import Dict, List, Optional, Sequence

from repro.core.cuts import EvenCuts
from repro.core.embedding import Embedding
from repro.core.mind_node import IndexState, MindConfig
from repro.core.ops import OpTable
from repro.core.versioning import VersionedEmbedding
from repro.net.network import SimNetwork
from repro.net.topology import Site
from repro.overlay.code import Code
from repro.overlay.node import OverlayConfig, OverlayNode
from repro.sim.kernel import Simulator
from repro.storage.dac import DacConfig, DataAccessController
from repro.storage.memtable import TimePartitionedStore


def make_network(sim: Simulator, sites: Optional[Dict[str, Site]] = None, **kwargs) -> SimNetwork:
    return SimNetwork(sim, sites or {}, **kwargs)


def wire_bootstrap(nodes: Sequence[OverlayNode], network: SimNetwork, sim: Simulator) -> None:
    """Give every node a bootstrap provider choosing a random live member."""
    rng = sim.rng("test.bootstrap")

    def provider(addr: str) -> Optional[str]:
        candidates = sorted(
            node.address
            for node in nodes
            if node.in_overlay() and node.address != addr and network.is_node_up(node.address)
        )
        return rng.choice(candidates) if candidates else None

    for node in nodes:
        node.bootstrap_provider = provider


def build_overlay(
    count: int,
    seed: int = 0,
    config: Optional[OverlayConfig] = None,
    concurrent: bool = False,
    node_cls=OverlayNode,
    join_timeout_s: float = 600.0,
):
    """Build an overlay of ``count`` nodes; returns (sim, network, nodes).

    With ``concurrent=False`` joins are serialized (each join completes
    before the next starts); with ``concurrent=True`` all joins start at
    roughly the same time, exercising the preemption protocol.
    """
    sim = Simulator(seed)
    network = make_network(sim)
    cfg = config or OverlayConfig()
    nodes = [node_cls(sim, network, f"n{i}", config=cfg) for i in range(count)]
    wire_bootstrap(nodes, network, sim)
    nodes[0].activate_as_root()
    if concurrent:
        for node in nodes[1:]:
            sim.schedule(sim.rng("test.starts").random() * 0.05, _start_join, node)
        ok = sim.run_until_predicate(
            lambda: all(n.in_overlay() for n in nodes), timeout=join_timeout_s
        )
        assert ok, "overlay did not converge"
    else:
        for node in nodes[1:]:
            _start_join(node)
            ok = sim.run_until_predicate(node.in_overlay, timeout=join_timeout_s)
            assert ok, f"{node.address} failed to join"
    return sim, network, nodes


def _start_join(node: OverlayNode) -> None:
    bootstrap = node.bootstrap_provider(node.address)
    assert bootstrap is not None
    node.start_join(bootstrap)


def assert_prefix_free_cover(codes: List[Code]) -> None:
    """The live codes must partition the binary code space exactly."""
    for i, a in enumerate(codes):
        for b in codes[i + 1 :]:
            assert not a.comparable(b), f"codes overlap: {a} vs {b}"
    total = sum(2.0 ** -len(c) for c in codes)
    assert abs(total - 1.0) < 1e-9, f"codes cover {total} of the space"


class FakeMind:
    """What MIND's protocol objects read of their node, minus the network.

    A real simulator, op table and index state; ``route``, ``_send`` and
    routing failures are logged (``routed``, ``sent``, ``failed``), and
    ``_reply`` applies a result in place when it is for this node, as the
    real one does.  ``links`` is whatever the test sets.
    """

    def __init__(self, code: str = "01", links=()) -> None:
        self.sim = Simulator(5)
        self.address = "me"
        self.mind_config = MindConfig()
        self._rng = self.sim.rng("overlay.me")
        self.ops = OpTable(self.sim, self.address)
        self.code = Code(code)
        self.adopted: set = set()
        self.active = True
        self.sibling_pointer = None
        self.link_list = list(links)
        self._links_key = 0
        self.indices: dict = {}
        self.records_stored = self.replicas_stored = self.sibling_fetches = 0
        self.routed: list = []  # (target bits, kind, inner, route kwargs)
        self.sent: list = []  # (dst, kind, payload)
        self.failed: list = []  # routing failure reasons
        self._ids = itertools.count(1)

    def add_index(self, schema, replication: int = 0, code_depth: int = 8):
        self.indices[schema.name] = IndexState(
            schema=schema,
            versions=VersionedEmbedding(Embedding(schema, EvenCuts(), code_depth=code_depth)),
            replication=replication,
            store=TimePartitionedStore(schema),
            dac=DataAccessController(self.sim, DacConfig()),
        )
        return self.indices[schema.name]

    def _next_op_id(self) -> str:
        return f"me:{next(self._ids)}"

    def _state(self, index: str):
        return self.indices[index]

    def _arrival_index(self, envelope):
        return self.indices.get(envelope["inner"]["index"])

    def in_overlay(self) -> bool:
        return self.active

    def covers(self, target: Code) -> bool:
        return self.code.comparable(target)

    def links(self, alive_only: bool = True):
        return self.link_list

    def route(self, target: Code, kind: str, inner, **kw) -> None:
        self.routed.append((target.bits, kind, inner, kw))

    def on_route_failed(self, envelope, reason: str) -> None:
        self.failed.append(reason)

    def _send(self, dst: str, kind: str, payload, **kw) -> None:
        self.sent.append((dst, kind, payload))

    def _reply(self, origin: str, kind: str, payload, apply, **kw) -> None:
        if origin == self.address:
            apply(payload)
        else:
            self._send(origin, kind, payload)
