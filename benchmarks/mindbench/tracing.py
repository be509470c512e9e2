"""Span wrappers around the public entry points of every ``repro`` layer.

``install()`` patches wrappers onto classes *before* a cluster is built
(in a replica process that exists only for the traced run, so nothing is
ever un-patched); ``src/repro`` stays byte-identical and every layer is
measured from outside.  A span has a name, a layer, a start, an end and
a parent; a layer's self time is its spans' duration minus the part
their child spans cover.  Spans are aggregated in memory to ``{calls,
total_s, self_s}`` per (layer, name); the first ``RAW_SPAN_CAP`` raw
spans are kept for reading a few complete operations by eye.

Scheduling calls (``Simulator.schedule*``/``push_at``,
``SimNetwork.call_in_slot``) get a span of their own *and* wrap the
callback they schedule, so when the kernel later runs it the time lands
in a span labelled by the ``repro.<layer>`` module that defines the
callback.  Callbacks are wrapped even while the tracer is paused (set-up
schedules timers that fire inside the timed section); a paused wrapper
costs one attribute test.

Known bias: the wrapper's own work outside a span's clock reads (about a
microsecond) is charged to the *parent* span, so layers with many
children — ``sim``, whose root span parents every event — read slightly
high.  ``trace.overhead_ratio`` bounds the total effect.
"""

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.cluster import MindCluster
from repro.core.embedding import Embedding
from repro.core.mind_node import MindNode
from repro.core.query import RangeQuery
from repro.net.network import SimNetwork
from repro.overlay.node import OverlayNode
from repro.sim.kernel import Simulator
from repro.storage.dac import DataAccessController
from repro.storage.memtable import TimePartitionedStore

LAYERS = ("sim", "net", "overlay", "core", "storage", "traffic")
#: Spans of the harness's own callbacks (generator ticks, op issue).
HARNESS_LAYER = "bench"
RAW_SPAN_CAP = 20_000

Key = Tuple[str, str]


def layer_of(fn: Callable) -> Key:
    """(layer, qualified name) of a callable, from its defining module."""
    fn = getattr(fn, "__func__", fn)
    fn = getattr(fn, "__wrapped__", fn)
    module = getattr(fn, "__module__", "") or ""
    parts = module.split(".")
    layer = parts[1] if parts[0] == "repro" and len(parts) > 1 else HARNESS_LAYER
    return layer, getattr(fn, "__qualname__", repr(fn))


class Tracer:
    """In-memory span recorder; ``start()``/``stop()`` bracket the timed section."""

    def __init__(self) -> None:
        self.active = False
        #: Open spans, innermost last: ``[key, start, child_s, span_id]``.
        self._stack: List[list] = []
        self.agg: Dict[Key, List[float]] = {}
        self.raw: List[Tuple[int, int, str, str, float, float]] = []
        self.counters: Dict[str, int] = {}
        self._next_id = 0
        self._labels: Dict[Any, Key] = {}

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- span mechanics -------------------------------------------------
    def _finish(self, end: float) -> None:
        stack = self._stack
        key, start, child_s, span_id = stack.pop()
        duration = end - start
        cell = self.agg.get(key)
        if cell is None:
            cell = self.agg[key] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += duration
        cell[2] += duration - child_s
        if stack:
            stack[-1][2] += duration
        if len(self.raw) < RAW_SPAN_CAP:
            parent = stack[-1][3] if stack else -1
            self.raw.append((span_id, parent, key[0], key[1], start, end))

    def span(self, fn: Callable, key: Optional[Key] = None, count: Optional[str] = None):
        """``fn`` wrapped in a span; ``count`` sums ``len(result)`` into a counter."""
        key = key or layer_of(fn)
        stack, finish, clock = self._stack, self._finish, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            stack.append([key, clock(), 0.0, self._next_id])
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(clock())
            if count is not None:
                self.counters[count] = self.counters.get(count, 0) + len(result)
            return result

        return traced

    def run_callback(self, callback: Callable, args: tuple) -> None:
        """What the kernel runs in place of a scheduled ``callback(*args)``."""
        if not self.active:
            callback(*args)
            return
        fn = getattr(callback, "__func__", callback)
        fn = getattr(fn, "__wrapped__", fn)
        code = getattr(fn, "__code__", fn)
        key = self._labels.get(code)
        if key is None:
            layer, name = layer_of(callback)
            key = self._labels[code] = (layer, name + " (event)")
        self._next_id += 1
        self._stack.append([key, time.perf_counter(), 0.0, self._next_id])
        try:
            callback(*args)
        finally:
            self._finish(time.perf_counter())

    # -- installation ---------------------------------------------------
    def _wrap(self, owner: type, *names: str, count: Optional[str] = None) -> None:
        for name in names:
            fn = owner.__dict__[name]
            # Named by the attribute patched: ``send_framed`` is an alias
            # whose ``__qualname__`` says ``_transmit``.
            key = (layer_of(fn)[0], f"{owner.__name__}.{name}")
            setattr(owner, name, self.span(fn, key=key, count=count))

    def install(self) -> "Tracer":
        run_callback = self.run_callback
        span = self.span

        # sim: schedulers wrap the callback they are given.
        for name in ("schedule", "schedule_at"):
            inner = span(Simulator.__dict__[name])

            def scheduler(sim, when, callback, *args, _inner=inner):
                return _inner(sim, when, run_callback, callback, args)

            setattr(Simulator, name, scheduler)

        many = span(Simulator.schedule_many)

        def schedule_many(sim, items):
            return many(sim, [(at, run_callback, (cb, args)) for at, cb, args in items])

        Simulator.schedule_many = schedule_many

        init = Simulator.__init__

        def simulator_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            push = span(sim.push_at, key=("sim", "Simulator.push_at"))
            sim.push_at = lambda at, cb, cb_args: push(at, run_callback, (cb, cb_args))

        Simulator.__init__ = simulator_init
        self._wrap(Simulator, "run_until", "run_until_predicate", "run_until_idle")

        # net: sends, the receive-side call wheel, and registered endpoints.
        self._wrap(SimNetwork, "send", "send_framed", "resend")
        in_slot = span(SimNetwork.call_in_slot)
        SimNetwork.call_in_slot = (
            lambda net, at, fn, args: in_slot(net, at, run_callback, (fn, args))
        )
        register = SimNetwork.register

        def traced_register(net, address, deliver):
            layer, name = layer_of(deliver)
            register(net, address, span(deliver, key=(layer, name + " (endpoint)")))

        SimNetwork.register = traced_register

        # overlay / core: routing entry, op entry points, arrival hooks,
        # and the message handlers a MindNode adds.
        self._wrap(OverlayNode, "route")
        self._wrap(MindNode, "insert_record", "query_index", "on_route_arrival", "on_route_failed")
        handlers = MindNode.extra_handlers
        MindNode.extra_handlers = (
            lambda node: {kind: span(fn) for kind, fn in handlers(node).items()}
        )
        self._wrap(MindCluster, "rebalance_daily")
        self._wrap(Embedding, "point_code", "query_prefix")
        self._wrap(RangeQuery, "normalized_rect", "matches")

        # storage
        self._wrap(TimePartitionedStore, "insert", "insert_batch", "points_in_time_range")
        self._wrap(TimePartitionedStore, "query", count="storage.hits")
        self._wrap(DataAccessController, "submit")
        return self

    # -- read-out -------------------------------------------------------
    def report(self, wall_s: float) -> Dict[str, Any]:
        layers = {layer: 0.0 for layer in (*LAYERS, HARNESS_LAYER)}
        rows = []
        for (layer, name), (calls, total_s, self_s) in sorted(self.agg.items()):
            layers[layer] = layers.get(layer, 0.0) + self_s
            rows.append(
                {"layer": layer, "name": name, "calls": calls, "total_s": total_s, "self_s": self_s}
            )
        attributed = sum(layers[layer] for layer in LAYERS)
        t0 = self.raw[0][4] if self.raw else 0.0
        return {
            "wall_s": wall_s,
            "layers": {
                layer: {"self_s": self_s, "self_frac": self_s / wall_s}
                for layer, self_s in layers.items()
            },
            "unattributed_frac": 1.0 - attributed / wall_s,
            "sum_vs_wall": sum(layers.values()) / wall_s,
            "counters": dict(self.counters),
            "aggregate": sorted(rows, key=lambda r: -r["self_s"]),
            # [id, parent, layer, name, start, end], seconds from the first span
            "spans": [
                [sid, parent, layer, name, start - t0, end - t0]
                for sid, parent, layer, name, start, end in self.raw
            ],
        }
