"""repro-leak: resource-lifecycle analysis of long-lived node state.

Under churn the simulator's nodes, network, and cluster tables live for
the whole run while the operations they track die constantly — crashed
originators, crashed endpoints, timed-out ops.  A list that grows
without bound is a leak that grows with run length, and an orphaned
watchdog timer resurrects state that was already torn down.  This pass
is the *static* half of the resource lifecycle discipline; the runtime
ledger (``REPRO_TRACK_RESOURCES=1``, :mod:`repro.sim.resources`) is the
dynamic half at quiescence.

Model
-----
Analysis is per-class.  Every ``self.<attr>`` slot assigned a dict/set/
list literal, comprehension, constructor, or mutable annotation anywhere
in the class is a *long-lived container*.  Within each class the pass
collects, per container:

* **growth sites** — ``.append``/``.extend``/``+=`` on a list outside
  ``__init__``.
* **removal evidence** — ``.pop``/``.popitem``/``.remove``/``.discard``/
  ``.clear``, ``del self.a[...]``, ``-=``, or a wholesale reassignment
  outside ``__init__``.  Evidence counts anywhere in the class and
  through a one-level local alias (``table = self.a; table.pop(k)``).

Rules
-----
* ``leak-timer-unguarded`` — a ``schedule``/``schedule_at``/
  ``call_in_slot``/``_defer`` call whose handle is discarded, whose
  callback resolves locally, writes ``self.*`` state, and has no
  early-return staleness guard — so it cannot be cancelled on node kill
  and fires unconditionally into whatever state remains.  Op timers are
  kernel events (``schedule``); the slot-wheel schedulers
  (``call_in_slot``, ``_defer``) park deliveries and dispatches and
  return no handle, so their callbacks always need the guard.
* ``leak-unbounded-growth`` — a list container with growth sites and no
  bound: no removal evidence, no slot-recycling subscript write, and no
  ``len(self.a)`` comparison anywhere in the class.

Known limits: removal through module-level helpers or through a second
object (``other.table.pop``) is invisible, callbacks reached through
non-``self`` receivers are not resolved, and the staleness-guard check
accepts any early-return ``if`` — the runtime ledger backstops all of
these at test time.
"""

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    GROWTH,
    MUTABLE,
    MUTATORS,
    REMOVALS,
    container_bindings,
    describe,
    root_name,
    self_attr,
)
from repro.analysis.findings import Sink
from repro.analysis.model import Module

#: scheduler entry points whose second positional argument is a callback
_SCHEDULERS = frozenset({"schedule", "schedule_at", "call_in_slot", "_defer"})


class _MethodScan(ast.NodeVisitor):
    """One method's container events, with one-level local alias tracking."""

    def __init__(self, cls: "_ClassScan", fn: ast.FunctionDef) -> None:
        self.cls = cls
        self.fn = fn
        self.aliases: Dict[str, str] = {}

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Container attr addressed by ``node`` (``self.a`` or an alias)."""
        attr = self_attr(node)
        if attr is not None:
            return attr if attr in self.cls.containers else None
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = self_attr(target)
            if attr is not None:
                # wholesale reassignment — also (re)classifies the slot
                if self.fn.name != "__init__" and attr in self.cls.containers:
                    self.cls.note_removal(attr)
                continue
            if isinstance(target, ast.Name):
                source = self._resolve(node.value)
                if source is not None:
                    self.aliases[target.id] = source
                else:
                    self.aliases.pop(target.id, None)
                continue
            if isinstance(target, ast.Subscript):
                attr = self._resolve(target.value)
                if self.cls.containers.get(attr) == "list":
                    # an index write cannot grow a list (slot recycling,
                    # e.g. interned-id arrays)
                    self.cls.bound_evidence.add(attr)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self_attr(node.target)
        if attr is not None and attr in self.cls.containers:
            if isinstance(node.op, ast.Sub):
                self.cls.note_removal(attr)
            elif isinstance(node.op, ast.Add) and self.fn.name != "__init__":
                self.cls.note_growth(attr, node, f"self.{attr} += ...")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                attr = self._resolve(target.value)
                if attr is not None:
                    self.cls.note_removal(attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = self._resolve(func.value)
            if attr is not None:
                method = func.attr
                if method in REMOVALS:
                    self.cls.note_removal(attr)
                elif method in GROWTH and self.fn.name != "__init__":
                    self.cls.note_growth(attr, node, f"self.{attr}.{method}")
        if (
            isinstance(func, ast.Name)
            and func.id == "len"
            and node.args
            and self._resolve(node.args[0]) is not None
        ):
            # a len() read is only a *bound* when something compares it;
            # conservatively accept any len() of the container outside
            # __init__ as bound evidence (every real cap reads it).
            self.cls.bound_evidence.add(self._resolve(node.args[0]))
        self.cls.note_scheduler_call(node)
        self.generic_visit(node)


class _ClassScan:
    """Lifecycle facts for one class."""

    def __init__(self, module: Module, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.methods: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        #: attr -> 'dict' | 'set' | 'list'; the first binding decides
        self.containers: Dict[str, str] = {}
        for attr, kind in container_bindings(self.methods.values()):
            self.containers.setdefault(attr, kind)
        for attr in [a for a, kind in self.containers.items() if kind not in MUTABLE]:
            del self.containers[attr]
        #: attr -> first (lineno, detail) list-growth site
        self.growth_sites: Dict[str, Tuple[int, str]] = {}
        #: attrs some method removes from
        self.removed: Set[str] = set()
        self.bound_evidence: Set[str] = set()
        #: discarded-handle scheduler calls
        self.timer_sites: List[ast.Call] = []
        self._discarded_calls: Set[int] = set()

        for fn in self.methods.values():
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                    self._discarded_calls.add(id(stmt.value))
            _MethodScan(self, fn).visit(fn)

    def note_growth(self, attr: str, node: ast.AST, detail: str) -> None:
        if self.containers.get(attr) == "list":
            self.growth_sites.setdefault(attr, (node.lineno, detail))

    def note_removal(self, attr: str) -> None:
        self.removed.add(attr)

    # -- timers --------------------------------------------------------
    def note_scheduler_call(self, node: ast.Call) -> None:
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if name in _SCHEDULERS and len(node.args) >= 2 and id(node) in self._discarded_calls:
            self.timer_sites.append(node)

    def _resolve_callback(self, node: ast.AST) -> Optional[ast.AST]:
        """The local function/lambda a scheduler callback argument names."""
        if isinstance(node, ast.Lambda):
            return node
        attr = self_attr(node)
        if attr is not None:
            return self.methods.get(attr)
        if isinstance(node, ast.Name):
            return self.module.functions.get(node.id)
        return None

    @staticmethod
    def _writes_self_state(fn: ast.AST) -> bool:
        body = fn.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) else [fn]
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATORS and root_name(node.func.value) == "self":
                    return True
                continue
            else:
                continue
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript)) and root_name(t) == "self"
                for t in targets
            ):
                return True
        return False

    @staticmethod
    def _has_staleness_guard(fn: ast.AST) -> bool:
        if isinstance(fn, ast.Lambda):
            return False
        for node in ast.walk(fn):
            if isinstance(node, ast.If):
                for stmt in node.body:
                    if isinstance(stmt, ast.Return):
                        return True
        return False

    # -- rule evaluation -----------------------------------------------
    def report(self, sink: Sink) -> None:
        path = self.module.path
        cls = self.node.name
        for attr, (lineno, detail) in sorted(self.growth_sites.items()):
            if attr in self.removed or attr in self.bound_evidence:
                continue
            sink.report(
                path, lineno, "leak-unbounded-growth",
                f"{cls}.{attr} grows here ({detail}) with no bound, eviction, or "
                "consumption anywhere in the class; memory grows with run length",
            )

        for call in self.timer_sites:
            callback = self._resolve_callback(call.args[1])
            if (
                callback is None
                or not self._writes_self_state(callback)
                or self._has_staleness_guard(callback)
            ):
                continue
            cb_name = describe(call.args[1])
            sink.report(
                path, call.lineno, "leak-timer-unguarded",
                f"scheduled callback {cb_name} writes self.* state but the handle "
                "is discarded and the callback has no early-return staleness "
                "guard; it fires after a crash or completion and resurrects "
                "torn-down state",
            )


def lint_lifecycle(module: Module, sink: Sink) -> None:
    """Run the resource-lifecycle rules over every class of one module."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            _ClassScan(module, node).report(sink)
