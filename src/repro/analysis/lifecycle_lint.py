"""repro-leak: resource-lifecycle analysis of long-lived node state.

Under churn the simulator's nodes, network, and cluster tables live for
the whole run while the operations they track die constantly — crashed
originators, unregistered endpoints, timed-out ops.  Any per-op or
per-node entry without a matching removal path is a leak that grows with
run length, and an orphaned watchdog timer resurrects state that was
already torn down.  This pass proves the *static* half of the resource
lifecycle discipline; the runtime ledger (``REPRO_TRACK_RESOURCES=1``,
:mod:`repro.sim.resources`) proves the dynamic half at quiescence.

Model
-----
Analysis is per-class.  Every ``self.<attr>`` slot assigned a dict/set/
list literal, comprehension, constructor, or mutable annotation anywhere
in the class is a *long-lived container*.  Within each class the pass
collects, per container:

* **add sites** — keyed writes outside ``__init__``: ``self.a[k] = v``
  with a non-constant key, ``.setdefault(...)``, or ``.add(x)`` with a
  non-constant element.  Growth sites for lists are ``.append``/
  ``.extend``/``+=``.
* **removal evidence** — ``.pop``/``.popitem``/``.remove``/``.discard``/
  ``.clear``, ``del self.a[...]``, ``-=``, or a wholesale reassignment
  outside ``__init__``.  Evidence counts anywhere in the class
  (cross-handler add/remove matching) and through a one-level local
  alias (``table = self.a; table.pop(k)``), mirroring the aliasing
  lint's helper discipline.

Rules
-----
* ``leak-op-state`` — a keyed dict/set container with add sites and *no*
  removal evidence anywhere in the class.
* ``leak-timer-unguarded`` — a ``schedule``/``schedule_at``/
  ``call_in_slot``/``timer_in_slot``/``_schedule_coarse``/``_defer``/
  ``_defer_timer`` call whose handle is
  discarded, whose callback resolves locally, writes ``self.*`` state,
  and has no early-return staleness guard — so it cannot be cancelled on
  node kill and fires unconditionally into whatever state remains.
* ``leak-node-retention`` — in a class with a teardown method
  (``unregister``/``deregister``/``remove_node``/``teardown``), a keyed
  container with add sites that the teardown path (including one-level
  ``self._helper()`` callees) never removes from; entries for departed
  nodes are retained forever.
* ``leak-unbounded-growth`` — a list container with growth sites and no
  bound: no removal evidence, no slot-recycling subscript write, and no
  ``len(self.a)`` comparison anywhere in the class.

Known limits: removal through module-level helpers or through a second
object (``other.table.pop``) is invisible, callbacks reached through
non-``self`` receivers are not resolved, and the staleness-guard check
accepts any early-return ``if`` — the runtime ledger backstops all of
these at test time.

Suppression: ``# repro-leak: ignore[rule] reason`` on (or above) the
line, or a justified entry in :mod:`repro.analysis.baseline`.
"""

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import attr_name, describe, self_attr
from repro.analysis.findings import Finding
from repro.analysis.protocol_lint import ModuleInfo

#: scheduler entry points whose second positional argument is a callback
_SCHEDULERS = frozenset({
    "schedule", "schedule_at", "call_in_slot", "timer_in_slot", "_schedule_coarse", "_defer",
    "_defer_timer",
})

_REMOVAL_METHODS = frozenset({"pop", "popitem", "remove", "discard", "clear"})
_GROWTH_METHODS = frozenset({"append", "extend"})

_DICT_CTORS = frozenset({"dict", "defaultdict", "OrderedDict", "Counter"})
_SET_CTORS = frozenset({"set", "frozenset"})
_LIST_CTORS = frozenset({"list", "deque"})

_DICT_ANNOTATIONS = frozenset({"Dict", "dict", "DefaultDict", "OrderedDict"})
_SET_ANNOTATIONS = frozenset({"Set", "set", "FrozenSet"})
_LIST_ANNOTATIONS = frozenset({"List", "list", "Deque", "deque"})

_TEARDOWN_NAMES = ("unregister", "deregister", "remove_node", "teardown")


def _container_kind(value: Optional[ast.AST], annotation: Optional[ast.AST]) -> Optional[str]:
    """'dict' | 'set' | 'list' for a ``self.x = ...`` / annotated slot."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, ast.Call):
        ctor = attr_name(value.func)
        if ctor in _DICT_CTORS:
            return "dict"
        if ctor in _SET_CTORS:
            return "set"
        if ctor in _LIST_CTORS:
            return "list"
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if node is not None:
        name = attr_name(node)
        if name in _DICT_ANNOTATIONS:
            return "dict"
        if name in _SET_ANNOTATIONS:
            return "set"
        if name in _LIST_ANNOTATIONS:
            return "list"
    return None


def _is_constant_key(node: ast.AST) -> bool:
    """Constant subscripts/elements address a fixed slot, not a per-op key."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_constant_key(elt) for elt in node.elts)
    if isinstance(node, ast.UnaryOp):
        return _is_constant_key(node.operand)
    return False


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
                    self.cls.removal_evidence.add(attr)
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
                if attr is None:
                    continue
                if self.cls.containers.get(attr) == "list" or _is_constant_key(
                    target.slice
                ):
                    # an index write cannot grow a list (slot recycling,
                    # e.g. interned-id arrays); a constant key addresses
                    # a fixed slot, not a per-op entry
                    self.cls.bound_evidence.add(attr)
                elif self.fn.name != "__init__":
                    # construction-time population runs once per instance
                    # and is bounded by the constructor's inputs
                    self.cls.note_add(attr, self.fn.name, node, f"self.{attr}[...]")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self_attr(node.target)
        if attr is not None and attr in self.cls.containers:
            if isinstance(node.op, ast.Sub):
                self.cls.removal_evidence.add(attr)
            elif isinstance(node.op, ast.Add) and self.fn.name != "__init__":
                self.cls.note_growth(attr, self.fn.name, node, f"self.{attr} += ...")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                attr = self._resolve(target.value)
                if attr is not None:
                    self.cls.removal_evidence.add(attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = self._resolve(func.value)
            if attr is not None:
                method = func.attr
                if method in _REMOVAL_METHODS:
                    self.cls.removal_evidence.add(attr)
                elif self.fn.name != "__init__":
                    if method == "setdefault":
                        self.cls.note_add(
                            attr, self.fn.name, node, f"self.{attr}.setdefault"
                        )
                    elif method == "add" and node.args and not _is_constant_key(node.args[0]):
                        self.cls.note_add(attr, self.fn.name, node, f"self.{attr}.add")
                    elif method in _GROWTH_METHODS:
                        self.cls.note_growth(
                            attr, self.fn.name, node, f"self.{attr}.{method}"
                        )
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
        self.cls.note_scheduler_call(self.fn, node)
        self.generic_visit(node)


class _ClassScan:
    """Lifecycle facts for one class."""

    def __init__(self, lint: "_LifecycleLint", node: ast.ClassDef) -> None:
        self.lint = lint
        self.node = node
        self.methods: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        #: attr -> 'dict' | 'set' | 'list'
        self.containers: Dict[str, str] = {}
        #: attr -> first (method, lineno, detail) keyed-add site
        self.add_sites: Dict[str, Tuple[str, int, str]] = {}
        #: methods contributing add sites per attr (teardown exemption)
        self.add_methods: Dict[str, Set[str]] = {}
        #: attr -> first (method, lineno, detail) list-growth site
        self.growth_sites: Dict[str, Tuple[str, int, str]] = {}
        self.removal_evidence: Set[str] = set()
        self.bound_evidence: Set[str] = set()
        #: discarded-handle scheduler calls: (method, call node)
        self.timer_sites: List[Tuple[ast.FunctionDef, ast.Call]] = []
        self._discarded_calls: Set[int] = set()

        self._classify_containers()
        for fn in self.methods.values():
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                    self._discarded_calls.add(id(stmt.value))
            _MethodScan(self, fn).visit(fn)

    def _classify_containers(self) -> None:
        for fn in self.methods.values():
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Assign):
                    targets, value, annotation = stmt.targets, stmt.value, None
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value, annotation = [stmt.target], stmt.value, stmt.annotation
                else:
                    continue
                kind = _container_kind(value, annotation)
                if kind is None:
                    continue
                for target in targets:
                    attr = self_attr(target)
                    if attr is not None:
                        self.containers.setdefault(attr, kind)

    def note_add(self, attr: str, method: str, node: ast.AST, detail: str) -> None:
        if self.containers.get(attr) in ("dict", "set"):
            self.add_sites.setdefault(attr, (method, node.lineno, detail))
            self.add_methods.setdefault(attr, set()).add(method)

    def note_growth(self, attr: str, method: str, node: ast.AST, detail: str) -> None:
        if self.containers.get(attr) == "list":
            self.growth_sites.setdefault(attr, (method, node.lineno, detail))

    # -- timers --------------------------------------------------------
    def note_scheduler_call(self, fn: ast.FunctionDef, node: ast.Call) -> None:
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if name in _SCHEDULERS and len(node.args) >= 2 and id(node) in self._discarded_calls:
            self.timer_sites.append((fn, node))

    def _resolve_callback(self, node: ast.AST) -> Optional[ast.AST]:
        """The local function/lambda a scheduler callback argument names."""
        if isinstance(node, ast.Lambda):
            return node
        attr = self_attr(node)
        if attr is not None:
            return self.methods.get(attr)
        if isinstance(node, ast.Name):
            return self.lint.module.functions.get(node.id)
        return None

    @staticmethod
    def _writes_self_state(fn: ast.AST) -> bool:
        body = fn.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) else [fn]
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    root = target
                    while isinstance(root, (ast.Attribute, ast.Subscript)):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id == "self" and target is not root:
                        return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                root = receiver
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if (
                    isinstance(root, ast.Name)
                    and root.id == "self"
                    and node.func.attr
                    in (_REMOVAL_METHODS | _GROWTH_METHODS | {"add", "setdefault", "update", "insert"})
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
    def teardown_method(self) -> Optional[ast.FunctionDef]:
        for name in _TEARDOWN_NAMES:
            fn = self.methods.get(name)
            if fn is not None:
                return fn
        return None

    def _teardown_scope(self, teardown: ast.FunctionDef) -> List[ast.FunctionDef]:
        """The teardown method plus its one-level ``self._helper()`` callees."""
        scope = [teardown]
        for node in ast.walk(teardown):
            if isinstance(node, ast.Call):
                attr = self_attr(node.func)
                if attr is not None and attr in self.methods:
                    scope.append(self.methods[attr])
        return scope

    def _removals_within(self, fns: List[ast.FunctionDef]) -> Set[str]:
        removed: Set[str] = set()
        for fn in fns:
            aliases: Dict[str, str] = {}
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = self_attr(target)
                        if attr is not None and attr in self.containers:
                            removed.add(attr)
                        elif isinstance(target, ast.Name):
                            src = self_attr(node.value)
                            if src in self.containers:
                                aliases[target.id] = src
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        if isinstance(target, ast.Subscript):
                            attr = self_attr(target.value)
                            if attr is None and isinstance(target.value, ast.Name):
                                attr = aliases.get(target.value.id)
                            if attr in self.containers:
                                removed.add(attr)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in _REMOVAL_METHODS:
                        attr = self_attr(node.func.value)
                        if attr is None and isinstance(node.func.value, ast.Name):
                            attr = aliases.get(node.func.value.id)
                        if attr in self.containers:
                            removed.add(attr)
        return removed

    def findings(self) -> None:
        add = self.lint.add
        path = self.lint.module.path
        flagged_op_state: Set[str] = set()
        for attr, (method, lineno, detail) in sorted(self.add_sites.items()):
            if attr in self.removal_evidence:
                continue
            flagged_op_state.add(attr)
            add(
                Finding(
                    path=path,
                    line=lineno,
                    rule="leak-op-state",
                    message=(
                        f"{self.node.name}.{attr} gains per-key entries here "
                        f"({detail}) but no method of the class ever removes "
                        "them; ops that die mid-flight leak their entry"
                    ),
                    context=f"{method}:self.{attr}",
                )
            )

        teardown = self.teardown_method()
        if teardown is not None:
            torn_down = self._removals_within(self._teardown_scope(teardown))
            for attr, (method, lineno, detail) in sorted(self.add_sites.items()):
                if attr in flagged_op_state or attr in torn_down:
                    continue
                add_methods = self.add_methods.get(attr, set())
                if add_methods <= {teardown.name}:
                    continue
                add(
                    Finding(
                        path=path,
                        line=lineno,
                        rule="leak-node-retention",
                        message=(
                            f"{self.node.name}.{attr} accumulates keyed entries "
                            f"({detail}) that {teardown.name}() never removes; "
                            "entries for departed nodes are retained"
                        ),
                        context=f"{teardown.name}:self.{attr}",
                    )
                )

        for attr, (method, lineno, detail) in sorted(self.growth_sites.items()):
            if attr in self.removal_evidence or attr in self.bound_evidence:
                continue
            add(
                Finding(
                    path=path,
                    line=lineno,
                    rule="leak-unbounded-growth",
                    message=(
                        f"{self.node.name}.{attr} grows here ({detail}) with no "
                        "bound, eviction, or consumption anywhere in the class; "
                        "memory grows with run length"
                    ),
                    context=f"{method}:self.{attr}",
                )
            )

        for fn, call in self.timer_sites:
            callback = self._resolve_callback(call.args[1])
            if callback is None:
                continue
            if not self._writes_self_state(callback):
                continue
            if self._has_staleness_guard(callback):
                continue
            cb_name = describe(call.args[1])
            add(
                Finding(
                    path=path,
                    line=call.lineno,
                    rule="leak-timer-unguarded",
                    message=(
                        f"scheduled callback {cb_name} writes self.* state but "
                        "the handle is discarded and the callback has no "
                        "early-return staleness guard; it fires after a crash "
                        "or completion and resurrects torn-down state"
                    ),
                    context=f"{fn.name}:{cb_name}",
                )
            )


class _LifecycleLint:
    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self._findings: Dict[Tuple[str, int, str], Finding] = {}

    def add(self, finding: Finding) -> None:
        self._findings.setdefault((finding.rule, finding.line, finding.message), finding)

    def run(self) -> None:
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.ClassDef):
                _ClassScan(self, node).findings()

    def findings(self) -> List[Finding]:
        return list(self._findings.values())


def lint_lifecycle(module: ModuleInfo) -> List[Finding]:
    """Run the resource-lifecycle rules over one collected module."""
    lint = _LifecycleLint(module)
    lint.run()
    return lint.findings()
