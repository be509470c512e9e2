"""AST cross-check of send sites and handlers against the wire registry.

The walk recognises the repo's messaging idioms:

* send sites — the shapes :func:`repro.analysis.astutil.send_site`
  recognises (``_send``, ``_reply``, ``send``, ``_flood``,
  ``Message(kind=...)`` and routed ``route`` sends) with a literal kind;
* handler registrations — the ``self._handlers = {"kind": self._on_x}``
  table, ``extra_handlers`` return dicts, baseline
  ``node.handlers["kind"] = fn`` assignments (including handler
  factories), and routed dispatch via ``inner_kind == "..."`` /
  ``inner_kind in (...)`` comparisons inside ``on_route_arrival`` /
  ``on_route_failed``;
* payload reads inside handlers — ``msg.payload["key"]``, aliases
  (``payload = msg.payload``), ``.get("key")`` calls, one level of
  helper propagation (``self._apply_x(msg.payload)``), and for routed
  handlers both the envelope's keys and the ``inner`` dict's keys.

Checks (rule ids in :mod:`repro.analysis.findings`): unknown kinds at
send sites, sent kinds with no handler, handled kinds nobody sends,
handlers for unregistered kinds, dead registry entries, undeclared
payload-key reads, and payload literals that omit required keys or carry
undeclared ones.
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import attr_name, const_str, send_site
from repro.analysis.findings import Finding
from repro.net.protocol import ENVELOPE_KEYS, MessageKind

_ENVELOPE_KEY_SET = frozenset(ENVELOPE_KEYS)


def _is_msg_payload(node: ast.AST, msg_names: Set[str]) -> bool:
    """True for ``<msg>.payload`` where ``<msg>`` is a known message name."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "payload"
        and isinstance(node.value, ast.Name)
        and node.value.id in msg_names
    )


@dataclass
class SendSite:
    kind: str
    routed: bool
    path: str
    line: int
    payload: Optional[ast.AST]
    func: Optional[ast.FunctionDef]
    context: str


@dataclass
class HandlerReg:
    kind: str
    routed: bool
    path: str
    line: int
    #: Name of the handler method/factory in the same module, if resolvable.
    func_name: Optional[str]
    #: True when ``func_name`` is a factory whose nested def is the handler.
    factory: bool
    context: str


@dataclass
class ModuleInfo:
    path: str
    tree: ast.Module
    #: every (async) function def in the module, by bare name
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    sends: List[SendSite] = field(default_factory=list)
    handlers: List[HandlerReg] = field(default_factory=list)


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
class _Collector(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self._func_stack: List[ast.FunctionDef] = []

    # -- function bookkeeping ------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.info.functions.setdefault(node.name, node)
        self._func_stack.append(node)
        if node.name == "extra_handlers":
            for ret in ast.walk(node):
                if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Dict):
                    self._handler_dict(ret.value)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _context(self, detail: str) -> str:
        func = self._func_stack[-1].name if self._func_stack else "<module>"
        return f"{func}:{detail}"

    def _enclosing(self) -> Optional[ast.FunctionDef]:
        return self._func_stack[-1] if self._func_stack else None

    # -- handler tables -------------------------------------------------
    def _handler_dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            kind = const_str(key)
            if kind is None:
                continue
            self.info.handlers.append(
                HandlerReg(
                    kind=kind,
                    routed=False,
                    path=self.info.path,
                    line=key.lineno,
                    func_name=attr_name(value),
                    factory=False,
                    context=self._context(kind),
                )
            )

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # self._handlers: Dict[str, Handler] = {...}
        name = attr_name(node.target)
        if name is not None and name.endswith("handlers") and isinstance(node.value, ast.Dict):
            self._handler_dict(node.value)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            # self._handlers = {...}
            name = attr_name(target)
            if name is not None and name.endswith("handlers") and isinstance(node.value, ast.Dict):
                self._handler_dict(node.value)
            # node.handlers["kind"] = fn / factory(...)
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "handlers"
            ):
                kind = const_str(target.slice)
                if kind is not None:
                    func_name = attr_name(node.value)
                    factory = False
                    if func_name is None and isinstance(node.value, ast.Call):
                        func_name = attr_name(node.value.func)
                        factory = func_name is not None
                    self.info.handlers.append(
                        HandlerReg(
                            kind=kind,
                            routed=False,
                            path=self.info.path,
                            line=node.lineno,
                            func_name=func_name,
                            factory=factory,
                            context=self._context(kind),
                        )
                    )
        self.generic_visit(node)

    # -- routed dispatch ------------------------------------------------
    @staticmethod
    def _is_inner_kind_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id == "inner_kind":
            return True
        return isinstance(node, ast.Subscript) and const_str(node.slice) == "inner_kind"

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        if isinstance(test, ast.Compare) and self._is_inner_kind_expr(test.left):
            kinds: List[Tuple[str, int]] = []
            for comparator in test.comparators:
                value = const_str(comparator)
                if value is not None:
                    kinds.append((value, comparator.lineno))
                elif isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
                    kinds.extend(
                        (k, elt.lineno)
                        for elt in comparator.elts
                        for k in (const_str(elt),)
                        if k is not None
                    )
            # `inner_kind == "x"`: the branch body names the handler.
            dispatch_target: Optional[str] = None
            if len(test.ops) == 1 and isinstance(test.ops[0], ast.Eq):
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Call)
                        and attr_name(stmt.value.func) is not None
                    ):
                        dispatch_target = attr_name(stmt.value.func)
                        break
            for kind, line in kinds:
                self.info.handlers.append(
                    HandlerReg(
                        kind=kind,
                        routed=True,
                        path=self.info.path,
                        line=line,
                        func_name=dispatch_target if len(kinds) == 1 else None,
                        factory=False,
                        context=self._context(kind),
                    )
                )
        self.generic_visit(node)

    # -- send sites ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        kind_node, payload, routed = send_site(node) or (None, None, False)
        kind = const_str(kind_node)
        if kind is not None:
            self.info.sends.append(
                SendSite(
                    kind=kind,
                    routed=routed,
                    path=self.info.path,
                    line=node.lineno,
                    payload=payload,
                    func=self._enclosing(),
                    context=self._context(kind),
                )
            )
        self.generic_visit(node)


def collect_module(path: str, tree: ast.Module) -> ModuleInfo:
    info = ModuleInfo(path=path, tree=tree)
    _Collector(info).visit(tree)
    return info


# ----------------------------------------------------------------------
# Payload-read analysis inside handlers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Read:
    key: str
    line: int
    #: positive ``inner_kind == "x"`` guard in effect, if any
    guard: Optional[str]
    #: kinds excluded by enclosing else-branches of guarded ifs
    excluded: Tuple[str, ...]

    def applies_to(self, kind: str) -> bool:
        if self.guard is not None and self.guard != kind:
            return False
        return kind not in self.excluded


class _PayloadReads(ast.NodeVisitor):
    """Collect constant payload-key reads within one handler function.

    Reads are tagged with any enclosing ``inner_kind == "x"`` guard so a
    shared routed-failure path (one function switching on the inner kind)
    is checked branch-by-branch instead of every read against every kind.
    """

    def __init__(self, payload_names: Set[str], msg_names: Set[str]) -> None:
        self.payload_names = set(payload_names)
        self.msg_names = set(msg_names)
        #: reads against the payload
        self.reads: List[_Read] = []
        #: names aliased to payload["inner"] (routed handlers)
        self.inner_names: Set[str] = set()
        #: reads against payload["inner"]
        self.inner_reads: List[_Read] = []
        #: helper calls receiving the payload: (callee name, line)
        self.forwards: List[Tuple[str, int]] = []
        self._guard: Optional[str] = None
        self._excluded: Set[str] = set()

    def _read(self, key: str, line: int) -> _Read:
        return _Read(key, line, self._guard, tuple(sorted(self._excluded)))

    @staticmethod
    def _guard_kind(test: ast.AST) -> Optional[str]:
        """The kind name if ``test`` is ``inner_kind == "x"``-shaped."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
        ):
            return None
        left = test.left
        is_kind_expr = (isinstance(left, ast.Name) and left.id == "inner_kind") or (
            isinstance(left, ast.Subscript) and const_str(left.slice) == "inner_kind"
        )
        if not is_kind_expr:
            return None
        return const_str(test.comparators[0])

    def visit_If(self, node: ast.If) -> None:
        kind = self._guard_kind(node.test)
        if kind is None:
            self.generic_visit(node)
            return
        self.visit(node.test)
        prev_guard = self._guard
        self._guard = kind
        for stmt in node.body:
            self.visit(stmt)
        self._guard = prev_guard
        self._excluded.add(kind)
        for stmt in node.orelse:
            self.visit(stmt)
        self._excluded.discard(kind)

    def _is_payload(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id in self.payload_names:
            return True
        return _is_msg_payload(node, self.msg_names)

    def _is_inner(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id in self.inner_names:
            return True
        # envelope["inner"][...]
        return (
            isinstance(node, ast.Subscript)
            and self._is_payload(node.value)
            and const_str(node.slice) == "inner"
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._is_payload(value):
                    self.payload_names.add(target.id)
                elif self._is_inner(value):
                    self.inner_names.add(target.id)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        key = const_str(node.slice)
        if key is not None:
            if self._is_payload(node.value):
                self.reads.append(self._read(key, node.lineno))
            elif self._is_inner(node.value):
                self.inner_reads.append(self._read(key, node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "get" and node.args:
            key = const_str(node.args[0])
            if key is not None:
                if self._is_payload(func.value):
                    self.reads.append(self._read(key, node.lineno))
                elif self._is_inner(func.value):
                    self.inner_reads.append(self._read(key, node.lineno))
        # one level of helper propagation: self._apply_x(<payload>)
        callee = attr_name(func)
        if callee is not None and any(self._is_payload(arg) for arg in node.args):
            self.forwards.append((callee, node.lineno))
        self.generic_visit(node)


def _first_param(fn: ast.FunctionDef) -> Optional[str]:
    args = [a.arg for a in fn.args.args if a.arg not in ("self", "cls")]
    return args[0] if args else None


def _nested_handler(factory: ast.FunctionDef) -> Optional[ast.FunctionDef]:
    """The handler def a factory builds and returns."""
    for stmt in ast.walk(factory):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt is not factory:
            return stmt
    return None


def _analyze_reads(
    fn: ast.FunctionDef, module: ModuleInfo, *, as_msg: bool, depth: int = 0,
    seen: Optional[Set[str]] = None,
) -> _PayloadReads:
    """Payload reads in ``fn``, following one level of helper calls.

    ``as_msg`` selects the calling convention: the parameter is a
    ``Message`` (reads go through ``.payload``) versus the payload dict
    itself (routed-envelope handlers and ``_apply_*`` helpers).
    """
    seen = seen if seen is not None else set()
    seen.add(fn.name)
    param = _first_param(fn)
    if param is None:
        return _PayloadReads(set(), set())
    if as_msg:
        reads = _PayloadReads(payload_names=set(), msg_names={param})
    else:
        reads = _PayloadReads(payload_names={param}, msg_names=set())
    for stmt in fn.body:
        reads.visit(stmt)
    if depth < 2:
        for callee, _ in reads.forwards:
            target = module.functions.get(callee)
            if target is not None and target.name not in seen:
                sub = _analyze_reads(target, module, as_msg=False, depth=depth + 1, seen=seen)
                reads.reads.extend(sub.reads)
                reads.inner_reads.extend(sub.inner_reads)
    return reads


# ----------------------------------------------------------------------
# Send-site payload resolution
# ----------------------------------------------------------------------
def _dict_literal_keys(node: ast.AST) -> Optional[Tuple[Set[str], int]]:
    if isinstance(node, ast.Dict) and node.keys and all(
        const_str(k) is not None for k in node.keys
    ):
        return {const_str(k) for k in node.keys}, node.lineno
    if isinstance(node, ast.Dict) and not node.keys:
        return set(), node.lineno
    return None


def _resolve_payload_literals(
    site: SendSite,
) -> List[Tuple[Set[str], int]]:
    """Key sets of the payload literal(s) feeding a send site, if static.

    A direct dict literal resolves to itself; a bare name resolves to
    every ``name = {...}`` dict-literal assignment in the enclosing
    function (branchy builders like ``op_failed`` assign per-branch).
    Anything else — ``dict(...)`` copies, parameters, ``msg.payload``
    refloods — is dynamic and skipped; runtime validation covers those.
    """
    payload = site.payload
    if payload is None:
        return []
    direct = _dict_literal_keys(payload)
    if direct is not None:
        return [direct]
    if isinstance(payload, ast.Name) and site.func is not None:
        literals: List[Tuple[Set[str], int]] = []
        dynamic = False
        for stmt in ast.walk(site.func):
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == payload.id for t in stmt.targets
            ):
                resolved = _dict_literal_keys(stmt.value)
                if resolved is not None:
                    literals.append(resolved)
                else:
                    dynamic = True
            # mutation (payload["k"] = ...) makes the literal incomplete
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Subscript)
                and isinstance(t.value, ast.Name)
                and t.value.id == payload.id
                for t in stmt.targets
            ):
                dynamic = True
        return [] if dynamic else literals
    return []


# ----------------------------------------------------------------------
# Lint driver
# ----------------------------------------------------------------------
def lint_protocol(
    modules: List[ModuleInfo],
    registry: Dict[str, MessageKind],
    routed: Dict[str, MessageKind],
    check_coverage: bool = True,
) -> List[Finding]:
    findings: List[Finding] = []
    by_path = {m.path: m for m in modules}

    sent: Dict[Tuple[str, bool], SendSite] = {}
    handled: Dict[Tuple[str, bool], HandlerReg] = {}

    for module in modules:
        for site in module.sends:
            sent.setdefault((site.kind, site.routed), site)
            table = routed if site.routed else registry
            decl = table.get(site.kind)
            if decl is None:
                flavor = "routed kind" if site.routed else "message kind"
                findings.append(
                    Finding(
                        path=site.path,
                        line=site.line,
                        rule="protocol-unknown-kind",
                        message=f"send of unregistered {flavor} {site.kind!r}",
                        context=site.context,
                    )
                )
                continue
            for keys, line in _resolve_payload_literals(site):
                extra = keys - decl.all_keys()
                if extra:
                    findings.append(
                        Finding(
                            path=site.path,
                            line=line,
                            rule="protocol-extra-send-key",
                            message=(
                                f"payload for {site.kind!r} carries undeclared "
                                f"key(s) {sorted(extra)}"
                            ),
                            context=site.context,
                        )
                    )
                missing = decl.required - keys
                # Branch-assigned literals for kinds with optional keys
                # (e.g. op_failed) legitimately omit optionals only; a
                # literal missing *required* keys is always wrong.
                if missing:
                    findings.append(
                        Finding(
                            path=site.path,
                            line=line,
                            rule="protocol-missing-send-key",
                            message=(
                                f"payload for {site.kind!r} omits required "
                                f"key(s) {sorted(missing)}"
                            ),
                            context=site.context,
                        )
                    )

        for reg in module.handlers:
            handled.setdefault((reg.kind, reg.routed), reg)
            table = routed if reg.routed else registry
            decl = table.get(reg.kind)
            if decl is None:
                findings.append(
                    Finding(
                        path=reg.path,
                        line=reg.line,
                        rule="protocol-unregistered-handler",
                        message=f"handler registered for unregistered kind {reg.kind!r}",
                        context=reg.context,
                    )
                )
                continue
            findings.extend(_check_handler_reads(reg, decl, routed, by_path))

    if check_coverage:
        findings.extend(_check_coverage(sent, handled, registry, routed))
    return findings


def _check_handler_reads(
    reg: HandlerReg,
    decl: MessageKind,
    routed: Dict[str, MessageKind],
    by_path: Dict[str, ModuleInfo],
) -> List[Finding]:
    module = by_path[reg.path]
    if reg.func_name is None:
        return []
    fn = module.functions.get(reg.func_name)
    if fn is None:
        return []
    if reg.factory:
        fn = _nested_handler(fn)
        if fn is None:
            return []

    findings: List[Finding] = []
    if reg.routed:
        # Routed handlers receive the route envelope; their own subscript
        # reads are envelope keys, and reads via ``inner`` are the routed
        # kind's payload keys.
        reads = _analyze_reads(fn, module, as_msg=False)
        for read in reads.reads:
            if read.key not in _ENVELOPE_KEY_SET and read.applies_to(decl.name):
                findings.append(
                    Finding(
                        path=reg.path,
                        line=read.line,
                        rule="protocol-undeclared-key",
                        message=(
                            f"routed handler for {decl.name!r} reads "
                            f"envelope key {read.key!r} not in the route envelope"
                        ),
                        context=f"{fn.name}:{read.key}",
                    )
                )
        for read in reads.inner_reads:
            if read.key not in decl.all_keys() and read.applies_to(decl.name):
                findings.append(
                    Finding(
                        path=reg.path,
                        line=read.line,
                        rule="protocol-undeclared-key",
                        message=(
                            f"handler for routed kind {decl.name!r} reads "
                            f"undeclared payload key {read.key!r}"
                        ),
                        context=f"{fn.name}:{read.key}",
                    )
                )
    else:
        reads = _analyze_reads(fn, module, as_msg=True)
        for read in reads.reads:
            if read.key not in decl.all_keys():
                findings.append(
                    Finding(
                        path=reg.path,
                        line=read.line,
                        rule="protocol-undeclared-key",
                        message=(
                            f"handler for {decl.name!r} reads undeclared "
                            f"payload key {read.key!r}"
                        ),
                        context=f"{fn.name}:{read.key}",
                    )
                )
    return findings


def _check_coverage(
    sent: Dict[Tuple[str, bool], SendSite],
    handled: Dict[Tuple[str, bool], HandlerReg],
    registry: Dict[str, MessageKind],
    routed: Dict[str, MessageKind],
) -> List[Finding]:
    findings: List[Finding] = []
    for (kind, is_routed), site in sorted(sent.items(), key=lambda kv: kv[0]):
        table = routed if is_routed else registry
        if kind in table and (kind, is_routed) not in handled:
            findings.append(
                Finding(
                    path=site.path,
                    line=site.line,
                    rule="protocol-unhandled-kind",
                    message=f"kind {kind!r} is sent here but has no handler anywhere",
                    context=site.context,
                )
            )
    for (kind, is_routed), reg in sorted(handled.items(), key=lambda kv: kv[0]):
        table = routed if is_routed else registry
        if kind in table and (kind, is_routed) not in sent:
            findings.append(
                Finding(
                    path=reg.path,
                    line=reg.line,
                    rule="protocol-unsent-kind",
                    message=f"kind {kind!r} has a handler but nothing ever sends it",
                    context=reg.context,
                )
            )
    for table, is_routed in ((registry, False), (routed, True)):
        for kind in sorted(table):
            if (kind, is_routed) not in sent and (kind, is_routed) not in handled:
                findings.append(
                    Finding(
                        path="<registry>",
                        line=0,
                        rule="protocol-dead-kind",
                        message=(
                            f"registry entry {kind!r} is neither sent nor "
                            "handled in the analyzed code"
                        ),
                        context=f"registry:{kind}",
                    )
                )
    return findings
