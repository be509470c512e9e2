"""Cross-check of the module model's sends and handlers against the wire registry.

The send sites and handler registrations come from
:mod:`repro.analysis.model`.  This lint adds payload reads inside
handlers — ``msg.payload["key"]``, aliases (``payload = msg.payload``),
``.get("key")`` calls, one level of helper propagation
(``self._apply_x(msg.payload)``), and for routed handlers both the
envelope's keys and the ``inner`` dict's keys.

Checks (rule ids in :mod:`repro.analysis.findings`): sent kinds with no
handler, handled kinds nobody sends, handlers for unregistered kinds,
dead registry entries, and undeclared payload-key reads.  What a send
carries is checked at runtime instead: with ``REPRO_PROTOCOL_VALIDATE``
on (suite-wide in the tests) every ``Message`` is validated against the
registry — unknown kinds, missing required keys and undeclared keys all
raise :class:`repro.net.protocol.ProtocolError`.
"""

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import attr_name, const_str, is_msg_payload
from repro.analysis.findings import Sink
from repro.analysis.model import HandlerReg, Module, SendSite, guard_kind
from repro.net.protocol import ENVELOPE_KEYS, MessageKind

_ENVELOPE_KEY_SET = frozenset(ENVELOPE_KEYS)


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

    def visit_If(self, node: ast.If) -> None:
        kind = guard_kind(node.test)
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
        return is_msg_payload(node, self.msg_names)

    def _is_inner(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id in self.inner_names:
            return True
        # envelope["inner"][...]
        return (
            isinstance(node, ast.Subscript)
            and self._is_payload(node.value)
            and const_str(node.slice) == "inner"
        )

    def _note(self, key: Optional[str], container: ast.AST, line: int) -> None:
        if key is None:
            return
        if self._is_payload(container):
            self.reads.append(self._read(key, line))
        elif self._is_inner(container):
            self.inner_reads.append(self._read(key, line))

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
        self._note(const_str(node.slice), node.value, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "get" and node.args:
            self._note(const_str(node.args[0]), func.value, node.lineno)
        # one level of helper propagation: self._apply_x(<payload>)
        callee = attr_name(func)
        if callee is not None and any(self._is_payload(arg) for arg in node.args):
            self.forwards.append((callee, node.lineno))
        self.generic_visit(node)


def _analyze_reads(
    fn: ast.FunctionDef, module: Module, *, as_msg: bool, depth: int = 0,
    seen: Optional[Set[str]] = None,
) -> _PayloadReads:
    """Payload reads in ``fn``, following one level of helper calls.

    ``as_msg`` selects the calling convention: the parameter is a
    ``Message`` (reads go through ``.payload``) versus the payload dict
    itself (routed-envelope handlers and ``_apply_*`` helpers).
    """
    seen = seen if seen is not None else set()
    seen.add(fn.name)
    params = [a.arg for a in fn.args.args if a.arg not in ("self", "cls")]
    if not params:
        return _PayloadReads(set(), set())
    if as_msg:
        reads = _PayloadReads(payload_names=set(), msg_names={params[0]})
    else:
        reads = _PayloadReads(payload_names={params[0]}, msg_names=set())
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


def lint_protocol(
    modules: List[Module],
    sink: Sink,
    registry: Dict[str, MessageKind],
    routed: Dict[str, MessageKind],
    check_coverage: bool = True,
) -> None:
    sent: Dict[Tuple[str, bool], SendSite] = {}
    handled: Dict[Tuple[str, bool], HandlerReg] = {}
    for module in modules:
        for site in module.sends:
            sent.setdefault((site.kind, site.routed), site)
        for reg in module.handlers:
            handled.setdefault((reg.kind, reg.routed), reg)
            if (routed if reg.routed else registry).get(reg.kind) is None:
                sink.report(
                    reg.path, reg.line, "protocol-unregistered-handler",
                    f"handler registered for unregistered kind {reg.kind!r}",
                    reg.context,
                )
        for reg, fn in module.handler_functions():
            decl = (routed if reg.routed else registry).get(reg.kind)
            if decl is not None:
                _check_handler_reads(module, reg, fn, decl, sink)
    if check_coverage:
        _check_coverage(sent, handled, registry, routed, sink)


def _check_handler_reads(
    module: Module, reg: HandlerReg, fn: ast.FunctionDef, decl: MessageKind, sink: Sink
) -> None:
    def undeclared(read: _Read, message: str) -> None:
        sink.report(
            reg.path, read.line, "protocol-undeclared-key", message, f"{fn.name}:{read.key}"
        )

    if not reg.routed:
        for read in _analyze_reads(fn, module, as_msg=True).reads:
            if read.key not in decl.all_keys():
                undeclared(
                    read,
                    f"handler for {decl.name!r} reads undeclared payload key {read.key!r}",
                )
        return
    # Routed handlers receive the route envelope; their own subscript
    # reads are envelope keys, and reads via ``inner`` are the routed
    # kind's payload keys.
    reads = _analyze_reads(fn, module, as_msg=False)
    for read in reads.reads:
        if read.key not in _ENVELOPE_KEY_SET and read.applies_to(decl.name):
            undeclared(
                read,
                f"routed handler for {decl.name!r} reads envelope key "
                f"{read.key!r} not in the route envelope",
            )
    for read in reads.inner_reads:
        if read.key not in decl.all_keys() and read.applies_to(decl.name):
            undeclared(
                read,
                f"handler for routed kind {decl.name!r} reads undeclared "
                f"payload key {read.key!r}",
            )


def _check_coverage(
    sent: Dict[Tuple[str, bool], SendSite],
    handled: Dict[Tuple[str, bool], HandlerReg],
    registry: Dict[str, MessageKind],
    routed: Dict[str, MessageKind],
    sink: Sink,
) -> None:
    for (kind, is_routed), site in sorted(sent.items(), key=lambda kv: kv[0]):
        if kind in (routed if is_routed else registry) and (kind, is_routed) not in handled:
            sink.report(
                site.path, site.line, "protocol-unhandled-kind",
                f"kind {kind!r} is sent here but has no handler anywhere", site.context,
            )
    for (kind, is_routed), reg in sorted(handled.items(), key=lambda kv: kv[0]):
        if kind in (routed if is_routed else registry) and (kind, is_routed) not in sent:
            sink.report(
                reg.path, reg.line, "protocol-unsent-kind",
                f"kind {kind!r} has a handler but nothing ever sends it", reg.context,
            )
    for table, is_routed in ((registry, False), (routed, True)):
        for kind in sorted(table):
            if (kind, is_routed) not in sent and (kind, is_routed) not in handled:
                sink.report(
                    "<registry>", 0, "protocol-dead-kind",
                    f"registry entry {kind!r} is neither sent nor handled in the "
                    "analyzed code",
                    f"registry:{kind}",
                )
