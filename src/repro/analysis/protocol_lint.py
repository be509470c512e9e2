"""Payload-key reads inside handlers, checked against the wire registry.

The handler registrations come from :mod:`repro.analysis.model`.  This
lint collects the payload reads inside each handler —
``msg.payload["key"]``, aliases (``payload = msg.payload``),
``.get("key")`` calls, one level of helper propagation
(``self._apply_x(msg.payload)``), and for routed handlers both the
envelope's keys and the ``inner`` dict's keys — and reports
``protocol-undeclared-key`` for a key the kind does not declare.

The rest of the protocol is checked where it is cheaper to check:
``protocol.dispatch_table`` refuses a handler for an unregistered kind,
a tier-1 test compares the registry with the live handler tables, and
with ``REPRO_PROTOCOL_VALIDATE`` on (suite-wide in the tests) every
``Message`` is validated against the registry at its send.  None of
those sees a handler read a key no sender puts in: through ``.get`` it
silently reads ``None``.
"""

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import attr_name, const_str, is_msg_payload
from repro.analysis.findings import Sink
from repro.analysis.model import HandlerReg, Module
from repro.net.protocol import ENVELOPE_KEYS, MessageKind

_ENVELOPE_KEY_SET = frozenset(ENVELOPE_KEYS)


@dataclass(frozen=True)
class _Read:
    key: str
    line: int


class _PayloadReads(ast.NodeVisitor):
    """Collect constant payload-key reads within one handler function."""

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
            self.reads.append(_Read(key, line))
        elif self._is_inner(container):
            self.inner_reads.append(_Read(key, line))

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
) -> None:
    for module in modules:
        for reg, fn in module.handler_functions():
            decl = (routed if reg.routed else registry).get(reg.kind)
            if decl is not None:
                _check_handler_reads(module, reg, fn, decl, sink)


def _check_handler_reads(
    module: Module, reg: HandlerReg, fn: ast.FunctionDef, decl: MessageKind, sink: Sink
) -> None:
    def undeclared(read: _Read, message: str) -> None:
        sink.report(module.path, read.line, "protocol-undeclared-key", message)

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
        if read.key not in _ENVELOPE_KEY_SET:
            undeclared(
                read,
                f"routed handler for {decl.name!r} reads envelope key "
                f"{read.key!r} not in the route envelope",
            )
    for read in reads.inner_reads:
        if read.key not in decl.all_keys():
            undeclared(
                read,
                f"handler for routed kind {decl.name!r} reads undeclared "
                f"payload key {read.key!r}",
            )
