"""The module model every lint reads: one parse, one walk, one reporter.

:func:`load_module` parses a file once and walks it once, collecting
what more than one lint needs:

* its functions by bare name (helpers are resolved through them);
* send sites — the shapes :func:`repro.analysis.astutil.send_site`
  recognises (``_send``, ``_reply``, ``send``, ``_flood``,
  ``Message(kind=...)`` and routed ``route`` sends) with a literal kind;
* handler registrations — the ``self._handlers = {"kind": self._on_x}``
  table, ``extra_handlers`` return dicts, baseline
  ``node.handlers["kind"] = fn`` assignments (including handler
  factories), and the routed table ``self._routed``, whose entries pair
  an arrival and a failure handler (``self._routed["kind"] = (a, f)``);
* its inline ``# repro-lint: ignore[...]`` comments.

:class:`FunctionScoped` is the visitor base the lints share: it knows the
enclosing function and reports to the run's
:class:`~repro.analysis.findings.Sink`.
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import attr_name, const_str, send_site
from repro.analysis.findings import Sink
from repro.analysis.suppressions import inline_ignores


@dataclass
class SendSite:
    kind: str
    line: int
    payload: Optional[ast.AST]
    func: Optional[ast.FunctionDef]


@dataclass
class HandlerReg:
    kind: str
    routed: bool
    #: Name of the handler method/factory in the same module, if resolvable.
    func_name: Optional[str]
    #: True when ``func_name`` is a factory whose nested def is the handler.
    factory: bool


@dataclass
class Module:
    path: str
    tree: ast.Module
    #: every (async) function def in the module, by bare name
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    sends: List[SendSite] = field(default_factory=list)
    handlers: List[HandlerReg] = field(default_factory=list)
    #: line -> rule ids an inline comment suppresses there
    ignores: Dict[int, Set[str]] = field(default_factory=dict)

    def handler_functions(self) -> Iterator[Tuple[HandlerReg, ast.FunctionDef]]:
        """Each registration whose handler def resolves in this module.

        A factory registration resolves to the def the factory builds.
        """
        for reg in self.handlers:
            fn = self.functions.get(reg.func_name) if reg.func_name else None
            if fn is not None and reg.factory:
                fn = next(
                    (
                        sub for sub in ast.walk(fn)
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and sub is not fn
                    ),
                    None,
                )
            if fn is not None:
                yield reg, fn


class FunctionScoped(ast.NodeVisitor):
    """A module walk that tracks the enclosing function and reports findings."""

    def __init__(self, module: Module, sink: Optional[Sink] = None) -> None:
        self.module = module
        self.sink = sink
        self.func_stack: List[ast.FunctionDef] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.func_stack.append(node)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        assert self.sink is not None
        self.sink.report(self.module.path, node.lineno, rule, message, node.col_offset)


def _table_is_routed(node: ast.AST) -> Optional[bool]:
    """Whether ``node`` names the routed table (``True``), a direct handler
    table (``False``, any ``*handlers`` attribute) or neither (``None``)."""
    name = attr_name(node)
    if name == "_routed":
        return True
    if name is not None and name.endswith("handlers"):
        return False
    return None


class _Collector(FunctionScoped):
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.module.functions.setdefault(node.name, node)
        super().visit_FunctionDef(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Return(self, node: ast.Return) -> None:
        # def extra_handlers(self): return {"kind": self._on_x}
        if (
            self.func_stack
            and self.func_stack[-1].name == "extra_handlers"
            and isinstance(node.value, ast.Dict)
        ):
            self._handler_dict(node.value)
        self.generic_visit(node)

    # -- handler tables -------------------------------------------------
    def _register(self, kind: str, value: ast.AST, routed: bool) -> None:
        """Register the handler(s) ``value`` names for ``kind``.

        A routed entry is an (arrival, failure) tuple: each is a handler.
        """
        for handler in value.elts if routed and isinstance(value, ast.Tuple) else (value,):
            func_name = attr_name(handler)
            factory = False
            if func_name is None and isinstance(handler, ast.Call):
                # node.handlers["kind"] = factory(...)
                func_name = attr_name(handler.func)
                factory = func_name is not None
            self.module.handlers.append(HandlerReg(kind, routed, func_name, factory))

    def _handler_dict(self, node: ast.Dict, routed: bool = False) -> None:
        for key, value in zip(node.keys, node.values):
            kind = const_str(key)
            if kind is not None:
                self._register(kind, value, routed)

    def _table_assign(self, target: ast.AST, value: ast.AST) -> None:
        # self._handlers = {...} / node.handlers["kind"] = fn
        subscript = isinstance(target, ast.Subscript)
        routed = _table_is_routed(target.value if subscript else target)
        if routed is None:
            return
        if subscript:
            kind = const_str(target.slice)
            if kind is not None:
                self._register(kind, value, routed)
        elif isinstance(value, ast.Dict):
            self._handler_dict(value, routed)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._table_assign(node.target, node.value)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._table_assign(target, node.value)
        self.generic_visit(node)

    # -- send sites ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        kind_node, payload = send_site(node) or (None, None)
        kind = const_str(kind_node)
        if kind is not None:
            self.module.sends.append(
                SendSite(
                    kind=kind,
                    line=node.lineno,
                    payload=payload,
                    func=self.func_stack[-1] if self.func_stack else None,
                )
            )
        self.generic_visit(node)


def load_module(filename: str, path: str) -> Module:
    """Parse ``filename`` and collect its model; findings will name ``path``."""
    with open(filename, "r", encoding="utf-8") as handle:
        source = handle.read()
    module = Module(
        path=path,
        tree=ast.parse(source, filename=filename),
        ignores=inline_ignores(source),
    )
    _Collector(module).visit(module.tree)
    return module
