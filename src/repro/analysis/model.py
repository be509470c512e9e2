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
  factories), and routed dispatch via ``inner_kind == "..."`` /
  ``inner_kind in (...)`` comparisons;
* its inline ``# repro-*: ignore[...]`` comments.

:class:`FunctionScoped` is the visitor base the lints share: it knows the
enclosing function, names a finding's context after it, and reports to
the run's :class:`~repro.analysis.findings.Sink`.
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

    def context(self, detail: str) -> str:
        func = self.func_stack[-1].name if self.func_stack else "<module>"
        return f"{func}:{detail}"

    def report(self, node: ast.AST, rule: str, message: str, detail: str) -> None:
        assert self.sink is not None
        self.sink.report(
            self.module.path, node.lineno, rule, message, self.context(detail), node.col_offset
        )


def _is_inner_kind_expr(node: ast.AST) -> bool:
    """``inner_kind`` or ``<envelope>["inner_kind"]``."""
    if isinstance(node, ast.Name) and node.id == "inner_kind":
        return True
    return isinstance(node, ast.Subscript) and const_str(node.slice) == "inner_kind"


def guard_kind(test: ast.AST) -> Optional[str]:
    """The kind name if ``test`` is ``inner_kind == "x"``-shaped."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and _is_inner_kind_expr(test.left)
    ):
        return const_str(test.comparators[0])
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

    def _register(
        self, kind: str, line: int, func_name: Optional[str], *, routed: bool = False,
        factory: bool = False,
    ) -> None:
        self.module.handlers.append(
            HandlerReg(
                kind=kind,
                routed=routed,
                path=self.module.path,
                line=line,
                func_name=func_name,
                factory=factory,
                context=self.context(kind),
            )
        )

    # -- handler tables -------------------------------------------------
    def _handler_dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            kind = const_str(key)
            if kind is not None:
                self._register(kind, key.lineno, attr_name(value))

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
                    self._register(kind, node.lineno, func_name, factory=factory)
        self.generic_visit(node)

    # -- routed dispatch ------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        test = node.test
        if isinstance(test, ast.Compare) and _is_inner_kind_expr(test.left):
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
                self._register(
                    kind, line, dispatch_target if len(kinds) == 1 else None, routed=True
                )
        self.generic_visit(node)

    # -- send sites ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        kind_node, payload, routed = send_site(node) or (None, None, False)
        kind = const_str(kind_node)
        if kind is not None:
            self.module.sends.append(
                SendSite(
                    kind=kind,
                    routed=routed,
                    path=self.module.path,
                    line=node.lineno,
                    payload=payload,
                    func=self.func_stack[-1] if self.func_stack else None,
                    context=self.context(kind),
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
