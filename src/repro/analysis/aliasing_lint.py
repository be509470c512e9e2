"""repro-san: containers sent live across nodes.

The simulated network hands :class:`~repro.net.message.Message` objects to
receivers **by reference** (unless runtime isolation is on), while the
paper's deployment serialized every message over TCP.  A receiver that
mutates or keeps what it was handed fails under the ``freeze`` isolation
level the test suite runs at.  What isolation cannot see is the other
side: the network clones at delivery, not at send, so a sender that
ships a live container and changes it before the message lands reaches
the receiver under ``freeze`` too.  This pass flags those send sites.

Taint model
-----------
Within a registered handler (``self._handlers``/``extra_handlers``/
``node.handlers[...] = fn`` registrations, as :mod:`repro.analysis.model`
collects them) the message parameter's ``.payload``
is the taint source.  Taint flows through name bindings, subscript reads
(``payload["rect"]``), and ``.get(...)`` calls — i.e. through everything
*reachable* from the payload — and stops at any other call: ``dict(...)``,
``list(...)``, ``thaw_payload(...)``, ``Record.from_wire(...)`` and every
other constructor produce fresh objects, which is exactly the copy
discipline the rule asks for.  Taint also propagates one level into
same-module helpers that receive a tainted argument
(``self._apply_x(msg.payload)``), mirroring the protocol linter.

Rule
----
``alias-send-live-state`` — a send site
(:func:`repro.analysis.astutil.send_site`) whose payload is the received
payload itself (a reflood by reference) or whose payload (value) is a
live mutable ``self.*`` container, without a copy wrap.

Known limits: loop variables are not tainted (elements of payload lists
are usually scalars; tainting them drowns the signal), callback
indirection (``dac.submit(..., fn, payload)``) is not followed, and
helper propagation is same-module only.
"""

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.astutil import (
    MUTABLE,
    attr_name,
    container_bindings,
    describe,
    is_msg_payload,
    self_attr,
    send_site,
)
from repro.analysis.findings import Sink
from repro.analysis.model import Module


class _HandlerScope(ast.NodeVisitor):
    """Taint-tracking walk of one handler (or taint-receiving helper)."""

    def __init__(
        self,
        lint: "_AliasingLint",
        payload_names: Set[str],
        msg_names: Set[str],
        depth: int,
        seen: Set[str],
    ) -> None:
        self.lint = lint
        self.tainted = set(payload_names)
        self.msg_names = set(msg_names)
        self.depth = depth
        self.seen = seen

    def _is_tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            return is_msg_payload(node, self.msg_names)
        if isinstance(node, ast.Subscript):
            return self._is_tainted(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get":
                return self._is_tainted(func.value)
        return False

    def _bind(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        """Propagate or clear taint through a plain name binding."""
        if isinstance(target, ast.Name):
            if value is not None and self._is_tainted(value):
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._bind(node.target, node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # reflood / re-send of the received payload by reference (the kind
        # need not be a literal: aliasing is about the payload object)
        site = send_site(node)
        payload_arg = site[1] if site is not None else None
        if payload_arg is not None and self._is_tainted(payload_arg):
            self.lint.sink.report(
                self.lint.module.path, node.lineno, "alias-send-live-state",
                f"send re-uses the received payload {describe(payload_arg)} "
                "by reference; wrap it in dict(...)/thaw_payload(...) first",
                node.col_offset,
            )
        # one level of helper propagation for tainted arguments
        callee = attr_name(node.func)
        if callee is not None and self.depth < 2:
            positions = [i for i, arg in enumerate(node.args) if self._is_tainted(arg)]
            if positions:
                target_fn = self.lint.module.functions.get(callee)
                if target_fn is not None and target_fn.name not in self.seen:
                    self.lint.analyze_function(
                        target_fn,
                        tainted_positions=positions,
                        depth=self.depth + 1,
                        seen=self.seen,
                    )
        self.generic_visit(node)


class _AliasingLint:
    def __init__(self, module: Module, sink: Sink) -> None:
        self.module = module
        self.sink = sink
        #: ``self.<attr>`` slots that hold mutable containers anywhere in the module
        self.mutable_attrs = {
            attr for attr, kind in container_bindings([module.tree]) if kind in MUTABLE
        }

    # -- handler-side taint analysis -----------------------------------
    def analyze_function(
        self,
        fn: ast.FunctionDef,
        *,
        as_msg: bool = False,
        tainted_positions: Optional[Sequence[int]] = None,
        depth: int = 0,
        seen: Optional[Set[str]] = None,
    ) -> None:
        seen = set() if seen is None else seen
        seen.add(fn.name)
        params = [a.arg for a in fn.args.args if a.arg not in ("self", "cls")]
        if not params:
            return
        if as_msg:
            scope = _HandlerScope(self, set(), {params[0]}, depth, seen)
        else:
            positions = [0] if tainted_positions is None else tainted_positions
            names = {params[i] for i in positions if i < len(params)}
            if not names:
                return
            scope = _HandlerScope(self, names, set(), depth, seen)
        for stmt in fn.body:
            scope.visit(stmt)

    def run_handlers(self) -> None:
        for reg, fn in self.module.handler_functions():
            # Routed arrival handlers receive a private envelope: the
            # "route" handler copies msg.payload before routing, or the
            # frozen test suite raises on its first hop.
            if not reg.routed:
                self.analyze_function(fn, as_msg=True)

    # -- send-side live-state analysis ---------------------------------
    def _live_self_container(self, node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
        """The mutable attr name if ``node`` is a live ``self.<attr>``."""
        attr = self_attr(node)
        if attr in self.mutable_attrs:
            return attr
        if isinstance(node, ast.Name) and node.id in aliases:
            return aliases[node.id]
        return None

    def run_sends(self) -> None:
        for site in self.module.sends:
            payload = site.payload
            if payload is None or site.func is None:
                continue
            aliases: Dict[str, str] = {}
            literals: List[ast.Dict] = []
            for stmt in ast.walk(site.func):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    attr = self_attr(stmt.value)
                    if attr in self.mutable_attrs:
                        aliases[target.id] = attr
                    if (
                        isinstance(payload, ast.Name)
                        and target.id == payload.id
                        and isinstance(stmt.value, ast.Dict)
                    ):
                        literals.append(stmt.value)
            candidates: List[ast.AST] = []
            if isinstance(payload, ast.Dict):
                literals.append(payload)
            else:
                candidates.append(payload)
            for literal in literals:
                candidates.extend(v for v in literal.values if v is not None)
            for expr in candidates:
                attr = self._live_self_container(expr, aliases)
                if attr is None:
                    continue
                self.sink.report(
                    self.module.path, expr.lineno, "alias-send-live-state",
                    f"payload for {site.kind!r} carries the live container "
                    f"self.{attr}; send a dict(...)/list(...) copy so later local "
                    "mutation cannot leak across nodes",
                )


def lint_aliasing(module: Module, sink: Sink) -> None:
    """Run the aliasing rule over one module."""
    lint = _AliasingLint(module, sink)
    lint.run_handlers()
    lint.run_sends()
