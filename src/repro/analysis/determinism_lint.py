"""Forbid hash-ordered iteration and exact float-time ties in the simulation.

Every experiment must replay bit-identically from one master seed.  Two
rules guard that here.

``det-set-iteration``: bare iteration over a ``set`` in a ``for`` loop
or list comprehension visits elements in an order that depends on
``PYTHONHASHSEED``, and that order leaks straight into message send
order, so the linter asks for ``sorted(...)``.  Set-typed *attributes*
are recognised across the whole analyzed tree: a field declared
``Set[str]`` in one module is still flagged when iterated in another.
Order-insensitive reductions (``any``/``all``/``sum``/``len``/``min``/
``max``/``sorted``/``set``/``frozenset``) and set comprehensions are
deliberately not flagged.

``order-float-time-eq``: ``==`` / ``!=`` against the simulation clock
(``*.now``) or an event timestamp (``event.time``).  Two events "at the
same time" are only equal until one of them is rescheduled through a
float round-trip, so an exact-tie test turns rounding into a
behavioural fork.  Schedule fuzz (``REPRO_SCHEDULE_FUZZ``) reorders ties
but never perturbs float rounding, so it cannot see this.  Ordering-safe
inequalities (``deadline <= now``) are not flagged.

Ambient randomness, the wall clock and OS entropy have no rule here:
any of them breaks the pinned run digests that tier-1 compares
(``GOLDEN_DIGEST``, the mindbench smoke digests), which catch them on
every path a seeded test runs.
"""

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.astutil import UNORDERED, attr_name, container_bindings, container_kind
from repro.analysis.findings import Sink
from repro.analysis.model import FunctionScoped, Module

#: names an event object usually travels under; ``.time`` reads on these
#: are treated as event timestamps
_EVENT_NAMES = {"event", "ev", "evt", "entry"}


def set_attributes(modules: Iterable[Module]) -> Set[str]:
    """Attribute names bound to a set anywhere in the analyzed modules.

    Name-based, not type-based: a field called ``acked`` declared
    ``Set[str]`` in ``join.py`` marks every ``*.acked`` iteration in the
    tree.  Collisions are possible but have not occurred; a false match
    can always be annotated inline.
    """
    return {
        name
        for name, kind in container_bindings((m.tree for m in modules), self_only=False)
        if kind in UNORDERED
    }


def _is_time_expr(node: ast.AST) -> bool:
    """``*.now`` or ``<event>.time``: a float simulation timestamp."""
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr == "now":
        return True
    return (
        node.attr == "time"
        and isinstance(node.value, ast.Name)
        and node.value.id in _EVENT_NAMES
    )


class _Determinism(FunctionScoped):
    def __init__(self, module: Module, sink: Sink, set_attrs: Set[str]) -> None:
        super().__init__(module, sink)
        self.set_attrs = set_attrs
        #: per-function names known to hold sets (stack of scopes)
        self._set_locals: List[Set[str]] = [set()]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._set_locals.append({
            arg.arg
            for arg in node.args.args + node.args.kwonlyargs
            if container_kind(None, arg.annotation) in UNORDERED
        })
        super().visit_FunctionDef(node)
        self._set_locals.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        if container_kind(node.value) in UNORDERED:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_locals[-1].add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            container_kind(None, node.annotation) in UNORDERED
            and isinstance(node.target, ast.Name)
        ):
            self._set_locals[-1].add(node.target.id)
        self.generic_visit(node)

    def _set_expr_detail(self, node: ast.AST) -> Optional[str]:
        """A short description if ``node`` is known to evaluate to a set."""
        if isinstance(node, ast.Name):
            if any(node.id in scope for scope in self._set_locals):
                return node.id
            return None
        if isinstance(node, ast.Attribute) and node.attr in self.set_attrs:
            return node.attr
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "<set literal>"
        if isinstance(node, ast.Call):
            name = attr_name(node.func)
            if name in ("set", "frozenset"):
                return name
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in (
                    "union", "intersection", "difference", "symmetric_difference",
                )
                and self._set_expr_detail(node.func.value) is not None
            ):
                return f"{self._set_expr_detail(node.func.value)}.{node.func.attr}"
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self._set_expr_detail(node.left)
            right = self._set_expr_detail(node.right)
            if left is not None and right is not None:
                return f"{left}|{right}"
        return None

    def _flag_set_iter(self, iterable: ast.AST) -> None:
        detail = self._set_expr_detail(iterable)
        if detail is not None:
            self.report(
                iterable, "det-set-iteration",
                f"iteration over set {detail!r}: order depends on "
                "PYTHONHASHSEED; wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_set_iter(node.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for gen in node.generators:
            self._flag_set_iter(gen.iter)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            timeish = next((x for x in (left, right) if _is_time_expr(x)), None)
            if timeish is not None:
                self.report(
                    timeish, "order-float-time-eq",
                    f"float equality against {timeish.attr!r}: same-timestamp is a "
                    "race, not a state; compare with tolerance or restructure",
                )
        self.generic_visit(node)


def lint_determinism(module: Module, sink: Sink, set_attrs: Set[str]) -> None:
    _Determinism(module, sink, set_attrs).visit(module.tree)
