"""repro-race: static detection of event-order dependence.

The kernel delivers same-timestamp events in insertion order,
but the deployed WAN the simulation stands in for gives no such
guarantee — and the schedule-fuzz sanitizer (``REPRO_SCHEDULE_FUZZ``)
actively perturbs it.  Code is only correct if every same-timestamp
interleaving produces the same semantics, so this linter flags three
ways the tree can smuggle in an ordering assumption:

* ``order-zero-delay`` — a ``schedule(0, ...)`` / ``schedule_at(now,
  ...)`` site whose callback read-modify-writes ``self.*`` state.  A
  zero delay manufactures a same-timestamp tie on purpose; if the
  callback then RMWs shared state (``self.x += ...``, ``self.x =
  f(self.x)``, ``self.xs.append(...)``), its result depends on where the
  tie-break lands it relative to other handlers of the same instant.
  Sites whose callback cannot be resolved statically (a parameter, a
  dynamic attribute) are flagged too: the analyzer cannot prove the
  callback commutes, and the fuzz sanitizer is the tool that can.
* ``order-float-time-eq`` — ``==`` / ``!=`` against the simulation
  clock (``*.now``) or an event timestamp (``event.time``) used for
  control flow.  Two events "at the same time" are only equal until one
  of them is rescheduled through a float round-trip; exact-tie tests
  turn that rounding into a behavioural fork.  Ordering-safe inequality
  comparisons (``deadline <= now``) are deliberately not flagged.
* ``order-handler-commute`` — two message handlers of the same node
  both plain-assign the same ``self.*`` attribute.  Handlers fire in
  message-arrival order, two messages can share a timestamp, and a
  plain overwrite makes the attribute last-writer-wins.  Commutative
  updates (``+=`` on counters, ``.add`` on sets) are not flagged —
  only the write/write race where the final value depends on the tie.
  Handler tables are taken from the module model's registry walk.

Scope (see :mod:`repro.analysis.runner`): the simulated subsystems,
minus the event queue and kernel themselves — they implement the
tie-break and legitimately compare times and schedule zero delays.
"""

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import MUTATORS, self_attr
from repro.analysis.findings import Sink
from repro.analysis.model import FunctionScoped, Module

#: names an event object usually travels under; ``.time`` reads on these
#: are treated as event timestamps
_EVENT_NAMES = {"event", "ev", "evt", "entry"}


def _const_zero(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )


def _contains_now(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "now"
        for sub in ast.walk(node)
    )


def _is_time_expr(node: ast.AST) -> bool:
    """``*.now`` or ``<event>.time`` — a float simulation timestamp."""
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr == "now":
        return True
    if node.attr == "time":
        base = node.value
        return isinstance(base, ast.Name) and base.id in _EVENT_NAMES
    return False


def _reads_attr(tree: ast.AST, attr: str) -> bool:
    return any(
        self_attr(sub) == attr and isinstance(sub.ctx, ast.Load)
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute)
    )


def _rmw_sites(fn: ast.AST) -> List[Tuple[str, int]]:
    """(attribute, line) pairs where ``fn`` read-modify-writes self state."""
    sites: List[Tuple[str, int]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.AugAssign):
            attr = self_attr(node.target)
            if attr is None and isinstance(node.target, ast.Subscript):
                attr = self_attr(node.target.value)
            if attr is not None:
                sites.append((attr, node.lineno))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                attr = self_attr(target)
                if attr is not None and _reads_attr(node.value, attr):
                    sites.append((attr, node.lineno))
                if isinstance(target, ast.Subscript):
                    attr = self_attr(target.value)
                    if attr is not None:
                        sites.append((attr, node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS:
                attr = self_attr(node.func.value)
                if attr is not None:
                    sites.append((attr, node.lineno))
    return sites


def _plain_writes(fn: ast.AST) -> Dict[str, int]:
    """self attributes ``fn`` plain-assigns (overwrites), with first line.

    Augmented assignments and container mutations are excluded: they
    fold the previous value in and commute for the count/set shapes the
    tree uses them on.  A plain ``self.x = <expr not reading self.x>``
    is the last-writer-wins shape the commute rule is after.
    """
    writes: Dict[str, int] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = self_attr(target)
                if attr is not None and not _reads_attr(node.value, attr):
                    writes.setdefault(attr, node.lineno)
    return writes


class _OrderingVisitor(FunctionScoped):
    # -- order-zero-delay ------------------------------------------------
    def _delay_can_be_zero(self, node: ast.AST) -> bool:
        if _const_zero(node):
            return True
        if isinstance(node, ast.IfExp):
            return self._delay_can_be_zero(node.body) or self._delay_can_be_zero(
                node.orelse
            )
        if isinstance(node, ast.Name) and self.func_stack:
            for stmt in ast.walk(self.func_stack[-1]):
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == node.id for t in stmt.targets
                ):
                    if self._delay_can_be_zero(stmt.value):
                        return True
        return False

    def _callback_verdict(self, callback: ast.AST) -> Optional[str]:
        """Why the callback is order-sensitive, or None if provably not.

        Resolvable callbacks (``self._method`` / bare local function /
        lambda) are inspected for self-state RMW; anything else is
        opaque and reported as such.
        """
        fn: Optional[ast.AST] = None
        name: Optional[str] = None
        if isinstance(callback, ast.Attribute):
            name = callback.attr
            fn = self.module.functions.get(name)
        elif isinstance(callback, ast.Name):
            name = callback.id
            fn = self.module.functions.get(name)
        elif isinstance(callback, ast.Lambda):
            name = "<lambda>"
            fn = callback
        if fn is None:
            return f"opaque callback {ast.dump(callback)[:40]!r}" if name is None else (
                f"callback {name!r} not resolvable statically"
            )
        sites = _rmw_sites(fn)
        if sites:
            attrs = sorted({attr for attr, _ in sites})
            return f"callback {name!r} read-modify-writes self.{attrs[0]}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if attr == "schedule" and len(node.args) >= 2:
            if self._delay_can_be_zero(node.args[0]):
                why = self._callback_verdict(node.args[1])
                if why is not None:
                    self.report(
                        node, "order-zero-delay",
                        f"zero-delay schedule creates a same-timestamp tie and {why}; "
                        "the callback's effect depends on tie-break order",
                        f"schedule:{_cb_detail(node.args[1])}",
                    )
        elif attr == "schedule_at" and len(node.args) >= 2:
            if _contains_now(node.args[0]):
                why = self._callback_verdict(node.args[1])
                if why is not None:
                    self.report(
                        node, "order-zero-delay",
                        f"schedule_at(now) creates a same-timestamp tie and {why}; "
                        "the callback's effect depends on tie-break order",
                        f"schedule_at:{_cb_detail(node.args[1])}",
                    )
        self.generic_visit(node)

    # -- order-float-time-eq ---------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            timeish = next(
                (x for x in (left, right) if _is_time_expr(x)), None
            )
            if timeish is not None:
                detail = timeish.attr  # type: ignore[union-attr]
                self.report(
                    timeish, "order-float-time-eq",
                    f"float equality against {detail!r}: same-timestamp is a "
                    "race, not a state; compare with tolerance or restructure",
                    detail,
                )
        self.generic_visit(node)


def _cb_detail(callback: ast.AST) -> str:
    if isinstance(callback, ast.Attribute):
        return callback.attr
    if isinstance(callback, ast.Name):
        return callback.id
    if isinstance(callback, ast.Lambda):
        return "<lambda>"
    return "<dynamic>"


def _lint_handler_commute(module: Module, sink: Sink) -> None:
    # handler kind -> (function name, plain writes) for resolvable handlers
    resolved: Dict[str, Tuple[str, Dict[str, int]]] = {}
    for reg, fn in module.handler_functions():
        resolved.setdefault(reg.kind, (reg.func_name, _plain_writes(fn)))
    pairs_seen: Set[Tuple[str, str, str]] = set()
    kinds = sorted(resolved)
    for i, kind_a in enumerate(kinds):
        fn_a, writes_a = resolved[kind_a]
        for kind_b in kinds[i + 1:]:
            fn_b, writes_b = resolved[kind_b]
            if fn_a == fn_b:
                continue
            for attr in sorted(set(writes_a) & set(writes_b)):
                pair = tuple(sorted((fn_a, fn_b))) + (attr,)
                if pair in pairs_seen:
                    continue
                pairs_seen.add(pair)
                sink.report(
                    module.path, writes_a[attr], "order-handler-commute",
                    f"handlers {fn_a!r} ({kind_a!r}) and {fn_b!r} ({kind_b!r}) both "
                    f"overwrite self.{attr}; two same-timestamp messages make it "
                    "last-writer-wins",
                    f"{pair[0]}~{pair[1]}:{attr}",
                )


def lint_ordering(module: Module, sink: Sink) -> None:
    _OrderingVisitor(module, sink).visit(module.tree)
    _lint_handler_commute(module, sink)
