"""AST helpers shared by the lints."""

import ast
from typing import Optional, Tuple


def describe(node: ast.AST) -> str:
    """Short stable rendering of an expression for finding contexts."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all real inputs
        text = type(node).__name__
    return text if len(text) <= 60 else text[:57] + "..."


def self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def const_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def attr_name(node: ast.AST) -> Optional[str]:
    """``self._on_x`` / ``cls._on_x`` -> ``_on_x``; bare names pass through."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def send_site(call: ast.Call) -> Optional[Tuple[Optional[ast.AST], Optional[ast.AST], bool]]:
    """``(kind node, payload node, routed)`` if ``call`` is a send site.

    The repo's send shapes, written once for every lint:
    ``self._send(dst, kind, payload)``, ``self._reply(origin, kind,
    payload, apply)``, ``network.send(src, dst, kind, payload)``,
    ``node.send(dst, kind, payload)``, ``self._flood(kind, payload)``,
    ``Message(kind=..., payload=...)`` and the routed
    ``self.route(target, inner_kind, inner, ...)``.  The kind node need
    not be a string literal — callers that want one test it.
    """
    name = attr_name(call.func)
    args = call.args
    if name == "Message":
        keywords = {kw.arg: kw.value for kw in call.keywords}
        return keywords.get("kind"), keywords.get("payload"), False
    if name in ("_send", "_reply", "route"):
        at = 1
    elif name == "_flood":
        at = 0
    elif name == "send":
        # Two signatures; a literal kind says which, else the arity does.
        if len(args) > 2 and const_str(args[2]) is not None:
            at = 2
        elif len(args) > 1 and const_str(args[1]) is not None:
            at = 1
        else:
            at = 2
    else:
        return None
    if len(args) <= at:
        return None
    return args[at], args[at + 1] if len(args) > at + 1 else None, name == "route"
