"""AST helpers shared by the lints."""

import ast
from typing import Optional


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
