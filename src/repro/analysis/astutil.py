"""AST helpers shared by the lints, and their one container vocabulary."""

import ast
from typing import Container, Dict, Iterable, Iterator, Optional, Tuple

#: Type names -> container kind.  Constructors and annotations share the
#: table: ``self.x = set()`` and ``self.x: Set[str] = ...`` both make ``x``
#: a set.  ``frozenset`` is its own kind: it iterates in hash order like a
#: set, but nothing can mutate it.
CONTAINER_TYPES: Dict[str, str] = {
    "dict": "dict", "Dict": "dict", "defaultdict": "dict", "DefaultDict": "dict",
    "OrderedDict": "dict", "Counter": "dict",
    "set": "set", "Set": "set", "MutableSet": "set",
    "frozenset": "frozenset", "FrozenSet": "frozenset",
    "list": "list", "List": "list", "deque": "list", "Deque": "list",
}
#: the kinds whose contents can change after construction
MUTABLE = frozenset({"dict", "set", "list"})
#: the kinds whose iteration order is the hash order
UNORDERED = frozenset({"set", "frozenset"})

#: methods that change their receiver in place
MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "update", "setdefault",
    "remove", "discard", "pop", "popitem", "clear", "sort", "reverse",
})
#: mutators that take entries out
REMOVALS = frozenset({"pop", "popitem", "remove", "discard", "clear"})
#: mutators that lengthen a list
GROWTH = frozenset({"append", "extend"})


def describe(node: ast.AST) -> str:
    """Short rendering of an expression for finding messages."""
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


def root_name(node: ast.AST) -> Optional[str]:
    """The name an attribute/subscript chain hangs off: ``self.a[k].b`` -> ``self``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def is_msg_payload(node: ast.AST, msg_names: Container[str]) -> bool:
    """True for ``<msg>.payload`` where ``<msg>`` is one of ``msg_names``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "payload"
        and isinstance(node.value, ast.Name)
        and node.value.id in msg_names
    )


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


def container_kind(
    value: Optional[ast.AST], annotation: Optional[ast.AST] = None
) -> Optional[str]:
    """The container kind a ``target = value`` or ``target: annotation`` binds.

    A literal, comprehension or constructor call decides from the value;
    otherwise the annotation (``Set[str]``, ``typing.Dict``, ``"Set[str]"``)
    decides.
    """
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, ast.Call):
        kind = CONTAINER_TYPES.get(attr_name(value.func) or "")
        if kind is not None:
            return kind
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return CONTAINER_TYPES.get(node.value.split("[", 1)[0].strip().split(".")[-1])
    if node is not None:
        return CONTAINER_TYPES.get(attr_name(node) or "")
    return None


def container_bindings(
    nodes: Iterable[ast.AST], *, self_only: bool = True
) -> Iterator[Tuple[str, str]]:
    """``(attribute, container kind)`` for every container binding under ``nodes``.

    ``self_only`` keeps ``self.<attr>`` targets; otherwise any attribute
    target counts, and so does an annotated bare name (a dataclass field).
    Bindings come in walk order, so a caller can let the first one decide.
    """
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Assign):
                targets, kind = node.targets, container_kind(node.value)
            elif isinstance(node, ast.AnnAssign):
                targets, kind = [node.target], container_kind(node.value, node.annotation)
            else:
                continue
            if kind is None:
                continue
            for target in targets:
                name = self_attr(target)
                if name is None and not self_only:
                    if isinstance(target, ast.Attribute):
                        name = target.attr
                    elif isinstance(target, ast.Name) and isinstance(node, ast.AnnAssign):
                        name = target.id
                if name is not None:
                    yield name, kind


def send_site(call: ast.Call) -> Optional[Tuple[Optional[ast.AST], Optional[ast.AST]]]:
    """``(kind node, payload node)`` if ``call`` is a send site.

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
        return keywords.get("kind"), keywords.get("payload")
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
    return args[at], args[at + 1] if len(args) > at + 1 else None
