"""Finding records, the rule catalog and the sink every lint reports to."""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Rule id -> one-line description.  The ids double as suppression tags:
#: ``# repro-lint: ignore[det-set-iteration]``.  A rule earns its place
#: by what it has caught in the repo's own code, or by being the only
#: check of its bug (DESIGN.md §7 keeps the record, and a tier-1 test
#: keeps its table and this catalog the same set of rules).
RULES = {
    "protocol-undeclared-key": (
        "a handler reads a payload key the kind's declaration does not "
        "list as required or optional"
    ),
    "det-set-iteration": (
        "iteration over a set, whose order depends on PYTHONHASHSEED; "
        "wrap in sorted(...) or iterate a deterministic container"
    ),
    "alias-send-live-state": (
        "a send site passes a live mutable container (node state or the "
        "received payload) as payload without copying; every receiver "
        "would alias the same object"
    ),
    "order-zero-delay": (
        "a zero-delay schedule/schedule_at(now) site whose callback "
        "read-modify-writes self.* state (or cannot be resolved); the "
        "callback's effect depends on same-timestamp tie-break order"
    ),
    "order-float-time-eq": (
        "float ==/!= against the simulation clock (*.now) or an event "
        "timestamp for control flow; exact-tie tests fork behaviour on "
        "float rounding and tie order"
    ),
    "order-handler-commute": (
        "two handlers of the same node plain-overwrite the same self.* "
        "attribute; two same-timestamp messages make the final value "
        "last-writer-wins"
    ),
    "leak-timer-unguarded": (
        "a scheduled callback writes self.* state, keeps no cancel "
        "handle, and has no staleness/liveness guard; it fires after a "
        "crash or completion and resurrects state that was torn down"
    ),
    "leak-unbounded-growth": (
        "appends to a long-lived self.* list with no bound, eviction, "
        "or consumption anywhere in the class; memory grows with run "
        "length (metrics and logs included)"
    ),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One analyzer finding, sortable into (path, line, rule) order."""

    path: str  #: path relative to the analysis root, POSIX separators
    line: int
    rule: str
    message: str
    #: Stable anchor for baseline matching: enclosing function (or
    #: ``<module>``) plus a short detail, e.g. ``links:self.adopted``.
    #: Line numbers churn with unrelated edits; context keys do not.
    context: str = field(default="", compare=False)

    @property
    def key(self) -> str:
        return f"{self.rule}:{self.path}:{self.context}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Sink:
    """Where every lint reports.

    A finding repeated at one source position — a helper reached from two
    handlers, say — is kept once, with the first context.
    """

    def __init__(self) -> None:
        self._findings: Dict[Tuple[Finding, int], Finding] = {}

    def report(
        self, path: str, line: int, rule: str, message: str, context: str, col: int = 0
    ) -> None:
        if rule not in RULES:
            raise ValueError(f"rule {rule!r} is not in the catalog")
        finding = Finding(path, line, rule, message, context)
        self._findings.setdefault((finding, col), finding)

    def findings(self) -> List[Finding]:
        return sorted(self._findings.values())
