"""Finding records, the rule catalog and the sink every lint reports to."""

from dataclasses import dataclass
from typing import List, Set, Tuple

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
    "order-float-time-eq": (
        "float ==/!= against the simulation clock (*.now) or an event "
        "timestamp for control flow; exact-tie tests fork behaviour on "
        "float rounding and tie order"
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

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Sink:
    """Where every lint reports.

    A finding repeated at one source position — a helper reached from two
    handlers, say — is kept once.
    """

    def __init__(self) -> None:
        self._findings: Set[Tuple[Finding, int]] = set()

    def report(self, path: str, line: int, rule: str, message: str, col: int = 0) -> None:
        if rule not in RULES:
            raise ValueError(f"rule {rule!r} is not in the catalog")
        self._findings.add((Finding(path, line, rule, message), col))

    def findings(self) -> List[Finding]:
        return sorted(finding for finding, _ in self._findings)
