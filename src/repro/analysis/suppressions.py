"""Inline suppressions and the checked-in baseline.

Two escape hatches, both explicit and reviewable:

* a comment that starts ``# repro-lint: ignore[rule-a,rule-b] reason``
  on the flagged line (or on the line directly above it) suppresses
  those rules at that site; ``ignore[*]`` suppresses every rule.  The aliasing rule
  spells the tag ``# repro-san: ignore[...]``, the event-ordering rules
  ``# repro-race: ignore[...]``, and the lifecycle rules
  ``# repro-leak: ignore[...]`` — all four spellings are accepted for
  any rule;
* :data:`repro.analysis.baseline.BASELINE` lists accepted findings by
  their stable ``rule:path:context`` key, each with a written
  justification — for sites where an inline comment would be awkward
  (e.g. generated or idiom-critical lines).

Anything not covered by either mechanism is a hard failure of the
analysis gate, and so is, on a full run, a suppression of either kind
that matched no finding.
"""

import io
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

_IGNORE_RE = re.compile(r"#\s*repro-(?:lint|san|race|leak):\s*ignore\[([^\]]+)\]")


def inline_ignores(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line number -> rule ids an ignore comment suppresses there.

    Only comments count: a docstring that quotes the syntax suppresses nothing.
    """
    ignores: Dict[int, Set[str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = _IGNORE_RE.match(token.string) if token.type == tokenize.COMMENT else None
        if match:
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if rules:
                ignores[token.start[0]] = rules
    return ignores


def suppressing_line(finding: Finding, ignores: Dict[int, Set[str]]) -> Optional[int]:
    """The line whose ignore comment covers ``finding``: its own, or the one above."""
    for lineno in (finding.line, finding.line - 1):
        rules = ignores.get(lineno)
        if rules and (finding.rule in rules or "*" in rules):
            return lineno
    return None


def split_baselined(
    findings: Iterable[Finding], baseline: Sequence[Dict[str, str]]
) -> Tuple[List[Finding], List[Finding]]:
    """Partition findings into (active, accepted-by-baseline)."""
    accepted_keys = {entry["key"] for entry in baseline}
    active: List[Finding] = []
    accepted: List[Finding] = []
    for finding in findings:
        (accepted if finding.key in accepted_keys else active).append(finding)
    return active, accepted
