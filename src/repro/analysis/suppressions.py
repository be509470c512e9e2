"""Inline suppressions: the analysis gate's one escape hatch.

A comment that starts ``# repro-lint: ignore[rule-a,rule-b] reason`` on
the flagged line (or on the line directly above it) suppresses those
rules at that site; ``ignore[*]`` suppresses every rule.  The reason
sits beside the code it excuses, so it is reviewed with it.

Any finding without such a comment is a hard failure of the analysis
gate, and so is, on a full run, an ignore comment that matched no
finding.
"""

import io
import re
import tokenize
from typing import Dict, Optional, Set

from repro.analysis.findings import Finding

_IGNORE_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([^\]]+)\]")


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
