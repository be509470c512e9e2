"""Accepted repro-lint / repro-san findings, each with a justification.

Every entry names a finding by its stable ``rule:path:context`` key (see
:attr:`repro.analysis.findings.Finding.key`) and says *why* it is
acceptable.  The analysis gate fails on any finding not listed here and
not suppressed inline — and the baseline is expected to shrink, not
grow: add an entry only when the flagged behaviour is provably safe
(e.g. the list is bounded by the experiment's inputs) or deliberately
non-deterministic, and say so.

Paths in keys are as reported by the runner: cwd-relative POSIX paths
for the normal ``python -m repro.analysis`` invocation from the repo
root (``src/repro/...``).
"""

from typing import Dict, List

#: list of {"key": "rule:path:context", "reason": "..."} entries.
BASELINE: List[Dict[str, str]] = [
    # The split two-phase protocol keeps one PendingPrepare slot; three
    # handlers write it, so order-handler-commute flags all three pairs.
    # The races are convergent: _on_split_abort and _on_split_commit_notify
    # only clear the slot after matching (host, round) — a pending entry
    # matches at most one of them, and both write None, which commutes —
    # and a same-instant prepare-vs-abort reorder at worst nacks one
    # prepare, which the host's split retry absorbs.  The schedule-fuzz
    # equivalence suite exercises these interleavings end to end.
    {
        "key": (
            "order-handler-commute:src/repro/overlay/node.py:"
            "_on_split_abort~_on_split_commit_notify:_pending_prepare"
        ),
        "reason": "both clear to None only after a (host, round) match; commutative",
    },
    {
        "key": (
            "order-handler-commute:src/repro/overlay/node.py:"
            "_on_split_abort~_on_split_prepare:_pending_prepare"
        ),
        "reason": "reorder at worst nacks the prepare; split retry converges",
    },
    {
        "key": (
            "order-handler-commute:src/repro/overlay/node.py:"
            "_on_split_commit_notify~_on_split_prepare:_pending_prepare"
        ),
        "reason": "commit clears only its own (host, round); prepare then lands cleanly",
    },
    # Retention is the point here: the churn summary counts crash/restore
    # events after the fact, bounded by the churn duration, not by
    # run-forever service state.
    {
        "key": (
            "leak-unbounded-growth:src/repro/net/failures.py:"
            "_do_crash:self.crash_log"
        ),
        "reason": "experiment log consumed by churn summaries; bounded by churn duration",
    },
]
