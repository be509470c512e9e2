"""repro-lint: static analysis over the repo's own AST.

Four linters guard the invariants the paper's protocols rest on, each
where no runtime check sees the bug:

* the **protocol linter** (:mod:`repro.analysis.protocol_lint`) checks
  that every handler, direct or routed, reads only payload keys its
  kind declares in the wire-protocol registry
  (:mod:`repro.net.protocol`); which kinds exist, are sent and are
  handled is checked by the dispatch tables, the runtime validation and
  a tier-1 structural test instead;
* the **determinism linter** (:mod:`repro.analysis.determinism_lint`)
  forbids hash-ordered set iteration and exact float equality against
  the simulation clock, so a single master seed reproduces an entire
  experiment;
* the **aliasing analyzer** (:mod:`repro.analysis.aliasing_lint`, aka
  *repro-san*) flags a send of a received payload or a live container
  by reference: the one cross-node aliasing hazard the frozen delivery
  of ``REPRO_ISOLATE_MESSAGES`` (:mod:`repro.net.message`) cannot see,
  because the network clones at delivery, not at send;
* the **lifecycle analyzer** (:mod:`repro.analysis.lifecycle_lint`, aka
  *repro-leak*) flags scheduled callbacks with no cancel handle or
  staleness guard and lists that only grow, backstopped at runtime by
  the ``REPRO_TRACK_RESOURCES`` quiescence ledger in
  :mod:`repro.sim.resources`.

Same-timestamp ordering has no static rule: the ``REPRO_SCHEDULE_FUZZ``
tie-break sanitizer in :mod:`repro.sim.events` checks it at runtime.

All four read one module model (:mod:`repro.analysis.model`: each file
parsed and walked once), report to one :class:`~repro.analysis.findings.Sink`,
and name containers and their mutators with one vocabulary
(:mod:`repro.analysis.astutil`).

Run it as ``python -m repro.analysis [paths...]`` (``--only`` selects one
analysis, ``--format=json`` emits machine-readable findings) or through
the tier-1 pytest gate in ``tests/test_analysis.py``.  A finding is
accepted only by a ``# repro-lint: ignore[rule] reason`` comment on (or
above) the offending line (:mod:`repro.analysis.suppressions`); a full
run fails on an ignore comment that no longer matches a finding.
"""

from repro.analysis.findings import Finding, RULES
from repro.analysis.runner import LINTS, analyze_paths, main

__all__ = ["Finding", "LINTS", "RULES", "analyze_paths", "main"]
