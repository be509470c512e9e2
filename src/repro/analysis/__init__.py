"""repro-lint / repro-san / repro-race / repro-leak: static analysis over
the repo's own AST.

Five linters guard the invariants the paper's protocols rest on:

* the **protocol linter** (:mod:`repro.analysis.protocol_lint`) checks
  that every handler, direct or routed, reads only payload keys its
  kind declares in the wire-protocol registry
  (:mod:`repro.net.protocol`); which kinds exist, are sent and are
  handled is checked by the dispatch tables, the runtime validation and
  a tier-1 structural test instead;
* the **determinism linter** (:mod:`repro.analysis.determinism_lint`)
  forbids hash-ordered set iteration in the simulated subsystems, so a
  single master seed reproduces an entire experiment;
* the **aliasing analyzer** (:mod:`repro.analysis.aliasing_lint`, aka
  *repro-san*) flags a send of a received payload or a live container
  by reference: the one cross-node aliasing hazard the frozen delivery
  of ``REPRO_ISOLATE_MESSAGES`` (:mod:`repro.net.message`) cannot see,
  because the network clones at delivery, not at send;
* the **event-ordering analyzer** (:mod:`repro.analysis.ordering_lint`,
  aka *repro-race*) flags code whose behaviour depends on the kernel's
  same-timestamp tie-break order — zero-delay read-modify-writes, float
  equality against the clock, non-commuting handlers —
  backstopped at runtime by the ``REPRO_SCHEDULE_FUZZ`` perturbation
  sanitizer in :mod:`repro.sim.events`;
* the **lifecycle analyzer** (:mod:`repro.analysis.lifecycle_lint`, aka
  *repro-leak*) proves per-op and per-node state is reclaimed: keyed
  ``self.*`` entries need a removal path, scheduled callbacks need a
  cancel handle or staleness guard, teardown must prune every table it
  owns — backstopped at runtime by the ``REPRO_TRACK_RESOURCES``
  quiescence ledger in :mod:`repro.sim.resources`.

All five read one module model (:mod:`repro.analysis.model`: each file
parsed and walked once), report to one :class:`~repro.analysis.findings.Sink`,
and name containers and their mutators with one vocabulary
(:mod:`repro.analysis.astutil`).

Run it as ``python -m repro.analysis [paths...]`` (``--only`` selects one
analysis, ``--format=json`` emits machine-readable findings,
``--fail-on-new`` gates only findings absent from the baseline) or
through the tier-1 pytest gate in ``tests/test_analysis.py``.  Individual
findings can be suppressed with a ``# repro-lint: ignore[rule]`` (or
``# repro-san: ignore[rule]``, ``# repro-race: ignore[rule]``,
``# repro-leak: ignore[rule]``) comment on (or above) the offending line;
repo-wide accepted findings live, with justification, in
:mod:`repro.analysis.baseline`.  A full run fails on a suppression of
either kind that no longer matches a finding.
"""

from repro.analysis.findings import Finding, RULES
from repro.analysis.runner import LINTS, analyze_paths, main

__all__ = ["Finding", "LINTS", "RULES", "analyze_paths", "main"]
