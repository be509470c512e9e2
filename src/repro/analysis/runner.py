"""File discovery, scope rules, and the ``python -m repro.analysis`` CLI."""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.aliasing_lint import lint_aliasing
from repro.analysis.determinism_lint import lint_determinism, set_attributes
from repro.analysis.findings import RULES, Finding, Sink
from repro.analysis.lifecycle_lint import lint_lifecycle
from repro.analysis.model import Module, load_module
from repro.analysis.protocol_lint import lint_protocol
from repro.analysis.suppressions import suppressing_line
from repro.net import protocol

#: the individual analyses ``--only`` can select
LINTS = ("protocol", "determinism", "aliasing", "lifecycle")

_SIMULATION = ("overlay", "core", "net", "sim", "baselines", "traffic", "anomaly", "storage")

#: Per-file lint -> the repro subpackages it covers.
SCOPES: Dict[str, Tuple[str, ...]] = {
    # Code whose iteration order or clock comparisons reach the
    # simulation.  ``analysis`` and ``experiments`` run outside it (the
    # linter itself, plotting and experiment scripts).
    "determinism": _SIMULATION,
    # Cross-node aliasing: the code that sends or handles messages.
    # ``sim`` (kernel/RNG, no messages) and the offline packages are out.
    "aliasing": ("overlay", "core", "net", "baselines"),
    # Resource lifecycle: everything that holds per-op or per-node state
    # across events.  ``storage`` is excluded by design: a store's whole
    # job is retention (records live until the workload deletes them), so
    # every keyed insert there would be a false positive.
    "lifecycle": tuple(p for p in _SIMULATION if p != "storage"),
}


@dataclass
class AnalysisResult:
    """Findings partitioned by disposition."""

    active: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: ``path:line`` of inline ignore comments that suppressed nothing in
    #: this run (only meaningful for full-repo runs with every lint
    #: selected; subsets legitimately miss findings)
    stale_ignores: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.active


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def _rel(path: str) -> str:
    """Path as reported in findings: cwd-relative when possible."""
    rel = os.path.relpath(path)
    return _posix(path if rel.startswith("..") else rel)


def discover_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                files.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        elif path.endswith(".py"):
            files.append(path)
    return files


def in_scope(lint: str, rel_path: str) -> bool:
    """Whether the per-file ``lint`` applies to ``rel_path`` (see :data:`SCOPES`)."""
    marker = "repro/"
    idx = rel_path.rfind(marker)
    if idx < 0:
        # not part of the repro package (e.g. test fixtures): lint it —
        # fixtures exist precisely to exercise the rules.
        return True
    remainder = rel_path[idx + len(marker):]
    return remainder.split("/", 1)[0] in SCOPES[lint]


def analyze_paths(
    paths: Sequence[str],
    registry: Optional[Dict[str, protocol.MessageKind]] = None,
    routed: Optional[Dict[str, protocol.MessageKind]] = None,
    lints: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Run the linters over ``paths`` (files or directories).

    ``registry``/``routed`` default to the live wire registry; tests pass
    miniature registries to pin down individual rules.  ``lints`` selects
    a subset of :data:`LINTS` (default: all four).
    """
    registry = protocol.REGISTRY if registry is None else registry
    routed = protocol.ROUTED if routed is None else routed
    selected = set(LINTS if lints is None else lints)
    unknown = selected - set(LINTS)
    if unknown:
        raise ValueError(f"unknown lint(s): {sorted(unknown)} (expected {LINTS})")

    modules = [load_module(filename, _rel(filename)) for filename in discover_files(paths)]
    sink = Sink()
    if "protocol" in selected:
        lint_protocol(modules, sink, registry, routed)
    per_module: Dict[str, Callable[[Module, Sink], None]] = {
        "aliasing": lint_aliasing,
        "lifecycle": lint_lifecycle,
    }
    if "determinism" in selected:
        # set-typed attributes are recognised across every analyzed module
        per_module["determinism"] = partial(lint_determinism, set_attrs=set_attributes(modules))
    for lint, run in per_module.items():
        if lint in selected:
            for module in modules:
                if in_scope(lint, module.path):
                    run(module, sink)

    ignores_by_path = {module.path: module.ignores for module in modules}
    result = AnalysisResult()
    used_ignores: Set[Tuple[str, int]] = set()
    for finding in sink.findings():
        line = suppressing_line(finding, ignores_by_path.get(finding.path, {}))
        if line is None:
            result.active.append(finding)
        else:
            result.suppressed.append(finding)
            used_ignores.add((finding.path, line))
    result.stale_ignores = [
        f"{module.path}:{line}"
        for module in modules
        for line in sorted(module.ignores)
        if (module.path, line) not in used_ignores
    ]
    return result


def _default_paths() -> List[str]:
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {
        "rule": finding.rule,
        "file": finding.path,
        "line": finding.line,
        "message": finding.message,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro-lint static analysis: protocol keys, determinism, "
            "cross-node aliasing (repro-san) and resource lifecycle (repro-leak)"
        ),
        epilog=(
            "exit codes: 0 — no active findings; 1 — active findings "
            "(suppressed ones never fail the gate); 2 — usage error "
            "(unknown flag or --only value); 3 — stale suppression "
            "(an inline ignore comment matched no finding — trim it; "
            "checked on every full run: default paths, every lint selected)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--only", choices=LINTS, help="run a single analysis instead of all four"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format; json emits {findings, suppressed, stale_ignores, ok} "
        "with rule/file/line/message per finding",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}: {RULES[rule]}")
        return 0

    paths = list(args.paths) or _default_paths()
    lints = None if args.only is None else (args.only,)
    result = analyze_paths(paths, lints=lints)
    # The stale-suppression check only makes sense on full runs: with a
    # path or lint subset, entries legitimately match nothing.
    check_stale = not args.paths and args.only is None
    stale = result.stale_ignores if check_stale else []

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [_finding_dict(f) for f in result.active],
                    "suppressed": len(result.suppressed),
                    "stale_ignores": stale,
                    "ok": result.ok and not stale,
                },
                indent=2,
            )
        )
        if not result.ok:
            return 1
        return 3 if stale else 0

    for finding in result.active:
        print(finding.render())
    tail = f"{len(result.active)} finding(s), {len(result.suppressed)} suppressed inline"
    if result.active:
        print(f"repro-lint: FAIL — {tail}", file=sys.stderr)
        return 1
    if stale:
        for at in stale:
            print(f"stale inline ignore (suppresses nothing): {at}", file=sys.stderr)
        print(f"repro-lint: STALE SUPPRESSION — {tail}", file=sys.stderr)
        return 3
    print(f"repro-lint: OK — {tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
