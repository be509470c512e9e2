"""repro-lint rule tests: each rule fires on its fixture, and only there.

Fixtures are tiny modules written to ``tmp_path`` and analyzed against
miniature registries, so each test pins down one rule with an exact line
number.  The final test is the tier-1 gate itself: the real tree must be
lint-clean outside its inline ignore comments.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_paths, runner
from repro.analysis.astutil import container_kind
from repro.analysis.findings import Finding, Sink
from repro.analysis.model import load_module
from repro.analysis.runner import in_scope, main
from repro.analysis.suppressions import inline_ignores, suppressing_line
from repro.net.protocol import MessageKind

pytestmark = pytest.mark.lint

REPRO_PKG = Path(__file__).resolve().parents[1] / "src" / "repro"


def kind(name, required=(), optional=(), layer="overlay"):
    return MessageKind(
        name=name,
        layer=layer,
        required=frozenset(required),
        optional=frozenset(optional),
        doc="fixture",
    )


def write_fixture(tmp_path, source):
    path = tmp_path / "fixture_mod.py"
    path.write_text(textwrap.dedent(source))
    return path


def line_of(path, needle):
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in fixture")


def analyze_fixture(path, registry, routed=None):
    return analyze_paths(
        [str(path)],
        registry=registry,
        routed=routed if routed is not None else {},
    )


# ----------------------------------------------------------------------
# Protocol rules
# ----------------------------------------------------------------------
def test_reply_and_flood_are_send_sites(tmp_path):
    # The send shapes live in astutil.send_site; ``_reply(origin, kind,
    # payload, apply)`` and the two-argument ``_flood(kind, payload)`` are
    # among them, so the aliasing lint sees what either sends.
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def answer(self, origin):
                self._reply(origin, "pong", {"seq": 1}, self._apply_pong)
                self._reply(origin, "ack", {"seq": 2}, self._apply_pong)

            def spread(self):
                self._flood("announce", {"seq": 3})
        """,
    )
    sends = load_module(str(path), "fixture_mod.py").sends
    assert [(site.kind, site.line, site.func.name) for site in sends] == [
        ("pong", line_of(path, '"pong"'), "answer"),
        ("ack", line_of(path, '"ack"'), "answer"),
        ("announce", line_of(path, '"announce"'), "spread"),
    ]


def test_undeclared_payload_key_read_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"ping": self._on_ping}

            def _on_ping(self, msg):
                payload = msg.payload
                return payload["nope"]
        """,
    )
    result = analyze_fixture(
        path, {"ping": kind("ping", required=["seq"], optional=["hops"])}
    )
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "protocol-undeclared-key"
    assert finding.line == line_of(path, 'payload["nope"]')
    assert "'nope'" in finding.message


def test_routed_table_handlers_read_only_declared_keys(tmp_path):
    # A routed table entry pairs an arrival and a failure handler, in the
    # table literal or added by subscript; each reads the route envelope,
    # and its reads through ``inner`` are checked against its own kind.
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._routed = {"insert": (self._arrive_insert, self._insert_failed)}
                self._routed["probe"] = (self._arrive_probe, self._probe_failed)

            def _arrive_insert(self, envelope):
                inner = envelope["inner"]
                good = inner["tuple"]
                bad = inner["qid"]
                return good, bad

            def _insert_failed(self, envelope, reason):
                return envelope["origin"], envelope["inner"]["tuple"]

            def _arrive_probe(self, envelope):
                return envelope["inner"]["qid"]

            def _probe_failed(self, envelope, reason):
                return envelope["inner"].get("tuple")
        """,
    )
    routed = {
        "insert": kind("insert", required=["tuple"], layer="routed"),
        "probe": kind("probe", required=["qid"], layer="routed"),
    }
    result = analyze_fixture(path, {}, routed=routed)
    assert [(f.rule, f.line) for f in result.active] == [
        ("protocol-undeclared-key", line_of(path, 'bad = inner["qid"]')),
        ("protocol-undeclared-key", line_of(path, '.get("tuple")')),
    ]


# ----------------------------------------------------------------------
# Determinism rules
# ----------------------------------------------------------------------
def test_set_iteration_is_flagged_and_sorted_is_not(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        def fan_out(peers):
            order = []
            members = set(peers)
            for addr in members:
                order.append(addr)
            for addr in sorted(members):
                order.append(addr)
            return order
        """,
    )
    result = analyze_fixture(path, {})
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "det-set-iteration"
    assert finding.line == line_of(path, "for addr in members:")


def test_set_attribute_is_recognised_across_modules(tmp_path):
    decl = tmp_path / "state_mod.py"
    decl.write_text(
        textwrap.dedent(
            """
            from typing import Set

            class State:
                def __init__(self):
                    self.acked: Set[str] = set()
            """
        )
    )
    use = tmp_path / "use_mod.py"
    use.write_text(
        textwrap.dedent(
            """
            def report(state):
                return [a for a in state.acked]
            """
        )
    )
    result = analyze_paths([str(decl), str(use)], registry={}, routed={})
    assert [f.rule for f in result.active] == ["det-set-iteration"]
    assert result.active[0].path.endswith("use_mod.py")


def test_time_equality_is_flagged_inequality_is_not(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def due(self, deadline):
                if deadline == self.sim.now:
                    return True
                return deadline <= self.sim.now

            def same_instant(self, event):
                return event.time != self.started_at
        """,
    )
    result = analyze_fixture(path, {})
    assert [f.rule for f in result.active] == ["order-float-time-eq"] * 2
    lines = sorted(f.line for f in result.active)
    assert lines == [
        line_of(path, "deadline == self.sim.now"),
        line_of(path, "event.time != self.started_at"),
    ]


def test_float_time_rule_covers_the_kernel():
    # The determinism scope is the whole simulation, the event queue and
    # kernel included; neither compares a clock reading with ==/!=.
    kernel = [REPRO_PKG / "sim" / "events.py", REPRO_PKG / "sim" / "kernel.py"]
    for path in kernel:
        assert in_scope("determinism", str(path))
    result = analyze_paths([str(path) for path in kernel], lints=("determinism",))
    assert result.active == [] and result.suppressed == []


def test_float_time_rule_passes_ordering_comparisons(tmp_path):
    # The forms the tree compares clock readings in stay unflagged:
    # ordering against ``*.now`` and ``event.time``, and ``==`` on a
    # ``.time`` that is not an event's.  (The tree itself is covered by
    # test_repo_tree_is_lint_clean.)
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def expired(self, event, last, timeout):
                if event.time < self.sim.now:
                    return True
                if last is not None and self.sim.now - last <= timeout:
                    return False
                return self.deadline is None or self.deadline <= self.sim.now

            def same_bucket(self, record, other):
                return record.time == other.time
        """,
    )
    result = analyze_paths([str(path)], lints=("determinism",))
    assert result.active == [] and result.suppressed == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_inline_ignore_suppresses_only_named_rule(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        def fan_out(peers):
            return [a for a in set(peers)]  # repro-lint: ignore[det-set-iteration] fixture

        def fan_out2(peers):
            return [a for a in set(peers)]  # repro-lint: ignore[protocol-undeclared-key] wrong rule
        """,
    )
    result = analyze_fixture(path, {})
    assert len(result.active) == 1
    assert len(result.suppressed) == 1
    assert result.active[0].line == line_of(path, "wrong rule")


def test_inline_ignore_on_line_above(tmp_path):
    source = "x = 1\n# repro-lint: ignore[*]\ny = 2\n"
    ignores = inline_ignores(source)
    finding = Finding(path="f.py", line=3, rule="det-set-iteration", message="m")
    assert suppressing_line(finding, ignores) == 2
    assert (
        suppressing_line(
            Finding(path="f.py", line=1, rule="det-set-iteration", message="m"), ignores
        )
        is None
    )


def test_ignore_comment_that_suppresses_nothing_is_stale(tmp_path):
    path = write_fixture(
        tmp_path,
        '''
        """Quoting ``# repro-lint: ignore[det-set-iteration]`` suppresses nothing."""

        def fan_out(peers):
            return [a for a in set(peers)]  # repro-lint: ignore[det-set-iteration] used

        def total(peers):
            return sum(peers)  # repro-lint: ignore[det-set-iteration] nothing here
        ''',
    )
    result = analyze_fixture(path, {})
    assert result.ok and len(result.suppressed) == 1
    assert result.stale_ignores == [f"{path}:{line_of(path, 'nothing here')}"]


@pytest.mark.parametrize("alias", ["repro-san", "repro-race", "repro-leak"])
def test_retired_ignore_spelling_does_not_suppress(alias, tmp_path):
    # Each lint once had its own ignore spelling; only repro-lint is left.
    path = write_fixture(
        tmp_path,
        f"""
        def fan_out(peers):
            a = [p for p in set(peers)]  # {alias}: ignore[det-set-iteration] old alias
            b = [p for p in set(peers)]  # repro-lint: ignore[det-set-iteration] the spelling
            return a + b
        """,
    )
    result = analyze_fixture(path, {})
    assert [f.line for f in result.active] == [line_of(path, f"{alias}:")]
    assert [f.line for f in result.suppressed] == [line_of(path, "repro-lint:")]


# ----------------------------------------------------------------------
# The shared sink and container vocabulary
# ----------------------------------------------------------------------
def test_sink_keeps_one_finding_per_position_and_refuses_unknown_rules():
    sink = Sink()
    for col in (4, 4, 20):
        sink.report("f.py", 3, "det-set-iteration", "m", col)
    assert len(sink.findings()) == 2
    with pytest.raises(ValueError, match="not in the catalog"):
        sink.report("f.py", 3, "order-zero-delay", "m")


@pytest.mark.parametrize(
    "source, kind",
    [
        ("x = {}", "dict"),
        ("x = defaultdict(list)", "dict"),
        ("x: Dict[str, int] = make()", "dict"),
        ("x = {a for a in b}", "set"),
        ("x: 'Set[str]' = field(default_factory=set)", "set"),
        ("x: typing.MutableSet[int] = None", "set"),
        ("x = frozenset(b)", "frozenset"),
        ("x: Deque[int] = deque()", "list"),
        ("x = make()", None),
    ],
)
def test_container_vocabulary(source, kind):
    stmt = ast.parse(source).body[0]
    annotation = getattr(stmt, "annotation", None)
    assert container_kind(stmt.value, annotation) == kind


# ----------------------------------------------------------------------
# CLI and the tier-1 gate
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    dirty = write_fixture(
        tmp_path,
        """
        def fan_out(peers):
            return [addr for addr in set(peers)]
        """,
    )
    assert main([str(dirty)]) == 1
    assert "det-set-iteration" in capsys.readouterr().out

    clean = tmp_path / "clean_mod.py"
    clean.write_text("def nothing():\n    return 0\n")
    assert main([str(clean)]) == 0
    assert "repro-lint: OK" in capsys.readouterr().out


def test_cli_stale_inline_ignore_exits_3_on_a_full_run(tmp_path, monkeypatch, capsys):
    # Only a full run (default paths, every lint) checks staleness: a
    # subset of paths or lints legitimately leaves ignores unmatched.
    write_fixture(
        tmp_path,
        """
        def total(peers):
            return sum(peers)  # repro-lint: ignore[det-set-iteration] nothing here
        """,
    )
    monkeypatch.setattr(runner, "_default_paths", lambda: [str(tmp_path)])
    assert main([]) == 3
    assert "stale inline ignore" in capsys.readouterr().err
    assert main(["--only", "determinism"]) == 0
    assert main([str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "argv", [["--only", "ordering"], ["--fail-on-new"]], ids=["only-ordering", "fail-on-new"]
)
def test_cli_rejects_removed_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_list_rules_prints_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_rule_catalog_matches_the_design_record():
    # DESIGN.md §7's table records what each rule has caught; a rule
    # added or deleted in one place only leaves that record stale.
    design = (REPRO_PKG.parents[1] / "DESIGN.md").read_text()
    section = design.split("\n## 7.", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `([a-z-]+)` \|", section, re.M)) == set(RULES)


def test_repo_tree_is_lint_clean():
    """The tier-1 gate: the real tree has zero findings outside its
    inline ignores, and every inline ignore still matches a finding.
    """
    result = analyze_paths([str(REPRO_PKG)])
    assert result.ok, "\n".join(f.render() for f in result.active)
    assert result.stale_ignores == []
