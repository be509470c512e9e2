"""repro-lint rule tests: each rule fires on its fixture, and only there.

Fixtures are tiny modules written to ``tmp_path`` and analyzed against
miniature registries, so each test pins down one rule with an exact line
number.  The final test is the tier-1 gate itself: the real tree must be
lint-clean outside the documented baseline.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_paths
from repro.analysis.astutil import container_kind
from repro.analysis.findings import Finding, Sink
from repro.analysis.runner import main
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


def analyze_fixture(path, registry, routed=None, check_coverage=False):
    return analyze_paths(
        [str(path)],
        registry=registry,
        routed=routed if routed is not None else {},
        check_coverage=check_coverage,
        baseline=[],
    )


# ----------------------------------------------------------------------
# Protocol rules
# ----------------------------------------------------------------------
def test_reply_and_flood_are_send_sites(tmp_path):
    # The send shapes live in astutil.send_site; ``_reply(origin, kind,
    # payload, apply)`` and the two-argument ``_flood(kind, payload)`` are
    # among them, so a kind sent only through either counts as sent: the
    # handled ones are clean, and the unhandled one is flagged at its site.
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"pong": self._on_pong, "announce": self._on_announce}

            def answer(self, origin):
                self._reply(origin, "pong", {"seq": 1}, self._apply_pong)
                self._reply(origin, "ack", {"seq": 2}, self._apply_pong)

            def spread(self):
                self._flood("announce", {"seq": 3})

            def _on_pong(self, msg):
                return msg.payload["seq"]

            def _on_announce(self, msg):
                return msg.payload["seq"]
        """,
    )
    registry = {
        name: kind(name, required=["seq"]) for name in ("pong", "announce", "ack")
    }
    result = analyze_fixture(path, registry, check_coverage=True)
    assert [(f.line, f.rule) for f in result.active] == [
        (line_of(path, '"ack"'), "protocol-unhandled-kind"),
    ]


def test_unhandled_kind_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"pong": self._on_pong}

            def poke(self, dst):
                self._send(dst, "ping", {"seq": 1})
                self._send(dst, "pong", {"seq": 2})

            def _on_pong(self, msg):
                return msg.payload["seq"]
        """,
    )
    registry = {
        "ping": kind("ping", required=["seq"]),
        "pong": kind("pong", required=["seq"]),
    }
    result = analyze_fixture(path, registry, check_coverage=True)
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "protocol-unhandled-kind"
    assert finding.line == line_of(path, '"ping", {"seq": 1}')
    assert "'ping'" in finding.message


def test_unsent_and_dead_kinds_are_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"pong": self._on_pong}

            def _on_pong(self, msg):
                return msg.payload["seq"]
        """,
    )
    registry = {
        "pong": kind("pong", required=["seq"]),
        "ghost": kind("ghost"),
    }
    result = analyze_fixture(path, registry, check_coverage=True)
    rules = sorted(f.rule for f in result.active)
    assert rules == ["protocol-dead-kind", "protocol-unsent-kind"]


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


def test_unregistered_handler_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        def install(node):
            node.handlers["mystery"] = lambda msg: None
        """,
    )
    result = analyze_fixture(path, {})
    assert len(result.active) == 1
    assert result.active[0].rule == "protocol-unregistered-handler"


def test_dispatch_table_registration_keeps_coverage_checking(tmp_path):
    # The data plane dispatches through per-node tables indexed by
    # interned kind id, but the tables are built at runtime from the
    # same sources the linter reads statically: the ``self._handlers``
    # dict literal and the baselines' ``handlers["kind"] = fn``
    # assignments, both handed to one table builder.  This fixture
    # mirrors both idioms, runtime table build included, and proves
    # coverage checking still sees through them: handled kinds stay
    # clean while a sent-but-unhandled kind and a dead registry entry
    # are still flagged.
    path = write_fixture(
        tmp_path,
        """
        KIND_IDS = {"pong": 0, "ping": 1, "lost": 2}

        def dispatch_table(handlers):
            table = [None] * (len(KIND_IDS) + 1)
            for kind, handler in handlers.items():
                table[KIND_IDS[kind]] = handler
            return table

        class Node:
            def __init__(self):
                self._handlers = {"pong": self._on_pong}
                self._dispatch_table = None

            def _dispatch(self, msg):
                if self._dispatch_table is None:
                    self._dispatch_table = dispatch_table(self._handlers)
                self._dispatch_table[msg.kind_id](msg)

            def poke(self, dst):
                self._send(dst, "pong", {"seq": 2})
                self._send(dst, "ping", {"seq": 1})
                self._send(dst, "lost", {"seq": 3})

            def _on_pong(self, msg):
                return msg.payload["seq"]

        class BaselineNode:
            def __init__(self):
                self.handlers = {}
                self._dispatch_table = None
                self.handlers["ping"] = self._on_ping

            def _deliver(self, msg):
                if self._dispatch_table is None:
                    self._dispatch_table = dispatch_table(self.handlers)
                self._dispatch_table[msg.kind_id](msg)

            def _on_ping(self, msg):
                return msg.payload["seq"]
        """,
    )
    registry = {
        "pong": kind("pong", required=["seq"]),
        "ping": kind("ping", required=["seq"]),
        "lost": kind("lost", required=["seq"]),
        "ghost": kind("ghost"),
    }
    result = analyze_fixture(path, registry, check_coverage=True)
    rules = sorted((f.rule, f.line) for f in result.active)
    assert rules == [
        ("protocol-dead-kind", 0),
        ("protocol-unhandled-kind", line_of(path, '"lost", {"seq": 3}')),
    ]


def test_routed_inner_kind_reads_are_branch_aware(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def on_route_arrival(self, envelope):
                inner_kind = envelope["inner_kind"]
                if inner_kind == "insert":
                    self._arrive_insert(envelope)

            def _arrive_insert(self, envelope):
                inner = envelope["inner"]
                good = inner["tuple"]
                bad = inner["qid"]
                return good, bad
        """,
    )
    routed = {"insert": kind("insert", required=["tuple"], layer="routed")}
    result = analyze_fixture(path, {}, routed=routed)
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "protocol-undeclared-key"
    assert finding.line == line_of(path, 'inner["qid"]')


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
    result = analyze_paths(
        [str(decl), str(use)], registry={}, routed={}, check_coverage=False, baseline=[]
    )
    assert [f.rule for f in result.active] == ["det-set-iteration"]
    assert result.active[0].path.endswith("use_mod.py")


# ----------------------------------------------------------------------
# Suppressions and baseline
# ----------------------------------------------------------------------
def test_inline_ignore_suppresses_only_named_rule(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        def fan_out(peers):
            return [a for a in set(peers)]  # repro-lint: ignore[det-set-iteration] fixture

        def fan_out2(peers):
            return [a for a in set(peers)]  # repro-lint: ignore[protocol-dead-kind] wrong rule
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


def test_baseline_accepts_findings_by_stable_key(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        def fan_out(peers):
            return [addr for addr in set(peers)]
        """,
    )
    probe = analyze_fixture(path, {})
    assert len(probe.active) == 1
    entry = {"key": probe.active[0].key, "reason": "fixture"}
    result = analyze_paths(
        [str(path)], registry={}, routed={}, check_coverage=False, baseline=[entry]
    )
    assert result.ok
    assert len(result.accepted) == 1


# ----------------------------------------------------------------------
# The shared sink and container vocabulary
# ----------------------------------------------------------------------
def test_sink_keeps_one_finding_per_position_and_refuses_unknown_rules():
    sink = Sink()
    for col in (4, 4, 20):
        sink.report("f.py", 3, "det-set-iteration", "m", "f:x", col)
    assert len(sink.findings()) == 2
    with pytest.raises(ValueError, match="not in the catalog"):
        sink.report("f.py", 3, "det-wall-clock", "m", "f:x")


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
    assert main(["--no-coverage", str(dirty)]) == 1
    assert "det-set-iteration" in capsys.readouterr().out

    clean = tmp_path / "clean_mod.py"
    clean.write_text("def nothing():\n    return 0\n")
    assert main(["--no-coverage", str(clean)]) == 0
    assert "repro-lint: OK" in capsys.readouterr().out


def test_list_rules_prints_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_repo_tree_is_lint_clean():
    """The tier-1 gate: the real tree has zero findings outside the baseline.

    Coverage checks are on, so this also proves every registered message
    kind sent anywhere in ``src/repro`` has a handler.  Every inline
    ignore and baseline entry must still match a finding.
    """
    result = analyze_paths([str(REPRO_PKG)], check_coverage=True)
    assert result.ok, "\n".join(f.render() for f in result.active)
    assert result.stale_ignores == [] and result.stale_baseline == []
