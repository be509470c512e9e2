"""repro-race rule tests: each ordering rule fires on its fixture only.

Same shape as ``tests/test_analysis.py``: tiny modules written to
``tmp_path``, analyzed with just the ordering lint selected, pinning
exact lines.  The last test is the gate: the real tree has zero
unsuppressed ordering findings.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.runner import in_scope, main

pytestmark = pytest.mark.lint

REPRO_PKG = Path(__file__).resolve().parents[1] / "src" / "repro"


def write_fixture(tmp_path, source):
    path = tmp_path / "fixture_mod.py"
    path.write_text(textwrap.dedent(source))
    return path


def line_of(path, needle):
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in fixture")


def analyze_ordering(path):
    return analyze_paths(
        [str(path)],
        registry={},
        routed={},
        baseline=[],
        lints=("ordering",),
    )


# ----------------------------------------------------------------------
# order-zero-delay
# ----------------------------------------------------------------------
def test_zero_delay_rmw_callback_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def kick(self):
                self.sim.schedule(0.0, self._bump)
                self.sim.schedule(1.0, self._bump)

            def _bump(self):
                self.count += 1
        """,
    )
    result = analyze_ordering(path)
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "order-zero-delay"
    assert finding.line == line_of(path, "schedule(0.0")
    assert "_bump" in finding.message


def test_zero_delay_pure_callback_is_not_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def kick(self):
                self.sim.schedule(0.0, self._report)

            def _report(self):
                return len(self.peers)
        """,
    )
    assert analyze_ordering(path).active == []


def test_zero_delay_opaque_callback_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Net:
            def fail(self, on_fail, msg, immediate):
                delay = 0.0 if immediate else self.fail_detect_s
                self.sim.schedule(delay, on_fail, msg)
        """,
    )
    result = analyze_ordering(path)
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "order-zero-delay"
    assert finding.line == line_of(path, "schedule(delay")
    assert "not resolvable" in finding.message


def test_schedule_at_now_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def kick(self):
                self.sim.schedule_at(self.sim.now, self._drain)
                self.sim.schedule_at(self.deadline, self._drain)

            def _drain(self):
                self.queue.pop()
        """,
    )
    result = analyze_ordering(path)
    assert len(result.active) == 1
    assert result.active[0].rule == "order-zero-delay"
    assert result.active[0].line == line_of(path, "self.sim.now, self._drain")


# ----------------------------------------------------------------------
# order-float-time-eq
# ----------------------------------------------------------------------
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
    result = analyze_ordering(path)
    assert [f.rule for f in result.active] == ["order-float-time-eq"] * 2
    lines = sorted(f.line for f in result.active)
    assert lines == [
        line_of(path, "deadline == self.sim.now"),
        line_of(path, "event.time != self.started_at"),
    ]


# ----------------------------------------------------------------------
# Scope
# ----------------------------------------------------------------------
def test_queue_internals_are_exempt():
    assert not in_scope("ordering", "src/repro/sim/events.py")
    assert not in_scope("ordering", "src/repro/sim/kernel.py")
    assert in_scope("ordering", "src/repro/sim/randomness.py")
    assert in_scope("ordering", "src/repro/overlay/node.py")
    assert in_scope("ordering", "src/repro/storage/memtable.py")


# ----------------------------------------------------------------------
# order-handler-commute
# ----------------------------------------------------------------------
def test_handler_pair_overwriting_same_attr_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"claim": self._on_claim, "release": self._on_release}

            def _on_claim(self, msg):
                self.owner = msg.payload["who"]

            def _on_release(self, msg):
                self.owner = None
        """,
    )
    result = analyze_ordering(path)
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "order-handler-commute"
    assert "_on_claim" in finding.message and "_on_release" in finding.message
    assert "owner" in finding.message


def test_commutative_handler_updates_are_not_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"hit": self._on_hit, "miss": self._on_miss}

            def _on_hit(self, msg):
                self.hits += 1
                self.seen.add(msg.src)

            def _on_miss(self, msg):
                self.hits += 1
                self.seen.add(msg.src)
        """,
    )
    assert analyze_ordering(path).active == []


# ----------------------------------------------------------------------
# Suppression spelling and the gate
# ----------------------------------------------------------------------
def test_repro_race_ignore_spelling_suppresses(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def kick(self):
                self.sim.schedule(0.0, self._bump)  # repro-race: ignore[order-zero-delay] fixture

            def _bump(self):
                self.count += 1
        """,
    )
    result = analyze_ordering(path)
    assert result.active == []
    assert len(result.suppressed) == 1


def test_cli_only_ordering(tmp_path, capsys):
    dirty = write_fixture(
        tmp_path,
        """
        def due(event, sim):
            return event.time == sim.now
        """,
    )
    assert main(["--only", "ordering", str(dirty)]) == 1
    assert "order-float-time-eq" in capsys.readouterr().out


def test_repo_tree_has_no_unsuppressed_ordering_findings():
    result = analyze_paths([str(REPRO_PKG)], lints=("ordering",))
    assert result.ok, "\n".join(f.render() for f in result.active)
