"""repro-leak rule tests: each lifecycle rule fires on its fixture only.

Same shape as ``tests/test_aliasing_analysis.py``: tiny modules written to
``tmp_path``, analyzed with just the lifecycle lint selected, pinning
exact lines.  The real tree is gated by
``tests/test_analysis.py::test_repo_tree_is_lint_clean``, which runs this
lint with the others.
"""

import textwrap

import pytest

from repro.analysis import analyze_paths
from repro.analysis.runner import in_scope, main

pytestmark = pytest.mark.lint


def write_fixture(tmp_path, source):
    path = tmp_path / "fixture_mod.py"
    path.write_text(textwrap.dedent(source))
    return path


def line_of(path, needle):
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in fixture")


def analyze_lifecycle(path):
    return analyze_paths([str(path)], registry={}, routed={}, lints=("lifecycle",))


# ----------------------------------------------------------------------
# leak-timer-unguarded
# ----------------------------------------------------------------------
def test_discarded_timer_writing_state_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def arm(self):
                self.sim.schedule(5.0, self._tick)

            def _tick(self):
                self.ticks += 1
        """,
    )
    result = analyze_lifecycle(path)
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "leak-timer-unguarded"
    assert finding.line == line_of(path, "schedule(5.0")
    assert "self._tick" in finding.message
    assert "staleness guard" in finding.message


def test_defer_alias_is_a_scheduler(tmp_path):
    # OverlayNode picks its scheduler once (``self._defer``: the slot wheel
    # or ``push_at``); a call through it is a timer like any other.
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def arm(self, t):
                self._defer(t, self._cb, ())

            def _cb(self):
                self.fired = True
        """,
    )
    result = analyze_lifecycle(path)
    assert [f.rule for f in result.active] == ["leak-timer-unguarded"]
    assert "self._cb" in result.active[0].message


def test_guarded_timer_is_not_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def arm(self):
                self.sim.schedule(5.0, self._tick)

            def _tick(self):
                if self.closed:
                    return
                self.ticks += 1
        """,
    )
    assert analyze_lifecycle(path).active == []


def test_kept_handle_and_pure_callback_are_not_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def arm(self):
                self._timer = self.sim.schedule(5.0, self._tick)
                self.sim.schedule(5.0, self._report)

            def _tick(self):
                self.ticks += 1

            def _report(self):
                return len(self.peers)
        """,
    )
    assert analyze_lifecycle(path).active == []


# ----------------------------------------------------------------------
# leak-unbounded-growth
# ----------------------------------------------------------------------
def test_unbounded_append_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Log:
            def __init__(self):
                self.entries = []

            def record(self, item):
                self.entries.append(item)
        """,
    )
    result = analyze_lifecycle(path)
    assert len(result.active) == 1
    finding = result.active[0]
    assert finding.rule == "leak-unbounded-growth"
    assert finding.line == line_of(path, "self.entries.append(item)")
    assert "Log.entries" in finding.message
    assert "no bound" in finding.message


def test_len_capped_and_trimmed_lists_are_not_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Ring:
            def __init__(self):
                self.slots = []

            def push(self, item):
                if len(self.slots) < 64:
                    self.slots.append(item)
                else:
                    self.slots[self.cursor] = item


        class Window:
            def __init__(self):
                self.samples = []

            def push(self, item):
                self.samples.append(item)
                del self.samples[:-32]
        """,
    )
    assert analyze_lifecycle(path).active == []


def test_cross_handler_removal_is_not_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._queue = []

            def push(self, item):
                self._queue.append(item)

            def drain(self):
                self._queue.clear()
        """,
    )
    assert analyze_lifecycle(path).active == []


def test_removal_through_local_alias_is_not_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._queue = []

            def push(self, item):
                self._queue.append(item)

            def take(self):
                queue = self._queue
                return queue.pop()
        """,
    )
    assert analyze_lifecycle(path).active == []


def test_constructor_population_is_not_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Pool:
            def __init__(self, names):
                self._names = []
                for name in names:
                    self._names.append(name)
        """,
    )
    assert analyze_lifecycle(path).active == []


# ----------------------------------------------------------------------
# Scope
# ----------------------------------------------------------------------
def test_storage_is_exempt_everything_else_is_not():
    assert not in_scope("lifecycle", "src/repro/storage/memtable.py")
    assert in_scope("lifecycle", "src/repro/core/mind_node.py")
    assert in_scope("lifecycle", "src/repro/net/network.py")
    assert in_scope("lifecycle", "src/repro/sim/kernel.py")
    # test fixtures outside the package are always linted
    assert in_scope("lifecycle", "tmp/fixture_mod.py")


# ----------------------------------------------------------------------
# CLI: --only lifecycle
# ----------------------------------------------------------------------
def test_cli_only_lifecycle(tmp_path, capsys):
    dirty = write_fixture(
        tmp_path,
        """
        class Log:
            def __init__(self):
                self.entries = []

            def record(self, item):
                self.entries.append(item)
        """,
    )
    assert main(["--only", "lifecycle", str(dirty)]) == 1
    assert "leak-unbounded-growth" in capsys.readouterr().out


def test_cli_lists_lifecycle_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "leak-timer-unguarded",
        "leak-unbounded-growth",
    ):
        assert rule in out

