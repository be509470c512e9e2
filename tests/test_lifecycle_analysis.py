"""repro-leak rule tests: each lifecycle rule fires on its fixture only.

Same shape as ``tests/test_ordering_lint.py``: tiny modules written to
``tmp_path``, analyzed with just the lifecycle lint selected, pinning
exact lines.  The last test is the gate: the real tree has zero
unsuppressed lifecycle findings.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis import baseline as baseline_mod
from repro.analysis.runner import in_scope, main

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]
REPRO_PKG = REPO_ROOT / "src" / "repro"


def write_fixture(tmp_path, source):
    path = tmp_path / "fixture_mod.py"
    path.write_text(textwrap.dedent(source))
    return path


def line_of(path, needle):
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in fixture")


def analyze_lifecycle(path, baseline=()):
    return analyze_paths(
        [str(path)],
        registry={},
        routed={},
        baseline=list(baseline),
        lints=("lifecycle",),
    )


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
    assert finding.context == "arm:self._tick"
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
    assert result.active[0].context == "arm:self._cb"


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
    assert finding.context == "record:self.entries"
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
# Scope, suppression, baseline
# ----------------------------------------------------------------------
def test_storage_is_exempt_everything_else_is_not():
    assert not in_scope("lifecycle", "src/repro/storage/memtable.py")
    assert in_scope("lifecycle", "src/repro/core/mind_node.py")
    assert in_scope("lifecycle", "src/repro/net/network.py")
    assert in_scope("lifecycle", "src/repro/sim/kernel.py")
    # test fixtures outside the package are always linted
    assert in_scope("lifecycle", "tmp/fixture_mod.py")


def test_repro_leak_ignore_spelling_suppresses(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Log:
            def __init__(self):
                self.entries = []

            def record(self, item):
                self.entries.append(item)  # repro-leak: ignore[leak-unbounded-growth] fixture
        """,
    )
    result = analyze_lifecycle(path)
    assert result.active == []
    assert len(result.suppressed) == 1


def test_baseline_round_trip(tmp_path):
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
    first = analyze_lifecycle(path)
    assert len(first.active) == 1
    key = first.active[0].key

    accepted = analyze_lifecycle(path, baseline=[{"key": key, "reason": "fixture"}])
    assert accepted.active == []
    assert len(accepted.accepted) == 1
    assert accepted.stale_baseline == []

    stale = analyze_lifecycle(
        path, baseline=[{"key": "leak-unbounded-growth:gone.py:f:self._x", "reason": "stale"}]
    )
    assert len(stale.active) == 1
    assert stale.stale_baseline == ["leak-unbounded-growth:gone.py:f:self._x"]


# ----------------------------------------------------------------------
# CLI: --only lifecycle, exit codes, --fail-on-new
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


def test_cli_stale_baseline_exits_3_unless_fail_on_new(monkeypatch, capsys):
    """A dead baseline key fails the full gate (exit 3); --fail-on-new
    skips the staleness check so fix branches pass before trimming."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(
        baseline_mod,
        "BASELINE",
        baseline_mod.BASELINE
        + [{"key": "leak-unbounded-growth:src/repro/gone.py:f:self._x", "reason": "stale"}],
    )
    assert main([]) == 3
    err = capsys.readouterr().err
    assert "stale baseline entry" in err
    assert "leak-unbounded-growth:src/repro/gone.py:f:self._x" in err
    assert main(["--fail-on-new"]) == 0


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
def test_repo_tree_has_no_unsuppressed_lifecycle_findings():
    result = analyze_paths([str(REPRO_PKG)], lints=("lifecycle",))
    assert result.ok, "\n".join(f.render() for f in result.active)
