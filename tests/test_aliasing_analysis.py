"""repro-san rule tests: the aliasing rule fires on its fixtures, and only there.

Mirrors ``tests/test_analysis.py``: tiny modules written to ``tmp_path``,
analyzed with only the aliasing lint selected, each finding pinned to an
exact line.  Ends with the CLI selectors (``--only``, ``--format=json``).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.runner import main

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


def analyze_aliasing(path):
    return analyze_paths([str(path)], registry={}, routed={}, lints=("aliasing",))


# ----------------------------------------------------------------------
# alias-send-live-state
# ----------------------------------------------------------------------
def test_reflooding_received_payload_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"announce": self._on_announce}

            def _on_announce(self, msg):
                payload = msg.payload
                self._flood("announce", payload, payload["key"])
        """,
    )
    result = analyze_aliasing(path)
    assert [f.rule for f in result.active] == ["alias-send-live-state"]
    assert result.active[0].line == line_of(path, 'self._flood("announce", payload')


def test_reflooding_a_copy_is_clean(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"announce": self._on_announce}

            def _on_announce(self, msg):
                payload = msg.payload
                self._flood("announce", dict(payload), payload["key"])
        """,
    )
    assert analyze_aliasing(path).active == []


def test_replying_with_the_received_payload_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"probe": self._on_probe}

            def _on_probe(self, msg):
                self._reply(msg.src, "probe_ack", msg.payload, self._apply_ack)
        """,
    )
    result = analyze_aliasing(path)
    assert [f.rule for f in result.active] == ["alias-send-live-state"]
    assert result.active[0].line == line_of(path, "self._reply(")


def test_sending_live_self_container_as_payload_value_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._members = []

            def share(self, dst):
                self._send(dst, "roster", {"members": self._members})
        """,
    )
    result = analyze_aliasing(path)
    assert [f.rule for f in result.active] == ["alias-send-live-state"]
    assert result.active[0].line == line_of(path, '{"members": self._members}')
    assert "self._members" in result.active[0].message


def test_sending_live_container_via_local_alias_is_flagged(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._members = []

            def share(self, dst):
                roster = self._members
                self._send(dst, "roster", {"members": roster})
        """,
    )
    result = analyze_aliasing(path)
    assert [f.rule for f in result.active] == ["alias-send-live-state"]


def test_sending_copied_self_container_is_clean(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._members = []
                self.name = "n0"

            def share(self, dst):
                self._send(dst, "roster", {"members": list(self._members), "who": self.name})
        """,
    )
    assert analyze_aliasing(path).active == []


# ----------------------------------------------------------------------
# Propagation and scope behavior
# ----------------------------------------------------------------------
def test_taint_propagates_one_level_into_helpers(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"probe": self._on_probe}

            def _on_probe(self, msg):
                self._apply(msg.payload)

            def _apply(self, payload):
                self._send("b", "probe", payload)
        """,
    )
    result = analyze_aliasing(path)
    assert [f.rule for f in result.active] == ["alias-send-live-state"]
    assert result.active[0].line == line_of(path, 'self._send("b", "probe", payload)')


def test_loop_variables_are_not_tainted(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"probe": self._on_probe}

            def _on_probe(self, msg):
                for item in msg.payload["items"]:
                    self._send("b", "item", item)
        """,
    )
    assert analyze_aliasing(path).active == []


def test_routed_arrival_handlers_are_exempt(tmp_path):
    # Routed envelopes are copied at the "route" handler (frozen delivery
    # raises on its first hop otherwise); arrival handlers may send their
    # envelope on.
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"route": self._on_route}

            def _on_route(self, msg):
                self._route_step(thaw_payload(msg.payload))

            def _route_step(self, envelope):
                if envelope["inner_kind"] == "insert":
                    self._arrive_insert(envelope)

            def _arrive_insert(self, envelope):
                self._send("b", "insert", envelope)
        """,
    )
    assert analyze_aliasing(path).active == []


def test_removing_the_thaw_reintroduces_the_finding(tmp_path):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"route": self._on_route}

            def _on_route(self, msg):
                self._route_step(msg.payload)

            def _route_step(self, envelope):
                self._send("b", "route", envelope)
        """,
    )
    result = analyze_aliasing(path)
    assert [f.rule for f in result.active] == ["alias-send-live-state"]
    assert result.active[0].line == line_of(path, 'self._send("b", "route", envelope)')


# ----------------------------------------------------------------------
# CLI selectors
# ----------------------------------------------------------------------
def test_cli_only_aliasing_json_output(tmp_path, capsys):
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"probe": self._on_probe}

            def _on_probe(self, msg):
                self._send(msg.src, "probe_ack", msg.payload)
        """,
    )
    exit_code = main(["--only", "aliasing", "--format", "json", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert out["ok"] is False
    assert [f["rule"] for f in out["findings"]] == ["alias-send-live-state"]
    finding = out["findings"][0]
    assert finding["line"] == line_of(path, 'self._send(msg.src, "probe_ack"')
    assert finding["file"].endswith("fixture_mod.py")
    assert set(finding) == {"rule", "file", "line", "message"}


def test_cli_only_selects_a_single_lint(tmp_path, capsys):
    # The fixture has an aliasing finding but no determinism finding, so
    # --only determinism must come back clean.
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"probe": self._on_probe}

            def _on_probe(self, msg):
                self._send(msg.src, "probe_ack", msg.payload)
        """,
    )
    assert main(["--only", "determinism", str(path)]) == 0
    capsys.readouterr()


def test_cli_json_clean_tree_exits_zero(tmp_path, capsys):
    # The handler ships a copy of what it received: nothing to report.
    path = write_fixture(
        tmp_path,
        """
        class Node:
            def __init__(self):
                self._handlers = {"probe": self._on_probe}

            def _on_probe(self, msg):
                self._send(msg.src, "probe_ack", dict(msg.payload))
        """,
    )
    exit_code = main(["--only", "aliasing", "--format", "json", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert out["ok"] is True
    assert out["findings"] == []


def test_unknown_lint_selection_raises():
    with pytest.raises(ValueError):
        analyze_paths([str(REPRO_PKG / "net" / "message.py")], lints=("bogus",))
