"""The scale tier of ``benchmarks/perf/run.py`` at smoke size, and its refusals.

The workloads run in-process through mindbench's ``run_replica``, which
refuses to time under a runtime sanitizer, so every sanitizer is disarmed
around them as ``test_mixed_faults_edge.py`` does.
"""

import json
import subprocess
from contextlib import contextmanager

import pytest

from benchmarks.mindbench import harness
from benchmarks.perf import run
from repro import checks


@contextmanager
def unarmed():
    with pytest.MonkeyPatch.context() as patch, checks.configure(
        validate=False, isolation=checks.ISOLATE_OFF, fuzz=checks.FUZZ_OFF, track_resources=False
    ):
        for name in harness.SANITIZER_ENV:
            patch.delenv(name, raising=False)
        yield


@pytest.fixture(scope="module")
def churn():
    with unarmed():
        return harness.run_replica(run.ScaleChurn, run.SEED, 0.0, smoke=True)


def test_run_py_smoke_is_correct_and_records_nothing(monkeypatch, tmp_path):
    history = tmp_path / "BENCH_HISTORY.jsonl"
    monkeypatch.setattr(run, "HISTORY", str(history))
    with unarmed():
        assert run.main(["--smoke"]) == 0  # non-zero unless every check passed
    assert not history.exists()


def test_scale_churn_smoke_passes_its_other_checks(churn):
    failed = {name for name, ok in churn["checks"].items() if not ok}
    assert failed <= {"codes_tile_the_space"}, churn["checks"]
    assert churn["sim_metrics"]["success_frac"] > 0.9


@pytest.mark.xfail(strict=True, reason=(
    "a node restored before its neighbours declare it dead rejoins under a fresh code, "
    "and nothing reclaims the region it held"
))
def test_scale_churn_smoke_codes_tile_the_space(churn):
    assert churn["checks"]["codes_tile_the_space"]


def _line(digest, wall, rate, rss, failed=()):
    """A history line as ``run.main`` writes it, reduced to what ``gates`` reads."""
    tier = {"wall_s": wall, "messages_per_s": rate, "peak_rss_mb": rss}
    return {"sim_digest": digest, "tier": tier,
            "gates": {"passed": {name: name not in failed for name in tier}}}


def _gates_over(lines, monkeypatch, tmp_path, tier, digest):
    history = tmp_path / "BENCH_HISTORY.jsonl"
    history.write_text("".join(json.dumps(line) + "\n" for line in lines))
    monkeypatch.setattr(run, "HISTORY", str(history))
    return run.gates(tier, digest)


def test_gates_use_the_median_of_recent_same_digest_lines_that_kept_each_gate(
        monkeypatch, tmp_path):
    lines = [
        _line("d", 100.0, 1000.0, 500.0),
        _line("other", 10.0, 9000.0, 50.0),
        _line("d", 120.0, 900.0, 520.0),
        _line("d", 110.0, 1100.0, 480.0),
        # A slow spell: it failed the wall and rate gates, so only its RSS counts.
        _line("d", 400.0, 100.0, 400.0, failed=("wall_s", "messages_per_s")),
    ]
    tier = {"wall_s": 125.0, "messages_per_s": 950.0, "peak_rss_mb": 530.0}
    verdict = _gates_over(lines, monkeypatch, tmp_path, tier, "d")
    assert verdict["baseline"] == "same digest"
    assert verdict["wall_s_max"] == 121.0  # 1.1 x median(100, 120, 110)
    assert verdict["messages_per_s_min"] == 900.0  # 0.9 x median(1000, 900, 1100)
    assert verdict["peak_rss_mb_max"] == 528.0  # 1.1 x median(520, 480, 400)
    assert verdict["passed"] == {"wall_s": False, "messages_per_s": True, "peak_rss_mb": False}


def test_gates_for_a_new_digest_fall_back_to_the_last_lines_of_any_digest(
        monkeypatch, tmp_path):
    lines = [_line("a", 50.0, 5000.0, 100.0)] + [
        _line("b", wall, 1000.0, 1000.0) for wall in (100.0, 110.0, 120.0)
    ]
    slow = {"wall_s": 240.0, "messages_per_s": 450.0, "peak_rss_mb": 2000.0}
    verdict = _gates_over(lines, monkeypatch, tmp_path, slow, "new")
    assert verdict["baseline"] == "other digests"
    assert verdict["wall_s_max"] == 121.0
    assert not any(verdict["passed"].values())


def test_gates_on_an_empty_history_measure_the_run_against_itself(monkeypatch, tmp_path):
    tier = {"wall_s": 100.0, "messages_per_s": 1000.0, "peak_rss_mb": 500.0}
    verdict = _gates_over([], monkeypatch, tmp_path, tier, "d")
    assert verdict["baseline"] == "none"
    assert all(verdict["passed"].values())


def test_tree_names_head_when_clean_and_a_commit_of_the_worktree_when_dirty(
        monkeypatch, tmp_path):
    for variable in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{variable}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{variable}_EMAIL", "bench@example.invalid")
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=tmp_path, check=True,
                              capture_output=True, text=True).stdout.strip()

    assert run.tree(str(tmp_path)) is None  # not a repository
    git("init", "-q")
    (tmp_path / "timed.py").write_text("WORK = 1\n")
    git("add", "timed.py")
    git("commit", "-q", "-m", "seed")
    head = git("rev-parse", "HEAD")
    assert run.tree(str(tmp_path)) == head

    (tmp_path / "timed.py").write_text("WORK = 2\n")
    dirty = run.tree(str(tmp_path))
    assert dirty not in (None, head)
    assert git("cat-file", "-t", dirty) == "commit"
    assert git("show", f"{dirty}:timed.py") == "WORK = 2"
    assert git("status", "--porcelain") == "M timed.py"  # the worktree is untouched
    assert git("stash", "list") == ""


@pytest.mark.parametrize("variable,value", [
    ("REPRO_ISOLATE_MESSAGES", "freeze"),
    ("REPRO_SCHEDULE_FUZZ", "shuffle"),
    ("REPRO_TRACK_RESOURCES", "1"),
])
def test_run_py_refuses_a_sanitizer(variable, value, monkeypatch, tmp_path, capsys):
    history = tmp_path / "BENCH_HISTORY.jsonl"
    monkeypatch.setattr(run, "HISTORY", str(history))
    monkeypatch.setenv(variable, value)
    assert run.main([]) == 2
    assert variable in capsys.readouterr().err
    assert not history.exists()
