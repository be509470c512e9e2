"""The scale tier of ``benchmarks/perf/run.py`` at smoke size, and its refusals.

The workloads run in-process through mindbench's ``run_replica``, which
refuses to time under a runtime sanitizer, so every sanitizer is disarmed
around them as ``test_mixed_faults_edge.py`` does.
"""

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


@pytest.mark.parametrize("variable,value", [
    ("REPRO_ISOLATE_MESSAGES", "copy"),
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
