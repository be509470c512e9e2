"""Plumbing checks for mindbench (``python -m pytest benchmarks/mindbench``).

Not part of tier-1 ``testpaths``: these run the smoke sizes in fresh
processes (about half a minute in total) and assert the contract the
driver relies on, not performance.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.mindbench import compare, harness, layers, workloads  # noqa: E402
from repro.net import protocol  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SIM_METRICS = ("insert_p50_s", "insert_p90_s", "query_p50_s", "query_p90_s",
               "success_frac", "full_recall_frac")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_py(workload, seed=1, trace=0, env=None, out=None):
    """Run ``run.py --smoke`` as the driver would; return (code, last-line object)."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, **(env or {})), timeout=170)
    lines = proc.stdout.strip().splitlines()
    last = None
    if lines and lines[-1].startswith("{"):
        last = json.loads(lines[-1])
    return proc.returncode, last


@pytest.fixture(scope="module")
def smoke_runs():
    return {w["name"]: run_py(w["name"]) for w in SPEC["workloads"]}


def test_spec_names_are_well_formed_and_match_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == [cls.name for cls in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]


def test_every_workload_emits_every_end_to_end_metric(smoke_runs):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload, (code, line) in smoke_runs.items():
        assert code == 0, workload
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected, workload
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    code, line = run_py("rebalance_day", trace=1)
    assert code == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert line["metrics"]["core.rebalance_s"]["value"] > 0
    assert line["metrics"]["storage.scan_calls"]["value"] > 0


def test_same_seed_is_bit_exact_and_another_seed_is_not(tmp_path):
    results = []
    for i, seed in enumerate((1, 1, 2)):
        code, line = run_py("mixed_faults", seed=seed, out=tmp_path / f"{i}.json")
        assert code == 0
        with open(tmp_path / f"{i}.json") as fh:
            results.append((line["metrics"], json.load(fh)["sim_digest"]))
    (first, digest), (again, digest_again), (other, digest_other) = results
    assert digest == digest_again != digest_other
    for name in SIM_METRICS:
        assert first[name] == again[name], name
    assert any(first[name] != other[name] for name in SIM_METRICS)


@pytest.mark.parametrize("variable", harness.SANITIZER_ENV)
def test_refuses_to_time_under_a_sanitizer(variable):
    value = "shuffle" if variable == "REPRO_SCHEDULE_FUZZ" else "1"
    code, line = run_py("insert_steady", env={variable: value})
    assert code != 0 and line is None


def test_output_check_catches_phantom_and_missing_records():
    protocol.set_validation(False)
    workload = workloads.QueryScan(3, 1, smoke=True)
    workload.setup()
    workload.run()
    loop, rows = workload.loop, workload.timed_queries
    clean = harness.verify_queries(loop, rows)
    assert clean == {"full_recall": len(rows), "phantom": 0}
    victim = next(j for j in rows if loop.q_keys[j])
    dropped = loop.q_keys[victim].pop()
    assert harness.verify_queries(loop, rows)["full_recall"] == len(rows) - 1
    loop.q_keys[victim].add(dropped)
    loop.q_keys[victim].add(10**9)
    assert harness.verify_queries(loop, rows)["phantom"] == 1


def test_compare_verdicts():
    higher = {"better": "higher", "bound": 0.1}
    assert compare.verdict(higher, 100.0, 103.0, 0.02) == "unchanged"
    assert compare.verdict(higher, 100.0, 80.0, 0.02) == "worse"
    assert compare.verdict(higher, 100.0, 120.0, 0.02) == "better"
    assert compare.verdict(higher, 100.0, 80.0, 0.15) == "unresolved"
    lower = {"better": "lower", "bound": 0.1}
    assert compare.verdict(lower, 1.0, 1.2, 0.0) == "worse"
