"""The simulation mindbench measures is the one its golden digests pin.

Each workload's ``--smoke --seed 1`` ``sim_digest`` (message, byte and
kernel-event counts as well as latencies) must equal the value in
``mindbench_smoke_digests.json``: what ``GOLDEN_DIGEST`` does for the
kernel, on the coalescing engine too and with retries and a failover in
it (``mixed_faults``).  A change that only restructures or speeds up the
simulator leaves all four identical; re-record the file only in a change
that means to alter the modelled behaviour, and say so.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((Path(__file__).parent / "mindbench_smoke_digests.json").read_text())


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_smoke_sim_digest_equals_golden(workload, tmp_path):
    out = tmp_path / "result.json"
    # The harness refuses to run under a sanitizer, and the suite (or CI's
    # fuzz / ledger / freeze jobs) may have them set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "mindbench" / "run.py"),
            "--workload", workload, "--smoke", "--seed", "1", "--out", str(out),
        ],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(out.read_text())["sim_digest"] == GOLDEN[workload]
