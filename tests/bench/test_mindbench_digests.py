"""The simulation mindbench measures is the one its golden digests pin.

Each workload's ``--smoke --seed 1`` ``sim_digest`` (message, byte and
kernel-event counts as well as latencies) must equal the value in
``mindbench_smoke_digests.json``: what ``GOLDEN_DIGEST`` does for the
kernel, on the coalescing engine too and with retries and a failover in
it (``mixed_faults``).  A change that only restructures or speeds up the
simulator leaves all four identical; re-record the file only in a change
that means to alter the modelled behaviour, and say so::

    python -m tests.bench.test_mindbench_digests
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).parent / "mindbench_smoke_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def smoke_digest(workload: str, out_dir) -> str:
    """``sim_digest`` of one ``--smoke --seed 1`` run of ``workload``."""
    out = Path(out_dir) / f"{workload}.json"
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
    return json.loads(out.read_text())["sim_digest"]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_smoke_sim_digest_equals_golden(workload, tmp_path):
    assert smoke_digest(workload, tmp_path) == GOLDEN[workload]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {workload: smoke_digest(workload, tmp) for workload in sorted(GOLDEN)}
    for workload, digest in recorded.items():
        print(f"{workload}: {GOLDEN[workload]} -> {digest}")
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
