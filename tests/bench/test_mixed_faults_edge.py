"""``mixed_faults`` at the edge of its operating envelope.

mindbench's README records where the workload's fault script tips into
expanding-ring storms: the first crash at 20 s instead of 40 s and crash
cycles 46 s apart instead of 50 s.  There ring probes were about half of
all messages when every routed op ran its own ring.  With one ring per
unreachable subtree they must stay a minority, and no op may fail.  The
workload is imported, not edited: the subclass only moves the script.
"""

import pytest

from benchmarks.mindbench import harness
from benchmarks.mindbench.workloads import MixedFaults
from repro import checks


class EdgeFaults(MixedFaults):
    """The fault script at the envelope edge, counting ring probes sent."""

    FAULT_FIRST_S = 20.0
    FAULT_EVERY_S = 46.0

    def run(self) -> None:
        net = self.cluster.network
        send = net.send_framed
        self.extras["ring_probes"] = 0

        def counting_send(msg, tuples, on_fail):
            if msg.kind == "ring_probe":
                self.extras["ring_probes"] += 1
            return send(msg, tuples, on_fail)

        net.send_framed = counting_send
        super().run()


@pytest.fixture
def timed_run(monkeypatch):
    """``run_replica`` refuses to run under a sanitizer; disarm them all."""
    for name in harness.SANITIZER_ENV:
        monkeypatch.delenv(name, raising=False)
    with checks.configure(
        validate=False, isolation=checks.ISOLATE_OFF, fuzz=checks.FUZZ_OFF, track_resources=False
    ):
        yield


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ring_probes_stay_a_minority_at_the_envelope_edge(seed, timed_run):
    # ``seconds=4.6`` keeps the cycles 46 s apart (the workload spaces them
    # at least 10 x seconds) and takes about 5 s of host time.
    result = harness.run_replica(EdgeFaults, seed, seconds=4.6)
    share = result["extras"]["ring_probes"] / result["counts"]["messages"]
    assert result["failed"] == 0
    assert result["correct"], result["checks"]
    assert share < 0.25, f"ring_probe is {share:.0%} of messages"
