"""mindbench: the benchmark of record for the MIND simulator.

Four named workloads, nine end-to-end metrics and a per-layer cost
ledger, all measured from outside ``src/repro`` through its public
functions.  ``BENCHMARK.json`` at the repository root describes the
contract; ``README.md`` in this directory explains every choice.

Entry points:

* ``python3 benchmarks/mindbench/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one measured run of one workload (what the driver
  calls).
* ``PYTHONPATH=src python -m benchmarks.mindbench run --seed N`` — every
  workload, each in a fresh process, printed by metric name.
* ``python -m benchmarks.mindbench compare A.json B.json``.
"""
