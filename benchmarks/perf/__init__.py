"""The 1000-node / 1M-record scale tier, run on mindbench's workload base.

``python -m benchmarks.perf.run`` runs it and appends one line to
``BENCH_HISTORY.jsonl``; ``--smoke`` checks the same path in seconds.
"""
