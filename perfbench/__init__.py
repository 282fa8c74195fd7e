"""The repo's benchmark: four named workloads, best-of-k cycle metrics and a
harness-side layer ledger.  See ``perfbench/README.md``; run ``perfbench/run.py``.
"""
