"""The repo's benchmark: host time per simulated event, with every
simulated statistic pinned bit-identical (see perfbench/README.md).

Entry point: ``python3 perfbench/run.py`` (``BENCHMARK.json`` names it).
"""
