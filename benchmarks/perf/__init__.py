"""The repo's wall-clock + sim-clock benchmark (see README.md here).

Run ``python3 benchmarks/perf/run.py`` (or ``python -m benchmarks.perf``)
from the repo root. Nothing in here is imported by ``src/`` or ``tests/``.
"""
