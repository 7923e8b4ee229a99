"""Benchmark harness for zenolab: seeded workloads, output gates and tracing.

The package drives zenolab through its public Python API from one process.
`run.py` next to this package is the command-line entry point.
"""
