"""The repro benchmark: workloads, span tracer and runner (see run.py)."""
