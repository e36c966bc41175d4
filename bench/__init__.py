"""Benchmark of the SENSEI reproduction: five workloads, a traced per-layer
run and a gain/regression comparison.  See ``bench/README.md``; run with
``python -m bench`` from the repository root."""
