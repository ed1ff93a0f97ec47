"""Benchmark configuration.

The benches here time whole workloads (engine throughput, overhead
gates, backend speed ratios) and assert their bounds.  Runs are full
experiments, so every benchmark executes exactly once (pedantic, one
round).  The paper's claims are refdata checks under
``src/repro/report/refdata/``, scored by ``hpcc-repro report``.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )
