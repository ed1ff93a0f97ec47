"""Benchmark configuration.

Each benchmark regenerates one of the paper's figures at bench scale,
prints the same tables ``hpcc-repro run FIG`` prints, and asserts the
figure's *shape* (who wins, roughly by how much, where crossovers fall)
over the figure's ``FigureRender`` — ``stats`` keys and panel series.
Runs are full experiments, so every benchmark executes exactly once
(pedantic, one round).
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )


def run_figure(benchmark, module, scenarios=None, **grid):
    """Expand ``module``'s grid (or one of its partial ``scenarios``
    functions), run it once, print and return its ``FigureRender``."""
    # Imported here: pytest also loads this conftest for benchmarks/ledger,
    # which runs without src/ on the path.
    from repro.report.text import format_render
    from repro.runner import SweepRunner

    def build():
        specs = (scenarios or module.scenarios)(**grid)
        return module.render(specs, SweepRunner().run(specs))

    fig = run_once(benchmark, build)
    print()
    print(format_render(fig))
    return fig
