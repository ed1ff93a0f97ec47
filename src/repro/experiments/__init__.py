"""One driver per paper figure plus the Appendix A experiments.

Each module declares its figure as a scenario grid — ``scenarios(scale=...,
seed=...)`` returns :class:`~repro.runner.ScenarioSpec` lists — and exposes
``run_figureNN(scale=...)`` (executes the grid through a
:class:`~repro.runner.SweepRunner` and post-processes the records into a
result dataclass) plus a ``main(scale=...)`` that prints the paper-style
table.  Run any of them as ``python -m repro.experiments.figureNN`` or via
the ``hpcc-repro`` CLI; ``hpcc-repro sweep`` executes whole grids in
parallel with caching.
"""

from . import (
    appendix_a,
    common,
    failover,
    figure01,
    figure02,
    figure03,
    figure06,
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    flapping,
    linkfail,
)

__all__ = [
    "appendix_a",
    "common",
    "failover",
    "figure01",
    "figure02",
    "figure03",
    "figure06",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "flapping",
    "linkfail",
]
