"""Declarative scenario specs and the parallel sweep runner.

Four layers (see ``ROADMAP.md`` and the module docstrings):

* **spec** — :class:`ScenarioSpec` (hashable, JSON-able, picklable) and
  :class:`ScenarioGrid` for cartesian sweep expansion;
* **execution** — :class:`SweepRunner` (process-pool parallelism with a
  serial fallback) over one executor, ``execute.execute_specs``, which
  runs every spec list, the one spec of :func:`execute_spec` included;
* **results** — :class:`RunRecord` persistence and the content-addressed
  :class:`RunCache`;
* **consumers** — every ``repro.experiments`` figure declares a grid and
  post-processes the records; ``hpcc-repro sweep`` drives grids from the
  shell.
"""

from .execute import (
    CDFS,
    PROGRAMS,
    TOPOLOGIES,
    build_topology,
    execute_spec,
    validate_specs,
    workload_cdf,
)
from .harness import generate_load_flows
from .journal import SweepJournal
from .results import FctTable, RunCache, RunRecord, write_records_csv
from .spec import (
    BACKENDS,
    CcChoice,
    ScenarioGrid,
    ScenarioSpec,
    axis,
    cc_axis,
    seed_axis,
)
from .sweep import SweepRunner, SweepTimeout, execute_unit

__all__ = [
    "BACKENDS",
    "CDFS",
    "CcChoice",
    "FctTable",
    "PROGRAMS",
    "RunCache",
    "RunRecord",
    "ScenarioGrid",
    "ScenarioSpec",
    "SweepJournal",
    "SweepRunner",
    "SweepTimeout",
    "TOPOLOGIES",
    "axis",
    "build_topology",
    "cc_axis",
    "execute_spec",
    "execute_unit",
    "generate_load_flows",
    "validate_specs",
    "workload_cdf",
    "seed_axis",
    "write_records_csv",
]
