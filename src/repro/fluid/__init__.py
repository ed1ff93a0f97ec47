"""Fluid-model fast path: flow-level simulation of the paper's schemes.

A second execution backend next to the packet-level simulator: per-flow
sending rates advance in RTT-granularity steps, links aggregate rates
into utilization and queue growth, and the *same* ``repro.core``
congestion-control algorithms close the loop through per-scheme adapters
(HPCC's INT inputs are computed analytically from the fluid state).

Select it per scenario with ``ScenarioSpec(backend="fluid")`` or from
the shell with ``hpcc-repro sweep --backend fluid``; see README's
"Simulation backends" for the fidelity trade-offs.
"""

# The engine first, so numpy loads from inside it: loaded from the
# adapters instead, it left packet-only runs ~1 MiB higher in peak RSS
# (the ledger's packet_fig11 at a fixed pass count, 40.5 vs 41.4 MiB).
from .engine import FluidBatch, FluidEngine, FluidFlow
from .adapters import (
    ADAPTER_FAMILIES,
    FlowProxy,
    RateAdapter,
    StepSignals,
    adapter_for,
    fluid_supported,
)
from .goodput import GoodputRecorder
from .state import FluidGraph, FluidLink, FluidPath, LinkArrays

__all__ = [
    "ADAPTER_FAMILIES",
    "FluidBatch",
    "FluidEngine",
    "FluidFlow",
    "GoodputRecorder",
    "LinkArrays",
    "FluidGraph",
    "FluidLink",
    "FluidPath",
    "FlowProxy",
    "RateAdapter",
    "StepSignals",
    "adapter_for",
    "fluid_supported",
]
