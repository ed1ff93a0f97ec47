"""Network dynamics: declarative fault injection and reconvergence.

The subsystem has two layers:

* **timeline DSL** (:mod:`repro.dynamics.events`) — typed mid-run events
  (``fail_link``, ``restore_link``, ``degrade_link``, ``flap_link``,
  ``inject_burst``) composed into a :class:`Timeline`: pure data, JSON
  round-trip, the hash-distinct ``dynamics`` field of a
  :class:`~repro.runner.spec.ScenarioSpec`, sweepable via
  :func:`dynamics_axis`;
* **timeline driver** (:mod:`repro.dynamics.driver`) — one
  :class:`TimelineDriver` schedules the primitives on either engine's
  calendar: link state changes hit the data plane (packet links, pooled
  fluid capacities) at the event instant, and routing reconverges after
  the timeline's ``detection_delay`` — on packet through the scoped
  incremental recompute in :class:`repro.sim.routing.RoutingState`, on
  fluid by recomputing every flow's path.  The engine's own link
  methods hold everything that differs.

The driver emits one accounting shape into
``RunRecord.extras["link_events"]`` (fired flags, symmetric
``packets_lost_down`` on fail *and* restore, reroute counts, detection
timestamps), so post-processing is backend-neutral.
"""

from .events import (
    EVENT_TYPES,
    DegradeLink,
    DynEvent,
    FailLink,
    FlapLink,
    InjectBurst,
    RestoreLink,
    Timeline,
    burst_flow_specs,
    dynamics_axis,
)
from .driver import TimelineDriver

__all__ = [
    "EVENT_TYPES",
    "DegradeLink",
    "DynEvent",
    "FailLink",
    "FlapLink",
    "InjectBurst",
    "RestoreLink",
    "Timeline",
    "TimelineDriver",
    "burst_flow_specs",
    "dynamics_axis",
]
