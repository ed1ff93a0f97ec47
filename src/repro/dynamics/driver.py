"""The timeline driver: one :class:`Timeline` onto one engine.

Schedules every primitive of a :class:`~repro.dynamics.events.Timeline`
on an engine and keeps per-event accounting.  The data plane and the
control plane react at different times, as in a real fabric:

* a link cut (or recovery) takes effect at the event instant — traffic
  serialized into a dead packet link is lost and counted, a dead fluid
  member's capacity leaves its pool and its share of queued fluid is
  flushed;
* routing reconverges ``detection_delay`` later (0 by default), and the
  engine's reconvergence report lands in the event's accounting entry.

The engine is anything with the link methods of
:class:`~repro.network.Network` and
:class:`~repro.fluid.engine.FluidEngine`: ``fail_link(a, b)`` returns an
outage handle whose ``packets_lost_down`` is that outage's loss,
``restore_link(a, b)`` returns the handle of the outage it closes (so a
restore pairs with its own cut even on a parallel trunk), and
``degrade_link`` returns the entry fields it produces.  ``at(time, fn)``
schedules on the engine's calendar, ``now()`` reads its clock, and
``reconverge(handle)`` returns the fields a detection produces:
``Network.reconverge`` itself, or on fluid ``{"reroutes": n}`` around
``FluidEngine.reconverge``, whose bare count the scalar oracle
(``tests/fluid_reference.py``) is compared on.

With ``detection_delay == 0`` cut and reconvergence share one scheduled
callback: the event structure (and therefore ``events_processed``) the
golden determinism fixtures pin.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .events import DegradeLink, FailLink, RestoreLink, Timeline

__all__ = ["TimelineDriver"]


class TimelineDriver:
    """Installs one timeline onto one engine (see the module docstring)."""

    def __init__(
        self,
        engine,
        timeline: Timeline,
        burst_entries: list[dict],
        at: Callable[[float, Callable[[], None]], object],
        now: Callable[[], float],
        reconverge: Callable[[object], dict],
    ) -> None:
        self.engine = engine
        self.timeline = timeline
        self.at = at
        self.now = now
        self.reconverge = reconverge
        self.entries: list[dict] = []
        self._burst_entries = list(burst_entries)
        #: outage handle -> the fail entry it opened, while it is open.
        self._open_outages: dict[object, dict] = {}

    def install(self) -> None:
        """Schedule every primitive event, one callback each, in
        ``primitives()`` order.

        Burst flows are *not* scheduled here — they are ordinary flow
        specs (see :func:`~repro.dynamics.events.burst_flow_specs`) the
        program adds alongside the workload; the driver only tracks
        their accounting entries.
        """
        for _origin, event in self.timeline.primitives():
            if isinstance(event, (FailLink, RestoreLink)):
                entry = self._link_entry(event)
                entry["packets_lost_down"] = 0
                fire = (self._fire_fail if isinstance(event, FailLink)
                        else self._fire_restore)
            elif isinstance(event, DegradeLink):
                entry = self._link_entry(event)
                entry["rate_factor"] = event.rate_factor
                entry["delay_factor"] = event.delay_factor
                fire = self._fire_degrade
            else:
                # InjectBurst primitives carry no scheduled action: their
                # flows start themselves.
                continue
            self.at(event.at, partial(fire, event, entry))
        self.entries.extend(self._burst_entries)
        self.entries.sort(key=lambda e: e["time"])

    def _link_entry(self, event) -> dict:
        entry = {
            "type": event.kind, "time": event.at,
            "a": event.a, "b": event.b, "fired": False,
        }
        self.entries.append(entry)
        return entry

    # -- event callbacks ---------------------------------------------------------

    def _fire_fail(self, event: FailLink, entry: dict) -> None:
        entry["fired"] = True
        outage = self.engine.fail_link(event.a, event.b)
        self._open_outages[outage] = entry
        self._detect(entry, outage)

    def _fire_restore(self, event: RestoreLink, entry: dict) -> None:
        entry["fired"] = True
        outage = self.engine.restore_link(event.a, event.b)
        fail_entry = self._open_outages.pop(outage)
        entry["packets_lost_down"] = fail_entry["packets_lost_down"] = (
            outage.packets_lost_down)
        self._detect(entry, outage)

    def _fire_degrade(self, event: DegradeLink, entry: dict) -> None:
        entry["fired"] = True
        entry.update(self.engine.degrade_link(
            event.a, event.b,
            rate_factor=event.rate_factor,
            delay_factor=event.delay_factor,
        ))

    def _detect(self, entry: dict, outage) -> None:
        delay = self.timeline.detection_delay
        if delay > 0.0:
            self.at(self.now() + delay,
                    partial(self._reconverge, entry, outage))
        else:
            self._reconverge(entry, outage)

    def _reconverge(self, entry: dict, outage) -> None:
        entry["detected_at"] = self.now()
        entry.update(self.reconverge(outage))

    # -- results -----------------------------------------------------------------

    def report(self) -> list[dict]:
        """The accounting entries, after the run.

        Closes still-open outages (a cut with no matching restore keeps
        its loss to the end of the run) and resolves burst ``fired``
        flags against the final clock.
        """
        for outage, fail_entry in self._open_outages.items():
            fail_entry["packets_lost_down"] = outage.packets_lost_down
        now = self.now()
        for entry in self._burst_entries:
            entry["fired"] = entry["time"] <= now
        return self.entries
