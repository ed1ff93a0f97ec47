"""The network-dynamics timeline DSL.

A :class:`Timeline` is a declarative schedule of typed mid-run events —
the scenario class HPCC's Section 2.3 cares most about (DCQCN's traffic
oscillations during link failures) and the one PCC argues CC schemes
must be judged on: *changing* network conditions, not steady state.

Five event types cover the paper's dynamic scenarios:

* :class:`FailLink` — cut one link between two nodes (parallel links
  fail one at a time, like individual fibers);
* :class:`RestoreLink` — bring the oldest failed link of a pair back;
* :class:`DegradeLink` — scale a link's rate and/or propagation delay
  in place (a flaky optic, an oversubscribed tunnel) without touching
  routing;
* :class:`FlapLink` — a periodic fail/restore train (``count`` outages
  of ``down_time`` each, one per ``period``), the routing-instability
  scenario;
* :class:`InjectBurst` — a synchronized ``fan_in``-to-one incast pulse
  at a scheduled instant, for reaction-time studies.

Timelines are pure data: they round-trip through JSON (so they live on
:class:`~repro.runner.spec.ScenarioSpec` as the hash-distinct
``dynamics`` field), sort themselves by time, validate eagerly, and
expand composites (flaps) into primitives that both execution backends
interpret identically.  :func:`dynamics_axis` turns a list of timelines
into a sweep axis, so fault schedules vary across a grid like any other
parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Callable, Iterable

from ..sim.flow import FlowSpec

__all__ = [
    "DegradeLink",
    "DynEvent",
    "EVENT_TYPES",
    "FailLink",
    "FlapLink",
    "InjectBurst",
    "RestoreLink",
    "Timeline",
    "burst_flow_specs",
    "dynamics_axis",
]


@dataclass(frozen=True)
class DynEvent:
    """Base of every timeline event: a typed record with a fire time."""

    at: float                           # ns

    kind = ""                           # overridden per subclass

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError(f"{self.kind}: event time must be >= 0, got {self.at}")

    def to_json(self) -> dict:
        data = {"type": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                data[f.name] = value
        return data

    @classmethod
    def from_json(cls, data: dict) -> "DynEvent":
        kwargs = {k: v for k, v in data.items() if k != "type"}
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - names)
        if unknown:
            raise ValueError(f"{cls.kind}: unknown fields {unknown}")
        return cls(**kwargs)


@dataclass(frozen=True)
class _LinkEvent(DynEvent):
    """An event targeting one link between nodes ``a`` and ``b``."""

    a: int = -1
    b: int = -1

    def validate(self) -> None:
        super().validate()
        if self.a < 0 or self.b < 0 or self.a == self.b:
            raise ValueError(
                f"{self.kind}: needs two distinct node ids, got ({self.a}, {self.b})"
            )


@dataclass(frozen=True)
class FailLink(_LinkEvent):
    kind = "fail_link"


@dataclass(frozen=True)
class RestoreLink(_LinkEvent):
    kind = "restore_link"


@dataclass(frozen=True)
class DegradeLink(_LinkEvent):
    """Scale a link's rate and/or delay (factors apply to current values)."""

    kind = "degrade_link"

    rate_factor: float | None = None
    delay_factor: float | None = None

    def validate(self) -> None:
        super().validate()
        if self.rate_factor is None and self.delay_factor is None:
            raise ValueError("degrade_link: set rate_factor and/or delay_factor")
        if self.rate_factor is not None and self.rate_factor <= 0:
            raise ValueError(
                f"degrade_link: rate_factor must be positive, got {self.rate_factor}"
            )
        if self.delay_factor is not None and self.delay_factor <= 0:
            raise ValueError(
                f"degrade_link: delay_factor must be positive, got {self.delay_factor}"
            )


@dataclass(frozen=True)
class FlapLink(_LinkEvent):
    """``count`` outages of ``down_time`` each, starting every ``period``."""

    kind = "flap_link"

    period: float = 0.0
    down_time: float = 0.0
    count: int = 1

    def validate(self) -> None:
        super().validate()
        if self.down_time <= 0:
            raise ValueError(
                f"flap_link: down_time must be positive, got {self.down_time}"
            )
        if self.count < 1:
            raise ValueError(f"flap_link: count must be >= 1, got {self.count}")
        if self.count > 1 and self.period <= self.down_time:
            raise ValueError(
                "flap_link: period must exceed down_time "
                f"(got period={self.period}, down_time={self.down_time})"
            )

    def primitives(self) -> list[_LinkEvent]:
        """The flap as an alternating fail/restore train."""
        out: list[_LinkEvent] = []
        for i in range(self.count):
            start = self.at + i * self.period
            out.append(FailLink(at=start, a=self.a, b=self.b))
            out.append(RestoreLink(at=start + self.down_time, a=self.a, b=self.b))
        return out


@dataclass(frozen=True)
class InjectBurst(DynEvent):
    """A synchronized incast pulse: ``fan_in`` flows of ``flow_size`` into
    ``dst`` at time ``at`` (senders drawn deterministically from the seed)."""

    kind = "inject_burst"

    dst: int = -1
    fan_in: int = 0
    flow_size: int = 0
    tag: str = "burst"

    def validate(self) -> None:
        super().validate()
        if self.dst < 0:
            raise ValueError(f"inject_burst: dst must be a host id, got {self.dst}")
        if self.fan_in < 1:
            raise ValueError(f"inject_burst: fan_in must be >= 1, got {self.fan_in}")
        if self.flow_size <= 0:
            raise ValueError(
                f"inject_burst: flow_size must be positive, got {self.flow_size}"
            )


EVENT_TYPES: dict[str, type[DynEvent]] = {
    cls.kind: cls
    for cls in (FailLink, RestoreLink, DegradeLink, FlapLink, InjectBurst)
}


class Timeline:
    """An immutable, time-sorted schedule of dynamics events.

    ``detection_delay`` models routing-protocol reaction time: a link
    state change takes effect on the data plane immediately (packets
    drop, capacity moves) but routing reconverges only ``detection_delay``
    ns later — 0 (the default) reconverges at the event instant.
    """

    __slots__ = ("events", "detection_delay")

    def __init__(
        self,
        events: Iterable[DynEvent] = (),
        detection_delay: float = 0.0,
    ) -> None:
        ordered = sorted(events, key=lambda e: e.at)   # stable for ties
        for event in ordered:
            if not isinstance(event, DynEvent):
                raise TypeError(f"not a dynamics event: {event!r}")
            event.validate()
        if detection_delay < 0:
            raise ValueError(
                f"detection_delay must be >= 0, got {detection_delay}"
            )
        self.events: tuple[DynEvent, ...] = tuple(ordered)
        self.detection_delay = float(detection_delay)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(e.kind for e in self.events)
        return f"Timeline([{kinds}], detection_delay={self.detection_delay})"

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "events": [event.to_json() for event in self.events],
            "detection_delay": self.detection_delay,
        }

    @classmethod
    def from_json(cls, data: dict | list) -> "Timeline":
        """Parse ``{"events": [...], "detection_delay"?}`` (or a bare
        event list)."""
        if isinstance(data, list):
            data = {"events": data}
        events = []
        for entry in data.get("events", ()):
            kind = entry.get("type")
            event_cls = EVENT_TYPES.get(kind)
            if event_cls is None:
                known = ", ".join(sorted(EVENT_TYPES))
                raise ValueError(f"unknown dynamics event {kind!r}; known: {known}")
            events.append(event_cls.from_json(entry))
        return cls(events, detection_delay=data.get("detection_delay", 0.0))

    # -- expansion ---------------------------------------------------------------

    def primitives(self) -> list[tuple[int, DynEvent]]:
        """Every event as primitives, time-sorted: ``(origin index, event)``.

        Flaps expand into their fail/restore trains; the origin index
        points back into :attr:`events` so accounting can attribute an
        expanded primitive to its composite.
        """
        out: list[tuple[int, DynEvent]] = []
        for idx, event in enumerate(self.events):
            if isinstance(event, FlapLink):
                out.extend((idx, prim) for prim in event.primitives())
            else:
                out.append((idx, event))
        out.sort(key=lambda pair: pair[1].at)
        return out


# -- burst materialization --------------------------------------------------------

def burst_flow_specs(
    timeline: Timeline,
    hosts: Iterable[int],
    seed: int,
    next_flow_id: int,
) -> tuple[list[FlowSpec], list[dict]]:
    """Materialize every :class:`InjectBurst` as concrete flow specs.

    Senders are drawn with a deterministic per-event RNG, so the packet
    and fluid backends (which both call this with the same arguments)
    inject the *identical* burst population.  Returns ``(flow specs,
    accounting entries)``; entries carry the flow ids for
    ``RunRecord.link_events()`` and get their ``fired`` flag set by the
    driver once the run's end time is known.
    """
    host_list = list(hosts)
    specs: list[FlowSpec] = []
    entries: list[dict] = []
    for idx, event in enumerate(timeline.events):
        if not isinstance(event, InjectBurst):
            continue
        candidates = [h for h in host_list if h != event.dst]
        if event.fan_in > len(candidates):
            raise ValueError(
                f"inject_burst: fan_in {event.fan_in} exceeds the "
                f"{len(candidates)} available senders"
            )
        rng = random.Random((seed * 1_000_003 + idx) & 0xFFFFFFFF)
        srcs = rng.sample(candidates, event.fan_in)
        flow_ids = []
        for src in srcs:
            specs.append(FlowSpec(
                flow_id=next_flow_id, src=src, dst=event.dst,
                size=event.flow_size, start_time=event.at, tag=event.tag,
            ))
            flow_ids.append(next_flow_id)
            next_flow_id += 1
        entries.append({
            "type": event.kind, "time": event.at, "dst": event.dst,
            "fan_in": event.fan_in, "tag": event.tag, "fired": False,
            "flow_ids": flow_ids,
        })
    return specs, entries


# -- sweep integration ------------------------------------------------------------

def dynamics_axis(
    timelines: Iterable[Timeline | dict],
    label: Callable[[int, Timeline], str] | None = None,
) -> list[dict]:
    """A sweep axis varying the fault schedule.

    Each grid cell gets one timeline; ``label`` (optional) derives the
    spec label from ``(index, timeline)`` so sweeps stay readable::

        grid = ScenarioGrid(base, cc_axis(SCHEMES),
                            dynamics_axis(timelines, lambda i, t: f"flap{i}"))
    """
    axis = []
    for idx, timeline in enumerate(timelines):
        if isinstance(timeline, dict):
            timeline = Timeline.from_json(timeline)
        entry: dict = {"dynamics": timeline}
        if label is not None:
            entry["label"] = label(idx, timeline)
        axis.append(entry)
    return axis
