"""Priority flow control (PFC, IEEE 802.1Qbb).

A lossless RoCEv2 fabric pauses the upstream transmitter when an ingress
queue grows past a threshold.  The paper configures a *dynamic* threshold:
"PFC is triggered when an ingress queue consumes more than 11% of the free
buffer" (Section 5.1).  Pauses propagate: a paused egress port backs up its
own ingress queues, which can pause the next hop upstream — the pause trees
measured in Figure 1.

This module holds the pause decision logic (:class:`PfcController`, one per
switch) and the pause bookkeeping (:class:`PauseTracker`, one per network)
used by ``repro.metrics.pfcstats`` to reproduce Figure 1 and the pause-time
bars of Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PfcConfig:
    """PFC trigger configuration.

    ``dynamic_alpha`` is the fraction of the currently-free shared buffer an
    ingress (port, priority) may hold before XOFF is sent.  XON is sent once
    usage falls below ``xon_fraction`` of the XOFF threshold.

    No headroom is reserved for bytes already in flight when XOFF goes
    out, so a small buffer still drops: three 100 KB HPCC flows into one
    host of a 100 Gbps star (``base_rtt`` 9 us, these defaults) drop 54
    packets with a 20 KB buffer, 12 with 50 KB and none from 100 KB up.
    """

    enabled: bool = True
    dynamic_alpha: float = 0.11
    xon_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.dynamic_alpha <= 0:
            raise ValueError(f"dynamic_alpha must be positive, got {self.dynamic_alpha}")
        if not 0.0 < self.xon_fraction <= 1.0:
            raise ValueError(f"xon_fraction must be in (0, 1], got {self.xon_fraction}")


@dataclass
class PauseInterval:
    """One contiguous interval during which an egress port was paused."""

    device: int
    port: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PauseTracker:
    """Records every pause interval across the network."""

    intervals: list[PauseInterval] = field(default_factory=list)
    _open: dict[tuple[int, int], float] = field(default_factory=dict)
    pause_frames_sent: int = 0
    resume_frames_sent: int = 0

    def on_paused(self, device: int, port: int, now: float) -> None:
        self._open.setdefault((device, port), now)

    def on_resumed(self, device: int, port: int, now: float) -> None:
        start = self._open.pop((device, port), None)
        if start is not None:
            self.intervals.append(PauseInterval(device, port, start, now))

    def finalize(self, now: float) -> None:
        """Close any pauses still open at the end of the run."""
        for (device, port), start in list(self._open.items()):
            self.intervals.append(PauseInterval(device, port, start, now))
        self._open.clear()

    def total_pause_time(self, devices: set[int] | None = None) -> float:
        return sum(
            iv.duration
            for iv in self.intervals
            if devices is None or iv.device in devices
        )

    def pause_count(self) -> int:
        return len(self.intervals)


class PfcController:
    """Per-switch PFC state machine.

    The owning switch calls :meth:`on_ingress_change` after every ingress
    admission or release; the controller decides whether to send PAUSE or
    RESUME frames on the corresponding input port.  (A packet admitted
    and released in one go — ``Switch.receive``'s one-frame hop — leaves
    the occupancy as it found it, so the switch asks once, and only when
    an answer other than "nothing" is possible.)

    XOFF at ``dynamic_alpha × free`` reserves no headroom for what is
    already on the wire, so PFC is lossless only while the free buffer
    absorbs one pause round trip of arrivals (see :class:`PfcConfig`
    for measured drops).
    """

    def __init__(self, switch, config: PfcConfig, tracker: PauseTracker | None) -> None:
        self.switch = switch
        self.config = config
        self.tracker = tracker
        self._pausing: set[tuple[int, int]] = set()
        # PfcConfig is frozen: snapshot the knobs the per-packet path reads
        # (on_ingress_change runs twice per queued packet).
        self._enabled = config.enabled
        self._alpha = config.dynamic_alpha
        self._xon_fraction = config.xon_fraction

    def xoff_threshold(self) -> float:
        """Current XOFF threshold in bytes (depends on free buffer)."""
        free = self.switch.buffer.free_bytes
        return self._alpha * free

    def on_ingress_change(self, in_port: int, priority: int) -> None:
        if not self._enabled:
            return
        buffer = self.switch.buffer
        usage = buffer.ingress_usage(in_port, priority)
        threshold = self._alpha * buffer.free_bytes
        key = (in_port, priority)
        if key not in self._pausing:
            if usage > threshold:
                self._pausing.add(key)
                self.switch.send_pause(in_port, priority, pause=True)
                if self.tracker is not None:
                    self.tracker.pause_frames_sent += 1
        else:
            if usage < threshold * self._xon_fraction:
                self._pausing.discard(key)
                self.switch.send_pause(in_port, priority, pause=False)
                if self.tracker is not None:
                    self.tracker.resume_frames_sent += 1

    def is_pausing(self, in_port: int, priority: int = 0) -> bool:
        return (in_port, priority) in self._pausing
