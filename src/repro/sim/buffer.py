"""Shared switch-buffer accounting.

Commodity switching ASICs pool packet memory across all ports.  Admission
control and PFC thresholds are computed against this shared pool:

* in **lossless** mode (PFC on), packets are only dropped on hard pool
  overflow — PFC is expected to prevent that, and the drop counter flags a
  mis-configured headroom;
* in **lossy** mode (go-back-N / IRN without PFC, Figure 12), each egress
  queue is capped by a *dynamic threshold*: ``alpha x free buffer``
  (footnote 6 of the paper uses ``alpha = 1``).

Every admitted packet is accounted against its ingress (port, priority) —
which PFC watches — and its egress port — which the dynamic threshold
watches — until it is emitted downstream.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class BufferConfig:
    total_bytes: int
    lossy: bool = False
    dynamic_alpha: float = 1.0   # egress dynamic threshold (lossy mode only;
                                 # footnote 6: alpha = 1)

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ValueError(f"buffer must be positive, got {self.total_bytes}")
        if self.dynamic_alpha <= 0:
            raise ValueError(f"dynamic_alpha must be positive, got {self.dynamic_alpha}")


class SharedBuffer:
    """Byte-accurate shared-pool accounting for one switch."""

    def __init__(self, config: BufferConfig) -> None:
        self.config = config
        self.used = 0
        self._ingress: dict[tuple[int, int], int] = defaultdict(int)
        self._egress: dict[int, int] = defaultdict(int)
        self.drops = 0
        self.peak_used = 0
        # BufferConfig is frozen: snapshot what the per-packet path reads.
        self._total = config.total_bytes
        self._lossy = config.lossy
        self._alpha = config.dynamic_alpha

    @property
    def free_bytes(self) -> int:
        free = self._total - self.used
        return free if free > 0 else 0

    def ingress_usage(self, in_port: int, priority: int = 0) -> int:
        return self._ingress[(in_port, priority)]

    def egress_usage(self, out_port: int) -> int:
        return self._egress[out_port]

    def egress_limit(self) -> float:
        """Dynamic-threshold cap for any one egress queue (lossy mode)."""
        return self._alpha * self.free_bytes

    def admits(self, out_port: int, size: int) -> bool:
        """Would a packet of ``size`` bytes bound for ``out_port`` be accepted?"""
        if self.used + size > self._total:
            return False
        if self._lossy and self._egress[out_port] + size > self.egress_limit():
            return False
        return True

    def occupy(self, in_port: int, out_port: int, priority: int, size: int) -> bool:
        """Admit and account a packet; returns False (and counts a drop) if refused."""
        if not self.admits(out_port, size):
            self.drops += 1
            return False
        self.used += size
        if self.used > self.peak_used:
            self.peak_used = self.used
        self._ingress[(in_port, priority)] += size
        self._egress[out_port] += size
        return True

    def release(self, in_port: int, out_port: int, priority: int, size: int) -> None:
        self.used -= size
        self._ingress[(in_port, priority)] -= size
        self._egress[out_port] -= size
        if self.used < 0 or self._ingress[(in_port, priority)] < 0:
            raise AssertionError("buffer accounting went negative")
