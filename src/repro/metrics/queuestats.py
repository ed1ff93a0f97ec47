"""Queue-length sampling.

The paper reports switch queue lengths as CDFs (Figures 9f, 10b, 10d, 14b)
and as time series (Figures 6, 9a-9d, 13b).  The sampler polls selected
egress ports on a fixed period — the same approach as the testbed's buffer
watermark polling.
"""

from __future__ import annotations

from ..sim.engine import PeriodicTask, Simulator
from ..sim.queues import EgressPort


class QueueSampler:
    """Periodically samples the queue length of a set of probes, each the
    egress ports of one node pair: a parallel pair's probe reads the sum
    of its member ports' queues, as the fluid engine's pooled link does."""

    def __init__(
        self,
        sim: Simulator,
        ports: dict[str, list[EgressPort]],
        interval: float,
        start_delay: float | None = None,
    ) -> None:
        if not ports:
            raise ValueError("no ports to sample")
        self.sim = sim
        self.ports = ports
        self.interval = interval
        self.times: list[float] = []
        self.samples: dict[str, list[int]] = {label: [] for label in ports}
        self._task = PeriodicTask(sim, interval, self._sample, start_delay=start_delay)

    def _sample(self) -> None:
        self.times.append(self.sim.now)
        for label, members in self.ports.items():
            self.samples[label].append(
                sum(port.qlen_bytes for port in members))

    def stop(self) -> None:
        self._task.cancel()
