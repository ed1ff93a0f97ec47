"""The hybrid lockstep loop: one calendar queue, one step loop, one clock.

:class:`HybridEngine` owns an already-populated packet ``Network``
(foreground flows) and ``FluidEngine`` (background flows) over the same
topology and advances them in lockstep *epochs*: per epoch the coupler
publishes the fluid registers to the packet half, the packet calendar
queue runs to the epoch boundary, the measured foreground rates are
folded back into the fluid capacity terms, and the fluid step loop runs
to the same boundary.  Both clocks therefore agree at every boundary
and each half sees the other at most one epoch stale — the documented
coupling error, which shrinks with ``hybrid_epoch`` (default: one
base RTT, the fluid step).

The loop ends when the deadline hits or both halves report completion
(matching each engine's own run-until-done semantics — pending timeline
events after the last flow are left unfired, as in both pure backends).
"""

from __future__ import annotations

from .coupling import HybridCoupler


class HybridEngine:
    """Lockstep co-simulation driver over a packet and a fluid half.

    Both halves must be fully built (flows added, dynamics installed)
    before construction; the constructor attaches the coupler's link
    views, so a freshly constructed ``HybridEngine`` already alters the
    packet half's ECN/INT/serialization inputs.  Degenerate partitions
    never construct one — ``HybridBackend`` then runs its one half
    as the pure backend it is.
    """

    def __init__(self, net, engine, epoch: float | None = None) -> None:
        self.net = net
        self.engine = engine
        self.epoch = epoch if epoch is not None else engine.base_rtt
        if self.epoch <= 0:
            raise ValueError(f"epoch must be positive, got {self.epoch}")
        self.coupler = HybridCoupler(net, engine)
        self.epochs = 0

    def run(self, deadline: float) -> bool:
        """Advance both halves to ``deadline`` or joint completion.

        Returns True when every flow on both halves completed.  The
        packet metrics hub is finalized on exit, mirroring
        ``Network.run_until_done``.
        """
        net = self.net
        engine = self.engine
        coupler = self.coupler
        epoch = self.epoch
        t = min(net.sim.now, engine.now)
        prev_dt = 0.0
        packet_done = net.metrics.flows.n_outstanding == 0
        try:
            while t < deadline:
                t_next = min(t + epoch, deadline)
                dt = t_next - t
                coupler.push_background(t, prev_dt)
                net.run(until=t_next)
                coupler.push_foreground(dt)
                engine.run(t_next)
                self.epochs += 1
                prev_dt = dt
                t = t_next
                packet_done = net.metrics.flows.n_outstanding == 0
                if packet_done and engine.completed:
                    break
        finally:
            net.finalize()
        return packet_done and engine.completed
