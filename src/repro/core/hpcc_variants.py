"""Design-choice variants of HPCC used in the paper's ablations.

* :class:`HpccPerAck` — reacts to *every* ACK against the live window
  (no reference window), reproducing the overreaction of Figures 5/13;
* :class:`HpccPerRtt` — reacts only once per RTT (when the ACK of the
  first packet sent after the previous adjustment returns), reproducing
  the slow reaction of Figure 13;
* :class:`HpccRxRate` — replaces ``txRate`` with ``rxRate`` in Eqn (2),
  reproducing the oscillation of Figure 6 (Section 3.4's key insight:
  ``txRate`` anticipates the queue one RTT ahead, ``rxRate`` overlaps
  with ``qlen`` and double-counts congestion).
"""

from __future__ import annotations

from ..sim.packet import Packet
from .hpcc import Hpcc


class HpccPerAck(Hpcc):
    """Adjust on every ACK with W itself as the base: overreacts.

    The reference window tracks the live window on *every* ACK, so
    reactions to ACKs describing the same queue compound."""

    sync_every_ack = True


class HpccPerRtt(Hpcc):
    """Adjust only once per RTT: wastes the information in other ACKs."""

    react_between_syncs = False


class HpccRxRate(Hpcc):
    """Eqn (2) with rxRate instead of txRate (Figure 6 comparison)."""

    def measure_inflight(self, ack: Packet) -> float | None:
        hops = ack.int_hops
        last = self.last_hops
        if last is None or len(last) != len(hops):
            return None
        T = self.env.base_rtt
        u_max = -1.0
        tau = T
        bn = -1
        bn_qlen = 0.0
        bn_rx = 0.0
        i = -1
        for hop, prev in zip(hops, last):
            i += 1
            dt = hop.ts - prev.ts
            if dt <= 0:
                continue
            rx_rate = (hop.rx_bytes - prev.rx_bytes) / dt
            capacity = hop.bandwidth
            u_prime = (
                min(hop.qlen, prev.qlen) / (capacity * T) + rx_rate / capacity
            )
            if u_prime > u_max:
                u_max = u_prime
                tau = dt
                bn = i
                bn_qlen = min(hop.qlen, prev.qlen)
                bn_rx = rx_rate
        if u_max < 0:
            return None
        tau = min(tau, T)
        weight = tau / T
        self.u = (1.0 - weight) * self.u + weight * u_max
        if self.tap is not None:
            self._bn_inputs = {
                "u_instant": u_max, "bottleneck_hop": bn,
                "qlen": bn_qlen, "rx_rate": bn_rx, "n_hops": len(hops),
            }
        return self.u
