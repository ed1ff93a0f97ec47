"""HPCC: the sender algorithm (Algorithm 1 of the paper).

The sender keeps, per flow:

* ``W``  — the sending window (``flow.window``), paced at ``R = W / T``;
* ``Wc`` — the *reference* window, synchronized to ``W`` once per RTT
  (when the ACK of the first packet sent under the current ``Wc``
  arrives), which is what lets HPCC react to every ACK without
  compounding reactions to the same queue (Section 3.2, Figure 5);
* ``U``  — an EWMA of the normalized in-flight bytes of the most loaded
  link on the path, measured from INT (Eqn 2);
* ``incStage`` — how many consecutive additive-increase steps have been
  taken; after ``maxStage`` of them the sender switches to a
  multiplicative step to reclaim bandwidth quickly (Section 3.2).

``MeasureInflight`` (Eqn 2 + EWMA) and ``ComputeWind`` (Eqn 4 + AI/MI
staging) are written to match Algorithm 1 line by line.

``NewAck`` has two ways in and one body.  A packet ACK enters through
:meth:`Hpcc.on_ack`, which reduces its INT stack against L hop by hop
(:meth:`Hpcc.int_sample`, lines 1-7) and keeps the stack as the next L.
The fluid engine computes the same reduction over many flows' telemetry
columns at once, keeps L itself, and enters through
:meth:`Hpcc.on_int_sample` with the reduced sample.  Everything from
line 8 on runs in that one method for both.
"""

from __future__ import annotations

from ..sim.packet import IntHop, Packet
from .base import CcAlgorithm, CcEnv


def default_wai(env: CcEnv, eta: float, n_flows: int) -> float:
    """The paper's rule of thumb: WAI = Winit x (1 - eta) / N (Section 3.3)."""
    return env.bdp * (1.0 - eta) / n_flows


class Hpcc(CcAlgorithm):
    """High Precision Congestion Control (Algorithm 1)."""

    needs_int = True

    #: The two design choices of Section 3.2 that Figure 13 ablates
    #: (``hpcc_variants``): react to the ACKs between two W^c syncs, and
    #: sync W^c once per RTT rather than on every ACK.
    react_between_syncs = True
    sync_every_ack = False

    #: The INT register whose per-hop rate Eqn 2 adds to the queue term
    #: (``txBytes``; Figure 6's variant reads ``rxBytes``) and the
    #: decision-trace key that rate is recorded under.  The scalar loop
    #: of :meth:`int_sample` and the fluid engine's column reduction
    #: both read these two attributes.
    rate_register = "tx_bytes"
    rate_key = "tx_rate"

    def __init__(
        self,
        env: CcEnv,
        eta: float = 0.95,
        max_stage: int = 5,
        wai: float | None = None,
        n_flows_for_wai: int = 100,
    ) -> None:
        super().__init__(env)
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        if max_stage < 0:
            raise ValueError(f"max_stage must be >= 0, got {max_stage}")
        self.eta = eta
        self.max_stage = max_stage
        self.wai = wai if wai is not None else default_wai(env, eta, n_flows_for_wai)
        # Per-flow state (one algorithm instance per flow).
        self.wc = env.bdp                 # reference window W^c
        self.u = 1.0                      # EWMA of normalized inflight bytes
        self.inc_stage = 0
        self.last_update_seq = 0
        self.last_hops: list[IntHop] | None = None   # L in Algorithm 1

    # -- lifecycle --------------------------------------------------------------

    def install(self, flow) -> None:
        flow.window = self.env.bdp        # Winit = B_nic x T: line-rate start
        flow.rate = self.env.line_rate

    # -- Algorithm 1 --------------------------------------------------------------

    def int_sample(self, hops: list[IntHop]) -> tuple[float, float, dict | None]:
        """Lines 1-7 on one INT stack against L: ``(u, tau, inputs)``.

        ``u < 0`` means no valid sample: no L yet, a hop count that
        differs from L's (a path change), or no hop whose timestamp
        advanced.  ``inputs`` describes the bottleneck hop for a
        decision tap, and is ``None`` without one.
        """
        last = self.last_hops
        T = self.env.base_rtt
        if last is None or len(last) != len(hops):
            return -1.0, T, None
        reg = self.rate_register
        u_max = -1.0
        tau = T
        bn = -1
        bn_qlen = 0.0
        bn_rate = 0.0
        i = -1
        for hop, prev in zip(hops, last):
            i += 1
            dt = hop.ts - prev.ts
            if dt <= 0:
                continue
            rate = (getattr(hop, reg) - getattr(prev, reg)) / dt
            capacity = hop.bandwidth
            qlen = min(hop.qlen, prev.qlen)
            u_prime = qlen / (capacity * T) + rate / capacity
            if u_prime > u_max:
                u_max = u_prime
                tau = dt
                bn = i
                bn_qlen = qlen
                bn_rate = rate
        if u_max < 0 or self.tap is None:
            return u_max, tau, None
        return u_max, tau, {
            "u_instant": u_max, "bottleneck_hop": bn,
            "qlen": bn_qlen, self.rate_key: bn_rate, "n_hops": len(hops),
        }

    def _ewma(self, u_max: float, tau: float) -> float:
        """Lines 8-10: fold one sample into the EWMA ``U``; return ``U``."""
        T = self.env.base_rtt
        tau = T if T < tau else tau       # min(tau, T), per ACK
        weight = tau / T
        self.u = (1.0 - weight) * self.u + weight * u_max
        return self.u

    def measure_inflight(self, ack: Packet) -> float | None:
        """Lines 1-10: update and return U, or None without a valid sample."""
        u_max, tau, _ = self.int_sample(ack.int_hops)
        return None if u_max < 0 else self._ewma(u_max, tau)

    def compute_wind(self, u: float, update_wc: bool) -> float:
        """Lines 11-20: the MI/MD + AI control law on the reference window."""
        if u >= self.eta or self.inc_stage >= self.max_stage:
            w = self.wc / (u / self.eta) + self.wai
            if update_wc:
                self.inc_stage = 0
                self.wc = self.clamp_window(w)
        else:
            w = self.wc + self.wai
            if update_wc:
                self.inc_stage += 1
                self.wc = self.clamp_window(w)
        return w

    def on_ack(self, flow, ack: Packet, now: float) -> None:
        """Lines 21-27 (procedure NewAck) on a packet ACK: reduce its INT
        stack (:meth:`int_sample`), react, then snapshot it as L."""
        hops = ack.int_hops
        if hops is None:
            return
        u_max, tau, inputs = self.int_sample(hops)
        self.on_int_sample(flow, ack.seq, u_max, tau, now, inputs)
        self._remember_hops(hops)

    def on_int_sample(
        self, flow, seq: float, u_max: float, tau: float, now: float,
        bn: dict | None = None,
    ) -> None:
        """Lines 8-10 and 21-27: NewAck on an already-reduced INT sample.

        ``u_max``/``tau`` are what lines 1-7 reduce an ACK's stack to
        (``u_max < 0``: no valid sample, which still closes a W^c
        round), ``seq`` is the ACK's sequence number and ``bn`` the
        bottleneck inputs a decision tap records.  :meth:`on_ack` feeds
        it from the packet's hop records; the fluid engine reduces its
        telemetry columns itself and keeps L, so it calls this directly.
        """
        update_wc = self.sync_every_ack or seq > self.last_update_seq
        if u_max >= 0:
            u = self._ewma(u_max, tau)
            if update_wc or self.react_between_syncs:
                tap = self.tap
                if tap is not None:
                    rate0, win0 = flow.rate, flow.window
                    branch = ("MI" if u >= self.eta
                              or self.inc_stage >= self.max_stage else "AI")
                w = self.compute_wind(u, update_wc)
                flow.window = self.clamp_window(w)
                flow.rate = self.clamp_rate(flow.window / self.env.base_rtt)
                if tap is not None:
                    inputs = bn if bn is not None else {}
                    inputs["u"] = u
                    inputs["wc"] = self.wc
                    inputs["inc_stage"] = self.inc_stage
                    inputs["wc_synced"] = int(update_wc)
                    tap.record(now, "ack", branch, rate0, win0,
                               flow.rate, flow.window, inputs)
        if update_wc:
            self.last_update_seq = flow.snd_nxt

    def _remember_hops(self, hops: list[IntHop]) -> None:
        """Snapshot L (Algorithm 1) without allocating in steady state.

        The ACK's hop records are recycled by the NIC right after this
        callback returns, so the snapshot must be a copy — but the
        previous snapshot's records can be overwritten in place once the
        path length is stable."""
        last = self.last_hops
        if last is not None and len(last) == len(hops):
            for mine, fresh in zip(last, hops):
                mine.copy_from(fresh)
        else:
            self.last_hops = [h.copy() for h in hops]
