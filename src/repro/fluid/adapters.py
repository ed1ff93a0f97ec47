"""Per-scheme rate-update adapters: fluid signals in, ``core/`` laws out.

The fluid engine does not reimplement any congestion-control law.  Each
adapter owns a *real* algorithm instance from ``repro.core`` (the same
classes the packet NIC installs) and, once per RTT-granularity step,
synthesizes the event that algorithm reacts to in the packet world:

* **INT family** (HPCC and its ablation variants) — one INT sample per
  fire: :func:`int_samples` runs Eqn 2 (Algorithm 1 lines 1-7) over
  every fired flow's telemetry columns at once — the links' ``qlen``
  and ``tx``/``rx`` registers against the engine's copy of L — and the
  adapter hands each flow's reduced sample to ``Hpcc.on_int_sample``,
  the same ``NewAck`` body a packet ACK runs;
* **CNP family** (DCQCN, DCQCN+win) — the NP's CNP stream derived from
  the analytic ECN marking probability, plus the RP's increase/alpha
  timers advanced in fluid time;
* **RTT family** (TIMELY, TIMELY+win) — an ACK echoing a timestamp
  ``now - rtt`` where ``rtt`` is the base RTT plus the path's queueing
  delay;
* **ECN family** (DCTCP) — two cumulative ACKs splitting the step's
  delivered bytes into marked and unmarked fractions.

The algorithms mutate a :class:`FlowProxy` exactly as they would a live
flow; the engine reads back ``rate``/``window`` and turns them into the
next step's fluid sending rate.
"""

from __future__ import annotations

import numpy as np

from ..core.base import CcAlgorithm, CcEnv
from ..core.registry import SchemeInfo, get_scheme
from ..core.windowed import WindowedCc
from ..sim.packet import Packet, PacketType


class FluidClock:
    """The ``env.sim`` stand-in: algorithms only read ``now`` off it.

    (The packet schemes also schedule :class:`PeriodicTask` timers in
    ``install`` — adapters never call ``install``; they replay the timers
    themselves in fluid time, so a bare clock is all the env needs.)
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class FlowProxy:
    """The ``flow`` object the CC algorithms mutate."""

    __slots__ = ("rate", "window", "snd_nxt", "done")

    def __init__(self) -> None:
        self.rate = 0.0
        self.window: float | None = None
        self.snd_nxt = 0.0
        self.done = False


class StepSignals:
    """Everything one flow's adapter needs from one fluid step."""

    __slots__ = (
        "rtt", "mark_prob", "delivered", "now", "dt", "u_sample", "tau", "bn",
    )

    def __init__(
        self,
        rtt: float,
        mark_prob: float,
        delivered: float,
        now: float,
        dt: float,
        u_sample: float = -1.0,
        tau: float = 0.0,
        bn: dict | None = None,
    ) -> None:
        self.rtt = rtt                  # base + queueing, ns
        self.mark_prob = mark_prob      # per-packet ECN mark probability
        self.delivered = delivered      # wire bytes delivered this step
        self.now = now
        self.dt = dt
        self.u_sample = u_sample        # Eqn 2's max u' (< 0: no sample)
        self.tau = tau                  # its hop's sampling interval, ns
        self.bn = bn                    # bottleneck inputs for a decision tap


class _SentBytes:
    """Stands in for a data packet in ``on_packet_sent`` (byte counters)."""

    __slots__ = ("wire_size",)

    def __init__(self, wire_size: float) -> None:
        self.wire_size = wire_size


class RateAdapter:
    """Base adapter: owns one live CC algorithm and its windowed-ness."""

    def __init__(self, env: CcEnv, algo: CcAlgorithm) -> None:
        self.env = env
        self.algo = algo
        self.inner = algo.inner if isinstance(algo, WindowedCc) else algo
        # One synthetic ACK, reused for every update: the fluid loop
        # hands it to the algorithm synchronously and nothing retains
        # it, so a fresh allocation per step would only feed the GC.
        self._ack_pkt = Packet(PacketType.ACK, flow_id=0, src=0, dst=0)

    def _ack(self) -> Packet:
        ack = self._ack_pkt
        ack.ecn = False
        return ack

    def install(self, proxy: FlowProxy) -> None:
        """Line-rate start without touching the packet ``install`` hooks
        (which would schedule simulator timers the fluid world replays
        itself)."""
        proxy.rate = self.env.line_rate
        proxy.window = (
            self.env.bdp if isinstance(self.algo, WindowedCc) else None
        )

    def update(self, proxy: FlowProxy, sig: StepSignals) -> None:
        raise NotImplementedError


class IntAdapter(RateAdapter):
    """HPCC and variants: one reduced INT sample per RTT into ``NewAck``."""

    def install(self, proxy: FlowProxy) -> None:
        proxy.rate = self.env.line_rate
        proxy.window = self.env.bdp             # Winit = B_nic x T

    def update(self, proxy: FlowProxy, sig: StepSignals) -> None:
        # Advancing snd_nxt before the sample makes every fire a Wc-update
        # step (seq > last_update_seq): one reaction per RTT against a
        # freshly synced Wc.  That is the per-RTT ablation, not
        # Algorithm 1 (react to every ACK, sync once per RTT), so hpcc,
        # hpcc-perack and hpcc-perrtt coincide on fluid (ROADMAP item 1).
        proxy.snd_nxt += max(1.0, sig.delivered)
        self.algo.on_int_sample(
            proxy, proxy.snd_nxt, sig.u_sample, sig.tau, sig.now, sig.bn
        )


def int_samples(
    counts: np.ndarray,
    comparable: np.ndarray,
    now: float | np.ndarray,
    cap: np.ndarray,
    reg: np.ndarray,
    qlen: np.ndarray,
    last: np.ndarray,
    T: float | np.ndarray,
    taps: bool = False,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...] | None]:
    """Algorithm 1 lines 1-7 for many flows at once, on INT columns.

    Flow ``k`` owns the next ``counts[k]`` telemetry entries; ``cap``,
    ``reg`` and ``qlen`` hold each entry's bandwidth, rate register
    (``Hpcc.rate_register``) and queue at ``now``, and the rows of
    ``last`` the matching hop of L as ``(ts, register, qlen)``.
    ``comparable[k]`` is False where L is missing or has another hop
    count.  ``now`` is a scalar or one value per entry, ``T`` a scalar
    or one value per flow (flows of several fluid cells sampled
    together).  The arithmetic is ``Hpcc.int_sample``'s per hop, in its
    order, so every value is bit-identical to the scalar loop's.

    Returns per flow ``u_max`` (-1.0 without a valid sample), ``tau``
    and, with ``taps``, the bottleneck as ``(hop, qlen, rate)``: its
    position in the flow's stack (the *first* hop with the largest u',
    as the loop's strict ``>`` picks; -1 without one), ``min(qlen,
    L.qlen)`` and the register rate there — what a decision tap records.
    """
    n = counts.size
    dt = now - last[:, 0]
    valid = dt > 0
    valid &= comparable.repeat(counts)
    rate = (reg - last[:, 1]) / np.where(valid, dt, 1.0)
    qmin = np.minimum(qlen, last[:, 2])
    T_e = T.repeat(counts) if isinstance(T, np.ndarray) else T
    u = qmin / (cap * T_e) + rate / cap
    u[~valid] = -np.inf
    u_max = np.full(n, -1.0)
    tau = np.full(n, T)
    first = np.full(n, -1, dtype=np.int64)
    starts = counts.cumsum() - counts
    has = counts > 0
    if u.size:
        seg = np.maximum.reduceat(u, starts[has])
        at = np.where(u == seg.repeat(counts[has]), np.arange(u.size), u.size)
        got = seg > -1.0
        rows = has.nonzero()[0][got]
        first[rows] = np.minimum.reduceat(at, starts[has])[got]
        u_max[rows] = seg[got]
        tau[rows] = dt[first[rows]]
    if not taps:
        return u_max, tau, None
    hop = np.where(first >= 0, first - starts, -1)
    # A flow without a bottleneck (first == -1) reads the 0.0 appended.
    return u_max, tau, (
        hop, np.append(qmin, 0.0)[first], np.append(rate, 0.0)[first],
    )


class CnpAdapter(RateAdapter):
    """DCQCN (+win): analytic CNP stream plus timers replayed in fluid time."""

    def __init__(self, env: CcEnv, algo: CcAlgorithm) -> None:
        super().__init__(env, algo)
        self._cnp_credit = 0.0
        self._inc_elapsed = 0.0
        self._alpha_elapsed = 0.0

    def install(self, proxy: FlowProxy) -> None:
        super().install(proxy)
        proxy.rate = self.inner.rc

    def update(self, proxy: FlowProxy, sig: StepSignals) -> None:
        inner = self.inner
        # NP: at most one CNP per Td window; a window yields a CNP when
        # at least one of its packets is marked, so the expected CNP
        # count over dt is (dt/Td) x P[>=1 mark among the window's pkts].
        if sig.mark_prob > 0.0 and sig.delivered > 0.0:
            pkts_per_td = (
                (sig.delivered / sig.dt) * inner.td / self.env.packet_wire_size
            )
            p_window = 1.0 - (1.0 - sig.mark_prob) ** max(pkts_per_td, 0.0)
            self._cnp_credit += (sig.dt / inner.td) * p_window
            while self._cnp_credit >= 1.0:
                self._cnp_credit -= 1.0
                self.algo.on_cnp(proxy, sig.now)
                self._inc_elapsed = 0.0         # on_cnp resets the Ti timer
        # RP byte counter: one aggregate "packet" carrying the step's bytes.
        if sig.delivered > 0.0:
            self.algo.on_packet_sent(proxy, _SentBytes(sig.delivered), sig.now)
        # RP rate-increase timer (period Ti).
        self._inc_elapsed += sig.dt
        while self._inc_elapsed >= inner.ti:
            self._inc_elapsed -= inner.ti
            inner._on_increase_timer(proxy)
        # Alpha decay timer.
        self._alpha_elapsed += sig.dt
        while self._alpha_elapsed >= inner.alpha_timer:
            self._alpha_elapsed -= inner.alpha_timer
            inner._on_alpha_timer()


class RttAdapter(RateAdapter):
    """TIMELY (+win): ACKs echoing the fluid path's analytic RTT."""

    def update(self, proxy: FlowProxy, sig: StepSignals) -> None:
        ack = self._ack()
        ack.ts_tx = sig.now - sig.rtt
        self.algo.on_ack(proxy, ack, sig.now)


class EcnAdapter(RateAdapter):
    """DCTCP: cumulative ACKs carrying the analytic marked-byte fraction."""

    def __init__(self, env: CcEnv, algo: CcAlgorithm) -> None:
        super().__init__(env, algo)
        self._acked = 0.0

    def install(self, proxy: FlowProxy) -> None:
        proxy.rate = self.env.line_rate
        proxy.window = self.env.bdp             # slow start removed (S5.1)

    def update(self, proxy: FlowProxy, sig: StepSignals) -> None:
        delivered = max(1.0, sig.delivered)
        marked = sig.mark_prob * delivered
        proxy.snd_nxt += delivered
        if marked > 0.0:
            ack = self._ack()
            ack.ack_seq = self._acked + marked
            ack.ecn = True
            self.algo.on_ack(proxy, ack, sig.now)
        ack = self._ack()
        ack.ack_seq = self._acked + delivered
        self.algo.on_ack(proxy, ack, sig.now)
        self._acked += delivered


# Scheme name -> adapter class.  Every scheme the paper's figures sweep
# has a fluid adapter; newly registered schemes must add one explicitly
# (there is no safe generic fallback for unknown dynamics).
ADAPTER_FAMILIES: dict[str, type[RateAdapter]] = {
    "hpcc": IntAdapter,
    "hpcc-perack": IntAdapter,
    "hpcc-perrtt": IntAdapter,
    "hpcc-rxrate": IntAdapter,
    "dcqcn": CnpAdapter,
    "dcqcn+win": CnpAdapter,
    "timely": RttAdapter,
    "timely+win": RttAdapter,
    "dctcp": EcnAdapter,
}


def adapter_for(scheme: SchemeInfo, env: CcEnv, params: dict) -> RateAdapter:
    """Build one flow's adapter around a fresh algorithm instance."""
    try:
        family = ADAPTER_FAMILIES[scheme.name]
    except KeyError:
        known = ", ".join(sorted(ADAPTER_FAMILIES))
        raise ValueError(
            f"scheme {scheme.name!r} has no fluid adapter; known: {known}"
        ) from None
    return family(env, scheme.make(env, params))


def fluid_supported(name: str) -> bool:
    """Whether a registered scheme can run on the fluid backend."""
    get_scheme(name)                    # raise on unknown schemes
    return name in ADAPTER_FAMILIES
