"""Epoch coupling between the packet and fluid halves of a hybrid run.

The two engines share the network's *links*, not its flows, so the
coupling contract is per-link and directional, exchanged once per epoch
(default: one base RTT, the fluid step length):

* **fluid -> packet** (:meth:`HybridCoupler.push_background`): before
  the packet half advances an epoch, every bound egress port gets a
  :class:`BgLinkView` snapshot of the fluid link registers — background
  queue depth (folded into WRED/ECN marking and INT ``qlen``),
  cumulative background bytes (folded into INT ``tx``/``rx``, linearly
  extrapolated at the measured background rate inside the epoch so
  inter-ACK txRate estimates see smooth cross-traffic) and the
  ``residual`` capacity fraction left over for packet serialization.
* **packet -> fluid** (:meth:`HybridCoupler.push_foreground`): after
  the packet half advances, per-port ``tx_bytes`` deltas become
  per-link foreground rates in ``FluidEngine.ext_rates``; the fluid
  step loop then throttles the background against the residual
  ``capacity - ext_rates`` instead of the full line rate.

Register ownership is strict and disjoint: packet ports own the
foreground queue (bytes physically enqueued), the fluid arrays own the
background queue (modeled fluid), and each half only ever *reads* the
other's contribution through this coupler — neither mutates the other's
registers, so there is no double counting.  A degenerate partition
never builds a coupler, so its one engine runs its pure hot paths and
its record is the pure backend's, bit for bit (``tests/test_hybrid.py``
pins this).

Approximations, stated openly: background state is piecewise-constant
within an epoch (the first epoch sees no background at all), parallel
trunk members bound to one pooled fluid link share a single view, and
PFC/buffer occupancy never sees background bytes (the fluid model is
lossless per queue; drops there are accounted separately).
"""

from __future__ import annotations

import numpy as np


class BgLinkView:
    """One link's background share, as seen by the packet half.

    Updated in place once per epoch by :class:`HybridCoupler` and bound
    to the egress port it belongs to (``EgressPort.bg_view``, its one
    home); the packet hot paths read it there through a single
    ``is None`` gate: ``Switch.receive`` (ECN mark, and on its one-frame
    hop also the INT stamp and the ``residual`` serialization),
    ``Switch._on_emit`` (INT stamp of a queued packet) and
    ``EgressPort._kick`` (``residual``).
    """

    __slots__ = ("qlen", "tx0", "rate", "t0", "residual")

    def __init__(self) -> None:
        self.qlen = 0.0         # background queue depth, bytes
        self.tx0 = 0.0          # cumulative background bytes at t0
        self.rate = 0.0         # background rate over the last epoch, B/ns
        self.t0 = 0.0           # epoch start this snapshot was taken at
        self.residual = 1.0     # capacity fraction left for the packet half


class _Binding:
    """One shared link: the fluid row and its packet egress ports."""

    __slots__ = ("index", "ports", "view", "prev_fg_tx", "prev_bg_tx")

    def __init__(self, index: int, ports: list) -> None:
        self.index = index
        self.ports = ports
        self.view = BgLinkView()
        self.prev_fg_tx = 0.0       # summed packet tx_bytes at last epoch
        self.prev_bg_tx = 0.0       # fluid arrays.tx at last epoch


#: Floor of the capacity share left for packet serialization, so a
#: background-saturated link degrades gracefully instead of stalling the
#: packet half.
MIN_RESIDUAL = 0.05


class HybridCoupler:
    """Builds and drives the per-link bindings between the two halves.

    Construction walks ``net.port_map`` and binds every directed link
    that also exists in the fluid graph: each of the link's egress ports
    gets the link's view as its ``bg_view``.  On a switch port the switch
    reads it for the ECN/INT fold-in and the port for the residual
    serialization; a host NIC uplink reads only the residual (hosts
    stamp no INT hops).
    """

    def __init__(self, net, engine) -> None:
        self.engine = engine
        self.bindings: list[_Binding] = []
        self.ext_rates = np.zeros(engine.arrays.n)
        self.ext_qlen = np.zeros(engine.arrays.n)
        for (a, b), port_ids in net.port_map.items():
            link = engine.graph.links.get((a, b))
            if link is None:
                continue
            if a in net.switches:
                switch = net.switches[a]
                ports = [switch.ports[pid] for pid in port_ids]
            else:
                ports = [net.nics[a].port]
            binding = _Binding(link.index, ports)
            for port in ports:
                port.bg_view = binding.view
            self.bindings.append(binding)

    # -- per-epoch exchanges -----------------------------------------------------

    def push_background(self, t0: float, dt: float) -> None:
        """Snapshot fluid registers into the packet-side views.

        Called *before* the packet half advances the epoch starting at
        ``t0``; ``dt`` is the length of the previous epoch (the window
        the background rate is measured over).
        """
        A = self.engine.arrays
        queue = A.queue
        tx = A.tx
        capacity = A.capacity
        for binding in self.bindings:
            i = binding.index
            view = binding.view
            bg_tx = float(tx[i])
            rate = (bg_tx - binding.prev_bg_tx) / dt if dt > 0.0 else 0.0
            binding.prev_bg_tx = bg_tx
            view.qlen = float(queue[i])
            view.tx0 = bg_tx
            view.rate = rate
            view.t0 = t0
            cap = float(capacity[i])
            if cap > 0.0:
                view.residual = max(MIN_RESIDUAL, 1.0 - rate / cap)
            else:
                # A failed link carries no fluid; the packet half's own
                # dynamics driver handles the outage.
                view.residual = 1.0

    def push_foreground(self, dt: float) -> None:
        """Fold measured packet rates into the fluid capacity terms.

        Called *after* the packet half advanced an epoch of length
        ``dt``; the fluid half then runs the same epoch against the
        residual capacity.
        """
        ext = self.ext_rates
        extq = self.ext_qlen
        for binding in self.bindings:
            fg_tx = 0.0
            fg_qlen = 0.0
            for port in binding.ports:
                fg_tx += port.tx_bytes
                fg_qlen += port.qlen_bytes
            ext[binding.index] = (
                (fg_tx - binding.prev_fg_tx) / dt if dt > 0.0 else 0.0
            )
            extq[binding.index] = fg_qlen
            binding.prev_fg_tx = fg_tx
        self.engine.ext_rates = ext
        self.engine.ext_qlen = extq
