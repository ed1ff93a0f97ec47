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

    rate_register = "rx_bytes"
    rate_key = "rx_rate"
