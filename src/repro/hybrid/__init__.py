"""Hybrid packet-in-fluid co-simulation (``backend="hybrid"``).

The packet engine is faithful but slow; the fluid engine is fast but
flow-granular.  The hybrid backend runs both at once: a scenario's flow
population is partitioned by a ``workload["foreground"]`` selector into
a *foreground* set simulated packet-by-packet (full INT/ECN/PFC
fidelity, per-ACK CC decisions) and a *background* set advanced by the
array-native fluid step loop, coupled through the shared per-link
registers each epoch (see :mod:`repro.hybrid.coupling`).  Foreground
flows keep packet-level fidelity while "millions of users" of
background load cost near-fluid time.

Degenerate limits are exact by construction: an all-foreground
partition builds the packet half alone and an all-background partition
the fluid half alone, so both are bit-identical to the single-engine
backends (pinned by ``tests/test_hybrid.py``).
"""

from .coupling import BgLinkView, HybridCoupler
from .engine import HybridEngine
from .select import DEFAULT_SELECTOR, parse_foreground, partition_specs

__all__ = [
    "BgLinkView",
    "HybridCoupler",
    "HybridEngine",
    "DEFAULT_SELECTOR",
    "parse_foreground",
    "partition_specs",
]
