"""Test fixtures: fake flows, hand-built ACKs, and chaos injection.

``chaos_execute_spec`` is the fault-injection work unit for the sweep
fabric's chaos tests: it runs in pool workers (picklable by reference —
the pool forks, so ``tests.helpers`` is already importable there) and
misbehaves according to ``spec.meta["chaos"]``.  Because ``meta`` is
excluded from the spec's identity hash, a chaos spec shares its cache
slot and journal entry with its clean twin — which is exactly what the
resume-determinism tests need.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.runner.execute import backend_class, execute_spec
from repro.sim.packet import IntHop, Packet, PacketType


class ChaosError(RuntimeError):
    """The deliberate failure raised by ``chaos: raise`` specs."""


def chaos_execute_spec(spec, telemetry: bool = False):
    """An ``execute_spec`` twin that fails on demand.

    ``spec.meta["chaos"]`` selects the fault:

    * ``"raise"`` — raise :class:`ChaosError` (a deterministic
      execution error: quarantined, never retried);
    * ``"hang"`` — sleep forever (the watchdog must SIGKILL us);
    * ``"die"`` — SIGKILL ourselves (an infrastructure fault: breaks
      the pool, affected specs are retried);
    * ``"die_once"`` — SIGKILL on the first attempt only, coordinated
      through a flag file at ``spec.meta["flag_dir"]`` (retries must
      then succeed);
    * absent/anything else — run the spec normally.
    """
    # Table-driven backend dispatch, same as execute_spec: an unknown
    # backend name raises here instead of silently falling through to
    # the packet engine (chaos records must misbehave on the *intended*
    # backend, or resume-determinism comparisons are meaningless).
    backend_class(spec.backend)
    mode = (spec.meta or {}).get("chaos")
    if mode == "raise":
        raise ChaosError(f"injected failure for {spec.label}")
    if mode == "hang":
        while True:             # pragma: no cover — killed from outside
            time.sleep(3600)
    if mode == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "die_once":
        flag = Path(spec.meta["flag_dir"]) / f"{spec.spec_hash}.died"
        if not flag.exists():
            flag.write_text("died")
            os.kill(os.getpid(), signal.SIGKILL)
    return execute_spec(spec, telemetry)


class FakeFlow:
    """The slice of SenderFlow the CC algorithms touch."""

    def __init__(self):
        self.window = None
        self.rate = 0.0
        self.snd_nxt = 0
        self.snd_una = 0
        self.done = False


def make_int_ack(
    seq: int,
    hops: list[tuple[float, float, int, int]],
    ack_seq: int | None = None,
    rx_bytes: list[int] | None = None,
) -> Packet:
    """Build an ACK carrying an INT stack.

    ``hops`` entries are (bandwidth B/ns, ts ns, tx_bytes, qlen).
    """
    ack = Packet(PacketType.ACK, 1, 1, 0, seq=seq)
    ack.ack_seq = ack_seq if ack_seq is not None else seq + 1000
    ack.int_hops = [
        IntHop(b, ts, tx, q,
               rx_bytes=rx_bytes[i] if rx_bytes else tx)
        for i, (b, ts, tx, q) in enumerate(hops)
    ]
    return ack


def plain_ack(seq: int, ack_seq: int, ecn: bool = False,
              ts_tx: float = 0.0) -> Packet:
    ack = Packet(PacketType.ACK, 1, 1, 0, seq=seq)
    ack.ack_seq = ack_seq
    ack.ecn = ecn
    ack.ts_tx = ts_tx
    return ack
