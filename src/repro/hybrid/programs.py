"""The hybrid backend: a packet foreground composed with a fluid background.

:class:`HybridBackend` implements the backend contract of
``repro.runner.execute`` by *composition*: the population the shared
program offers is split by the spec's ``workload["foreground"]``
selector (:mod:`repro.hybrid.select`), the foreground half is admitted
to a :class:`~repro.runner.harness.PacketBackend`, the background half
to a :class:`~repro.fluid.programs.FluidBackend`, and
:class:`~repro.hybrid.engine.HybridEngine` advances both in lockstep
epochs.

A degenerate partition builds one half only and simply *is* that pure
backend — which is what makes the equivalence suite's bit-identity pins
(``tests/test_hybrid.py``) hold by construction rather than by
tolerance.  Only the ``hybrid_mode`` and partition-size extras differ.

Config keys by consumer — the contract documented in
``docs/architecture.md``:

* shared: ``base_rtt``, ``mtu``, ``buffer_bytes``, ``goodput_bin``;
* packet half only: ``transport``, ``pfc_enabled``, ``int_enabled``,
  ``ecn``, ``rto`` (and every other ``NetworkConfig`` knob);
* hybrid only: ``hybrid_epoch`` (default: one base RTT, the fluid
  step).

Mixed-mode records carry both halves: merged FCTs (sorted by finish
time), packet-half queue samples, merged goodput bins, packet events
plus fluid steps as ``events_processed``, and the partition sizes and
epoch count in the extras.
"""

from __future__ import annotations

from ..dynamics import Timeline
from ..fluid.programs import FluidBackend
from ..network import header_bytes
from ..obs import maybe_span
from ..runner.harness import PacketBackend
from ..runner.results import RunRecord
from ..runner.spec import ScenarioSpec
from ..sim.flow import FlowSpec
from ..topology.base import Topology
from .engine import HybridEngine
from .select import partition_specs


class HybridBackend:
    """Packet foreground + fluid background, coupled per epoch."""

    def __init__(self, spec: ScenarioSpec, topology: Topology) -> None:
        self.spec = spec
        self.topology = topology
        # The packet half's wire overhead, known before either half
        # exists: the partition needs the population, which needs this.
        mtu = spec.config.get("mtu", 1000)
        header = header_bytes(spec.cc.name, spec.config.get("int_enabled"))
        self.wire_factor = (mtu + header) / mtu
        self.packet: PacketBackend | None = None
        self.fluid: FluidBackend | None = None
        self.engine: HybridEngine | None = None
        self.foreground: list[FlowSpec] = []
        self.background: list[FlowSpec] = []

    def admit(self, flows: list[FlowSpec], timeline: Timeline,
              burst_entries: list[dict]) -> None:
        """Partition, then build and populate only the halves needed.

        Each half applies fail/restore/degrade natively; the burst
        accounting entries go to the first half that exists, so
        ``link_events`` reports them once.
        """
        spec = self.spec
        fg, bg = partition_specs(flows, spec.workload.get("foreground"))
        self.foreground, self.background = fg, bg
        # Each half takes every key but the coupler's own.
        config = {k: v for k, v in spec.config.items() if k != "hybrid_epoch"}
        if fg or not bg:
            self.packet = PacketBackend(spec, self.topology, config)
            self.packet.admit(fg, timeline, burst_entries)
            burst_entries = []
        if bg:
            self.fluid = FluidBackend(spec, self.topology, config,
                                      sampled=self.packet is None)
            self.fluid.admit(bg, timeline, burst_entries)
        if self.packet is not None and self.fluid is not None:
            self.engine = HybridEngine(
                self.packet.net, self.fluid.engine,
                epoch=spec.config.get("hybrid_epoch"),
            )

    def run(self, deadline: float) -> bool:
        if self.engine is None:
            return (self.packet or self.fluid).run(deadline)
        with self.packet.running(), self.fluid.running(), maybe_span("run"):
            return self.engine.run(deadline)

    def record(self, completed: bool) -> RunRecord:
        if self.engine is None:
            record = (self.packet or self.fluid).record(completed)
            mode = "all_foreground" if self.fluid is None else "all_background"
        else:
            record = self._merged(
                self.packet.record(completed), self.fluid.record(completed))
            mode = "mixed"
        record.extras["hybrid_mode"] = mode
        record.extras["foreground_flows"] = len(self.foreground)
        record.extras["background_flows"] = len(self.background)
        return record

    def _merged(self, record: RunRecord, bg: RunRecord) -> RunRecord:
        """The packet half's record with the fluid half folded in.

        Queue series, pause accounting, ``switch_queued_bytes`` and
        ``link_events`` stay the packet half's; the two FCT tables are
        joined in ``(finish, flow_id)`` order, and goodput bins, drops and
        the work counters are summed or unioned.
        """
        record.fct_table = record.fct_table.merged(bg.fct_table)
        record.events_processed += bg.events_processed
        record.duration_ns = max(record.duration_ns, bg.duration_ns)
        extras = record.extras
        extras["drops"] += bg.extras["drops"]
        extras["fluid_steps"] = bg.extras["fluid_steps"]
        extras["fluid_flow_steps"] = bg.extras["fluid_flow_steps"]
        extras["hybrid_epoch"] = self.engine.epoch
        extras["hybrid_epochs"] = self.engine.epochs
        extras["foreground_flow_ids"] = sorted(
            fs.flow_id for fs in self.foreground)
        if "goodput" in bg.extras:
            extras["goodput"]["bins"].update(bg.extras["goodput"]["bins"])
        return record

    def windows(self) -> dict[str, float | None]:
        return {
            **(self.packet.windows() if self.packet is not None else {}),
            **(self.fluid.windows() if self.fluid is not None else {}),
        }
