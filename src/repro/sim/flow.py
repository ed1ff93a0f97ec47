"""Flow descriptors and completion records."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class FlowSpec:
    """An application-level transfer request.

    ``tag`` labels the workload class (e.g. ``"bg"`` for load traffic,
    ``"incast"``, ``"mice"``) so metrics can slice by traffic type the way
    the paper's figures do.
    """

    flow_id: int
    src: int
    dst: int
    size: int               # bytes
    start_time: float       # ns
    tag: str = "bg"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"flow size must be positive, got {self.size}")
        if self.src == self.dst:
            raise ValueError("src and dst must differ")


@dataclass(slots=True)
class FctRecord:
    """A finished flow with its completion statistics."""

    spec: FlowSpec
    start: float
    finish: float
    ideal: float

    @property
    def fct(self) -> float:
        return self.finish - self.start

    @property
    def slowdown(self) -> float:
        """FCT normalized by the flow's ideal (uncontended) FCT."""
        return self.fct / self.ideal if self.ideal > 0 else float("inf")


@dataclass
class FlowTable:
    """All flows of a run: requested, running, finished."""

    specs: dict[int, FlowSpec] = field(default_factory=dict)
    finished: dict[int, FctRecord] = field(default_factory=dict)

    def add(self, spec: FlowSpec) -> None:
        if spec.flow_id in self.specs:
            raise ValueError(f"duplicate flow id {spec.flow_id}")
        self.specs[spec.flow_id] = spec

    def complete(self, record: FctRecord) -> None:
        self.finished[record.spec.flow_id] = record

    @property
    def n_outstanding(self) -> int:
        return len(self.specs) - len(self.finished)
