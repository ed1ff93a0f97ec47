"""Time-series collection: per-flow goodput and arbitrary samplers.

Figures 9a-9d, 9g-9h, 13 and 14a plot per-flow (or aggregate) throughput
against time.  Goodput is measured the way the paper's testbed does: bytes
acknowledged at the sender, binned into fixed windows.
"""

from __future__ import annotations

from collections import defaultdict

from ..sim.units import SEC


class GoodputTracker:
    """Bins acknowledged bytes per flow into fixed time windows."""

    def __init__(self, bin_ns: float) -> None:
        if bin_ns <= 0:
            raise ValueError(f"bin width must be positive, got {bin_ns}")
        self.bin_ns = bin_ns
        self._bins: dict[int, dict[int, int]] = defaultdict(dict)

    def payload(self) -> dict:
        """The ``RunRecord.extras["goodput"]`` shape."""
        return {
            "bin_ns": self.bin_ns,
            "bins": {
                str(flow_id): {str(idx): n for idx, n in bins.items()}
                for flow_id, bins in self._bins.items()
            },
        }

    @classmethod
    def from_payload(cls, data: dict) -> "GoodputTracker":
        """The tracker a :meth:`payload` describes (on any backend's
        record: fluid's ``GoodputRecorder.payload`` has the same shape)."""
        tracker = cls(data["bin_ns"])
        for flow_id, bins in data["bins"].items():
            tracker._bins[int(flow_id)] = {
                int(idx): nbytes for idx, nbytes in bins.items()
            }
        return tracker

    def record(self, flow_id: int, now: float, nbytes: int) -> None:
        if nbytes <= 0:
            return
        idx = int(now / self.bin_ns)
        bins = self._bins[flow_id]
        bins[idx] = bins.get(idx, 0) + nbytes

    def series(self, flow_id: int) -> tuple[list[float], list[float]]:
        """(bin midpoints in ns, goodput in Gbps) for one flow."""
        bins = self._bins.get(flow_id, {})
        if not bins:
            return [], []
        last = max(bins)
        times = [(i + 0.5) * self.bin_ns for i in range(last + 1)]
        gbps = [bins.get(i, 0) * 8.0 / self.bin_ns for i in range(last + 1)]
        return times, gbps

    def total_series(self, flow_ids=None) -> tuple[list[float], list[float]]:
        """Aggregate goodput across a set of flows (default: all)."""
        selected = self._bins if flow_ids is None else {
            f: self._bins[f] for f in flow_ids if f in self._bins
        }
        if not selected:
            return [], []
        last = max(max(b) for b in selected.values() if b)
        times = [(i + 0.5) * self.bin_ns for i in range(last + 1)]
        totals = [0.0] * (last + 1)
        for bins in selected.values():
            for idx, nbytes in bins.items():
                totals[idx] += nbytes * 8.0 / self.bin_ns
        return times, totals

    def flow_ids(self) -> list[int]:
        return sorted(self._bins)

    def mean_gbps(self, flow_id: int, t_from: float, t_to: float) -> float:
        """Average goodput of a flow over a time window, in Gbps.

        Only bins fully inside [t_from, t_to] are counted, so the result
        can never exceed the true rate because of partial edge bins.
        """
        if t_to <= t_from:
            raise ValueError("empty window")
        import math
        bins = self._bins.get(flow_id, {})
        lo = math.ceil(t_from / self.bin_ns)
        hi = math.floor(t_to / self.bin_ns)     # exclusive upper bin index
        if hi <= lo:
            # Window narrower than one bin: fall back to the covering bin.
            idx = int(t_from / self.bin_ns)
            return bins.get(idx, 0) * 8.0 / self.bin_ns
        total = sum(n for i, n in bins.items() if lo <= i < hi)
        return total * 8.0 / ((hi - lo) * self.bin_ns)


def jain_fairness(rates: list[float]) -> float:
    """Jain's fairness index: 1.0 means perfectly fair."""
    if not rates:
        raise ValueError("no rates")
    total = sum(rates)
    squares = sum(r * r for r in rates)
    if squares == 0:
        return 1.0
    return total * total / (len(rates) * squares)


def seconds(ns_values: list[float]) -> list[float]:
    """Convenience: convert a list of ns timestamps to seconds."""
    return [t / SEC for t in ns_values]
