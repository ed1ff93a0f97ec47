"""Leftover helper coverage: table formatting, goodput introspection, units."""

import pytest

from repro.metrics.reporter import format_table
from repro.metrics.timeseries import GoodputTracker
from repro.sim.units import fmt_bytes, fmt_time


class TestFormatTableEdges:
    def test_single_column(self):
        out = format_table(["x"], [[1], [22]])
        assert out.splitlines()[0] == "x "

    def test_floats_rendered_two_places(self):
        out = format_table(["v"], [[1.2345]])
        assert "1.23" in out


class TestGoodputIntrospection:
    def test_flow_ids_sorted(self):
        tracker = GoodputTracker(1000.0)
        tracker.record(5, 10.0, 100)
        tracker.record(2, 10.0, 100)
        assert tracker.flow_ids() == [2, 5]

    def test_zero_bytes_ignored(self):
        tracker = GoodputTracker(1000.0)
        tracker.record(1, 10.0, 0)
        assert tracker.flow_ids() == []

    def test_window_narrower_than_bin_uses_covering_bin(self):
        tracker = GoodputTracker(1000.0)
        tracker.record(1, 500.0, 1000)
        assert tracker.mean_gbps(1, 400.0, 600.0) == pytest.approx(8.0)


class TestUnitFormatEdges:
    def test_fmt_time_ns(self):
        assert fmt_time(5.0) == "5.0ns"

    def test_fmt_time_seconds(self):
        assert fmt_time(2.5e9) == "2.500s"

    def test_fmt_bytes_plain(self):
        assert fmt_bytes(999) == "999B"

    def test_fmt_bytes_gb(self):
        assert fmt_bytes(3.2e9) == "3.20GB"
