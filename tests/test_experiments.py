"""Experiment modules: every figure's ``render()`` plus miniature smokes.

``TestEveryFigureRenders`` drives each key of the figure table through
``build_figure`` — the path ``hpcc-repro run`` and ``report`` share — on
the fluid backend where eligible and on shrunk packet grids for the
packet-only figures.  The smoke classes verify the paper's *shape*
(orderings, not magnitudes) with tiny workloads; the benchmarks run the
real bench-scale versions.
"""

import json

import pytest

from repro.experiments import (
    EXPERIMENTS,
    appendix_a,
    figure06,
    figure13,
    figure14,
)
from repro.experiments.common import require_scale
from repro.report.build import Report, build_figure
from repro.report.text import stats_table
from repro.runner import RunCache, ScenarioSpec, SweepRunner, execute_spec
from repro.sim.units import MS, US


def render_of(module, scenarios=None, **grid):
    """``module``'s FigureRender for one (partial) grid, freshly run."""
    specs = (scenarios or module.scenarios)(**grid)
    return module.render(specs, SweepRunner().run(specs))


class TestCommon:
    def test_require_scale(self):
        assert require_scale("bench") == "bench"
        with pytest.raises(ValueError):
            require_scale("huge")

    @staticmethod
    def load_spec(n_hosts, n_flows, incast=None):
        return ScenarioSpec(
            program="load",
            topology="star",
            topology_params={"n_hosts": n_hosts, "host_rate": "10Gbps"},
            workload={"cdf": "fbhadoop", "size_scale": 0.1, "load": 0.2,
                      "n_flows": n_flows, "incast": incast},
            config={"base_rtt": 9 * US},
            seed=2,
        )

    def test_load_experiment_runs(self):
        record = execute_spec(self.load_spec(4, 20))
        assert record.fct
        assert record.duration_ns > 0

    def test_load_experiment_with_incast(self):
        record = execute_spec(self.load_spec(
            6, 15, incast={"fan_in": 3, "flow_size": 20_000, "load": 0.02}))
        tags = {r["tag"] for r in record.fct}
        assert "incast" in tags


#: Packet-only figures run shrunk: the render path is what is under test.
SHRUNK = {"fig1": {"n_flows": 120}, "fig12": {"n_flows": 80}}


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return SweepRunner(cache=RunCache(tmp_path_factory.mktemp("figures")))


class TestEveryFigureRenders:
    @pytest.mark.parametrize("key", list(EXPERIMENTS))
    def test_render_contract(self, key, runner):
        specs = None
        if key in SHRUNK:
            specs = EXPERIMENTS[key][1].scenarios(overrides=SHRUNK[key])
        fig = build_figure(key, "fluid", "bench", runner, specs=specs)
        render = fig.render
        assert fig.n_failed == 0
        assert fig.backend == ("packet" if key in SHRUNK else "fluid")

        panel_keys = [p.key for p in render.panels]
        assert panel_keys and len(set(panel_keys)) == len(panel_keys)
        assert render.stats
        assert all(type(v) is float for v in render.stats.values()), {
            k: v for k, v in render.stats.items() if type(v) is not float
        }
        if fig.ref is not None:
            for check in fig.ref.checks:
                assert check.stat in render.stats, check.id
                if isinstance(check.than, str):
                    assert check.than in render.stats, check.id

        # What `hpcc-repro run` prints: title, header, rule, then one
        # row per distinct label of the family/label stats keys.
        labels = {k.partition("/")[2] for k in render.stats}
        assert len(stats_table(render).splitlines()) == 3 + len(labels)
        # What `report` writes: strict JSON even with inf/nan stats.
        entry = Report([fig], {}).to_json()["figures"][key]
        assert set(entry["stats"]) == set(render.stats)
        json.dumps(entry, allow_nan=False)


class TestFigure6Smoke:
    def test_both_variants_converge(self):
        stats = render_of(figure06, params={
            "flow_size": 2_000_000, "duration": 0.5 * MS,
        }).stats
        for label in ("HPCC (txRate)", "HPCC-rxRate"):
            assert stats[f"steady_mean_kb/{label}"] < 20_000 / 1000
            assert stats[f"peak_kb/{label}"] > 0


class TestFigure13Smoke:
    def test_per_ack_overreacts_and_per_rtt_lags(self):
        stats = render_of(figure13, params={
            "fan_in": 8, "flow_size": 600_000, "duration": 300 * US,
        }).stats
        # per-ACK's post-start throughput floor is the lowest of the three.
        assert stats["min_tput/per-ACK"] <= stats["min_tput/HPCC"]
        # HPCC drains no slower than per-RTT (stats are in us).
        assert stats["drain_us/HPCC"] <= stats["drain_us/per-RTT"] + 50


class TestFigure14Smoke:
    def test_oversized_wai_builds_queue(self):
        stats = render_of(figure14, params={
            "fan_in": 8, "flow_size": 4_000_000, "duration": 2 * MS,
            "wai_values": (25.0, 600.0),
        }).stats
        assert stats["queue_p95_kb/600"] > stats["queue_p95_kb/25"]
        assert stats["fairness/25"] > 0.9


class TestAppendixSmoke:
    def test_a1_numbers(self):
        stats = render_of(appendix_a, scenarios=lambda: [
            appendix_a.a1_scenario(n_sources=20, rho=0.95),
        ]).stats
        assert stats["a1_sim_mean"] < 5
        assert stats["a1_sim_tail"] <= 0.01

    def test_a2_lemma_counts(self):
        stats = render_of(appendix_a, scenarios=lambda: [
            appendix_a.a2_scenario(n_trials=10, seed=3),
        ]).stats
        assert stats["a2_feasible_frac"] == 10 / 10
        assert stats["a2_monotone_frac"] == 10 / 10
        assert stats["a2_pareto_frac"] >= 8 / 10
