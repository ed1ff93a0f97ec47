"""Figure 11: six CC schemes on the FatTree with FB_Hadoop traffic.

Paper shapes asserted:
* HPCC achieves the lowest p95 FCT slowdown for short flows (and the
  lowest short-flow latency) in both traffic cases;
* HPCC's long flows pay the eta+INT bandwidth tax (higher large-bucket
  slowdown than the windowed baselines);
* only the schemes without in-flight caps (DCQCN, TIMELY) trigger large
  PFC pauses; +win variants and HPCC keep pauses near zero;
* DCTCP beats DCQCN/TIMELY but HPCC at least halves DCTCP's latency.
"""

from repro.experiments import figure11

from conftest import run_figure

CASE = "30incast"          # render's key for the "30%+incast" case


def test_fig11_six_schemes(benchmark):
    fig = run_figure(
        benchmark, figure11, scale="bench", cases=("30%+incast",),
        overrides={"n_flows": 450},
    )
    buckets = fig.panel(f"p95-{CASE}")

    def short_p95(scheme):
        return max(buckets.series_named(scheme).y[:3])

    def large_p95(scheme):
        return buckets.series_named(scheme).y[-1]

    def latency(scheme):
        return fig.stats[f"short_p95_us/{CASE}/{scheme}"]

    def pauses(scheme):
        return fig.stats[f"pause_frac/{CASE}/{scheme}"]

    # HPCC wins short flows against every baseline.
    for scheme in ("DCQCN", "TIMELY", "DCQCN+win", "TIMELY+win", "DCTCP"):
        assert short_p95("HPCC") < short_p95(scheme)
        assert latency("HPCC") <= latency(scheme)

    # The bandwidth-headroom tax: HPCC's largest bucket is not the best.
    assert large_p95("HPCC") > min(
        large_p95(s) for s in ("DCQCN+win", "TIMELY+win", "DCTCP")
    )

    # PFC: uncapped schemes pause orders of magnitude more.
    capped_worst = max(pauses("DCQCN+win"), pauses("TIMELY+win"),
                       pauses("DCTCP"), pauses("HPCC"))
    assert pauses("DCQCN") > 5 * max(capped_worst, 1e-6)
    assert pauses("TIMELY") > 5 * max(capped_worst, 1e-6)

    # DCTCP outperforms DCQCN/TIMELY; HPCC at least halves DCTCP latency.
    assert latency("DCTCP") < latency("DCQCN")
    assert latency("DCTCP") < latency("TIMELY")
    assert latency("HPCC") < 0.7 * latency("DCTCP")
