"""Figure 12: CC choice matters more than flow-control choice.

Paper: with HPCC, PFC / go-back-N / IRN perform nearly identically; with
DCQCN the flow-control choice visibly matters (IRN's implicit window cap
helps most), and even DCQCN+IRN cannot match HPCC.
"""

from repro.experiments import figure12

from conftest import run_figure


def test_fig12_flow_control_choices(benchmark):
    stats = run_figure(
        benchmark, figure12, scale="bench", overrides={"n_flows": 450},
    ).stats

    hpcc = [stats[f"overall_p95/HPCC-{fc}"] for fc in ("PFC", "GBN", "IRN")]
    dcqcn = [stats[f"overall_p95/DCQCN-{fc}"] for fc in ("PFC", "GBN", "IRN")]

    # HPCC: flow control barely matters (within 1.5x of each other).
    assert max(hpcc) < 1.5 * min(hpcc)
    # DCQCN: the choice matters a lot (>2x spread).
    assert max(dcqcn) > 2.0 * min(dcqcn)
    # Even DCQCN's best flow control cannot match HPCC.
    assert min(dcqcn) > max(hpcc)
    # HPCC keeps the fabric effectively lossless even without PFC.
    assert stats["drops/HPCC-GBN"] < stats["drops/DCQCN-GBN"] / 10 + 5
