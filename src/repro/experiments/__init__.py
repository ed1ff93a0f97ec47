"""One module per paper figure, plus Appendix A and the extensions.

An experiment module's public surface is two functions:
``scenarios(scale=..., seed=...)`` declares the figure as a
:class:`~repro.runner.ScenarioSpec` grid, and ``render(specs, records)``
maps the executed :class:`~repro.runner.RunRecord` list into a
:class:`~repro.report.figures.FigureRender` — plot panels plus a flat
``stats`` dict.  That one result is what ``hpcc-repro run``, ``report``,
the refdata checks and the tests all read
(:func:`repro.report.build.build_figure` is the one function that turns
a key of :data:`EXPERIMENTS` into it).  A module that only makes sense
on the packet engine sets ``PACKET_ONLY = True``.
"""

from . import (
    appendix_a,
    common,
    failover,
    figure01,
    figure02,
    figure03,
    figure06,
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    flapping,
    linkfail,
)

#: The figure table, in paper order: key -> (description, module).
#: ``list``, ``run``, ``sweep``, ``report`` and ``trace diff`` all read
#: this dict and nothing else; adding a figure is one entry here.
EXPERIMENTS = {
    "fig1": ("PFC pause propagation and suppressed bandwidth", figure01),
    "fig2": ("DCQCN timer trade-off (throughput vs stability)", figure02),
    "fig3": ("DCQCN ECN-threshold trade-off (bandwidth vs latency)", figure03),
    "fig6": ("txRate vs rxRate feedback", figure06),
    "fig9": ("testbed micro-benchmarks: HPCC vs DCQCN", figure09),
    "fig10": ("testbed WebSearch FCT + queue CDF", figure10),
    "fig11": ("large-scale FatTree, six CC schemes", figure11),
    "fig12": ("flow-control choices (PFC / GBN / IRN)", figure12),
    "fig13": ("per-ACK vs per-RTT vs HPCC reaction", figure13),
    "fig14": ("WAI tuning", figure14),
    "appendix": ("Appendix A: A.1 queueing, A.2 lemma, A.4 window limits",
                 appendix_a),
    "failover": ("extension: CC behaviour across a link failure",
                 failover),
    "linkfail": ("extension: FatTree link-failure sweep (dynamics "
                 "timelines, fluid-first)", linkfail),
    "flapping": ("extension: flapping-trunk oscillation study "
                 "(HPCC vs DCQCN)", flapping),
}

ALIASES = {
    "figure1": "fig1", "fig01": "fig1", "figure01": "fig1",
    "figure2": "fig2", "fig02": "fig2", "figure02": "fig2",
    "figure3": "fig3", "fig03": "fig3", "figure03": "fig3",
    "figure6": "fig6", "fig06": "fig6", "figure06": "fig6",
    "figure9": "fig9", "fig09": "fig9", "figure09": "fig9",
    "figure10": "fig10", "figure11": "fig11", "figure12": "fig12",
    "figure13": "fig13", "figure14": "fig14",
    "a": "appendix", "appendix_a": "appendix",
}


def resolve(name: str) -> str:
    """The :data:`EXPERIMENTS` key for a user-typed experiment name.

    Exits CLI-style (``SystemExit`` naming the known keys) on an
    unknown name — every caller is a command-line entry point.
    """
    key = name.lower()
    key = ALIASES.get(key, key)
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise SystemExit(f"unknown experiment {name!r}; known: {known}")
    return key


__all__ = [
    "ALIASES",
    "EXPERIMENTS",
    "appendix_a",
    "common",
    "failover",
    "figure01",
    "figure02",
    "figure03",
    "figure06",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "flapping",
    "linkfail",
    "resolve",
]
