"""Conventions shared by the experiment modules.

Each ``figureNN`` module describes one figure of the paper as *data*: a
:class:`~repro.runner.ScenarioSpec` grid built in its ``scenarios()``
function, executed by a :class:`~repro.runner.SweepRunner`, and
post-processed from :class:`~repro.runner.RunRecord` payloads.

Every driver takes a ``scale`` argument:

* ``"bench"`` — shrunk for Python speed (fewer hosts, lower rates, scaled
  flow sizes); the *dimensionless* quantities that drive CC behaviour
  (load fraction, fan-in, BDP in packets) track the paper.
* ``"full"``  — the paper's sizes.  Slow in pure Python; provided for
  completeness and spot checks.
"""

from __future__ import annotations


def require_scale(
    scale: str, allowed: tuple[str, ...] = ("bench", "full")
) -> str:
    """Validate ``scale`` against the tiers this experiment defines.

    Most figures ship ``bench`` and ``full``; modules with extra tiers
    (figure 11's fluid-only ``large`` k=16 fabric) pass their own
    ``allowed`` tuple — usually ``tuple(SCALES)``.
    """
    if scale not in allowed:
        raise ValueError(
            f"scale must be one of {', '.join(repr(a) for a in allowed)}, "
            f"got {scale!r}"
        )
    return scale
