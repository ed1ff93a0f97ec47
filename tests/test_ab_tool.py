"""The pair verdict of ``benchmarks/ab.py`` on synthetic samples.

The tool itself spawns benchmark runs; what decides a row is the pure
``pair_verdict`` function, checked here against the choosing-metrics
section 8 rule: *improved* needs ten pairs, nine tenths of them won and
medians apart by more than the baseline's inter-quartile distance;
anything else falls back to ``compare.py``'s ok / regressed / unresolved.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BOUND = 0.25
#: Ten baseline wall times: median 1.605, quartiles 1.5375 / 1.6625.
BASE = [1.50, 1.55, 1.58, 1.60, 1.61, 1.62, 1.64, 1.66, 1.70, 1.52]


def shifted(factor: float, *, lose: int = 0) -> list[float]:
    """``BASE`` scaled by ``factor``, the first ``lose`` pairs made slower."""
    return [b * (1.02 if i < lose else factor) for i, b in enumerate(BASE)]


def test_clear_win_is_improved():
    row = ab.pair_verdict(BASE, shifted(0.75), "lower", BOUND)
    assert (row["wins"], row["losses"], row["pairs"]) == (10, 0, 10)
    assert row["verdict"] == "improved"
    assert row["worse_by"] == pytest.approx(-0.25)


def test_nine_of_ten_is_enough_and_eight_is_not():
    assert ab.pair_verdict(BASE, shifted(0.75, lose=1), "lower",
                           BOUND)["verdict"] == "improved"
    row = ab.pair_verdict(BASE, shifted(0.75, lose=2), "lower", BOUND)
    assert row["wins"] == 8
    assert row["verdict"] == "ok", "8/10 is not a resolved gain"


def test_a_gain_inside_the_baselines_own_spread_is_not_improved():
    row = ab.pair_verdict(BASE, shifted(0.97), "lower", BOUND)
    assert row["wins"] == 10
    assert row["verdict"] == "ok", (
        "3 % is under the baseline's inter-quartile distance (7.8 %)")


def test_under_ten_pairs_cannot_claim_a_gain():
    row = ab.pair_verdict(BASE[:4], shifted(0.5)[:4], "lower", BOUND)
    assert row["wins"] == 4 and row["verdict"] == "ok"


def test_overlap_wider_than_the_bound_is_unresolved():
    base = [1.0, 1.6, 1.1, 1.7, 1.0, 1.5, 1.2, 1.8, 1.1, 1.6]
    new = [1.5, 1.1, 1.6, 1.0, 1.7, 1.1, 1.7, 1.2, 1.6, 1.0]
    assert ab.pair_verdict(base, new, "lower", BOUND)["verdict"] == "unresolved"


def test_regression_beyond_the_bound():
    row = ab.pair_verdict(BASE, shifted(1.40), "lower", BOUND)
    assert (row["wins"], row["losses"]) == (0, 10)
    assert row["verdict"] == "regressed"
    assert ab.pair_verdict(BASE, shifted(1.10), "lower",
                           BOUND)["verdict"] == "ok"


def test_higher_is_better_and_ties_count_for_neither():
    base = [0.80] * 10
    assert ab.pair_verdict(base, [0.80] * 10, "higher", 0.02) == {
        "base": (0.80, 0.80, 0.80), "new": (0.80, 0.80, 0.80),
        "worse_by": 0.0, "wins": 0, "losses": 0, "pairs": 10, "verdict": "ok",
    }
    row = ab.pair_verdict(base, [0.70] * 10, "higher", 0.02)
    assert (row["losses"], row["verdict"]) == (10, "regressed")
    assert ab.pair_verdict(base, [0.90] * 10, "higher",
                           0.02)["verdict"] == "improved"


def test_unpaired_samples_are_refused():
    with pytest.raises(ValueError):
        ab.pair_verdict([1.0, 2.0], [1.0], "lower", BOUND)
