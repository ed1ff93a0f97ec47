#!/usr/bin/env python3
"""Compare two ledger files: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): base, new, how much worse
the new value is as a share of the base, the bound ``BENCHMARK.json``
fixes for the metric, and a verdict:

* ``ok`` — not worse than the base by more than the bound;
* ``regressed`` — worse by more than the bound;
* ``unresolved`` — the run-to-run spread on either side is wider than
  the bound and the two sides' samples overlap, so the files cannot
  tell a change from noise (raise ``--reps``/``--seconds`` and rerun).

A second table lists what must repeat exactly between two runs of one
commit and seed: ``result_digest``, ``attempted``/``failed`` and every
per-layer ``count``.  Exit status is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(samples: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more samples, the full range with fewer."""
    if len(samples) < 2:
        return 0.0
    if len(samples) >= 4:
        q1, mid, q3 = statistics.quantiles(samples, n=4)
        return (q3 - q1) / mid if mid else 0.0
    mid = statistics.median(samples)
    return (max(samples) - min(samples)) / mid if mid else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return (change if better == "lower" else -change) + 0.0   # no "-0.00%"


def verdict(base: float, new: float, better: str, bound: float,
            base_samples: list[float], new_samples: list[float]) -> str:
    overlap = bool(base_samples and new_samples) and (
        min(base_samples) <= max(new_samples)
        and min(new_samples) <= max(base_samples)
    )
    if overlap and max(spread(base_samples), spread(new_samples)) > bound:
        return "unresolved"
    return "regressed" if worse_by(base, new, better) > bound else "ok"


def compare(base: dict, new: dict, declared: dict) -> tuple[list, list]:
    """``(metric rows, exact-repeat rows)`` for the workloads both hold."""
    rows, exact = [], []
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        for metric in declared["end_to_end"]:
            key = metric["name"]
            va = a["end_to_end"][key]["value"]
            vb = b["end_to_end"][key]["value"]
            rows.append((
                name, key, va, vb, worse_by(va, vb, metric["better"]),
                metric["bound"],
                verdict(va, vb, metric["better"], metric["bound"],
                        a["untraced"]["samples"].get(key, []),
                        b["untraced"]["samples"].get(key, [])),
            ))
        for field in ("result_digest", "attempted", "failed"):
            exact.append((name, field, a["untraced"][field],
                          b["untraced"][field]))
        if "per_layer" in a and "per_layer" in b:
            for key, m in a["per_layer"].items():
                if m["unit"] == "count":
                    exact.append((name, key, m["value"],
                                  b["per_layer"][key]["value"]))
    return rows, exact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, exact = compare(json.loads(Path(args.base).read_text()),
                          json.loads(Path(args.new).read_text()), declared)
    print(f"{'workload':16s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'bound':>7s}  verdict")
    for name, key, va, vb, worse, bound, word in rows:
        print(f"{name:16s} {key:18s} {va:12.5g} {vb:12.5g} "
              f"{worse:+9.2%} {bound:7.2%}  {word}")
    differing = [row for row in exact if row[2] != row[3]]
    print(f"\nexact-repeat values: {len(exact) - len(differing)} of "
          f"{len(exact)} identical")
    for name, key, va, vb in differing:
        print(f"  {name:16s} {key:28s} {va} -> {vb}")
    return 1 if any(row[6] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
