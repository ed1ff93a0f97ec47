#!/usr/bin/env python3
"""A/B the ledger's workloads: a baseline commit against this working tree.

    python benchmarks/ab.py --baseline REV [--workload W] [--pairs N]
                            [--seconds S] [--seed K]

``REV`` is unpacked (``git archive``) into a temporary directory; then,
for each pair, the single-run form of the benchmark —
``benchmarks/ledger/run.py --workload W --seed K --seconds S --trace 0``
— runs once in each tree, each tree running its *own* copy of the
benchmark and the program, alternating which side goes first.  Per
end-to-end metric the table gives both sides' quartiles, the pairs the
working tree won, and a verdict (choosing-metrics guide, section 8):

* ``improved`` — only with at least ten pairs, the working tree better in
  at least nine tenths of them (ties count for neither side) and the
  medians apart by more than the distance between the baseline's own
  quartiles;
* ``ok`` / ``regressed`` / ``unresolved`` — otherwise, ``compare.py``'s
  verdict on the two medians against the bound ``BENCHMARK.json`` fixes:
  ``unresolved`` when the run-to-run spread exceeds the bound and the two
  sides' samples overlap.

One traced pair (``--trace 1``) follows: per-layer self times and calls
side by side, and what must repeat exactly when a change claims
identical results — ``result_digest`` and every per-layer ``count``.
Every run made is printed as it finishes.  Exit status is 1 when any row
regressed or any run reported an incorrect result.

Two things the tables show that are the benchmark's, not the program's:
a run is a fixed number of *seconds*, and the child keeps every pass's
records, so a faster side runs more passes and reads a slightly higher
``peak_rss_mb`` (``run.py --reps K`` in both trees takes that out); and
``report_fastest``'s ``ext.stdlib.calls`` moves by 73 per directory level
of the tree's own path, so it differs between the temporary baseline
tree and the working tree even for one commit.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE / "ledger"))

from compare import spread, verdict, worse_by  # noqa: E402

MIN_PAIRS = 10      # fewer pairs cannot claim a gain
WIN_SHARE = 0.9     # of all pairs run


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; with under four samples, ``(min, median, max)``."""
    if len(samples) >= 4:
        return tuple(statistics.quantiles(samples, n=4))
    return min(samples), statistics.median(samples), max(samples)


def pair_verdict(base: list[float], new: list[float], better: str,
                 bound: float) -> dict:
    """Judge one metric from paired samples (``base[i]`` ran with ``new[i]``).

    Pure: the rule of the module docstring on two equally long lists.
    """
    if len(base) != len(new) or not base:
        raise ValueError("need equally many baseline and new samples")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * n < sign * b for b, n in zip(base, new))
    losses = sum(sign * n > sign * b for b, n in zip(base, new))
    base_med, new_med = statistics.median(base), statistics.median(new)
    worse = worse_by(base_med, new_med, better)
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
            and -worse > spread(base)):
        word = "improved"
    else:
        word = verdict(base_med, new_med, better, bound, base, new)
    return {"base": quartiles(base), "new": quartiles(new), "worse_by": worse,
            "wins": wins, "losses": losses, "pairs": len(base),
            "verdict": word}


# -- running ---------------------------------------------------------------------------

_HEADER = re.compile(r"^== \S+: (?:correct|INCORRECT), .* result_digest (\S+)$",
                     re.MULTILINE)


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One single-run-form benchmark run in ``tree``: its result JSON plus
    the ``result_digest`` its header line names."""
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "ledger" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} in {tree}: run.py exited "
                         f"{done.returncode}\n{done.stdout}")
    result = json.loads(lines[-1])
    header = _HEADER.search(done.stdout)
    result["result_digest"] = header.group(1) if header else None
    return result


def unpack(rev: str, into: Path) -> str:
    """Unpack the tracked files of ``rev`` into ``into``; the commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    with subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                       check=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {sha} exited {archive.returncode}")
    return sha


def fmt(value: float) -> str:
    return f"{value:.4g}"


def untraced_pairs(trees: dict[str, Path], workload: str, args,
                   declared: dict) -> bool:
    """Run the pairs, print the table; True when no row regressed."""
    samples = {side: {m["name"]: [] for m in declared["end_to_end"]}
               for side in trees}
    correct = True
    for pair in range(args.pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        for side in order:
            result = run_once(trees[side], workload, args.seed, args.seconds,
                              trace=False)
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                samples[side][name].append(metric["value"])
            print(f"  pair {pair + 1}/{args.pairs} {side:4s} "
                  + " ".join(f"{name}={fmt(m['value'])}"
                             for name, m in result["metrics"].items())
                  + f" failed={result['failed']}/{result['attempted']}"
                  + ("" if result["correct"] else " INCORRECT"), flush=True)
    print(f"  {'metric':18s} {'base q1/med/q3':>26s} {'new q1/med/q3':>26s} "
          f"{'worse by':>9s} {'won':>6s} {'bound':>6s}  verdict")
    ok = correct
    for metric in declared["end_to_end"]:
        name = metric["name"]
        row = pair_verdict(samples["base"][name], samples["new"][name],
                           metric["better"], metric["bound"])
        ok &= row["verdict"] != "regressed"
        print(f"  {name:18s} {'/'.join(map(fmt, row['base'])):>26s} "
              f"{'/'.join(map(fmt, row['new'])):>26s} "
              f"{row['worse_by']:+9.1%} {row['wins']:3d}/{row['pairs']:<2d} "
              f"{metric['bound']:6.1%}  {row['verdict']}")
    if args.pairs < MIN_PAIRS:
        print(f"  (under {MIN_PAIRS} pairs: no row can read 'improved')")
    return ok


def traced_pair(trees: dict[str, Path], workload: str, args) -> bool:
    """One traced run per side: layer table and the exact-repeat diff."""
    runs = {side: run_once(trees[side], workload, args.seed, args.seconds,
                           trace=True) for side in ("base", "new")}
    base, new = runs["base"], runs["new"]
    print(f"  traced pair ({fmt(args.seconds / 3)} s each)")
    print(f"  {'per-layer metric':34s} {'base':>14s} {'new':>14s}")
    exact = [("result_digest", base["result_digest"], new["result_digest"]),
             ("attempted", base["attempted"], new["attempted"]),
             ("failed", base["failed"], new["failed"])]
    for name, metric in base["metrics"].items():
        a, b = metric["value"], new["metrics"][name]["value"]
        if metric["unit"] == "count":
            exact.append((name, a, b))
        if (a or b) and name.endswith((".self_s", ".calls")):
            spec = "14.0f" if metric["unit"] == "count" else "14.4f"
            print(f"  {name:34s} {a:{spec}} {b:{spec}}")
    differing = [row for row in exact if row[1] != row[2]]
    print(f"  exact-repeat values: {len(exact) - len(differing)} of "
          f"{len(exact)} identical")
    for name, a, b in differing:
        print(f"    {name:32s} {a} -> {b}")
    return base["correct"] and new["correct"]


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, metavar="REV")
    parser.add_argument("--workload", choices=names,
                        help="default: all of " + ", ".join(names))
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    baseline = Path(tempfile.mkdtemp(prefix="ab-baseline-"))
    try:
        sha = unpack(args.baseline, baseline)
        trees = {"base": baseline, "new": ROOT}
        ok = True
        for workload in [args.workload] if args.workload else names:
            print(f"== {workload}: {args.pairs} pairs, seed {args.seed}, "
                  f"{fmt(args.seconds)} s per run, base {sha[:7]} vs new "
                  f"{ROOT}", flush=True)
            ok &= untraced_pairs(trees, workload, args, declared)
            ok &= traced_pair(trees, workload, args)
        return 0 if ok else 1
    finally:
        shutil.rmtree(baseline, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
