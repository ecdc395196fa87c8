"""Alternating end-to-end benchmark runs of two checkouts, summed up as pair medians.

Run from anywhere:

    python3 scripts/bench_pairs.py BEFORE AFTER --workload oracle --pairs 6 --seconds 4
    python3 scripts/bench_pairs.py BEFORE AFTER --workload shipped --workload oracle --pairs 1 --seconds 1

BEFORE and AFTER are checkout directories. Each pair runs
`bench/run.py --workload W --seed S --seconds T` once in each checkout,
one after the other; the side that goes first alternates from pair to pair,
so a machine that speeds up or slows down during the pairs favours neither.
`--workload` may be given more than once; the workloads run one after the
other, and each gets its own block of output. For every end-to-end metric
that `BENCHMARK.json` (in this checkout) names, a block prints each side's
median and quartiles, the ratio of the medians (after / before) and the
number of pairs AFTER won, by the metric's direction; ties count for
neither side. A metric whose AFTER median is worse than the BEFORE median
by more than the metric's `bound` in `BENCHMARK.json` is marked
`WORSE BEYOND BOUND`, and a metric whose two medians differ by less than
the distance between the BEFORE runs' quartiles is marked `within spread`:
that run cannot tell the two sides apart. A metric on which AFTER won at
least 9 of every 10 pairs and whose medians differ by more than that
distance is marked `clear`: the run shows a gain. No mark changes the exit
code. It exits 1 when a run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one untraced run's output: `correct`, `attempted`, `failed` and `metrics`."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: bench/run.py exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{checkout}: {workload} seed {seed}: the benchmark reports an incorrect output")
    return result


def quartiles(values: list[float]) -> list[float]:
    """The lower quartile, the median and the upper quartile; one value is all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summary(values: list[float]) -> str:
    """The median and, in brackets, the quartiles."""
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def within_spread(before: list[float], after: list[float]) -> bool:
    """Whether the two medians differ by less than the distance between the BEFORE runs' quartiles."""
    q1, median, q3 = quartiles(before)
    return abs(quartiles(after)[1] - median) < q3 - q1


def clear(before: list[float], after: list[float], won: int) -> bool:
    """Whether AFTER won at least 9 of every 10 pairs and the medians differ by more than the BEFORE quartile spread."""
    q1, median, q3 = quartiles(before)
    return 10 * won >= 9 * len(before) and abs(quartiles(after)[1] - median) > q3 - q1


def beyond_bound(before: float, after: float, metric: dict) -> bool:
    """Whether `after` is worse than `before` by more than the metric's relative bound."""
    change = (after - before) / before if before else 0.0
    return (change if metric["better"] == "lower" else -change) > metric["bound"]


def report(args, workload: str, metrics: list[dict]) -> None:
    """Run the pairs of one workload and print its block."""
    sides: dict[str, list[dict]] = {"before": [], "after": []}
    for n in range(args.pairs):
        order = ("before", "after") if n % 2 == 0 else ("after", "before")
        for side in order:
            sides[side].append(run(getattr(args, side), workload, args.seed, args.seconds))

    print(f"{workload} seed {args.seed}, {args.pairs} pair(s) of {args.seconds:g} s: {args.before} -> {args.after}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before = [r["metrics"][name]["value"] for r in sides["before"]]
        after = [r["metrics"][name]["value"] for r in sides["after"]]
        won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        b, a = statistics.median(before), statistics.median(after)
        ratio = f"{a / b:.4f}" if b else "-"
        mark = f", WORSE BEYOND BOUND {m['bound']:g}" if beyond_bound(b, a, m) else ""
        mark += ", within spread" if within_spread(before, after) else ""
        mark += ", clear" if clear(before, after, won) else ""
        print(f"{name} ({m['unit']}): {summary(before)} -> {summary(after)}, ratio {ratio}, won {won}/{args.pairs}"
              f"{mark}")
    for side, runs in sides.items():
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"failed_share {side}: {failed / attempted if attempted else 0:.4f} ({failed} of {attempted} ops)")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", action="append", required=True, help="may be given more than once")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for n, workload in enumerate(args.workload):
        if n:
            print()
        report(args, workload, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
