"""Alternating end-to-end benchmark runs of two checkouts, summed up as pair medians.

Run from anywhere:

    python3 scripts/bench_pairs.py BEFORE AFTER --workload oracle --pairs 6 --seconds 4

BEFORE and AFTER are checkout directories. Each pair runs
`bench/run.py --workload W --seed S --seconds T` once in each checkout,
one after the other; the side that goes first alternates from pair to pair,
so a machine that speeds up or slows down during the pairs favours neither.
For every end-to-end metric that `BENCHMARK.json` (in this checkout) names,
it prints each side's median and quartiles, the ratio of the medians
(after / before) and the number of pairs AFTER won, by the metric's
direction; ties count for neither side. It exits 1 when a run fails or
reports an incorrect output.
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


def summary(values: list[float]) -> str:
    """The median and, in brackets, the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    sides: dict[str, list[dict]] = {"before": [], "after": []}
    for n in range(args.pairs):
        order = ("before", "after") if n % 2 == 0 else ("after", "before")
        for side in order:
            sides[side].append(run(getattr(args, side), args.workload, args.seed, args.seconds))

    print(f"{args.workload} seed {args.seed}, {args.pairs} pair(s) of {args.seconds:g} s: {args.before} -> {args.after}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before = [r["metrics"][name]["value"] for r in sides["before"]]
        after = [r["metrics"][name]["value"] for r in sides["after"]]
        won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        b, a = statistics.median(before), statistics.median(after)
        ratio = f"{a / b:.4f}" if b else "-"
        print(f"{name} ({m['unit']}): {summary(before)} -> {summary(after)}, ratio {ratio}, won {won}/{args.pairs}")
    for side, runs in sides.items():
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"failed_share {side}: {failed / attempted if attempted else 0:.4f} ({failed} of {attempted} ops)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
