"""Work counts of the traced benchmark, written to or checked against a `BENCH_<n>.json`.

Run from anywhere in a checkout:

    python3 scripts/bench_counts.py BENCH_19.json   # write this checkout's counts
    python3 scripts/bench_counts.py                 # check them against the newest BENCH_<n>.json

Each of the four workloads runs traced for one second on seeds 1-3. A run
is recorded as its output digest and every metric whose unit is `count`:
the `.calls` of each traced function and the work counts beside them
(shrink re-proofs, depth-bound hits, mediation rounds, revised items,
oracle candidates). Both are fixed for a seed, whatever the machine's
speed, so the check requires exact equality. It exits 1 on any
difference and on a run whose output the benchmark does not call correct.
Before it writes a file, it prints that file's differences from the newest
other `BENCH_<n>.json`, and exits 0.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("shipped", "scaled", "oracle", "parse")
SEEDS = (1, 2, 3)
COMMAND = "python3 bench/run.py --workload {workload} --seed {seed} --seconds 1 --trace 1"


def measure(workload: str, seed: int) -> dict:
    argv = COMMAND.format(workload=workload, seed=seed).split()
    lines = subprocess.run(
        [sys.executable, *argv[1:]], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.splitlines()
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{workload} seed {seed}: the benchmark reports an incorrect output")
    return {
        "digest": re.search(r"digest ([0-9a-f]{64})", lines[0]).group(1),
        "counts": {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"},
    }


def newest(other_than: Path | None = None) -> Path:
    numbered = [
        (int(m.group(1)), p)
        for p in ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and p != other_than
    ]
    if not numbered:
        raise SystemExit(f"no BENCH_<n>.json in {ROOT}")
    return max(numbered)[1]


def _counts(run: dict) -> dict:
    return run.get("counts", run.get("calls", {}))  # files up to BENCH_18.json hold only the `.calls`


def differences(want: dict, got: dict) -> list[str]:
    out = []
    for run in sorted(want.keys() | got.keys()):
        w, g = want.get(run, {}), got.get(run, {})
        if w.get("digest") != g.get("digest"):
            out.append(f"{run}: digest {w.get('digest')} -> {g.get('digest')}")
        wc, gc = _counts(w), _counts(g)
        out += [f"{run}: {k} {wc.get(k)} -> {gc.get(k)}" for k in sorted(wc.keys() | gc.keys()) if wc.get(k) != gc.get(k)]
    return out


def main(argv: list[str]) -> int:
    runs = {f"{w} seed {s}": measure(w, s) for w in WORKLOADS for s in SEEDS}
    out = Path(argv[0]).resolve() if argv else None
    path = newest(out)
    diffs = differences(json.loads(path.read_text())["runs"], runs)
    for line in diffs:
        print(line)
    print(f"{len(runs)} runs, {len(diffs)} difference(s) from {path.name}")
    if out is not None:
        out.write_text(json.dumps({"command": COMMAND, "runs": runs}, indent=2) + "\n")
        return 0
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
