"""Outcome counts of the mediation over a small scope: every generated scenario of a few resources.

Run from anywhere in a checkout:

    python3 scripts/scope_counts.py                 # the 2-resource scope
    python3 scripts/scope_counts.py --resources 1

The scope is `tests/generators.small_scope`: each scenario of
`make_scenario`'s shape over the given number of resources, one per class
of scenarios equal up to swapping the two agents or permuting the
resources. Each scenario is mediated, and certified as `mediatrix oracle`
does. The script prints:

- the scope size, successes and failures;
- undelivered successes: successes whose solution assigns an agent a plan
  that needs a resource the agent does not hold in the final ownership;
- gap runs: failures although the planner finds a solution for the
  mediator's theory under full disclosure (`oracle.full_disclosure`);
- certify diffs: scenarios on which the oracle and the planner disagree;
- its own runtime.

The mediation is not symmetric in the agents' ids, so a skipped scenario
can end otherwise than the one kept. On a 2-vCPU machine the 2-resource
scope takes about 5 s and the 3-resource scope about 4.5 minutes.

It only reports: no count fails it. It exits 1 when a scenario raises,
and names that scenario.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from generators import small_scope  # noqa: E402
from mediatrix import oracle  # noqa: E402
from mediatrix.mediator import create_solution, mediate  # noqa: E402


def counts(n_resources: int) -> dict[str, int]:
    """The counts the script prints, by name, in print order."""
    names = ["scenarios", "successes", "failures", "undelivered successes", "gap runs", "certify diffs"]
    out = dict.fromkeys(names, 0)
    for s in small_scope(n_resources):
        try:
            outcome = mediate(list(s.agents), s.mediator, s.config, s.name)
            gamma, goals = oracle.full_disclosure(s)
            diffs = oracle.oracle_diff(gamma, goals, s.config.proof_depth)
            solvable = create_solution(gamma, goals, depth=s.config.proof_depth) is not None
        except Exception:
            print(f"scenario {s.name} raised", file=sys.stderr)
            raise
        held = {agent: set(resources) for agent, resources in outcome.transcript.final_ownership}
        out["scenarios"] += 1
        if outcome.status == "success":
            out["successes"] += 1
            plans = outcome.solution.assignment  # a success always carries its solution
            out["undelivered successes"] += any(not set(p.needed) <= held.get(p.agent, set()) for p in plans)
        else:
            out["failures"] += 1
            out["gap runs"] += solvable
        out["certify diffs"] += bool(diffs)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--resources", type=int, default=2, choices=(1, 2, 3), help="resources per scenario (default 2)"
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    found = counts(args.resources)
    print(f"scope: {args.resources} resource(s)")
    for name, value in found.items():
        print(f"{name}: {value}")
    print(f"runtime: {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
