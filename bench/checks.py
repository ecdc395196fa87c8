"""Output checks for the benchmark workloads.

Each check compares what the program produced with facts the benchmark
knows on its own: a hand-written table for the shipped scenarios, and the
generator's `Model` for generated ones. None of them calls the function
whose output it checks. A check returns a list of `Failure`s; empty means
the output is correct.
"""

from __future__ import annotations

import json
from typing import NamedTuple

# The one defect the program is known to have at the time this benchmark
# was written: a run reports success although a transfer it proposed and
# both agents accepted was never delivered (an ASK to a mediator without
# generosity is dropped, or a donor refuses). It is counted in `failed`.
KNOWN_DEFECT = "undelivered"


class Failure(NamedTuple):
    kind: str
    detail: str


# status, rounds and final ownership per shipped scenario, as their header
# comments describe them; home_improvement is acceptance criterion 1.
SHIPPED = {
    "both_reject": ("success", 2, {"alpha": {"widget"}, "beta": {"gadget"}, "mu": set()}),
    "home_improvement": (
        "success",
        2,
        {
            "alpha": {"hammer", "nail", "picture"},
            "beta": {"mirror", "screw", "screwdriver"},
            "mu": set(),
        },
    ),
    "home_improvement_no_m2": (
        "failure",
        3,
        {"alpha": {"hammer", "picture", "screw"}, "beta": {"mirror", "nail"}, "mu": {"screwdriver"}},
    ),
    "self_sufficient": ("success", 1, {"alpha": {"stick"}, "beta": {"stone"}, "mu": set()}),
    "single_donor": ("failure", 2, {"alpha": set(), "beta": {"bench", "tool1"}, "mu": set()}),
    "two_donor": ("success", 1, {"alpha": {"tool2"}, "beta": {"bench", "tool1"}, "mu": set()}),
}


def _ownership(transcript: dict) -> dict[str, set[str]]:
    return {agent: set(held) for agent, held in transcript["final_ownership"]}


def check_shipped(name: str, output: bytes) -> list[Failure]:
    """The JSON transcript of a shipped scenario against the expected table."""
    status, rounds, ownership = SHIPPED[name]
    t = json.loads(output)
    out = []
    if t["scenario_name"] != name:
        out.append(Failure("shipped", f"{name}: transcript names {t['scenario_name']!r}"))
    if t["outcome"] != status:
        out.append(Failure("shipped", f"{name}: outcome {t['outcome']}, expected {status}"))
    if len(t["rounds"]) != rounds:
        out.append(Failure("shipped", f"{name}: {len(t['rounds'])} rounds, expected {rounds}"))
    if _ownership(t) != ownership:
        out.append(Failure("shipped", f"{name}: final ownership {_ownership(t)}, expected {ownership}"))
    return out


def check_scaled(model, output: bytes, outcome) -> list[Failure]:
    """A generated mediation: resources are conserved and a success is real.

    `output` is the JSON transcript; `outcome` is the returned `Outcome`,
    read only for the final solution's plans and transfers.
    """
    t = json.loads(output)
    owned = _ownership(t)
    out = []
    held = sorted(r for rs in owned.values() for r in rs)
    declared = sorted(r for r, o in model.owner.items() if o is not None)
    if held != declared:
        out.append(Failure("conservation", f"final ownership holds {held}, declared {declared}"))
    if t["outcome"] != outcome.status:
        out.append(Failure("outcome", f"transcript says {t['outcome']}, outcome says {outcome.status}"))
    if outcome.status != "success":
        return out
    undelivered = set()
    for give in outcome.solution.transfers:
        if give.resource not in owned.get(give.receiver, set()):
            undelivered.add((give.receiver, give.resource))
            out.append(Failure(KNOWN_DEFECT, f"{give} was accepted but never delivered"))
    for p in outcome.solution.assignment:
        needed = frozenset(p.needed)
        if needed not in model.plans[p.agent]:
            out.append(Failure("plan", f"{p.agent} assigned {p.rule_label} needing {sorted(needed)}, no such rule"))
        missing = {r for r in needed if r not in owned.get(p.agent, set())}
        if {(p.agent, r) for r in missing} - undelivered:
            out.append(Failure("plan", f"{p.agent} lacks {sorted(missing)} for {p.rule_label} on success"))
    return out


def check_oracle(model, output: bytes, solution) -> list[Failure]:
    """An oracle verdict: no diffs, and the planner's transfers replay.

    `solution` is what the planner returned inside the certification,
    captured on the way out; its transfers are replayed against the
    generator's owners.
    """
    out = []
    diffs = json.loads(output)
    if diffs:
        out.append(Failure("oracle", f"planner and enumerator disagree: {diffs}"))
    if solution is None:
        return out
    world: dict[str, set[str]] = {}
    for r, o in model.owner.items():
        if o is not None:
            world.setdefault(o, set()).add(r)
    for give in solution.transfers:
        if model.owner.get(give.resource) != give.giver or give.giver == give.receiver:
            out.append(Failure("replay", f"{give}: {give.resource} belongs to {model.owner.get(give.resource)}"))
            continue
        if give.resource not in world.get(give.giver, set()):
            out.append(Failure("replay", f"{give}: {give.resource} already given away"))
            continue
        world[give.giver].discard(give.resource)
        world.setdefault(give.receiver, set()).add(give.resource)
    for p in solution.assignment:
        needed = frozenset(p.needed)
        if needed not in model.plans[p.agent]:
            out.append(Failure("plan", f"{p.agent} assigned {p.rule_label} needing {sorted(needed)}, no such rule"))
        if not needed <= world.get(p.agent, set()):
            out.append(Failure("replay", f"{p.agent} lacks {sorted(needed - world.get(p.agent, set()))} after the transfers"))
    return out


def check_parsed(model, scenario, output: bytes, reparse) -> list[Failure]:
    """A valid input: the parse matches what was generated and round-trips."""
    out = []
    agents = {a.id: a for a in scenario.agents}
    if sorted(agents) != sorted(model.beliefs) or scenario.mediator.id != "m":
        out.append(Failure("parse", f"participants {sorted(agents)} + {scenario.mediator.id}"))
        return out
    for a, state in agents.items():
        if state.strategy.value != model.strategy[a]:
            out.append(Failure("parse", f"{a} strategy {state.strategy.value}, wrote {model.strategy[a]}"))
        if len(state.unit("B")) != model.beliefs[a] or len(state.unit("I")) != 1:
            out.append(Failure("parse", f"{a} holds {len(state.unit('B'))} beliefs, wrote {model.beliefs[a]}"))
        mine = sorted(r for r, o in model.owner.items() if o == a)
        if sorted(name for name, _ in state.resources) != mine:
            out.append(Failure("parse", f"{a} resources {state.resources}, wrote {mine}"))
    if len(scenario.mediator.theory) != model.mediator_entries:
        out.append(Failure("parse", f"mediator holds {len(scenario.mediator.theory)} entries, wrote {model.mediator_entries}"))
    generous = {g.owner for g in scenario.mediator.theory.general if g.kind.value == "generosity"}
    if generous != ({"m"} if model.generous else set()):
        out.append(Failure("parse", f"generosity owners {generous}"))
    if reparse(output) != scenario:
        out.append(Failure("round_trip", "serialized scenario parses to a different scenario"))
    return out


def check_rejected(fault_line: int, error, parse_error_type) -> list[Failure]:
    """A malformed input: a ParseError located on the line of the fault."""
    if error is None:
        return [Failure("parse", "malformed input was accepted")]
    if not isinstance(error, parse_error_type):
        return [Failure("parse", f"raised {type(error).__name__}: {error}")]
    if error.line != fault_line:
        return [Failure("parse", f"error reported on line {error.line}, fault is on line {fault_line}")]
    return []
