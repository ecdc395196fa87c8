"""Brute-force certification of solution construction.

The enumerator walks every joint plan assignment and derives the forced
transfer set for each, keeping those that satisfy the same admissibility
conditions the planner enforces. Diffing its verdict against
create_solution certifies soundness and completeness on small scenarios.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .agent import GiveAction
from .lang import Literal
from .logic import (
    DEFAULT_PROOF_DEPTH,
    GIVE_REFUSED,
    DepthExceeded,
    Entry,
    Theory,
    base_goals,
    believed_ownership,
    generosity,
    goals_of,
    ground_args,
    prove,
    ranked_plans,
)
from .mediator import create_solution
from .scenario import Scenario


class Candidate(NamedTuple):
    plans: tuple[tuple[str, str], ...]  # (agent, rule label), agent order
    transfers: frozenset[GiveAction]


def brute_force_candidates(
    gamma: Theory,
    goals: dict[str, Literal],
    depth: int = DEFAULT_PROOF_DEPTH,
) -> list[Candidate]:
    """Every admissible joint plan assignment with its forced transfers.

    A resource has a unique believed owner, so once plans are fixed the
    transfer set is forced; admissibility mirrors the planner: the donor
    must exist, differ from the taker, be declared generous in gamma or
    not need the item for its own assigned plan, the transfer must not be
    blocked, and a transfer-intention argument must be provable. Each
    distinct transfer is proved at most once per call.
    """
    if not goals:
        return []
    agents = sorted(goals)
    owner_of = believed_ownership(gamma)
    owned = {a: {r for r, o in owner_of.items() if o == a} for a in agents}
    blocked = {GiveAction(*args) for args in ground_args(gamma, GIVE_REFUSED)}  # intentions gamma negates
    per_agent = [ranked_plans(gamma, a, goals[a], owned[a]) for a in agents]
    if any(not plans for plans in per_agent):
        return []

    provable: dict[GiveAction, bool] = {}

    def is_provable(give: GiveAction) -> bool:
        if give not in provable:
            try:
                provable[give] = prove(gamma, give.intention(give.receiver), depth) is not None
            except DepthExceeded:
                provable[give] = False
        return provable[give]

    # the donors whose own plan's needs may block a transfer: the agents that are not generous
    keeps = {a: i for i, a in enumerate(agents) if generosity(gamma.general, a) is None}
    out: list[Candidate] = []
    for assignment in itertools.product(*per_agent):
        transfers: set[GiveAction] = set()
        ok = True
        for p in assignment:
            for res in p.unmet:
                donor = owner_of.get(res)
                if donor is None or donor == p.agent:
                    ok = False
                    break
                if donor in keeps and res in assignment[keeps[donor]].needed:
                    ok = False
                    break
                give = GiveAction(donor, p.agent, res)
                if give in blocked or any(t.resource == res for t in transfers):
                    ok = False
                    break
                transfers.add(give)
            if not ok:
                break
        if ok and all(is_provable(give) for give in transfers):
            out.append(
                Candidate(tuple((p.agent, p.rule_label) for p in assignment), frozenset(transfers))
            )
    return out


def oracle_diff(
    gamma: Theory,
    goals: dict[str, Literal],
    depth: int = DEFAULT_PROOF_DEPTH,
) -> list[str]:
    """Discrepancies between the planner and the enumerator; empty means agreement."""
    candidates = brute_force_candidates(gamma, goals, depth)
    solution = create_solution(gamma, goals, depth=depth)
    diffs = []
    if solution is None:
        if candidates:
            diffs.append(
                f"planner found no solution but {len(candidates)} candidate(s) exist, "
                f"e.g. plans {candidates[0].plans}"
            )
        return diffs
    found = Candidate(
        tuple((p.agent, p.rule_label) for p in solution.assignment),
        frozenset(solution.transfers),
    )
    if not candidates:
        diffs.append(f"planner returned {found.plans} but the enumerator finds no candidate")
    elif found not in candidates:
        diffs.append(
            f"planner returned {found.plans} with transfers "
            f"{sorted(map(str, found.transfers))}, not among the enumerator's candidates"
        )
    return diffs


def full_disclosure(scenario: Scenario) -> tuple[Theory, dict[str, Literal]]:
    """The mediator's theory after every agent disclosed everything, and one goal atom per agent.

    Each agent's goal is the one the mediation would plan with once the
    agent has disclosed. The theory's general principles say who is generous.
    """
    case = gamma = scenario.mediator.theory
    # as in the mediation, an agent's goal that the case states moves to the end under its new label
    case_goals = {f for agent in scenario.agents for _, f in base_goals(case, agent.id)}
    n = itertools.count(1)
    additions: list[tuple[str, Entry]] = []
    added: set[Entry] = set()

    def offer(item: Entry) -> None:
        if item not in added and (not gamma.contains(item) or item in case_goals):
            added.add(item)
            additions.append((f"O.{next(n)}", item))

    for agent in scenario.agents:
        for _, item in agent.unit("B").entries():
            offer(item)
        for _, fact in agent.unit("I").facts:
            offer(agent.intention(fact))
        for _, fact in agent.have_facts():
            offer(fact)
    moved = case_goals & added
    if moved:
        gamma = gamma.filtered(lambda l, e: e not in moved)
    gamma = gamma.extended(additions)
    return gamma, goals_of(gamma, [agent.id for agent in scenario.agents], case)


def certify(scenario: Scenario, depth: int = DEFAULT_PROOF_DEPTH) -> list[str]:
    """Oracle verdict for a scenario under full disclosure."""
    return oracle_diff(*full_disclosure(scenario), depth=depth)
