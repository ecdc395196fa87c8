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
    mediator: str,
    depth: int = DEFAULT_PROOF_DEPTH,
) -> list[Candidate]:
    """Every admissible joint plan assignment with its forced transfers.

    A resource has a unique believed owner, so once plans are fixed the
    transfer set is forced; admissibility mirrors the planner: the donor
    must exist, differ from the taker, be declared generous in gamma or
    not need the item for its own assigned plan (`mediator` has no plan),
    the transfer must not be blocked, and a transfer-intention argument
    must be provable. What one plan decides alone is screened once, before
    the assignments: each plan's transfers are built, and a plan is dropped
    when one of them has no donor, its own agent as donor, or is blocked.
    Each distinct transfer is proved at most once per call.
    """
    if not goals:
        return []
    agents = sorted(goals)
    owner_of = believed_ownership(gamma)
    if generosity(gamma.general, mediator) is None:  # then a resource the mediator holds has no donor
        owner_of = {r: o for r, o in owner_of.items() if o != mediator}
    owned = {a: {r for r, o in owner_of.items() if o == a} for a in agents}
    blocked = {GiveAction(*args) for args in ground_args(gamma, GIVE_REFUSED)}  # intentions gamma negates
    # the donors whose own plan's needs may block a transfer: the agents that are not generous
    keeps = {a: i for i, a in enumerate(agents) if generosity(gamma.general, a) is None}
    # per agent, the plans that pass the screen, each with its transfers and, for each donor that keeps
    # what its own plan needs, where that plan stands in an assignment and the resource
    per_agent = []
    for a in agents:
        screened = []
        for p in ranked_plans(gamma, a, goals[a], owned[a]):
            gives, kept = [], []
            for res in p.unmet:
                donor = owner_of.get(res)
                give = GiveAction(donor, a, res)
                if donor is None or donor == a or give in blocked:
                    break
                gives.append(give)
                if donor in keeps:
                    kept.append((keeps[donor], res))
            else:
                screened.append((p, gives, kept))
        if not screened:
            return []
        per_agent.append(screened)

    provable: dict[GiveAction, bool] = {}

    def is_provable(give: GiveAction) -> bool:
        if give not in provable:
            try:
                provable[give] = prove(gamma, give.intention(give.receiver), depth) is not None
            except DepthExceeded:
                provable[give] = False
        return provable[give]

    out: list[Candidate] = []
    for assignment in itertools.product(*per_agent):
        transfers: set[GiveAction] = set()
        taken: set[str] = set()
        ok = True
        for _, gives, kept in assignment:
            for i, res in kept:
                if res in assignment[i][0].needed:  # the donor's own plan needs what it would give
                    ok = False
            for give in gives:
                if give.resource in taken:  # two plans take one resource
                    ok = False
                taken.add(give.resource)
                transfers.add(give)
        if ok and all(is_provable(give) for give in transfers):
            out.append(Candidate(tuple((p.agent, p.rule_label) for p, _, _ in assignment), frozenset(transfers)))
    return out


def oracle_diff(
    gamma: Theory,
    goals: dict[str, Literal],
    mediator: str,
    depth: int = DEFAULT_PROOF_DEPTH,
) -> list[str]:
    """Discrepancies between the planner and the enumerator; empty means agreement."""
    candidates = brute_force_candidates(gamma, goals, mediator, depth)
    solution = create_solution(gamma, goals, mediator, depth=depth)
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
    added: dict[Entry, None] = {}  # in offer order, which numbers the labels

    def offer(item: Entry) -> None:
        if not gamma.contains(item) or item in case_goals:
            added.setdefault(item)

    for agent in scenario.agents:
        for _, item in agent.unit("B").entries():
            offer(item)
        for _, fact in agent.unit("I").facts:
            offer(agent.intention(fact))
        for _, fact in agent.have_facts():
            offer(fact)
    moved = {f for f in case_goals if f in added}
    if moved:
        gamma = gamma.filtered(lambda l, e: e not in moved)
    gamma = gamma.extended((f"O.{n}", item) for n, item in enumerate(added, 1))
    return gamma, goals_of(gamma, [agent.id for agent in scenario.agents], case)


def certify(scenario: Scenario, depth: int = DEFAULT_PROOF_DEPTH) -> list[str]:
    """Oracle verdict for a scenario under full disclosure."""
    return oracle_diff(*full_disclosure(scenario), scenario.mediator.id, depth)
