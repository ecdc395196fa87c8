"""Checkers that certify what the mediation computes, kept out of the package.

Each re-derives one property of an argument, an attack or a solution
straight from its definition, without the search that produced it, so a
small checker stands behind a large search.
"""

from __future__ import annotations

import itertools
import json
import re

from mediatrix.agent import NotOwner, execute_give
from mediatrix.argumentation import Argument, Attack, AttackKind
from mediatrix.lang import Constant, Literal, Modality, Variable
from mediatrix.logic import DEFAULT_PROOF_DEPTH, Rule, Theory, prove
from mediatrix.mediator import Solution
from mediatrix.scenario import Scenario

# every proper subset is tried, 2^12 - 1 proof searches at most
MINIMALITY_LABELS = 12


def minimality_check(arg: Argument, delta: Theory, depth: int = DEFAULT_PROOF_DEPTH) -> bool:
    """True iff no proper subset of the support proves the conclusion.

    The check is exact: a support of more than MINIMALITY_LABELS labels
    raises ValueError, and a subset whose search hits the depth bound
    raises DepthExceeded, since that subset may prove the conclusion.
    """
    labels = sorted(arg.labels())
    if len(labels) > MINIMALITY_LABELS:
        raise ValueError(f"a support of {len(labels)} labels is over the {MINIMALITY_LABELS} checked exactly")
    for k in range(len(labels)):
        for subset in itertools.combinations(labels, k):
            if prove(delta.restricted(subset), arg.conclusion, depth) is not None:
                return False
    return True


def find_attacks(a: Argument, b: Argument) -> list[Attack]:
    """All rebuts and undercuts of b by a."""
    attacks = []
    if a.conclusion == b.conclusion.complement():
        attacks.append(Attack(AttackKind.REBUT, a, b, b.conclusion))
    for item in b.fact_items():
        if a.conclusion == item.item.complement():
            attacks.append(Attack(AttackKind.UNDERCUT, a, b, item.item))
    return attacks


def solution_feasible(solution: Solution, ownership: dict[str, frozenset[str]]) -> bool:
    """Replay check: transfers execute in order and every plan is then met."""
    world = dict(ownership)
    try:
        for give in solution.transfers:
            world = execute_give(world, give)
    except NotOwner:
        return False
    return all(set(p.needed) <= world.get(p.agent, frozenset()) for p in solution.assignment)


_GIVE = re.compile(r"give\((\w+), (\w+), (\w+)\)")


def delivery_failures(scenario: Scenario, transcript_json: bytes) -> list[str]:
    """What a JSON transcript claims about resources and does not deliver; empty when every claim holds.

    Reads only the scenario and the transcript, and calls no planner,
    prover or mediator function. The GIVE messages are replayed from the
    declared owners: each must move a resource its giver holds, and the
    replay must end at `final_ownership`. On success, each agent's declared
    goal must have a declared rule whose `have(agent, r)` preconditions
    name only resources the agent holds at the end. Other preconditions
    are not read, so that check is a necessary condition only.
    """
    t = json.loads(transcript_json)
    world = {a.id: {r for r, _ in a.resources} for a in scenario.agents}
    world[scenario.mediator.id] = {r for r, _ in scenario.mediator.resources}
    out = []
    for rnd in t["rounds"]:
        for m in rnd["messages"]:
            if m["kind"] != "give":
                continue
            giver, receiver, resource = _GIVE.fullmatch(m["payload"]).groups()
            if resource not in world.get(giver, ()):
                out.append(f"round {rnd['number']}: {m['payload']} moves a resource {giver} does not hold")
                continue
            world[giver].discard(resource)
            world.setdefault(receiver, set()).add(resource)
    final = {owner: set(held) for owner, held in t["final_ownership"]}
    if world != final:
        out.append(f"the GIVE messages end at {[(o, sorted(h)) for o, h in sorted(world.items())]}, not at final_ownership")
    if t["outcome"] == "success":
        theories = [scenario.mediator.theory] + [a.unit("B") for a in scenario.agents]
        rules = [r for theory in theories for _, r in theory.rules]
        for agent in scenario.agents:
            held = final.get(agent.id, set())
            for _, goal in agent.goals():
                if not any(_met_by(r, goal, agent.id, held) for r in rules):
                    out.append(f"success, but no declared rule for {agent.id}'s goal {goal} is met by {sorted(held)}")
    return out


def _met_by(rule: Rule, goal: Literal, agent: str, held: set[str]) -> bool:
    """Whether the rule's head matches the ground goal and each `have(agent, r)` precondition has r in `held`."""
    head = rule.head
    if (head.predicate, len(head.args), head.positive) != (goal.predicate, len(goal.args), goal.positive):
        return False
    binding: dict[str, Constant] = {}
    for term, value in zip(head.args, goal.args):
        if isinstance(term, Variable):
            term = binding.setdefault(term.name, value)
        if term != value:
            return False
    me = Constant(agent)
    for b in rule.body:
        if b.predicate != "have" or not b.positive or b.modality is not Modality.NONE or len(b.args) != 2:
            continue
        owner, resource = (binding.get(t.name, t) if isinstance(t, Variable) else t for t in b.args)
        if owner == me and not (isinstance(resource, Constant) and resource.symbol in held):
            return False
    return True
