"""Seeded random generators for property tests and oracle certification."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

from mediatrix.agent import AgentState, Strategy
from mediatrix.lang import Literal, atom, intends
from mediatrix.logic import GeneralKind, GeneralRule, Rule, Theory
from mediatrix.mediator import MediationConfig, MediatorState
from mediatrix.scenario import Scenario

AGENTS = ("a1", "a2")
MEDIATOR = "m"

GENERAL_ALL = (
    GeneralRule("G.1", GeneralKind.OWNERSHIP),
    GeneralRule("G.2", GeneralKind.REDUCTION),
    GeneralRule("G.3", GeneralKind.GENEROSITY, MEDIATOR),
    GeneralRule("G.4", GeneralKind.UNICITY),
    GeneralRule("G.5", GeneralKind.BENEVOLENCE),
    GeneralRule("G.6", GeneralKind.PARSIMONY),
    GeneralRule("G.7", GeneralKind.UNIQUE_CHOICE),
)


def make_case(rng: random.Random):
    """A mediator-view planning case: (gamma, goals).

    Up to 6 resources spread over two agents and a mediator, up to 4 plan
    rules per agent needing up to 3 resources each, occasional blocked
    transfers and generosity.
    """
    resources = [f"r{i}" for i in range(1, rng.randint(2, 7))]
    owner_of = {r: rng.choice(AGENTS + (MEDIATOR, None)) for r in resources}
    generous = rng.random() < 0.7

    entries: list[tuple[str, object]] = []
    n = 0

    def add(item):
        nonlocal n
        n += 1
        entries.append((f"M.{n}", item))

    for r, owner in owner_of.items():
        if owner is not None:
            add(atom("have", owner, r))

    goals = {}
    for agent in AGENTS:
        goal = atom("can", agent, f"goal_{agent}")
        goals[agent] = goal
        add(intends(agent, goal))
        for _ in range(rng.randint(1, 4)):
            needed = rng.sample(resources, k=min(len(resources), rng.randint(1, 3)))
            add(
                Rule(
                    f"M.{n + 1}",
                    atom("can", "X", f"goal_{agent}"),
                    tuple(atom("have", "X", r) for r in needed),
                )
            )

    if rng.random() < 0.3:
        giver = rng.choice(AGENTS + (MEDIATOR,))
        taker = rng.choice(AGENTS)
        add(intends(taker, atom("give", giver, taker, rng.choice(resources))).complement())

    general = GENERAL_ALL if generous else tuple(g for g in GENERAL_ALL if g.label != "G.3")
    return Theory(entries, general), goals


def make_scenario(rng: random.Random) -> Scenario:
    """A small well-formed mediation scenario with private agent knowledge."""
    resources = [f"r{i}" for i in range(1, rng.randint(2, 6))]
    owner_of = {r: rng.choice(AGENTS + (MEDIATOR,)) for r in resources}
    plans, values, strategies = {}, {}, {}
    for agent in AGENTS:
        plans[agent] = [
            rng.sample(resources, k=min(len(resources), rng.randint(1, 2))) for _ in range(rng.randint(1, 3))
        ]
        values.update((r, Fraction(rng.randint(0, 2), 2)) for r, o in owner_of.items() if o == agent)
        strategies[agent] = rng.choice([Strategy.EAGER, Strategy.CAUTIOUS])
    return _scenario(f"generated_{rng.randint(0, 10**6)}", owner_of, plans, values, strategies)


def _scenario(
    name: str,
    owner_of: dict[str, str],
    plans: dict[str, list[list[str]]],
    values: dict[str, Fraction],
    strategies: dict[str, Strategy],
) -> Scenario:
    """The scenario of `make_scenario`'s shape: each agent believes its holdings, then its plans for its goal."""
    agents = []
    for agent in AGENTS:
        own = [r for r, o in owner_of.items() if o == agent]
        beliefs: list[tuple[str, object]] = [(f"{agent}.b{k}", atom("have", agent, r)) for k, r in enumerate(own, 1)]
        for k, needed in enumerate(plans[agent], len(own) + 1):
            head = atom("can", "X", f"goal_{agent}")
            beliefs.append((f"{agent}.b{k}", Rule(f"{agent}.b{k}", head, tuple(atom("have", "X", r) for r in needed))))
        agents.append(
            AgentState(
                id=agent,
                units={
                    "B": Theory(beliefs),
                    "D": Theory(),
                    "I": Theory([(f"{agent}.g", atom("can", agent, f"goal_{agent}"))]),
                },
                resources=tuple((r, values[r]) for r in own),
                strategy=strategies[agent],
                general=GENERAL_ALL,
            )
        )
    mediator_own = [r for r, o in owner_of.items() if o == MEDIATOR]
    mediator = MediatorState(
        MEDIATOR,
        Theory([(f"M.{i + 1}", atom("have", MEDIATOR, r)) for i, r in enumerate(mediator_own)], GENERAL_ALL),
        tuple((r, Fraction(0)) for r in mediator_own),
    )
    return Scenario(name, tuple(agents), mediator, MediationConfig())


def small_scope(n_resources: int) -> Iterator[Scenario]:
    """Every scenario of `make_scenario`'s shape over `n_resources` resources, one per symmetry class.

    Each resource is held by a1, a2 or m: by an agent at value 0, 1/2 or 1, by m at 0. Each agent is
    eager or cautious and has one plan, or two plans with different bodies in either order; a body
    needs one or two resources, in resource order. A scenario is described by these choices, and of the
    scenarios equal up to swapping a1 and a2 or permuting the resources only the least description is
    yielded. The descriptions are yielded in increasing order.
    """
    holders = [(a, v) for a in AGENTS for v in range(3)] + [(MEDIATOR, 0)]
    bodies = [b for k in (1, 2) for b in itertools.combinations(range(n_resources), k)]
    plans = sorted([(b,) for b in bodies] + list(itertools.permutations(bodies, 2)))
    minds = list(itertools.product(range(2), plans))  # an agent's strategy, as an index, and plans
    swapped = {AGENTS[0]: AGENTS[1], AGENTS[1]: AGENTS[0], MEDIATOR: MEDIATOR}

    def image(held, agents, perm, swap):
        moved = [None] * n_resources
        for i, (owner, v) in enumerate(held):
            moved[perm[i]] = (swapped[owner] if swap else owner, v)
        agents = [(strategy, tuple(tuple(sorted(perm[i] for i in b)) for b in ps)) for strategy, ps in agents]
        return tuple(moved), tuple(reversed(agents) if swap else agents)

    symmetries = list(itertools.product(itertools.permutations(range(n_resources)), (False, True)))
    resources = [f"r{i}" for i in range(1, n_resources + 1)]
    n = 0
    for held in itertools.product(holders, repeat=n_resources):
        for agents in itertools.product(minds, repeat=2):
            if any(image(held, agents, *sym) < (held, agents) for sym in symmetries):
                continue
            n += 1
            yield _scenario(
                f"scope{n_resources}_{n}",
                {r: owner for r, (owner, _) in zip(resources, held)},
                {a: [[resources[i] for i in b] for b in ps] for a, (_, ps) in zip(AGENTS, agents)},
                {r: Fraction(v, 2) for r, (_, v) in zip(resources, held)},
                {a: (Strategy.EAGER, Strategy.CAUTIOUS)[strategy] for a, (strategy, _) in zip(AGENTS, agents)},
            )
