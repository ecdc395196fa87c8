"""Seeded random generators for property tests and oracle certification."""

from __future__ import annotations

import random
from fractions import Fraction

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
    agents = []
    for agent in AGENTS:
        own = [r for r, o in owner_of.items() if o == agent]
        beliefs: list[tuple[str, object]] = []
        k = 0
        for r in own:
            k += 1
            beliefs.append((f"{agent}.b{k}", atom("have", agent, r)))
        for _ in range(rng.randint(1, 3)):
            needed = rng.sample(resources, k=min(len(resources), rng.randint(1, 2)))
            k += 1
            beliefs.append(
                (
                    f"{agent}.b{k}",
                    Rule(
                        f"{agent}.b{k}",
                        atom("can", "X", f"goal_{agent}"),
                        tuple(atom("have", "X", r) for r in needed),
                    ),
                )
            )
        agents.append(
            AgentState(
                id=agent,
                units={
                    "B": Theory(beliefs),
                    "D": Theory(),
                    "I": Theory([(f"{agent}.g", atom("can", agent, f"goal_{agent}"))]),
                },
                resources=tuple(
                    (r, Fraction(rng.randint(0, 2), 2)) for r in own
                ),
                strategy=rng.choice([Strategy.EAGER, Strategy.CAUTIOUS]),
                general=GENERAL_ALL,
            )
        )
    mediator_own = [r for r, o in owner_of.items() if o == MEDIATOR]
    mediator = MediatorState(
        MEDIATOR,
        Theory([(f"M.{i + 1}", atom("have", MEDIATOR, r)) for i, r in enumerate(mediator_own)], GENERAL_ALL),
        tuple((r, Fraction(0)) for r in mediator_own),
    )
    return Scenario(f"generated_{rng.randint(0, 10**6)}", tuple(agents), mediator, MediationConfig())
