"""Seeded random generators for property tests and oracle certification."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

from hypothesis import strategies as st

from mediatrix.agent import AgentState, Strategy
from mediatrix.lang import Literal, atom, intends
from mediatrix.logic import GeneralKind, GeneralRule, Rule, Theory
from mediatrix.mediator import MediationConfig, MediatorState
from mediatrix.scenario import Scenario

AGENTS = ("a1", "a2")
MEDIATOR = "m"
SWAP_AGENTS = {AGENTS[0]: AGENTS[1], AGENTS[1]: AGENTS[0]}  # a name map for `renamed`

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


@st.composite
def descriptions(draw) -> tuple:
    """A description of `make_scenario`'s shape, drawn by hypothesis: the same sizes, owners, values and strategies."""
    resources = [f"r{i}" for i in range(1, draw(st.integers(min_value=1, max_value=5)) + 1)]
    owner_of = {r: draw(st.sampled_from(AGENTS + (MEDIATOR,))) for r in resources}
    bodies = st.lists(st.sampled_from(resources), min_size=1, max_size=2, unique=True)
    plans = {agent: draw(st.lists(bodies, min_size=1, max_size=3)) for agent in AGENTS}
    values = {r: Fraction(draw(st.integers(min_value=0, max_value=2)), 2) for r, o in owner_of.items() if o != MEDIATOR}
    strategies = {agent: draw(st.sampled_from([Strategy.EAGER, Strategy.CAUTIOUS])) for agent in AGENTS}
    return owner_of, plans, values, strategies


def renamed(description: tuple, names: dict[str, str]) -> tuple:
    """The description with each agent id and resource name that `names` maps replaced by its image.

    Only names change: each resource keeps its place in `owner_of` and in its plan body, so an agent's
    beliefs keep their labels and order. Swapping a1 and a2 hands a1 the holdings, plans and strategy of a2.
    """
    owner_of, plans, values, strategies = description

    def name(x: str) -> str:
        return names.get(x, x)

    return (
        {name(r): name(o) for r, o in owner_of.items()},
        {name(a): [[name(r) for r in body] for body in ps] for a, ps in plans.items()},
        {name(r): v for r, v in values.items()},
        {name(a): strategy for a, strategy in strategies.items()},
    )


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


def small_scope(n_resources: int) -> Iterator[tuple[Scenario, Scenario]]:
    """Every scenario of `make_scenario`'s shape over `n_resources` resources, one per symmetry class.

    Each resource is held by a1, a2 or m: by an agent at value 0, 1/2 or 1, by m at 0. Each agent is
    eager or cautious and has one plan, or two plans with different bodies in either order; a body
    needs one or two resources, in resource order. A scenario is described by these choices, and of the
    scenarios equal up to swapping a1 and a2 or permuting the resources only the least description is
    yielded. The descriptions are yielded in increasing order, each scenario with its twin under swapping
    a1 and a2, which the mediation need not treat alike.
    """
    holders = [(a, v) for a in AGENTS for v in range(3)] + [(MEDIATOR, 0)]
    bodies = [b for k in (1, 2) for b in itertools.combinations(range(n_resources), k)]
    plans = sorted([(b,) for b in bodies] + list(itertools.permutations(bodies, 2)))
    minds = list(itertools.product(range(2), plans))  # an agent's strategy, as an index, and plans

    def image(held, agents, perm, swap):
        moved = [None] * n_resources
        for i, (owner, v) in enumerate(held):
            moved[perm[i]] = (SWAP_AGENTS.get(owner, owner) if swap else owner, v)
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
            description = (
                {r: owner for r, (owner, _) in zip(resources, held)},
                {a: [[resources[i] for i in b] for b in ps] for a, (_, ps) in zip(AGENTS, agents)},
                {r: Fraction(v, 2) for r, (_, v) in zip(resources, held)},
                {a: (Strategy.EAGER, Strategy.CAUTIOUS)[strategy] for a, (strategy, _) in zip(AGENTS, agents)},
            )
            name = f"scope{n_resources}_{n}"
            yield _scenario(name, *description), _scenario(f"{name}_swapped", *renamed(description, SWAP_AGENTS))
