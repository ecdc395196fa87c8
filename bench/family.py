"""Seeded generator of mediation scenarios as `.med` text.

One generator serves three workloads with different `Params`: `scaled`
(mediation on large theories), `oracle` (certification with real planner
choices) and `parse` (large files for the parser). It imports nothing from
`mediatrix` or from the test suite, so neither a program change nor a test
edit can move the inputs: the same seed and parameters always give the same
bytes. Alongside the text it returns a `Model` of what it wrote, which the
output checks use instead of asking the program.

Why each dimension exists:

- resources: each one is a possible transfer with a fixed owner, so the
  count sets how many transfer intentions the planner must argue for and
  how many ownership facts every proof scans.
- unowned resources (oracle only): a plan that needs an item nobody holds
  fails before any proof is tried, so certifications range from cheap to
  a full search over every joint plan, as they do on real inputs.
- plan rules per agent: the planner and the oracle walk the product of the
  two agents' plans, and backward search renames every rule at every goal,
  so this sets the size of the search.
- filler beliefs and filler rules: knowledge unrelated to the goals that an
  eager agent still discloses. It makes the mediator's theory large, which
  is what belief revision (every stored fact against every incoming
  complement) and proof search (every fact and rule at every goal) pay for.
- mediator-only plans: alternatives the agents do not know. They let the
  mediator propose plans an agent rejects, which drives evaluation,
  rejection and negotiation.
- eager/cautious: eager agents disclose everything in round two; cautious
  ones disclose goal-relevant beliefs and one resource per round, which
  lengthens the run and splits revision into many small steps.
- generous/non-generous mediator: with `generosity(m)` the mediator's
  donations are admissible and delivered; without it they are still
  proposed but the mediator never hands the item over. Keeping both kinds
  exposes the known undelivered-transfer defect in the `scaled` checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

AGENTS = ("a1", "a2")
MEDIATOR = "m"
OWNERS = AGENTS + (MEDIATOR,)
GENERAL = (
    ("G.1", "ownership"),
    ("G.2", "reduction"),
    ("G.4", "unicity"),
    ("G.5", "benevolence"),
    ("G.6", "parsimony"),
    ("G.7", "unique_choice"),
)
FILLER_PREDICATES = ("likes", "near", "made_of", "stored_in")
VALUES = ("0", "0.5", "1")
FILLER_CONSTANTS = 50
GENEROUS_SHARE = 0.5  # of scenarios whose mediator has generosity(m)
CAUTIOUS_SHARE = 0.5  # of agents with the cautious strategy


@dataclass(frozen=True)
class Params:
    """Inclusive ranges for one family; each scenario draws within them."""

    name: str
    resources: tuple[int, int]
    plans: tuple[int, int]  # plan rules per agent
    needs: tuple[int, int]  # resources one plan rule needs
    filler_facts: tuple[int, int]  # per agent
    filler_rules: tuple[int, int]  # per agent
    mediator_plans: tuple[int, int]
    unowned_share: float = 0.0


SCALED = Params(
    name="scaled",
    resources=(10, 12),
    plans=(4, 8),
    needs=(1, 3),
    filler_facts=(40, 100),
    filler_rules=(4, 10),
    mediator_plans=(1, 3),
)
ORACLE = Params(
    name="oracle",
    resources=(8, 8),
    plans=(8, 8),
    needs=(1, 2),
    filler_facts=(0, 0),
    filler_rules=(0, 0),
    mediator_plans=(0, 0),
    unowned_share=0.25,
)
PARSE = Params(
    name="parse",
    resources=(12, 12),
    plans=(8, 8),
    needs=(1, 3),
    filler_facts=(300, 400),
    filler_rules=(20, 40),
    mediator_plans=(2, 4),
)


@dataclass(frozen=True)
class Model:
    """What the generator wrote, in plain data."""

    name: str
    owner: dict[str, Optional[str]]  # resource -> declared owner, None if nobody holds it
    plans: dict[str, tuple[frozenset[str], ...]]  # agent -> needs of every rule for its goal
    strategy: dict[str, str]
    generous: bool
    beliefs: dict[str, int]  # agent -> entries in its belief unit
    mediator_entries: int
    text: bytes


def generate(seed: int, index: int, params: Params) -> Model:
    """Scenario `index` of the family, with its symbols named from `seed`.

    The structure of scenario `index` (who owns what, what each plan needs,
    how much filler, strategies, generosity, entry order) is drawn from the
    family name and the index alone. The seed draws the resource and filler
    constant names. Runs with different seeds therefore feed the program
    different bytes and symbol orders but the same amount of work, which
    keeps run-to-run spread down to the machine's own noise.
    """
    rng = random.Random(f"{params.name}/{index}")
    names = random.Random(f"{seed}/{params.name}/{index}")
    n_res = rng.randint(*params.resources)
    resources = [f"r{n}" for n in names.sample(range(100, 1000), n_res)]
    constants = [f"c{n}" for n in names.sample(range(100, 1000), FILLER_CONSTANTS)]
    name = f"gen_{params.name}_{seed}_{index}"

    owner = {r: None if rng.random() < params.unowned_share else rng.choice(OWNERS) for r in resources}
    generous = rng.random() < GENEROUS_SHARE
    strategy = {a: "cautious" if rng.random() < CAUTIOUS_SHARE else "eager" for a in AGENTS}

    lines = [f"scenario {name};", ""]
    lines += [f"agent {a};" for a in AGENTS] + [f"mediator {MEDIATOR};", ""]
    lines += [f"strategy {a} = {strategy[a]};" for a in AGENTS]
    lines.append("")
    for label, kind in GENERAL:
        lines.append(f"general {label} {kind};")
        if label == "G.2" and generous:
            lines.append(f"general G.3 generosity({MEDIATOR});")
    lines.append("")

    def plan_rule(goal: str) -> tuple[frozenset[str], str]:
        k = min(n_res, rng.randint(*params.needs))
        needs = [resources[i] for i in rng.sample(range(n_res), k)]
        body = ", ".join(f"have(X, {r})" for r in needs)
        return frozenset(needs), f"can(X, {goal}) :- {body}"

    plans: dict[str, list[frozenset[str]]] = {a: [] for a in AGENTS}
    beliefs_of = {}
    for a in AGENTS:
        goal = f"goal_{a}"
        beliefs = [f"have({a}, {r})" for r in resources if owner[r] == a]
        for _ in range(rng.randint(*params.plans)):
            needs, rule = plan_rule(goal)
            plans[a].append(needs)
            beliefs.append(rule)
        # what the agent believes about the other participants' holdings
        beliefs += [
            f"have({o}, {r})" for r, o in owner.items() if o not in (a, None) and rng.random() < 0.3
        ]
        beliefs += _filler(rng, a, constants, params)
        rng.shuffle(beliefs)
        entries = [f"int {a}: can({a}, {goal})"] + [f"bel {a}: {b}" for b in beliefs]
        for i, e in enumerate(entries, 1):
            lines.append(f"[{a}.{i}] {e}.")
        for r in (r for r in resources if owner[r] == a):
            lines.append(f"resource {a} {r} = {rng.choice(VALUES)};")
        lines.append("")
        beliefs_of[a] = len(beliefs)

    mediator = [f"have({MEDIATOR}, {r})" for r in resources if owner[r] == MEDIATOR]
    for _ in range(rng.randint(*params.mediator_plans)):
        a = rng.choice(AGENTS)
        needs, rule = plan_rule(f"goal_{a}")
        plans[a].append(needs)
        mediator.append(rule)
    for i, e in enumerate(mediator, 1):
        lines.append(f"[M.{i}] bel {MEDIATOR}: {e}.")
    for r in (r for r in resources if owner[r] == MEDIATOR):
        lines.append(f"resource {MEDIATOR} {r} = 0;")

    return Model(
        name=name,
        owner=owner,
        plans={a: tuple(p) for a, p in plans.items()},
        strategy=strategy,
        generous=generous,
        beliefs=beliefs_of,
        mediator_entries=len(mediator),
        text=("\n".join(lines) + "\n").encode("utf-8"),
    )


def _filler(rng: random.Random, agent: str, constants: list[str], params: Params) -> list[str]:
    """Goal-unrelated facts over the agent's own constants, and rules over them."""
    out = []
    for _ in range(rng.randint(*params.filler_facts)):
        pred = rng.choice(FILLER_PREDICATES)
        x, y = rng.randrange(FILLER_CONSTANTS), rng.randrange(FILLER_CONSTANTS)
        out.append(f"{pred}({agent}_{constants[x]}, {agent}_{constants[y]})")
    for k in range(rng.randint(*params.filler_rules)):
        p, q = rng.sample(FILLER_PREDICATES, 2)
        out.append(f"{agent}_f{k}(X, Z) :- {p}(X, Y), {q}(Y, Z)")
    return out


FAULTS = ("truncate", "bad_char", "bad_separator")


def malformed(text: bytes, fault: str, index: int) -> tuple[bytes, int]:
    """A copy of a valid scenario that cannot parse, and the line of its fault.

    - truncate: cut right after an opening parenthesis, so the input ends
      inside a literal;
    - bad_char: a comma becomes `@`, which no token starts with, so the
      tokenizer stops there;
    - bad_separator: a comma becomes `;`, which tokenizes but breaks the
      grammar, so an eager tokenizer reads the rest of the file for nothing.

    Which occurrence is hit depends only on the fault and the index.
    """
    mark = b"(" if fault == "truncate" else b","
    positions = [i for i in range(len(text)) if text[i : i + 1] == mark]
    pos = positions[random.Random(f"fault/{fault}/{index}").randrange(len(positions))]
    if fault == "truncate":
        out = text[: pos + 1]
    else:
        out = text[:pos] + (b"@" if fault == "bad_char" else b";") + text[pos + 1 :]
    return out, text.count(b"\n", 0, pos) + 1
