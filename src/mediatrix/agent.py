"""Strongly realist BDI agents.

An agent keeps three unit theories (beliefs, desires, intentions), a
value-ordered resource list and a disclosure strategy. Bridge rules move
content between units and the wire: told beliefs are trusted, wanted
transfers become requests, and requests for unneeded items are granted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Union

from .lang import Constant, Literal, Modality, intends
from .logic import (
    GIVE,
    GIVE_PLAIN,
    OWNS,
    Entry,
    GeneralRule,
    Rule,
    Theory,
    believed_ownership,
    generosity,
    ground_args,
    holdings,
    is_goal,
    plan_options,
)

# Bridge rule labels; the rules themselves are built in and toggled per scenario.
BRIDGE_ADVICE = "advice"            # tell an agent about its own possible intention
BRIDGE_ADVICE_RULE = "advice_rule"  # tell an agent an enabling rule for its intention
BRIDGE_TRUST = "trust"              # fold told mediator beliefs into the belief unit
BRIDGE_REQUEST = "request"          # wanted incoming transfers become outgoing asks
BRIDGE_ACCEPT = "accept_request"    # grant an ask for an item not intended to keep
ALL_BRIDGES = (BRIDGE_ADVICE, BRIDGE_ADVICE_RULE, BRIDGE_TRUST, BRIDGE_REQUEST, BRIDGE_ACCEPT)


class AgentError(Exception):
    pass


class RealismViolation(AgentError):
    """Realism propagation produced a complementary pair in some unit."""


class NotOwner(AgentError):
    """A transfer was executed by an agent that does not own the resource."""


class Strategy(Enum):
    CAUTIOUS = "cautious"
    EAGER = "eager"


class MessageKind(Enum):
    TELL = "tell"
    ASK = "ask"
    GIVE = "give"
    REJECT = "reject"


class GiveAction(NamedTuple):
    giver: str
    receiver: str
    resource: str

    def literal(self) -> Literal:
        return Literal(GIVE, (Constant(self.giver), Constant(self.receiver), Constant(self.resource)))

    def intention(self, owner: str) -> Literal:
        return intends(Constant(owner), self.literal())

    def __str__(self) -> str:
        return f"give({self.giver}, {self.receiver}, {self.resource})"


class Message(NamedTuple):
    kind: MessageKind
    sender: str
    receiver: str
    payload: object  # (items, conclusion) for tell, GiveAction for ask, give and reject

    def __str__(self) -> str:
        return f"{self.kind.value}({self.sender} -> {self.receiver}: {self.payload})"


@dataclass(frozen=True)
class Plan:
    rule_label: str
    needed: tuple[str, ...]  # resources the plan requires the agent to hold
    unmet: tuple[Literal, ...]
    transfers: tuple[GiveAction, ...]


class DisclosureItem(NamedTuple):
    label: str
    payload: Union[Literal, Rule, "ResourceDecl"]


@dataclass(frozen=True)
class ResourceDecl:
    agent: str
    name: str
    value: Fraction

    def have(self) -> Literal:
        return Literal(OWNS, (Constant(self.agent), Constant(self.name)))

    def __str__(self) -> str:
        return f"resource {self.agent} {self.name} = {self.value}"


UNITS = ("B", "D", "I")


def resource_order(resource: tuple[str, Fraction]) -> tuple[Fraction, str]:
    """The order of a resource list: ascending by value, ties by name."""
    return resource[1], resource[0]


def ordered_resources(resources) -> tuple[tuple[str, Fraction], ...]:
    """The resources in `resource_order`; a value outside [0, 1] raises ValueError."""
    ordered = tuple(sorted(resources, key=resource_order))
    for name, value in ordered:
        if not 0 <= value <= 1:
            raise ValueError(f"resource value out of [0, 1]: {name}={value}")
    return ordered


@dataclass(frozen=True)
class AgentState:
    id: str
    units: dict[str, Theory]
    resources: tuple[tuple[str, Fraction], ...]  # in `resource_order`
    strategy: Strategy = Strategy.EAGER
    general: tuple[GeneralRule, ...] = ()
    bridges: frozenset[str] = frozenset(ALL_BRIDGES)
    disclosed: frozenset[str] = frozenset()
    asked: frozenset[GiveAction] = frozenset()
    fresh: int = 0

    def __post_init__(self):
        object.__setattr__(self, "resources", ordered_resources(self.resources))

    # -- unit access -----------------------------------------------------

    def unit(self, name: str) -> Theory:
        return self.units[name]

    def owned(self) -> set[str]:
        return {name for name, _ in self.resources}

    def intention(self, fact: Literal) -> Literal:
        """A fact of the intention unit as the agent's `int` literal."""
        return Literal(fact.predicate, fact.args, fact.positive, Modality.INT, Constant(self.id))

    def goals(self) -> list[tuple[str, Literal]]:
        """The plain goal facts of the intention unit, in declaration order.

        A run adds only `give` intentions and negated facts to the unit, so
        the goals never change.
        """
        return [(l, f) for l, f in self.unit("I").facts if f.modality is Modality.NONE and is_goal(f)]

    def have_facts(self) -> list[tuple[str, Literal]]:
        """The declared resources as `have` facts, labelled as disclosure labels them."""
        return [(f"res:{name}", ResourceDecl(self.id, name, value).have()) for name, value in self.resources]

    def delta(self) -> Theory:
        """The agent's reasoning theory: beliefs plus modally wrapped intentions."""
        intentions = [(f"I:{label}", self.intention(fact)) for label, fact in self.unit("I").facts]
        return self.unit("B").extended(intentions, self.general)

    def with_unit(self, name: str, theory: Theory) -> "AgentState":
        return self._with(units={**self.units, name: theory})

    def _next_label(self, prefix: str) -> tuple["AgentState", str]:
        n = self.fresh + 1
        return self._with(fresh=n), f"{prefix}{self.id}.{n}"

    def _with(self, **changes) -> "AgentState":
        """A copy with the given fields changed, without the constructor's sort and range check."""
        new = object.__new__(AgentState)
        new.__dict__.update(self.__dict__, **changes)
        return new


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def plan(agent: AgentState, goal: Literal) -> list[Plan]:
    """Plans for an intention, best first: the first is the one the agent commits to.

    Candidate rules come from the belief unit; a plan is suppressed
    entirely when the agent explicitly does not intend the goal
    (parsimony). Promised incoming transfers count as met preconditions.
    Selection order: fewest unmet preconditions, then fewest transfers,
    then rule label. Unmet ownership preconditions are listed before the
    other unmet preconditions.
    """
    inner = goal.atom()
    negated = inner.complement()
    if agent.unit("I").has_fact(negated):
        return []
    have = agent.owned() | holdings(agent.unit("B"), agent.id)
    promised = _promises(agent)
    believed_owner = believed_ownership(agent.unit("B"))

    plans = []
    for o in plan_options(agent.delta(), agent.id, inner):
        unmet, transfers = [], []
        for res in o.needed:
            if res in have:
                continue
            if res in promised:
                transfers.append(GiveAction(promised[res], agent.id, res))
                continue
            unmet.append(Literal(OWNS, (Constant(agent.id), Constant(res))))
            owner = believed_owner.get(res)
            if owner and owner != agent.id:
                transfers.append(GiveAction(owner, agent.id, res))
        unmet += o.missing
        plans.append(Plan(o.label, o.needed, tuple(unmet), tuple(transfers)))

    plans.sort(key=lambda p: (len(p.unmet), len(p.transfers), p.rule_label))
    return plans


def _promises(agent: AgentState) -> dict[str, str]:
    """resource -> promised giver, from incoming transfer intentions (first wins)."""
    out: dict[str, str] = {}
    for giver, receiver, res in ground_args(agent.unit("I"), GIVE_PLAIN):
        if receiver == agent.id:
            out.setdefault(res, giver)
    return out


def intends_to_keep(agent: AgentState, resource: str) -> bool:
    """NAF over the intention unit after replanning.

    True when an explicit keep intention exists or the first plan for
    one of the agent's goals needs the resource.
    """
    keep = Literal(OWNS, (Constant(agent.id), Constant(resource)))
    if agent.unit("I").has_fact(keep):
        return True
    for _, goal in agent.goals():
        plans = plan(agent, agent.intention(goal))
        if plans and resource in plans[0].needed:
            return True
    return False


# ----------------------------------------------------------------------
# Bridge rules
# ----------------------------------------------------------------------


def bridge_step(agent: AgentState, inbox: list[Message]) -> tuple[AgentState, list[Message]]:
    """Apply all enabled bridge rules once to a fixpoint within the round."""
    outbox: list[Message] = []
    for name in UNITS:  # read once per theory, so every extension below checks only its new facts
        agent.unit(name).clash

    if BRIDGE_TRUST in agent.bridges:
        for msg in inbox:
            if msg.kind is MessageKind.TELL:
                agent = _absorb_tell(agent, msg)

    for msg in inbox:
        if msg.kind is MessageKind.GIVE:
            agent = _apply_transfer(agent, msg.payload)

    if BRIDGE_ACCEPT in agent.bridges:
        for msg in inbox:
            if msg.kind is not MessageKind.ASK:
                continue
            action = msg.payload
            if action.giver != agent.id:
                continue
            if generosity(agent.general, agent.id) or not intends_to_keep(agent, action.resource):
                agent, granted = _grant(agent, action)
                if granted:
                    outbox.append(Message(MessageKind.GIVE, agent.id, action.receiver, action))
            else:
                outbox.append(Message(MessageKind.REJECT, agent.id, msg.sender, action))

    if BRIDGE_REQUEST in agent.bridges:
        for args in ground_args(agent.unit("I"), GIVE_PLAIN):
            action = GiveAction(*args)
            if action.receiver != agent.id or action.giver == agent.id:
                continue
            if action in agent.asked or action.resource in agent.owned():
                continue
            agent = agent._with(asked=agent.asked | {action})
            outbox.append(Message(MessageKind.ASK, agent.id, action.giver, action))

    agent = _propagate_realism(agent)
    return agent, outbox


def _absorb_tell(agent: AgentState, msg: Message) -> AgentState:
    items, conclusion = msg.payload
    labelled: list[tuple[str, Entry]] = []
    for item in items:
        agent, label = agent._next_label("T:")
        labelled.append((label, item))
    if labelled:
        agent = agent.with_unit("B", agent.unit("B").extended(labelled))
    agent, label = agent._next_label("T:")
    name = "B"
    if conclusion.modality is Modality.INT and conclusion.owner == Constant(agent.id):
        name, conclusion = "I", Literal(conclusion.predicate, conclusion.args, conclusion.positive)
    return agent.with_unit(name, agent.unit(name).extended([(label, conclusion)]))


def _grant(agent: AgentState, action: GiveAction) -> tuple[AgentState, bool]:
    if action.resource not in agent.owned():
        return agent, False
    agent, label = agent._next_label("G:")
    agent = agent.with_unit("I", agent.unit("I").extended([(label, action.literal())]))
    return _apply_transfer(agent, action), True


def _apply_transfer(agent: AgentState, action: GiveAction) -> AgentState:
    """Ownership/unicity state transition on the belief unit and resource list."""
    me = agent.id
    had = Literal(OWNS, (Constant(action.giver), Constant(action.resource)))
    got = Literal(OWNS, (Constant(action.receiver), Constant(action.resource)))
    agent = agent.with_unit("B", agent.unit("B").filtered(lambda l, e: e != had))
    if not agent.unit("B").has_fact(got):
        agent, label = agent._next_label("W:")
        agent = agent.with_unit("B", agent.unit("B").extended([(label, got)]))
    resources = agent.resources
    if action.giver == me:
        resources = tuple(r for r in resources if r[0] != action.resource)
    if action.receiver == me and action.resource not in {r[0] for r in resources}:
        resources = tuple(sorted((*resources, (action.resource, Fraction(0))), key=resource_order))
    return agent._with(resources=resources)


def _propagate_realism(agent: AgentState) -> AgentState:
    """Intentions imply desires imply beliefs; disbelief flows back down."""
    for source, target, positive in (("I", "D", True), ("D", "B", True), ("B", "D", False), ("D", "I", False)):
        have = agent.unit(target)
        new = [
            (f"r:{source}:{label}", fact)
            for label, fact in agent.unit(source).facts
            if fact.positive == positive and not have.has_fact(fact)
        ]
        if new:
            agent = agent.with_unit(target, have.extended(new))
    for name in UNITS:
        fact = agent.unit(name).clash
        if fact is not None:
            raise RealismViolation(f"unit {name} holds {fact} and its complement")
    return agent


# ----------------------------------------------------------------------
# Disclosure
# ----------------------------------------------------------------------


def disclose(agent: AgentState, round_no: int) -> tuple[AgentState, list[DisclosureItem]]:
    """Knowledge package for the round; never repeats an item.

    Round 1 is always the agent's goals. Later rounds depend on strategy:
    eager sends everything at once, cautious sends beliefs relevant to the
    goals' plan closure plus the single cheapest undisclosed resource.
    """
    package: list[DisclosureItem] = []
    disclosed = set(agent.disclosed)

    def offer(label: str, payload) -> None:
        if label in disclosed:
            return
        disclosed.add(label)
        package.append(DisclosureItem(label, payload))

    if round_no <= 1:
        for label, fact in agent.goals():
            offer(label, agent.intention(fact))
        return agent._with(disclosed=frozenset(disclosed)), package

    if agent.strategy is Strategy.EAGER:
        for label, item in agent.unit("B").entries():
            offer(label, item)
        for label, fact in agent.unit("I").facts:
            offer(label, agent.intention(fact))
        for name, value in agent.resources:
            offer(f"res:{name}", ResourceDecl(agent.id, name, value))
    else:
        relevant = _relevance_closure(agent)
        for label, item in agent.unit("B").entries():
            if label not in disclosed and _mentions(item, relevant):
                offer(label, item)
        for name, value in agent.resources:
            key = f"res:{name}"
            if key not in disclosed:
                offer(key, ResourceDecl(agent.id, name, value))
                break
    return agent._with(disclosed=frozenset(disclosed)), package


def _mentions(item: Entry, symbols: set[str]) -> bool:
    """Whether a predicate or constant of the entry is in `symbols`; stops at the first found."""
    for lit in (item.head, *item.body, *item.naf) if isinstance(item, Rule) else (item,):
        if lit.predicate in symbols:
            return True
        for t in (lit.owner, *lit.args):
            if type(t) is Constant and t.symbol in symbols:
                return True
    return False


def _relevance_closure(agent: AgentState) -> set[str]:
    """Predicates and constants reachable from the goals through plan rules."""
    closure: set[str] = set()
    pending = [r for _, r in agent.unit("B").rules if not r.is_fact]
    joined = [goal for _, goal in agent.goals()]
    while joined:  # a rule joins once, when its head first mentions the closure
        for lit in joined:
            closure.add(lit.predicate)
            closure.update(t.symbol for t in lit.terms() if type(t) is Constant)
        hits = [_mentions(r.head, closure) for r in pending]
        joined = [lit for r, hit in zip(pending, hits) if hit for lit in (r.head, *r.body, *r.naf)]
        pending = [r for r, hit in zip(pending, hits) if not hit]
    return closure


# ----------------------------------------------------------------------
# Transfers over the shared world
# ----------------------------------------------------------------------


def execute_give(world: dict[str, frozenset[str]], give: GiveAction) -> dict[str, frozenset[str]]:
    """Move a resource between owners; the giver must currently own it."""
    if give.resource not in world.get(give.giver, frozenset()):
        raise NotOwner(f"{give.giver} does not own {give.resource}")
    out = dict(world)
    out[give.giver] = out[give.giver] - {give.resource}
    out[give.receiver] = out.get(give.receiver, frozenset()) | {give.resource}
    return out
