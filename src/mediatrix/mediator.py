"""The mediator: belief revision, solution construction, and the mediation game.

Each round the mediator gathers knowledge from both agents, revises its
theory, and tries to build a solution: a joint plan assignment plus a set
of resource transfers, each backed by an argument. Proposals are accepted
or rejected by the agents; a single rejection triggers a one-repair
negotiation, a double rejection teaches the mediator not to propose the
same transfers again.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import transcript as tr
from .agent import (
    AgentState,
    DisclosureItem,
    GiveAction,
    Message,
    MessageKind,
    ResourceDecl,
    bridge_step,
    disclose,
    execute_give,
    ordered_resources,
)
from .argumentation import (
    Argument,
    SupportItem,
    Verdict,
    construct_argument,
    evaluate,
)
from .lang import Constant, Literal
from .logic import (
    DEFAULT_PROOF_DEPTH,
    GIVE,
    GIVE_REFUSED,
    Entry,
    GeneralRule,
    MediatorPlan,
    Theory,
    base_goals,
    believed_ownership,
    entry_canonical,
    generosity,
    goals_of,
    ground_args,
    ranked_plans,
)


class MediationError(Exception):
    pass


class IncoherentInput(MediationError):
    """Incoming knowledge contains a complementary pair."""


@dataclass(frozen=True)
class MediatorState:
    id: str
    theory: Theory
    resources: tuple[tuple[str, Fraction], ...] = ()  # in `agent.resource_order`

    def __post_init__(self):
        object.__setattr__(self, "resources", ordered_resources(self.resources))


@dataclass(frozen=True)
class Solution:
    arguments: tuple[Argument, ...]
    assignment: tuple[MediatorPlan, ...]  # one plan per agent, agent order
    transfers: tuple[GiveAction, ...]

    def conclusions(self) -> tuple[Literal, ...]:
        return tuple(a.conclusion for a in self.arguments)

    def record(self) -> tr.SolutionRecord:
        return tr.SolutionRecord(
            arguments=tuple(
                tr.ArgumentRecord(str(a.conclusion), tuple(sorted(a.labels())))
                for a in self.arguments
            ),
            transfers=tuple(str(t) for t in self.transfers),
            plans=tuple((p.agent, p.rule_label) for p in self.assignment),
        )


@dataclass(frozen=True)
class Outcome:
    status: str  # success | failure
    reason: str
    rounds: int
    solution: Optional[Solution]
    transcript: tr.Transcript


# ----------------------------------------------------------------------
# Belief revision
# ----------------------------------------------------------------------


def revise(gamma: Theory, incoming: list[tuple[str, Entry]]) -> Theory:
    """Newest-wins base revision.

    Stored base facts conflicting with an incoming literal are dropped,
    then the incoming items are appended (duplicates skipped). Derived
    facts are never stored, so the result is consistent at the base level.
    """
    incoming_facts = [e for _, e in incoming if isinstance(e, Literal)]
    last = {fact: i for i, fact in enumerate(incoming_facts)}
    complements = set()
    for i, a in enumerate(incoming_facts):
        b = a.complement()
        if last.get(b, -1) > i:
            raise IncoherentInput(f"incoming knowledge asserts both {a} and {b}")
        complements.add(b)
    if any(map(gamma.has_fact, complements)):  # else nothing stored is dropped, so nothing is copied
        gamma = gamma.filtered(lambda l, e: not (isinstance(e, Literal) and e in complements))
    return gamma.extended(incoming)


# ----------------------------------------------------------------------
# Solution construction
# ----------------------------------------------------------------------


def create_solution(
    gamma: Theory,
    goals: dict[str, Literal],
    mediator: str,
    exclude: Iterable[GiveAction] = (),
    depth: int = DEFAULT_PROOF_DEPTH,
) -> Optional[Solution]:
    """Deterministic goal-directed joint planning under the unicity constraint.

    Agents are processed by id, plans in unique-choice order, and each
    unmet precondition is satisfied by a transfer from its owner, admitted
    only when gamma declares the owner generous or the owner's own
    assigned plan does not need the resource, and the transfer is neither
    excluded nor refused in gamma; `mediator`, with no plan, must be generous.
    The first feasible assignment yields the solution; every transfer is
    backed by a freshly constructed argument.
    """
    if not goals:
        return None
    agents = sorted(goals)
    owner_of = believed_ownership(gamma)
    if generosity(gamma.general, mediator) is None:  # then a resource the mediator holds has no donor
        owner_of = {r: o for r, o in owner_of.items() if o != mediator}
    owned = {a: {r for r, o in owner_of.items() if o == a} for a in agents}
    excluded = set(exclude) | {GiveAction(*args) for args in ground_args(gamma, GIVE_REFUSED)}
    per_agent = [ranked_plans(gamma, a, goals[a], owned[a]) for a in agents]
    if any(not plans for plans in per_agent):
        return None
    # each agent that is not generous, with where its plan stands in an assignment: its plan's needs block a transfer
    keeps = {a: i for i, a in enumerate(agents) if generosity(gamma.general, a) is None}

    for assignment in itertools.product(*per_agent):
        transfers: list[GiveAction] = []
        taken: set[str] = set()
        feasible = True
        for p in assignment:
            for res in p.unmet:
                donor = owner_of.get(res)
                if donor is None or donor == p.agent or res in taken:
                    feasible = False
                    break
                if donor in keeps and res in assignment[keeps[donor]].needed:
                    feasible = False
                    break
                give = GiveAction(donor, p.agent, res)
                if give in excluded:
                    feasible = False
                    break
                taken.add(res)
                transfers.append(give)
            if not feasible:
                break
        if not feasible:
            continue
        arguments = []
        for give in transfers:
            arg = construct_argument(gamma, give.intention(give.receiver), depth)
            if arg is None:
                feasible = False
                break
            arguments.append(arg)
        if feasible:
            return Solution(tuple(arguments), assignment, tuple(transfers))
    return None


# ----------------------------------------------------------------------
# The mediation game
# ----------------------------------------------------------------------


@dataclass
class MediationConfig:
    max_rounds: int = 64
    stall_threshold: int = 1
    proof_depth: int = DEFAULT_PROOF_DEPTH


class Mediation:
    """One mediation run over two agents and a mediator."""

    def __init__(
        self,
        agents: list[AgentState],
        mediator: MediatorState,
        config: Optional[MediationConfig] = None,
        scenario_name: str = "scenario",
    ):
        if len(agents) != 2:
            raise ValueError("exactly two negotiating agents are supported")
        self.agents = {a.id: a for a in agents}  # in the given order, which every round follows
        if len(self.agents) != len(agents):
            raise ValueError(f"agent ids must be distinct, got {[a.id for a in agents]}")
        self.mediator = mediator
        self.config = config or MediationConfig()
        self.scenario_name = scenario_name
        self.gamma = mediator.theory
        self._case_goals = {f for a in self.agents for _, f in base_goals(self.gamma, a)}  # none disclosed yet
        self.world: dict[str, frozenset[str]] = {
            a.id: frozenset(a.owned()) for a in agents
        }
        self.world[mediator.id] = frozenset(n for n, _ in mediator.resources)
        self._label_no = self._initial_label_no()
        self._rounds: list[tr.Round] = []

    def _initial_label_no(self) -> int:
        n = 0
        for label in self.gamma.labels():
            m = re.fullmatch(r"M\.(\d+)", label)
            if m:
                n = max(n, int(m.group(1)))
        return n

    def _learn(self, items: Iterable[Entry]) -> list[str]:
        """Label the items the theory does not hold yet, revise it with them, return the labels.

        A goal fact of the case that an agent discloses moves to the end of
        the theory under its new label, so `goals_of` reads it as disclosed.
        """
        labelled, seen = [], set()
        for item in items:
            key = entry_canonical(item)
            if key in seen or self.gamma.contains(item) and item not in self._case_goals:
                continue
            seen.add(key)
            self._label_no += 1
            labelled.append((f"M.{self._label_no}", item))
        if labelled:
            moved = self._case_goals.intersection(item for _, item in labelled) if self._case_goals else ()
            if moved:
                self._case_goals -= moved
                self.gamma = self.gamma.filtered(lambda l, e: e not in moved)
            self.gamma = revise(self.gamma, labelled)
        return [l for l, _ in labelled]

    def _solve(self, exclude: Iterable[GiveAction] = ()) -> Optional[Solution]:
        return create_solution(self.gamma, self.goals(), self.mediator.id, exclude, self.config.proof_depth)

    # -- protocol steps ------------------------------------------------

    def get_knowledge(self, agent_id: str, round_no: int) -> list[DisclosureItem]:
        agent, package = disclose(self.agents[agent_id], round_no)
        self.agents[agent_id] = agent
        return package

    def goals(self) -> dict[str, Literal]:
        return goals_of(self.gamma, self.agents, self.mediator.theory)

    def _relevant(self, solution: Solution, agent_id: str) -> list[Argument]:
        rel = []
        for arg in solution.arguments:
            c = arg.conclusion
            parties = {c.owner.symbol if isinstance(c.owner, Constant) else None}
            parties |= {a.symbol for a in c.args if isinstance(a, Constant)}
            if agent_id in parties:
                rel.append(arg)
        return rel

    def propose(
        self, agent_id: str, solution: Solution
    ) -> tuple[list[Argument], list[SupportItem], tr.ProposalRecord]:
        """Send the solution's relevant arguments; the agent accepts iff it rejects none.

        Returns the rejected arguments, the support of their counter-arguments
        (each item once) and the proposal record.
        """
        bundle = self._relevant(solution, agent_id)
        context: list[tuple[str, Entry]] = [
            (f"S.{i + 1}", c) for i, c in enumerate(solution.conclusions())
        ]
        for arg in bundle:
            for s in arg.support:
                if not isinstance(s.item, GeneralRule):
                    context.append((s.label, s.item))
        delta = self.agents[agent_id].delta()
        rejected: list[Argument] = []
        explanation: list[SupportItem] = []
        decisions: list[tr.DecisionRecord] = []
        for arg in bundle:
            decision = evaluate(delta, arg, context, self.config.proof_depth)
            if decision.verdict is Verdict.REJECT:
                rejected.append(arg)
                for s in decision.explanation:
                    if s not in explanation:
                        explanation.append(s)
            decisions.append(
                tr.DecisionRecord(
                    str(arg.conclusion),
                    decision.verdict.value,
                    tuple(str(s.label) for s in decision.explanation),
                )
            )
        return rejected, explanation, tr.ProposalRecord(agent_id, not rejected, tuple(decisions))

    def negotiate(
        self,
        rejecting: str,
        explanation: list[SupportItem],
        rejected_args: list[Argument],
    ) -> tuple[Optional[Solution], tr.NegotiationRecord, list[tr.ProposalRecord]]:
        """Single-repair exchange after exactly one rejection.

        The rejector's counter-argument support has already joined the
        working theory; the attacked transfers are excluded and one
        replanning attempt is made. The repair stands only if both agents
        accept it.
        """
        excluded = set()
        for arg in rejected_args:
            c = arg.conclusion
            if c.predicate == GIVE and len(c.args) == 3:
                excluded.add(GiveAction(*(a.symbol for a in c.args)))
        repaired = self._solve(exclude=excluded)
        explanations = {a: () for a in self.agents}
        explanations[rejecting] = tuple(sorted(s.label for s in explanation))
        verdicts = [] if repaired is None else [self.propose(a, repaired) for a in self.agents]
        for agent_id, (rejected, expl, _) in zip(self.agents, verdicts):
            if rejected:
                explanations[agent_id] = tuple(sorted({s.label for s in expl}))
        accepted = repaired is not None and not any(rejected for rejected, _, _ in verdicts)
        record = tr.NegotiationRecord(
            rejecting,
            None if repaired is None else repaired.record(),
            accepted,
            tuple(sorted(explanations.items())),
        )
        return (repaired if accepted else None), record, [prop for _, _, prop in verdicts]

    # -- acceptance execution -------------------------------------------

    def _execute(self, solution: Solution) -> list[tr.MessageRecord]:
        """Deliver the accepted arguments and run the message exchange."""
        log: list[tr.MessageRecord] = []
        queue: list[Message] = []
        for arg in solution.arguments:
            target = arg.conclusion.owner.symbol
            items = tuple(s.item for s in arg.support if not isinstance(s.item, GeneralRule))
            msg = Message(MessageKind.TELL, self.mediator.id, target, (items, arg.conclusion))
            queue.append(msg)

        def record(m: Message) -> None:
            payload = m.payload
            if m.kind is MessageKind.TELL:
                payload = str(payload[1])
            log.append(tr.MessageRecord(m.kind.value, m.sender, m.receiver, str(payload)))

        for _ in range(32):  # exchange settles in a handful of waves
            if not queue:
                break
            for m in queue:
                record(m)
            inboxes: dict[str, list[Message]] = {a: [] for a in self.agents}
            mediator_inbox: list[Message] = []
            for m in queue:
                if m.receiver in inboxes:
                    inboxes[m.receiver].append(m)
                elif m.receiver == self.mediator.id:
                    mediator_inbox.append(m)
            queue = []
            for agent_id in self.agents:
                state, outbox = bridge_step(self.agents[agent_id], inboxes[agent_id])
                self.agents[agent_id] = state
                for m in outbox:
                    if m.kind is MessageKind.GIVE:
                        self.world = execute_give(self.world, m.payload)
                    queue.append(m)
            for m in mediator_inbox:
                if m.kind is MessageKind.ASK and generosity(self.gamma.general, self.mediator.id):
                    action: GiveAction = m.payload
                    if action.resource in self.world.get(self.mediator.id, frozenset()):
                        self.world = execute_give(self.world, action)
                        queue.append(
                            Message(MessageKind.GIVE, self.mediator.id, action.receiver, action)
                        )
        return log

    # -- the main loop ---------------------------------------------------

    def run(self) -> Outcome:
        stall = 0
        final: Optional[Solution] = None
        reason: Optional[str] = None  # set when a round ends the run
        rounds_played = 0
        for round_no in range(1, self.config.max_rounds + 1):
            rounds_played = round_no
            packages = {a: self.get_knowledge(a, round_no) for a in self.agents}
            delta_labels = self._learn(
                d.payload.have() if isinstance(d.payload, ResourceDecl) else d.payload
                for a in self.agents
                for d in packages[a]
            )
            solution = self._solve()
            proposals: list[tr.ProposalRecord] = []
            negotiation: Optional[tr.NegotiationRecord] = None
            messages: list[tr.MessageRecord] = []

            if solution is None:
                stall = 0 if delta_labels else stall + 1
                if stall >= self.config.stall_threshold:
                    reason = "no new knowledge and no solution"
            else:
                stall = 0
                verdicts = {a: self.propose(a, solution) for a in self.agents}
                proposals = [prop for _, _, prop in verdicts.values()]
                explained = [
                    s.item
                    for a in self.agents
                    for s in verdicts[a][1]
                    if not isinstance(s.item, GeneralRule)
                ]
                if explained:
                    self._learn(explained)
                rejecting = [a for a in self.agents if verdicts[a][0]]
                if not rejecting:
                    final, reason = solution, "both agents accepted the solution"
                elif len(rejecting) == 1:
                    rejected_args, explanation, _ = verdicts[rejecting[0]]
                    final, negotiation, repair_proposals = self.negotiate(
                        rejecting[0], explanation, rejected_args
                    )
                    proposals += repair_proposals
                    if final is not None:
                        reason = "negotiated repair accepted"
                if final is None:
                    # both rejected, or the repair failed: never propose these transfers again
                    self._learn(c.complement() for c in solution.conclusions())
                else:
                    messages = self._execute(final)

            self._rounds.append(
                tr.Round(
                    number=round_no,
                    disclosures=tuple(
                        (a, tuple(str(d.payload) for d in packages[a])) for a in self.agents
                    ),
                    revision_delta=tuple(delta_labels),
                    new_knowledge=bool(delta_labels),
                    solution=None if solution is None else solution.record(),
                    proposals=tuple(proposals),
                    negotiation=negotiation,
                    messages=tuple(messages),
                )
            )
            if reason is not None:
                break

        status = "failure" if final is None else "success"
        reason = reason or "round limit exceeded"
        transcript = tr.Transcript(
            scenario_name=self.scenario_name,
            outcome=status,
            reason=reason,
            rounds=tuple(self._rounds),
            final_ownership=tuple(
                (a, tuple(sorted(self.world.get(a, frozenset()))))
                for a in sorted(self.world)
            ),
        )
        return Outcome(status, reason, rounds_played, final, transcript)


def mediate(
    agents: list[AgentState],
    mediator: MediatorState,
    config: Optional[MediationConfig] = None,
    scenario_name: str = "scenario",
) -> Outcome:
    return Mediation(agents, mediator, config, scenario_name).run()
