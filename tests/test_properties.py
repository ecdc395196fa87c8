from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import fields, is_dataclass, replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediatrix import mediator, parse_scenario
from mediatrix.agent import Message, MessageKind, RealismViolation, bridge_step
from mediatrix.argumentation import AttackKind, Verdict, construct_argument, evaluate
from mediatrix.lang import Literal, apply, atom, intends, unify
from mediatrix.logic import (
    HAVE,
    DepthExceeded,
    InconsistentTheory,
    Rule,
    Theory,
    consistent,
    forward_chain,
    ground_args,
    prove,
)
from mediatrix.mediator import IncoherentInput, mediate, revise
from mediatrix.transcript import (
    SCHEMA_VERSION,
    ArgumentRecord,
    DecisionRecord,
    MessageRecord,
    NegotiationRecord,
    ProposalRecord,
    Round,
    SolutionRecord,
    Transcript,
    from_dict,
    parse_transcript,
    serialize_transcript,
    to_dict,
)

from checkers import find_attacks, minimality_check
from generators import AGENTS, MEDIATOR, make_case, make_scenario

CONSTS = ["a", "b", "c"]
VARS1 = ["X1", "Y1"]
VARS2 = ["X2", "Y2"]

terms1 = st.sampled_from(CONSTS + VARS1)
terms2 = st.sampled_from(CONSTS + VARS2)
ground_terms = st.sampled_from(CONSTS)

lit1 = st.builds(lambda a, b: atom("p", a, b), terms1, terms1)
lit2 = st.builds(lambda a, b: atom("p", a, b), terms2, terms2)
ground_lit = st.builds(lambda a, b: atom("p", a, b), ground_terms, ground_terms)

ground_fact = st.builds(
    lambda p, a, b, pos: atom(p, a, b) if pos else atom(p, a, b).complement(),
    st.sampled_from(["p", "q"]),
    ground_terms,
    ground_terms,
    st.booleans(),
)


@settings(max_examples=200)
@given(lit1, lit2, ground_lit)
def test_unifier_generality(l1, l2, g):
    """Whenever a common ground instance exists, the mgu exists and the
    common instance factors through it."""
    if unify(l1, g) is None or unify(l2, g) is None:
        return
    mgu = unify(l1, l2)
    assert mgu is not None
    assert unify(apply(mgu, l1), g) is not None
    assert apply(mgu, l1) == apply(mgu, l2)


@settings(max_examples=200)
@given(st.lists(ground_fact, max_size=6, unique=True), ground_fact)
def test_revise_laws(base_facts, incoming):
    if any(a.complement() in base_facts for a in base_facts):
        return  # revise maintains base consistency; start from a consistent base
    gamma = Theory([(f"M.{i}", f) for i, f in enumerate(base_facts)])
    revised = revise(gamma, [("N.1", incoming)])
    # success: the incoming fact is believed
    assert revised.has_fact(incoming)
    # idempotence up to labelling: a second revision changes nothing
    assert revise(revised, [("N.2", incoming)]) == revised
    # consistency: no stored complementary pair survives
    for _, fact in revised.facts:
        assert not revised.has_fact(fact.complement())
    # identity: revising with an already-known fact is a no-op
    if gamma.has_fact(incoming):
        assert revised == gamma


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_argument_minimality_and_consistency(seed):
    rng = random.Random(seed)
    gamma, goals = make_case(rng)
    try:
        forward_chain(gamma)
    except InconsistentTheory:
        return
    for agent, goal in goals.items():
        arg = construct_argument(gamma, goal)
        if arg is None:
            continue
        if len(arg.support) <= 10:
            assert minimality_check(arg, gamma), str(arg)
        assert consistent(gamma.restricted(arg.labels()))


class _EveryShape:
    """A closure that refutes nothing: every drop of the shrink is re-proved."""

    def __contains__(self, key) -> bool:
        return True


def _argument(theory: Theory, goal):
    try:
        return construct_argument(theory, goal)
    except DepthExceeded:
        return DepthExceeded


def _transfer_theories(seed: int):
    """A `make_case` mediator theory, or a `make_scenario` run's agent theories and their union."""
    rng = random.Random(seed)
    if seed % 2:
        return [make_case(rng)[0]]
    scenario = make_scenario(rng)
    deltas = [a.delta() for a in scenario.agents]
    union = scenario.mediator.theory.extended([e for d in deltas for e in d.entries()])
    return deltas + [union]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_skipping_refuted_reproofs_changes_no_argument(seed):
    for theory in _transfer_theories(seed):
        resources = sorted({r for _, r in ground_args(theory, HAVE)})
        for giver, taker, resource in itertools.product((*AGENTS, MEDIATOR), AGENTS, resources):
            intention = intends(taker, atom("give", giver, taker, resource))
            for goal in (intention, intention.complement()):
                got = _argument(theory, goal)
                with patch("mediatrix.argumentation.provable_shapes", lambda *_: _EveryShape()):
                    assert _argument(theory, goal) == got, str(goal)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.lists(ground_fact, max_size=3))
def test_realism_invariant_after_bridge_step(seed, told):
    rng = random.Random(seed)
    scenario = make_scenario(rng)
    agent = scenario.agents[0]
    inbox = [Message(MessageKind.TELL, "m", agent.id, ((), f)) for f in told]
    try:
        agent, _ = bridge_step(agent, inbox)
    except RealismViolation:
        return
    for unit in ("B", "D", "I"):
        for _, fact in agent.unit(unit).facts:
            assert not agent.unit(unit).has_fact(fact.complement())
    # positive intentions propagated to desires and beliefs
    for _, fact in agent.unit("I").facts:
        if fact.positive:
            assert agent.unit("D").has_fact(fact)
            assert agent.unit("B").has_fact(fact)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_resource_conservation_over_transcript(seed):
    rng = random.Random(seed)
    scenario = make_scenario(rng)
    initial = sorted(
        r for a in scenario.agents for r, _ in a.resources
    ) + sorted(r for r, _ in scenario.mediator.resources)
    try:
        out = mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
    except (RealismViolation, IncoherentInput):
        return
    final = sorted(r for _, rs in out.transcript.final_ownership for r in rs)
    assert final == sorted(initial)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_transcript_determinism(seed):
    rng = random.Random(seed)
    scenario = make_scenario(rng)
    rng2 = random.Random(seed)
    scenario2 = make_scenario(rng2)
    try:
        first = mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
        second = mediate(list(scenario2.agents), scenario2.mediator, scenario2.config, scenario2.name)
    except (RealismViolation, IncoherentInput):
        return
    assert serialize_transcript(first.transcript, "json") == serialize_transcript(
        second.transcript, "json"
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_transcript_json_round_trip(seed):
    rng = random.Random(seed)
    scenario = make_scenario(rng)
    try:
        out = mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
    except (RealismViolation, IncoherentInput):
        return
    assert from_dict(to_dict(out.transcript)) == out.transcript
    data = serialize_transcript(out.transcript, "json")
    assert data == reference_json(out.transcript)
    assert parse_transcript(data) == out.transcript


def _plain(obj):
    """Records as JSON data: a record becomes a dict in field order, a tuple a list."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    return obj


def reference_json(t: Transcript) -> bytes:
    """The JSON transcript as `json.dumps` writes it: the reference for the one-walk writer."""
    return (json.dumps({"schema_version": SCHEMA_VERSION, **_plain(t)}, indent=2) + "\n").encode("utf-8")


# labels with what JSON must escape: quotes, backslashes, control and
# non-ASCII characters, astral ones and lone surrogates
labels = st.text(st.characters(exclude_categories=()), max_size=6) | st.text(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800", "\udfff", "😀"]),
    max_size=6,
)


def tuples(items):
    return st.lists(items, max_size=2).map(tuple)


owned = tuples(st.tuples(labels, tuples(labels)))
solutions = st.builds(
    SolutionRecord,
    tuples(st.builds(ArgumentRecord, labels, tuples(labels))),
    tuples(labels),
    tuples(st.tuples(labels, labels)),
)
proposals = st.builds(
    ProposalRecord, labels, st.booleans(), tuples(st.builds(DecisionRecord, labels, labels, tuples(labels)))
)
negotiations = st.builds(NegotiationRecord, labels, st.none() | solutions, st.booleans(), owned)
rounds = st.builds(
    Round,
    st.integers() | st.sampled_from([10**6, 2**63, 10**30]),
    owned,
    tuples(labels),
    st.booleans(),
    st.none() | solutions,
    tuples(proposals),
    st.none() | negotiations,
    tuples(st.builds(MessageRecord, labels, labels, labels, labels)),
)
transcripts = st.builds(Transcript, labels, labels, labels, tuples(rounds), owned)
# JSON reads the escapes of a high surrogate and a low one after it as one character
SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


@settings(max_examples=200, deadline=None)
@given(transcripts)
def test_transcript_json_matches_json_dumps_and_reads_back(t):
    data = serialize_transcript(t, "json")
    assert data == reference_json(t)
    back = parse_transcript(data)
    assert serialize_transcript(back, "json") == data
    if not SURROGATE_PAIR.search(json.dumps(_plain(t), ensure_ascii=False)):
        assert back == t


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_mediation_terminates_and_reports(seed):
    rng = random.Random(seed)
    scenario = make_scenario(rng)
    try:
        out = mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
    except (RealismViolation, IncoherentInput):
        return
    assert out.status in ("success", "failure")
    assert 1 <= out.rounds <= scenario.config.max_rounds
    assert [r.number for r in out.transcript.rounds] == list(range(1, len(out.transcript.rounds) + 1))


def assert_every_rejection_is_an_attack_find_attacks_finds(scenario) -> list:
    """Mediate the scenario and check each rejection's counter-argument; returns the rejections."""
    decisions = []

    def recording(delta, proposed, *rest):
        decision = evaluate(delta, proposed, *rest)
        decisions.append((proposed, decision))
        return decision

    with patch.object(mediator, "evaluate", recording):
        try:
            mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
        except (RealismViolation, IncoherentInput):
            pass
    rejections = [(proposed, d.counter) for proposed, d in decisions if d.verdict is Verdict.REJECT]
    for proposed, counter in rejections:
        attacks = find_attacks(counter.attacker, proposed)
        assert (counter.kind, counter.point) in [(a.kind, a.point) for a in attacks], str(proposed)
    return [counter for _, counter in rejections]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_every_rejection_is_an_attack_find_attacks_finds(seed):
    assert_every_rejection_is_an_attack_find_attacks_finds(make_scenario(random.Random(seed)))


# b holds r but never discloses b.4, its disbelief in a's goal, and refuses a's
# request by undercutting that goal inside a full mediation
UNDERCUT_SCENARIO = b"""scenario undercut;
agent a;
agent b;
mediator m;
strategy b = cautious;
general G.1 ownership;
general G.2 reduction;
general G.4 unicity;
general G.5 benevolence;
general G.6 parsimony;
general G.7 unique_choice;
[a.1] int a: can(a, go).
[a.2] bel a: can(X, go) :- have(X, r).
[b.1] int b: fly(b).
[b.2] bel b: fly(Y) :- tool(Y).
[b.3] bel b: tool(b).
[b.4] bel b: ~int a: can(a, go).
resource b r = 1;
"""


def test_an_undercut_rejection_in_a_mediation_is_an_attack_find_attacks_finds():
    rejections = assert_every_rejection_is_an_attack_find_attacks_finds(parse_scenario(UNDERCUT_SCENARIO))
    assert [(c.kind, str(c.point)) for c in rejections] == [(AttackKind.UNDERCUT, "int a: can(a, go)")]


def unmet_goals(scenario, final_ownership) -> list[str]:
    """The agents with a goal that the scenario's beliefs do not prove in the final world.

    The beliefs are every participant's, without their ownership facts; the
    world is one `have` fact per resource held at the end.
    """
    world = [(f"held:{a}:{r}", atom("have", a, r)) for a, held in final_ownership for r in held]
    beliefs = [scenario.mediator.theory] + [agent.unit("B") for agent in scenario.agents]
    entries = [
        (f"{i}:{label}", item)
        for i, theory in enumerate(beliefs)
        for label, item in theory.entries()
        if not (isinstance(item, Literal) and item.predicate == "have")
    ]
    theory = Theory(entries + world, scenario.mediator.theory.general)
    return [a.id for a in scenario.agents if any(prove(theory, goal) is None for _, goal in a.goals())]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1, cause C")
def test_a_reported_success_meets_every_agents_goal():
    # b's undercut makes the mediator learn ~int a: can(a, go), so the repair plans for b alone
    scenario = parse_scenario(UNDERCUT_SCENARIO)
    out = mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
    assert out.status != "success" or unmet_goals(scenario, out.transcript.final_ownership) == []


@st.composite
def case_goal_scenarios(draw):
    """`make_scenario` output whose mediator's case also states goal intentions of the agents."""
    scenario = make_scenario(random.Random(draw(st.integers(min_value=0, max_value=10**9))))
    stated = draw(
        st.lists(
            st.tuples(st.sampled_from(AGENTS), st.sampled_from(["stay", *(f"goal_{a}" for a in AGENTS)])),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    case = [(f"C.{i}", intends(agent, atom("can", agent, goal))) for i, (agent, goal) in enumerate(stated, 1)]
    theory = scenario.mediator.theory.extended(case)
    return replace(scenario, mediator=replace(scenario.mediator, theory=theory))


def reachable_alone(agent) -> bool:
    """Whether `mediatrix check` finds every goal of the agent reachable without mediation."""
    own = agent.unit("B").extended(agent.have_facts(), agent.general)
    try:
        return all(prove(own, goal) is not None for _, goal in agent.goals())
    except DepthExceeded:
        return False


@settings(max_examples=300, deadline=None)
@given(case_goal_scenarios())
def test_agents_that_reach_their_goals_alone_succeed_by_round_two(scenario):
    if not all(reachable_alone(agent) for agent in scenario.agents):
        return
    out = mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
    assert (out.status, out.rounds <= 2) == ("success", True), out.reason
