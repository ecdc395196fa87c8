from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from mediatrix import mediator
from mediatrix.agent import GiveAction, disclose
from mediatrix.lang import Literal, Modality, atom, intends, modal
from mediatrix.logic import Theory
from mediatrix.mediator import (
    IncoherentInput,
    Mediation,
    believed_ownership,
    create_solution,
    mediate,
    revise,
)

from mediatrix import oracle
from mediatrix.logic import (
    DEFAULT_PROOF_DEPTH,
    GIVE_REFUSED,
    DepthExceeded,
    generosity,
    ground_args,
    prove,
    ranked_plans,
)
from mediatrix.scenario import parse_scenario

from checkers import solution_feasible
from conftest import GENERAL, SCENARIOS, load_scenario
from generators import make_scenario


class TestRevise:
    def test_appends_new_knowledge(self):
        gamma = Theory([("M.1", atom("have", "mu", "screwdriver"))])
        out = revise(gamma, [("M.2", atom("have", "alpha", "screw"))])
        assert out.labels() == ["M.1", "M.2"]

    def test_newest_wins_on_conflict(self):
        gamma = Theory([("M.1", atom("have", "alpha", "screw"))])
        out = revise(gamma, [("M.2", atom("have", "alpha", "screw").complement())])
        assert out.lookup("M.1") is None
        assert out.has_fact(atom("have", "alpha", "screw").complement())

    def test_identity_on_known_facts(self):
        gamma = Theory([("M.1", atom("have", "mu", "screwdriver"))])
        assert revise(gamma, [("M.9", atom("have", "mu", "screwdriver"))]) == gamma

    def test_incoherent_batch_rejected(self):
        gamma = Theory()
        fact = atom("have", "alpha", "screw")
        with pytest.raises(IncoherentInput):
            revise(gamma, [("a", fact), ("b", fact.complement())])

    def test_incoherence_names_the_first_fact_with_a_later_complement(self):
        p, q = atom("p"), atom("q")
        batch = [("a", p), ("b", q), ("c", q.complement()), ("d", p.complement())]
        with pytest.raises(IncoherentInput) as raised:
            revise(Theory(), batch)
        assert str(raised.value) == "incoming knowledge asserts both p and ~p"

    def test_complements_each_incoming_fact_a_bounded_number_of_times(self, monkeypatch):
        calls = []
        original = Literal.complement
        monkeypatch.setattr(Literal, "complement", lambda self: calls.append(self) or original(self))
        gamma = Theory([(f"M.{i}", atom("have", "mu", f"r{i}")) for i in range(200)])
        incoming = [(f"A.{i}", atom("have", "alpha", f"s{i}")) for i in range(200)]
        out = revise(gamma, incoming)
        assert len(out) == 400
        assert len(calls) <= 2 * len(incoming)


class TestCreateSolution:
    def goals(self):
        return {
            "alpha": atom("can", "alpha", "hang_picture"),
            "beta": atom("can", "beta", "hang_mirror"),
        }

    def test_case_study_three_transfers(self, gamma_full):
        solution = create_solution(gamma_full, self.goals(), "mu")
        assert solution is not None
        assert set(solution.transfers) == {
            GiveAction("beta", "alpha", "nail"),
            GiveAction("alpha", "beta", "screw"),
            GiveAction("mu", "beta", "screwdriver"),
        }
        conclusions = {str(a.conclusion) for a in solution.arguments}
        assert conclusions == {
            "int alpha: give(beta, alpha, nail)",
            "int beta: give(alpha, beta, screw)",
            "int beta: give(mu, beta, screwdriver)",
        }

    def test_without_generosity_nail_and_mirror_clash(self, gamma_full):
        """Dropping M.1/M.2 leaves only the nail plan for beta, and the single
        nail cannot serve both agents."""
        gamma = gamma_full.restricted(
            [l for l in gamma_full.labels() if l not in ("M.1", "M.2")]
            + [g.label for g in gamma_full.general]
        )
        assert create_solution(gamma, self.goals(), "mu") is None

    def test_blocked_transfer_excludes_assignment(self, gamma_full):
        blocked = intends("alpha", atom("give", "beta", "alpha", "nail")).complement()
        gamma = gamma_full.extended([("M.20", blocked)])
        assert create_solution(gamma, self.goals(), "mu") is None

    def test_explicit_exclusion(self, gamma_full):
        assert create_solution(gamma_full, self.goals(), "mu", exclude=[GiveAction("beta", "alpha", "nail")]) is None

    def test_no_goals_no_solution(self, gamma_full):
        assert create_solution(gamma_full, {}, "mu") is None

    def test_feasibility_replay(self, gamma_full):
        solution = create_solution(gamma_full, self.goals(), "mu")
        world = {
            "alpha": frozenset({"picture", "hammer", "screw"}),
            "beta": frozenset({"mirror", "nail"}),
            "mu": frozenset({"screwdriver"}),
        }
        assert solution_feasible(solution, world)

    def test_unicity_one_owner_per_resource(self, gamma_full):
        owners = believed_ownership(gamma_full)
        assert owners["nail"] == "beta"
        assert owners["screw"] == "alpha"
        assert owners["screwdriver"] == "mu"


class TestMediate:
    def run(self, name):
        s = load_scenario(name)
        return mediate(list(s.agents), s.mediator, s.config, s.name)

    def test_case_study_success_two_rounds(self):
        out = self.run("home_improvement")
        assert out.status == "success"
        assert out.reason == "both agents accepted the solution"
        assert out.rounds == 2

    def test_ablation_fails_by_stall(self):
        out = self.run("home_improvement_no_m2")
        assert out.status == "failure"
        assert out.reason == "no new knowledge and no solution"
        assert all(r.solution is None for r in out.transcript.rounds)

    def test_both_reject_then_replan_without_transfers(self):
        out = self.run("both_reject")
        first, second = out.transcript.rounds
        assert all(not p.accepted for p in first.proposals)
        assert second.solution.transfers == ()
        assert second.solution.transfers != first.solution.transfers
        assert out.status == "success"

    def test_negotiation_repair_with_second_donor(self):
        out = self.run("two_donor")
        assert out.status == "success"
        assert out.reason == "negotiated repair accepted"
        neg = out.transcript.rounds[0].negotiation
        assert neg is not None and neg.accepted
        assert neg.rejecting_agent == "beta"
        assert set(out.solution.transfers) == {GiveAction("mu", "alpha", "tool2")}

    def test_negotiation_failure_without_second_donor(self):
        out = self.run("single_donor")
        assert out.status == "failure"
        neg = out.transcript.rounds[0].negotiation
        assert neg is not None and not neg.accepted
        recorded = dict(neg.explanations)
        assert set(recorded) == {"alpha", "beta"}
        assert recorded["beta"] != ()

    def test_round_limit_after_failed_negotiation(self):
        s = load_scenario("single_donor")
        out = mediate(list(s.agents), s.mediator, replace(s.config, max_rounds=1), s.name)
        assert out.status == "failure"
        assert out.reason == "round limit exceeded"
        assert out.rounds == 1

    @pytest.mark.parametrize("name, revisions", [("two_donor", 2), ("single_donor", 3)])
    def test_negotiation_does_not_revise_again(self, monkeypatch, name, revisions):
        """The rejector's explanation is learnt once, before the negotiation,
        which does not revise the mediator's theory again."""
        calls = []
        original = mediator.revise
        monkeypatch.setattr(mediator, "revise", lambda *a: calls.append(a) or original(*a))
        self.run(name)
        assert len(calls) == revisions

    def test_trivial_success_round_one(self):
        out = self.run("self_sufficient")
        assert out.status == "success"
        assert out.rounds == 1
        assert out.solution.transfers == ()

    def test_round_numbers_contiguous(self):
        for name in ("home_improvement", "single_donor", "both_reject"):
            out = self.run(name)
            assert [r.number for r in out.transcript.rounds] == list(
                range(1, len(out.transcript.rounds) + 1)
            )

    def test_message_log_replays_to_final_ownership(self):
        s = load_scenario("home_improvement")
        out = mediate(list(s.agents), s.mediator, s.config, s.name)
        world = {a.id: set(a.owned()) for a in s.agents}
        world[s.mediator.id] = {n for n, _ in s.mediator.resources}
        for r in out.transcript.rounds:
            for m in r.messages:
                if m.kind == "give":
                    # payload renders as give(giver, receiver, resource)
                    inner = m.payload[len("give("):-1]
                    giver, receiver, resource = [p.strip() for p in inner.split(",")]
                    world[giver].discard(resource)
                    world.setdefault(receiver, set()).add(resource)
        assert {
            a: frozenset(rs) for a, rs in world.items()
        } == {a: frozenset(rs) for a, rs in out.transcript.final_ownership}

    def test_exactly_two_agents_required(self):
        s = load_scenario("home_improvement")
        with pytest.raises(ValueError):
            Mediation([s.agents[0]], s.mediator)

    def test_agent_ids_must_be_distinct(self):
        s = load_scenario("home_improvement")
        a = s.agents[0]
        with pytest.raises(ValueError, match="agent ids must be distinct"):
            mediate([a, a], s.mediator)
        with pytest.raises(ValueError, match="agent ids must be distinct"):
            Mediation([a, replace(s.agents[1], id=a.id)], s.mediator)

    def test_mediator_resources_are_range_checked_and_sorted(self):
        m = load_scenario("home_improvement").mediator
        with pytest.raises(ValueError, match=r"^resource value out of \[0, 1\]: zz=5$"):
            replace(m, resources=(("zz", Fraction(5)),))
        with pytest.raises(ValueError, match=r"^resource value out of \[0, 1\]: screwdriver=-1/2$"):
            replace(m, resources=(("screwdriver", Fraction(-1, 2)),))
        unsorted = (("zz", Fraction(1)), ("screwdriver", Fraction(0)), ("awl", Fraction(1)))
        want = (("screwdriver", Fraction(0)), ("awl", Fraction(1)), ("zz", Fraction(1)))
        assert replace(m, resources=unsorted).resources == want


def test_oracle_proves_each_distinct_transfer_once(monkeypatch):
    gamma, goals = oracle.full_disclosure(load_scenario("two_donor"))
    proved = []

    def counting(theory, goal, depth):
        proved.append(str(goal))
        return prove(theory, goal, depth)

    monkeypatch.setattr(oracle, "prove", counting)
    candidates = oracle.brute_force_candidates(gamma, goals, "mu")
    transfers = {t for c in candidates for t in c.transfers}
    assert len(candidates) > len(transfers) > 0
    assert sorted(proved) == sorted(str(t.intention(t.receiver)) for t in transfers)


def test_certify_calls_the_planner_through_the_oracle_module_name_once(monkeypatch):
    # the benchmark's oracle check captures the planner's solution by replacing this name
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return create_solution(*args, **kwargs)

    monkeypatch.setattr(oracle, "create_solution", counting)
    assert oracle.certify(load_scenario("two_donor")) == []
    assert len(calls) == 1


# `a`'s only plan states `have(X, r)` twice; `b` is generous, holds `r` and
# needs only `s`, so one transfer of `r` serves the plan
REPEATED_PRECONDITION = b"""agent a; agent b; mediator m;
general G.1 ownership; general G.2 reduction; general G.3 generosity(b); general G.4 unicity;
general G.5 benevolence; general G.6 parsimony; general G.7 unique_choice;
[a.1] int a: can(a, go).
[a.2] bel a: can(X, go) :- have(X, r), have(X, r).
[b.1] int b: can(b, stay).
[b.2] bel b: can(X, stay) :- have(X, s).
[b.3] bel b: have(b, r).
[b.4] bel b: have(b, s).
resource b r = 1;
resource b s = 1;
"""


def test_a_repeated_precondition_is_one_transfer():
    s = parse_scenario(REPEATED_PRECONDITION)
    out = mediate(list(s.agents), s.mediator, s.config, s.name)
    assert out.status == "success"
    assert out.solution.transfers == (GiveAction("b", "a", "r"),)
    assert oracle.certify(s) == []
    gamma, goals = oracle.full_disclosure(s)
    assert [c.transfers for c in oracle.brute_force_candidates(gamma, goals, "m")] == [frozenset(out.solution.transfers)]


# `a`'s only plan needs `a` not to hold `r`, which `a` believes; a negated
# `have` is an ordinary precondition, not a resource to be given
NEGATED_HAVE = b"""agent a; agent b; mediator m;
general G.1 ownership; general G.2 reduction; general G.3 generosity(b); general G.4 parsimony;
[a.1] int a: can(a, go).
[a.2] bel a: can(X, go) :- ~have(X, r).
[a.3] bel a: ~have(a, r).
[b.1] int b: can(b, stay).
[b.2] bel b: can(X, stay) :- have(X, s).
[b.3] bel b: have(b, r).
[b.4] bel b: have(b, s).
resource b r = 1;
resource b s = 1;
"""


def test_a_negated_have_precondition_needs_no_transfer():
    s = parse_scenario(NEGATED_HAVE)
    out = mediate(list(s.agents), s.mediator, s.config, s.name)
    assert (out.status, out.reason) == ("success", "both agents accepted the solution")
    assert out.solution.transfers == ()
    assert dict(out.transcript.final_ownership) == {"a": (), "b": ("r", "s"), "m": ()}
    assert oracle.certify(s) == []
    gamma, goals = oracle.full_disclosure(s)
    assert [c.transfers for c in oracle.brute_force_candidates(gamma, goals, "m")] == [frozenset()]


# `single_donor` with no generous mediator: `mu`, not beta, holds the tool1 alpha needs
MEAN_MEDIATOR = (
    (SCENARIOS / "single_donor.med").read_bytes()
    .replace(b"general G.3 generosity(mu);\n", b"")
    .replace(b"[B.3] bel beta: have(beta, tool1).\n", b"")
    .replace(b"[M.4] bel mu: have(beta, tool1).", b"[M.4] bel mu: have(mu, tool1).")
    .replace(b"resource beta tool1 = 1;", b"resource mu tool1 = 0;")
)

# nobody is generous, and the agent that holds the tool1 alpha needs has no goal
GOALLESS_DONOR = b"""agent alpha; agent beta; mediator mu;
general G.1 ownership; general G.2 reduction; general G.6 parsimony; general G.7 unique_choice;
[A.1] int alpha: can(alpha, task_a).
[A.2] bel alpha: can(X, task_a) :- have(X, tool1).
[B.1] bel beta: have(beta, tool1).
resource beta tool1 = 1;
"""


def test_a_mediator_that_is_not_generous_is_no_donor():
    s = parse_scenario(MEAN_MEDIATOR)
    assert s.mediator.resources == (("tool1", Fraction(0)),) and not generosity(s.mediator.theory.general, "mu")
    out = mediate(list(s.agents), s.mediator, s.config, s.name)
    assert (out.status, out.reason) == ("failure", "no new knowledge and no solution")
    assert all(r.solution is None for r in out.transcript.rounds)
    assert dict(out.transcript.final_ownership) == {"alpha": (), "beta": ("bench",), "mu": ("tool1",)}
    assert oracle.certify(s) == []
    gamma, goals = oracle.full_disclosure(s)
    assert create_solution(gamma, goals, "mu") is None and oracle.brute_force_candidates(gamma, goals, "mu") == []
    generous = gamma.extended([], gamma.general + (GENERAL[2],))  # G.3 generosity(mu)
    assert create_solution(generous, goals, "mu").transfers == (GiveAction("mu", "alpha", "tool1"),)


def test_an_agent_with_no_goal_still_gives():
    s = parse_scenario(GOALLESS_DONOR)
    out = mediate(list(s.agents), s.mediator, s.config, s.name)
    assert out.status == "success"
    assert dict(out.transcript.final_ownership) == {"alpha": ("tool1",), "beta": (), "mu": ()}
    assert oracle.certify(s) == []


def _per_assignment_candidates(gamma, goals, mediator, prove, depth=DEFAULT_PROOF_DEPTH):
    """The enumeration as it was before plans were screened: every check runs on every assignment."""
    if not goals:
        return []
    agents = sorted(goals)
    owner_of = believed_ownership(gamma)
    if generosity(gamma.general, mediator) is None:
        owner_of = {r: o for r, o in owner_of.items() if o != mediator}
    owned = {a: {r for r, o in owner_of.items() if o == a} for a in agents}
    blocked = {GiveAction(*args) for args in ground_args(gamma, GIVE_REFUSED)}
    per_agent = [ranked_plans(gamma, a, goals[a], owned[a]) for a in agents]
    if any(not plans for plans in per_agent):
        return []
    provable = {}

    def is_provable(give):
        if give not in provable:
            try:
                provable[give] = prove(gamma, give.intention(give.receiver), depth) is not None
            except DepthExceeded:
                provable[give] = False
        return provable[give]

    keeps = {a: i for i, a in enumerate(agents) if generosity(gamma.general, a) is None}
    out = []
    for assignment in itertools.product(*per_agent):
        transfers = set()
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
            out.append(oracle.Candidate(tuple((p.agent, p.rule_label) for p in assignment), frozenset(transfers)))
    return out


def _recording(goals_seen: list):
    def recorded(theory, goal, depth):
        goals_seen.append(goal)
        return prove(theory, goal, depth)

    return recorded


def test_screening_plans_once_keeps_the_candidates_and_the_proofs_of_every_assignment(monkeypatch):
    scenarios = [make_scenario(random.Random(seed)) for seed in range(120)] + [
        load_scenario("two_donor"),
        parse_scenario(REPEATED_PRECONDITION),
        parse_scenario(NEGATED_HAVE),
    ]
    found = 0
    for s in scenarios:
        gamma, goals = oracle.full_disclosure(s)
        want_goals, got_goals = [], []
        want = _per_assignment_candidates(gamma, goals, s.mediator.id, _recording(want_goals))
        monkeypatch.setattr(oracle, "prove", _recording(got_goals))
        assert oracle.brute_force_candidates(gamma, goals, s.mediator.id) == want
        assert got_goals == want_goals
        found += len(want)
    assert found > len(scenarios)  # the cases have candidates to agree on
# a mediator case fact names a goal of `a` that `a` never declares, and `a`
# intends a belief of `b`
PROBE = b"""agent a; agent b; mediator m;
[a.1] int a: can(a, go).
[a.2] int a: bel b: p(c).
[a.3] bel a: can(X, go) :- have(X, r).
[b.1] int b: can(b, go).
[m.1] bel m: int a: can(a, stay).
resource a r = 0;
"""


def test_full_disclosure_reads_agents_as_the_mediation_does():
    s = parse_scenario(PROBE)
    assert s.warnings == ("intention a.2 nests a modality; it is read as int a: p(c)",)
    a = s.agents[0]
    gamma, goals = oracle.full_disclosure(s)
    mediation = Mediation(list(s.agents), s.mediator)
    assert mediation.goals()["a"] == atom("can", "a", "stay")  # before round 1 only the case fact exists
    mediation._learn(d.payload for d in mediation.get_knowledge("a", 1))
    assert goals["a"] == mediation.goals()["a"] == atom("can", "a", "go")
    told = intends("a", atom("p", "c"))
    assert told in [d.payload for d in disclose(a, 2)[1]]
    assert gamma.has_fact(told) and not gamma.has_fact(modal(Modality.BEL, "b", atom("p", "c")))
    assert [(d.label, d.payload) for d in disclose(a, 1)[1]] == [(l, a.intention(g)) for l, g in a.goals()]


# the case names two goals of `a`, and `a` discloses the second as its own
CASE_GOALS = b"""agent a; agent b; mediator m;
[a.1] int a: can(a, go).
[a.2] bel a: can(X, go) :- have(X, r).
[b.1] int b: can(b, go).
[b.2] bel b: can(X, go) :- have(X, s).
[m.1] bel m: int a: can(a, stay).
[m.2] bel m: int a: can(a, go).
resource a r = 0;
resource b s = 0;
"""


def test_full_disclosure_moves_a_disclosed_case_goal_as_the_mediation_does():
    s = parse_scenario(CASE_GOALS)
    _, goals = oracle.full_disclosure(s)
    mediation = Mediation(list(s.agents), s.mediator)
    assert mediation.goals()["a"] == atom("can", "a", "stay")
    mediation._learn(d.payload for d in mediation.get_knowledge("a", 1))
    assert goals["a"] == mediation.goals()["a"] == atom("can", "a", "go")
    rounds = mediate(list(s.agents), s.mediator).transcript.rounds
    assert rounds[1].solution.plans == (("a", "M.3"), ("b", "M.5"))  # M.3 is a.2, a plan for can(a, go)


def quadratic_gamma(scenario):
    """`full_disclosure`'s theory built with the rule it had: each offer compared with every earlier addition."""
    gamma = scenario.mediator.theory
    n = itertools.count(1)
    additions = []

    def offer(item):
        if not gamma.contains(item) and not any(item == e for _, e in additions):
            additions.append((f"O.{next(n)}", item))

    for agent in scenario.agents:
        for _, item in agent.unit("B").entries():
            offer(item)
        for _, fact in agent.unit("I").facts:
            offer(agent.intention(fact))
        for _, fact in agent.have_facts():
            offer(fact)
    return gamma.extended(additions)


SHIPPED = sorted(SCENARIOS.glob("*.med"))


@pytest.mark.parametrize("data", [p.read_bytes() for p in SHIPPED] + [PROBE], ids=[p.stem for p in SHIPPED] + ["probe"])
def test_full_disclosure_adds_each_item_once_as_the_quadratic_rule_did(data):
    s = parse_scenario(data)
    gamma, _ = oracle.full_disclosure(s)
    reference = quadratic_gamma(s)
    assert gamma.entries() == reference.entries()
    assert gamma.general == reference.general


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.med")))
def test_no_parsed_theory_keeps_an_answer_after_mediation_and_certification(name):
    # answers are kept only by the theories an op derives, so no op reuses another op's work
    s = load_scenario(name)
    mediate(list(s.agents), s.mediator, s.config, s.name)
    oracle.certify(s)
    parsed = [s.mediator.theory] + [unit for agent in s.agents for unit in agent.units.values()]
    assert [theory for theory in parsed if theory.__dict__.get("proofs") or theory.__dict__.get("options")] == []
