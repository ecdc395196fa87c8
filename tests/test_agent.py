from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from mediatrix.agent import (
    AgentState,
    GiveAction,
    Message,
    MessageKind,
    NotOwner,
    RealismViolation,
    ResourceDecl,
    Strategy,
    bridge_step,
    disclose,
    execute_give,
    intends_to_keep,
    plan,
)
from mediatrix import agent as agent_module
from mediatrix import logic
from mediatrix.argumentation import Verdict, construct_argument, evaluate
from mediatrix.lang import Literal, Modality, atom, intends, modal
from mediatrix.logic import GeneralKind, GeneralRule, Rule, Theory

GENERAL = (
    GeneralRule("G.1", GeneralKind.OWNERSHIP),
    GeneralRule("G.2", GeneralKind.REDUCTION),
    GeneralRule("G.6", GeneralKind.PARSIMONY),
    GeneralRule("G.7", GeneralKind.UNIQUE_CHOICE),
)

MIRROR_RULE = Rule(
    "B.4",
    atom("can", "X", "hang_mirror"),
    (
        atom("have", "X", "hammer"),
        atom("have", "X", "nail"),
        atom("have", "X", "mirror"),
    ),
)


def make_beta(**overrides) -> AgentState:
    defaults = dict(
        id="beta",
        units={
            "B": Theory(
                [
                    ("B.2", atom("have", "beta", "mirror")),
                    ("B.3", atom("have", "beta", "nail")),
                    ("B.4", MIRROR_RULE),
                ]
            ),
            "D": Theory(),
            "I": Theory([("B.1", atom("can", "beta", "hang_mirror"))]),
        },
        resources=(("mirror", Fraction(1)), ("nail", Fraction(1))),
        strategy=Strategy.EAGER,
        general=GENERAL,
    )
    defaults.update(overrides)
    return AgentState(**defaults)


def make_filled_beta(n: int) -> AgentState:
    """beta with n filler beliefs after its own."""
    beliefs = make_beta().unit("B").entries() + [(f"F.{i}", atom("near", "beta", f"c{i}")) for i in range(n)]
    return make_beta(units={**make_beta().units, "B": Theory(beliefs)})


class TestAgentState:
    def test_resources_sorted_by_value_then_name(self):
        agent = make_beta(
            resources=(("mirror", Fraction(1)), ("string", Fraction(0)), ("nail", Fraction(1)))
        )
        assert [r[0] for r in agent.resources] == ["string", "mirror", "nail"]

    def test_resource_value_range_checked(self):
        with pytest.raises(ValueError):
            make_beta(resources=(("mirror", Fraction(2)),))

    def test_only_updates_that_change_resources_sort_them(self, monkeypatch):
        sorts = []
        monkeypatch.setattr(agent_module, "sorted", lambda *a, **k: sorts.append(1) or sorted(*a, **k), raising=False)
        beta = make_beta()
        assert len(sorts) == 1
        assert replace(beta, fresh=3).resources == beta.resources and len(sorts) == 1
        stepped, label = beta._next_label("T:")
        stepped = stepped.with_unit("D", Theory([("d", atom("calm", "beta"))]))
        assert (label, stepped.fresh, stepped.resources) == ("T:beta.1", 1, beta.resources)
        assert stepped.unit("B") is beta.unit("B") and stepped.unit("D").labels() == ["d"]
        assert beta.unit("D").labels() == [] and beta.fresh == 0
        assert len(sorts) == 1
        received = agent_module._apply_transfer(beta, GiveAction("alpha", "beta", "hammer"))
        assert [r[0] for r in received.resources] == ["hammer", "mirror", "nail"] and len(sorts) == 2
        with pytest.raises(ValueError, match=r"resource value out of \[0, 1\]: mirror=2"):
            replace(beta, resources=(("mirror", Fraction(2)),))

    def test_delta_wraps_intentions(self):
        delta = make_beta().delta()
        assert delta.has_fact(intends("beta", atom("can", "beta", "hang_mirror")))

    def test_delta_keys_only_the_intentions(self, monkeypatch):
        agent = make_filled_beta(200)
        keyed = []
        original = logic.entry_canonical
        monkeypatch.setattr(logic, "entry_canonical", lambda item: keyed.append(item) or original(item))
        delta = agent.delta()
        assert len(keyed) <= 2
        assert len(delta) == len(agent.unit("B")) + 1 and delta.general == GENERAL


class TestDuplicateBelief:
    """A repeated belief stays in delta; it is never a first proof's premise, so nothing changes."""

    def agents(self):
        beliefs = make_beta().unit("B").entries()
        twins = [("B.5", atom("have", "beta", "nail")), ("B.6", MIRROR_RULE)]
        return make_beta(units={**make_beta().units, "B": Theory(beliefs + twins)}), make_beta()

    def test_plan_is_unchanged(self):
        twinned, reference = self.agents()
        assert len(twinned.delta()) == len(reference.delta()) + 2
        goal = intends("beta", atom("can", "beta", "hang_mirror"))
        assert plan(twinned, goal) == plan(reference, goal)

    def test_evaluate_is_unchanged(self, gamma_full):
        twinned, reference = self.agents()
        nail = intends("beta", atom("give", "beta", "alpha", "nail"))
        rejected = construct_argument(gamma_full.extended([("S.0", nail)]), nail)
        context = [
            ("S.1", intends("beta", atom("give", "alpha", "beta", "screw"))),
            ("S.2", intends("beta", atom("give", "mu", "beta", "screwdriver"))),
            ("M.2", gamma_full.lookup("M.2")),
        ]
        accepted = construct_argument(gamma_full, intends("alpha", atom("give", "beta", "alpha", "nail")))
        for proposal, ctx, verdict in ((rejected, (), Verdict.REJECT), (accepted, context, Verdict.ACCEPT)):
            decision = evaluate(twinned.delta(), proposal, ctx)
            assert decision == evaluate(reference.delta(), proposal, ctx)
            assert decision.verdict is verdict


class TestPlan:
    def test_single_plan_with_unmet_hammer(self):
        plans = plan(make_beta(), intends("beta", atom("can", "beta", "hang_mirror")))
        assert len(plans) == 1
        assert plans[0].selected
        assert [str(u) for u in plans[0].unmet] == ["have(beta, hammer)"]

    def test_promised_resource_counts_as_met(self):
        agent = make_beta()
        promise = atom("give", "mu", "beta", "hammer")
        agent = agent.with_unit("I", agent.unit("I").extended([("T:1", promise)]))
        plans = plan(agent, intends("beta", atom("can", "beta", "hang_mirror")))
        assert plans[0].unmet == ()
        assert GiveAction("mu", "beta", "hammer") in plans[0].transfers

    def test_modal_transfer_in_the_intention_unit_is_no_promise(self):
        agent = make_beta()
        belief = modal(Modality.BEL, "mu", atom("give", "mu", "beta", "hammer"))
        agent = agent.with_unit("I", agent.unit("I").extended([("T:1", belief)]))
        plans = plan(agent, intends("beta", atom("can", "beta", "hang_mirror")))
        assert [str(u) for u in plans[0].unmet] == ["have(beta, hammer)"]
        assert plans[0].transfers == ()

    def test_explicitly_renounced_goal_suppresses_plans(self):
        agent = make_beta()
        negated = atom("can", "beta", "hang_mirror").complement()
        agent = agent.with_unit("I", agent.unit("I").extended([("N.1", negated)]))
        assert plan(agent, intends("beta", atom("can", "beta", "hang_mirror"))) == []

    def test_selection_prefers_fewer_unmet(self):
        alt = Rule("B.5", atom("can", "X", "hang_mirror"), (atom("have", "X", "mirror"),))
        agent = make_beta()
        agent = agent.with_unit("B", agent.unit("B").extended([("B.5", alt)]))
        plans = plan(agent, intends("beta", atom("can", "beta", "hang_mirror")))
        assert plans[0].rule_label == "B.5" and plans[0].selected


class TestIntendsToKeep:
    def test_needed_resource_is_kept(self):
        assert intends_to_keep(make_beta(), "nail")

    def test_unneeded_resource_is_not(self):
        agent = make_beta(resources=(("mirror", Fraction(1)), ("nail", Fraction(1)), ("string", Fraction(0))))
        assert not intends_to_keep(agent, "string")

    def test_explicit_keep_intention(self):
        agent = make_beta()
        keep = atom("have", "beta", "string")
        agent = agent.with_unit("I", agent.unit("I").extended([("K.1", keep)]))
        assert intends_to_keep(agent, "string")


class TestBridgeStep:
    def test_trust_absorbs_told_belief(self):
        agent = make_beta()
        told = atom("have", "alpha", "screw")
        agent, outbox = bridge_step(
            agent, [Message(MessageKind.TELL, "mu", "beta", ((), told))]
        )
        assert agent.unit("B").has_fact(told)
        assert outbox == []

    def test_told_own_intention_lands_in_intention_unit(self):
        agent = make_beta()
        conclusion = intends("beta", atom("give", "mu", "beta", "screwdriver"))
        agent, outbox = bridge_step(
            agent, [Message(MessageKind.TELL, "mu", "beta", ((), conclusion))]
        )
        assert agent.unit("I").has_fact(atom("give", "mu", "beta", "screwdriver"))
        # the transfer intention turns into an outgoing ask (bridge R.4)
        asks = [m for m in outbox if m.kind is MessageKind.ASK]
        assert [m.payload for m in asks] == [GiveAction("mu", "beta", "screwdriver")]

    def test_ask_for_unneeded_item_granted(self):
        agent = make_beta(
            resources=(("mirror", Fraction(1)), ("nail", Fraction(1)), ("string", Fraction(0)))
        )
        ask = Message(MessageKind.ASK, "alpha", "beta", GiveAction("beta", "alpha", "string"))
        agent, outbox = bridge_step(agent, [ask])
        gives = [m for m in outbox if m.kind is MessageKind.GIVE]
        assert [m.payload for m in gives] == [GiveAction("beta", "alpha", "string")]
        assert "string" not in agent.owned()

    def test_ask_for_needed_item_rejected(self):
        agent = make_beta()
        ask = Message(MessageKind.ASK, "alpha", "beta", GiveAction("beta", "alpha", "nail"))
        agent, outbox = bridge_step(agent, [ask])
        assert [m.kind for m in outbox] == [MessageKind.REJECT]
        assert "nail" in agent.owned()

    def test_realism_propagates_intentions_to_beliefs(self):
        agent = make_beta()
        agent, _ = bridge_step(agent, [])
        assert agent.unit("B").has_fact(atom("can", "beta", "hang_mirror"))
        assert agent.unit("D").has_fact(atom("can", "beta", "hang_mirror"))

    def test_realism_violation_detected(self):
        agent = make_beta()
        contradiction = atom("can", "beta", "hang_mirror").complement()
        agent = agent.with_unit("B", agent.unit("B").extended([("X.1", contradiction)]))
        with pytest.raises(RealismViolation, match=r"^unit B holds ~can\(beta, hang_mirror\) and its complement$"):
            bridge_step(agent, [])

    @pytest.mark.parametrize("checked_first", [False, True])
    def test_realism_violation_names_the_first_clashing_fact(self, checked_first):
        agent = make_beta()
        if checked_first:  # every unit found clash-free, so the next step checks only new facts
            agent, _ = bridge_step(agent, [])
        told = atom("have", "beta", "mirror").complement()
        with pytest.raises(RealismViolation, match=r"^unit B holds have\(beta, mirror\) and its complement$"):
            bridge_step(agent, [Message(MessageKind.TELL, "mu", "beta", ((), told))])

    def test_told_fact_checks_only_new_facts(self, monkeypatch):
        agent, _ = bridge_step(make_filled_beta(200), [])
        complemented = []
        original = Literal.complement
        monkeypatch.setattr(Literal, "complement", lambda lit: complemented.append(lit) or original(lit))
        told = atom("have", "alpha", "screw")
        agent, _ = bridge_step(agent, [Message(MessageKind.TELL, "mu", "beta", ((), told))])
        assert agent.unit("B").has_fact(told)
        assert len(complemented) <= 3


class TestDisclose:
    def test_round_one_is_goals_only(self):
        agent, package = disclose(make_beta(), 1)
        assert [str(d.payload) for d in package] == ["int beta: can(beta, hang_mirror)"]

    def test_eager_sends_everything_in_round_two(self):
        agent, _ = disclose(make_beta(), 1)
        agent, package = disclose(agent, 2)
        labels = {d.label for d in package}
        assert {"B.2", "B.3", "B.4", "res:mirror", "res:nail"} <= labels

    def test_items_never_repeat(self):
        agent, first = disclose(make_beta(), 1)
        agent, second = disclose(agent, 2)
        agent, third = disclose(agent, 3)
        seen = [d.label for d in first + second]
        assert len(seen) == len(set(seen))
        assert third == []

    def test_cautious_sends_single_cheapest_resource(self):
        agent = make_beta(
            strategy=Strategy.CAUTIOUS,
            resources=(("mirror", Fraction(1)), ("nail", Fraction(1)), ("string", Fraction(0))),
        )
        agent, _ = disclose(agent, 1)
        agent, package = disclose(agent, 2)
        decls = [d.payload for d in package if isinstance(d.payload, ResourceDecl)]
        assert [d.name for d in decls] == ["string"]

    def test_cautious_filters_irrelevant_beliefs(self):
        agent = make_beta(strategy=Strategy.CAUTIOUS)
        gossip = atom("weather", "sunny")
        agent = agent.with_unit("B", agent.unit("B").extended([("B.9", gossip)]))
        agent, _ = disclose(agent, 1)
        agent, package = disclose(agent, 2)
        assert "B.9" not in {d.label for d in package}
        assert {"B.2", "B.3", "B.4"} <= {d.label for d in package}

    def test_cautious_reads_the_relevance_of_undisclosed_beliefs_only(self, monkeypatch):
        agent = make_beta(
            strategy=Strategy.CAUTIOUS,
            resources=(("mirror", Fraction(1)), ("nail", Fraction(1)), ("string", Fraction(0))),
        )
        agent, _ = disclose(agent, 1)
        agent, _ = disclose(agent, 2)
        grown = agent.unit("B").extended([("B.9", atom("weather", "sunny")), ("B.10", atom("have", "beta", "hammer"))])
        agent = agent.with_unit("B", grown)
        sent = {id(item) for label, item in grown.entries() if label in agent.disclosed}
        seen = []
        original = agent_module._mentions
        monkeypatch.setattr(agent_module, "_mentions", lambda item, symbols: seen.append(item) or original(item, symbols))
        agent, package = disclose(agent, 3)
        assert [(d.label, str(d.payload)) for d in package] == [
            ("B.10", "have(beta, hammer)"),
            ("res:mirror", "resource beta mirror = 1"),
        ]
        assert atom("weather", "sunny") in seen and not any(id(item) in sent for item in seen)


class TestExecuteGive:
    def test_transfer_moves_ownership(self):
        world = {"alpha": frozenset({"screw"}), "beta": frozenset()}
        world = execute_give(world, GiveAction("alpha", "beta", "screw"))
        assert world == {"alpha": frozenset(), "beta": frozenset({"screw"})}

    def test_giver_must_own(self):
        with pytest.raises(NotOwner):
            execute_give({"alpha": frozenset()}, GiveAction("alpha", "beta", "screw"))

    def test_case_study_final_ownership(self):
        world = {
            "alpha": frozenset({"picture", "hammer", "screw"}),
            "beta": frozenset({"mirror", "nail"}),
            "mu": frozenset({"screwdriver"}),
        }
        for give in (
            GiveAction("alpha", "beta", "screw"),
            GiveAction("beta", "alpha", "nail"),
            GiveAction("mu", "beta", "screwdriver"),
        ):
            world = execute_give(world, give)
        assert world["alpha"] == frozenset({"hammer", "picture", "nail"})
        assert world["beta"] == frozenset({"mirror", "screw", "screwdriver"})
        assert world["mu"] == frozenset()
