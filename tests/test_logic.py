from __future__ import annotations

import itertools
import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mediatrix import logic
from mediatrix.lang import (
    Constant,
    EMPTY_SUBSTITUTION,
    Literal,
    Modality,
    Substitution,
    Variable,
    atom,
    intends,
    modal,
    shape,
    unify,
)
from mediatrix.agent import AgentState, DisclosureItem, GiveAction, Message, MessageKind, ResourceDecl, plan
from mediatrix.argumentation import SupportItem
from mediatrix.logic import (
    GIVE_INTENDED,
    HAVE,
    DepthExceeded,
    GeneralKind,
    GeneralRule,
    InconsistentTheory,
    MediatorPlan,
    PlanOption,
    Proof,
    Rule,
    Theory,
    believed_ownership,
    consistent,
    forward_chain,
    generosity,
    ground_args,
    holdings,
    plan_options,
    prove,
    ranked_plans,
    select_plan,
)
from mediatrix.mediator import IncoherentInput, revise
from mediatrix.oracle import Candidate

from generators import make_case


def rule(label, head, *body, naf=()):
    return Rule(label, head, tuple(body), tuple(naf))


# ----------------------------------------------------------------------
# Unification
# ----------------------------------------------------------------------


class TestUnify:
    def test_variable_against_constant(self):
        s = unify(atom("have", "X", "hammer"), atom("have", "alpha", "hammer"))
        assert s is not None
        assert s.resolve(Variable("X")) == Constant("alpha")

    def test_clash(self):
        assert unify(atom("have", "alpha", "nail"), atom("have", "beta", "nail")) is None

    def test_polarity_must_match(self):
        a = atom("have", "alpha", "nail")
        assert unify(a, a.complement()) is None

    def test_modality_must_match(self):
        a = atom("give", "alpha", "beta", "nail")
        assert unify(a, intends("beta", a)) is None

    def test_shared_variable_chains(self):
        s = unify(atom("p", "X", "X"), atom("p", "Y", "c"))
        assert s is not None
        assert s.resolve(Variable("X")) == Constant("c")
        assert s.resolve(Variable("Y")) == Constant("c")

    def test_apply_is_idempotent(self):
        s = Substitution({"X": Constant("a"), "Y": Variable("X")})
        lit = atom("p", "Y", "Z")
        assert s.apply(s.apply(lit)) == s.apply(lit)

    def test_unifier_makes_literals_equal(self):
        a = atom("p", "X", "b", "Y")
        b = atom("p", "a", "Z", "Z")
        s = unify(a, b)
        assert s is not None
        assert s.apply(a) == s.apply(b)


def _ground_literals(preds, consts, arity=2):
    for p in preds:
        for args in itertools.product(consts, repeat=arity):
            yield atom(p, *args)


def test_unifier_generality_small_alphabet():
    """Any common ground instance factors through the returned unifier."""
    consts = ["a", "b"]
    # variable names disjoint between the two literals, as unify treats
    # same-named variables as shared
    terms1 = ["a", "b", "X1", "Y1"]
    terms2 = ["a", "b", "X2", "Y2"]
    pairs = 0
    for args1 in itertools.product(terms1, repeat=2):
        for args2 in itertools.product(terms2, repeat=2):
            lit1, lit2 = atom("p", *args1), atom("p", *args2)
            mgu = unify(lit1, lit2)
            for ground in _ground_literals(["p"], consts):
                s1, s2 = unify(lit1, ground), unify(lit2, ground)
                if s1 is None or s2 is None:
                    continue
                # ground is a common instance, so the mgu must exist and
                # the mgu-image must still unify with ground
                assert mgu is not None
                assert unify(mgu.apply(lit1), ground) is not None
                pairs += 1
    assert pairs > 100


# ----------------------------------------------------------------------
# Forward chaining
# ----------------------------------------------------------------------


PICTURE_RULE = rule(
    "A.6",
    atom("can", "X", "hang_picture"),
    atom("have", "X", "hammer"),
    atom("have", "X", "nail"),
    atom("have", "X", "picture"),
)


class TestForwardChain:
    def test_full_preconditions_fire(self):
        theory = Theory(
            [
                ("f1", atom("have", "alpha", "hammer")),
                ("f2", atom("have", "alpha", "nail")),
                ("f3", atom("have", "alpha", "picture")),
                ("A.6", PICTURE_RULE),
            ]
        )
        fixpoint = forward_chain(theory)
        assert atom("can", "alpha", "hang_picture") in fixpoint

    def test_missing_precondition_blocks(self):
        theory = Theory(
            [
                ("f1", atom("have", "alpha", "hammer")),
                ("f3", atom("have", "alpha", "picture")),
                ("A.6", PICTURE_RULE),
            ]
        )
        assert atom("can", "alpha", "hang_picture") not in forward_chain(theory)

    def test_declared_facts_then_derived_facts_in_derivation_order(self):
        theory = Theory(
            [
                ("r2", rule("r2", atom("s", "X"), atom("q", "X"))),
                ("f1", atom("p", "b")),
                ("r1", rule("r1", atom("q", "X"), atom("p", "X"))),
                ("f2", atom("p", "a")),
            ]
        )
        # each pass tries the rules in declaration order, each rule on the facts in store order
        assert list(forward_chain(theory)) == [
            atom("p", "b"), atom("p", "a"), atom("q", "b"), atom("q", "a"), atom("s", "b"), atom("s", "a")
        ]

    def test_inconsistency_names_the_first_clash_in_derivation_order(self):
        theory = Theory(
            [
                ("f1", atom("p", "b")),
                ("f2", atom("p", "a")),
                ("r1", rule("r1", atom("s", "X").complement(), atom("p", "X"))),
                ("r2", rule("r2", atom("s", "X"), atom("p", "X"))),
            ]
        )
        # both s(b) and s(a) meet their complements; r2 reaches p(b) first
        with pytest.raises(InconsistentTheory) as raised:
            forward_chain(theory)
        assert raised.value.literal == atom("s", "b")
        assert str(raised.value) == "inconsistent theory: s(b) and its complement"

    def test_inconsistency_detected(self):
        theory = Theory(
            [
                ("f1", atom("wet", "lawn")),
                ("r1", rule("r1", atom("dry", "lawn").complement(), atom("wet", "lawn"))),
                ("f2", atom("dry", "lawn")),
            ]
        )
        with pytest.raises(InconsistentTheory):
            forward_chain(theory)

    def test_naf_checked_against_positive_stratum(self):
        theory = Theory(
            [
                ("f1", atom("bird", "tweety")),
                ("r1", rule("r1", atom("flies", "X"), atom("bird", "X"), naf=[atom("penguin", "X")])),
            ]
        )
        assert atom("flies", "tweety") in forward_chain(theory)
        blocked = theory.extended([("f2", atom("penguin", "tweety"))])
        assert atom("flies", "tweety") not in forward_chain(blocked)

    def test_chained_rules(self):
        theory = Theory(
            [
                ("f1", atom("p", "a")),
                ("r1", rule("r1", atom("q", "X"), atom("p", "X"))),
                ("r2", rule("r2", atom("s", "X"), atom("q", "X"))),
            ]
        )
        assert atom("s", "a") in forward_chain(theory)


def naive_ground_saturate(theory: Theory) -> set[Literal]:
    """Independent oracle: instantiate every rule on every constant tuple."""
    consts = set()
    for _, entry in theory.entries():
        lits = [entry] if isinstance(entry, Literal) else [entry.head, *entry.body, *entry.naf]
        for lit in lits:
            consts |= {t.symbol for t in lit.terms() if isinstance(t, Constant)}
    consts = sorted(consts)
    facts = {f for _, f in theory.facts}

    def instances(r: Rule):
        vs = sorted(r.head.variables() | {v for b in r.body + r.naf for v in b.variables()})
        for combo in itertools.product(consts, repeat=len(vs)):
            s = Substitution({v: Constant(c) for v, c in zip(vs, combo)})
            yield s.apply(r.head), [s.apply(b) for b in r.body], [s.apply(n) for n in r.naf]

    # stratum one: ignore rules with absence conditions
    def saturate(rules, naf_base):
        out = set(facts)
        changed = True
        while changed:
            changed = False
            for _, r in rules:
                for head, body, naf in instances(r):
                    if all(b in out for b in body) and not any(n in naf_base for n in naf):
                        if head not in out:
                            out.add(head)
                            changed = True
        return out

    positive = [(l, r) for l, r in theory.rules if not r.naf]
    stratum = saturate(positive, set())
    return saturate(theory.rules, stratum)


def test_forward_chain_matches_ground_saturation_oracle():
    theories = [
        Theory(
            [
                ("f1", atom("have", "alpha", "hammer")),
                ("f2", atom("have", "alpha", "nail")),
                ("f3", atom("have", "alpha", "picture")),
                ("f4", atom("have", "beta", "nail")),
                ("A.6", PICTURE_RULE),
            ]
        ),
        Theory(
            [
                ("f1", atom("p", "a")),
                ("f2", atom("p", "b")),
                ("r1", rule("r1", atom("q", "X"), atom("p", "X"), naf=[atom("blocked", "X")])),
                ("f3", atom("blocked", "a")),
                ("r2", rule("r2", atom("s", "X"), atom("q", "X"))),
            ]
        ),
        Theory(
            [
                ("f1", atom("edge", "a", "b")),
                ("f2", atom("edge", "b", "c")),
                ("r1", rule("r1", atom("path", "X", "Y"), atom("edge", "X", "Y"))),
                ("r2", rule("r2", atom("path", "X", "Z"), atom("edge", "X", "Y"), atom("path", "Y", "Z"))),
            ]
        ),
    ]
    for theory in theories:
        assert set(forward_chain(theory)) == naive_ground_saturate(theory)


# ----------------------------------------------------------------------
# Backward proof search
# ----------------------------------------------------------------------


class TestProve:
    def test_fact_is_provable(self):
        theory = Theory([("f1", atom("have", "alpha", "nail"))])
        proof = prove(theory, atom("have", "alpha", "nail"))
        assert proof is not None
        assert proof.premises == frozenset({"f1"})

    def test_rule_chains(self):
        theory = Theory(
            [
                ("f1", atom("have", "alpha", "hammer")),
                ("f2", atom("have", "alpha", "nail")),
                ("f3", atom("have", "alpha", "picture")),
                ("A.6", PICTURE_RULE),
            ]
        )
        proof = prove(theory, atom("can", "alpha", "hang_picture"))
        assert proof is not None
        assert "A.6" in proof.premises

    def test_unprovable_returns_none(self):
        theory = Theory([("f1", atom("have", "alpha", "nail"))])
        assert prove(theory, atom("have", "beta", "nail")) is None

    def test_depth_exceeded_only_when_bound_hit(self):
        looping = Theory(
            [
                ("r1", rule("r1", atom("p", "X"), atom("p", "X"))),
                ("f1", atom("q", "a")),
            ]
        )
        with pytest.raises(DepthExceeded):
            prove(looping, atom("p", "a"), depth=8)
        # a fact is still found before the loop exhausts the bound
        assert prove(looping, atom("q", "a"), depth=8) is not None

    def test_ownership_transfer_rule(self):
        theory = Theory(
            [("M.7", atom("have", "alpha", "screw"))],
            [GeneralRule("G.1", GeneralKind.OWNERSHIP)],
        )
        proof = prove(theory, intends("beta", atom("give", "alpha", "beta", "screw")))
        assert proof is None  # no reduction principle, no intention

    def test_reduction_derives_transfer_intention(self, gamma_full):
        goal = intends("beta", atom("give", "alpha", "beta", "screw"))
        proof = prove(gamma_full, goal)
        assert proof is not None
        assert {"M.2", "M.5", "M.7", "G.1", "G.2"} <= set(proof.premises)

    def test_generosity(self, gamma_full):
        goal = intends("mu", atom("have", "mu", "screwdriver")).complement()
        proof = prove(gamma_full, goal)
        assert proof is not None
        assert {"M.1", "G.3"} <= set(proof.premises)

    def test_generosity_honours_every_declaration(self, gamma_full):
        general = gamma_full.general + (GeneralRule("G.8", GeneralKind.GENEROSITY, "beta"),)
        theory = gamma_full.extended((), general)
        for owner, resource, own, other in (("mu", "screwdriver", "G.3", "G.8"), ("beta", "nail", "G.8", "G.3")):
            proof = prove(theory, intends(owner, atom("have", owner, resource)).complement())
            assert proof is not None and own in proof.premises and other not in proof.premises, owner

    def test_refusal_requires_held_needed_resource(self):
        theory = Theory(
            [
                ("B.1", intends("beta", atom("can", "beta", "hang_mirror"))),
                (
                    "B.4",
                    rule(
                        "B.4",
                        atom("can", "X", "hang_mirror"),
                        atom("have", "X", "hammer"),
                        atom("have", "X", "nail"),
                        atom("have", "X", "mirror"),
                    ),
                ),
                ("B.3", atom("have", "beta", "nail")),
            ],
            [
                GeneralRule("G.2", GeneralKind.REDUCTION),
                GeneralRule("G.6", GeneralKind.PARSIMONY),
            ],
        )
        goal = intends("beta", atom("give", "beta", "alpha", "nail")).complement()
        proof = prove(theory, goal)
        assert proof is not None
        assert proof.premises == frozenset({"B.1", "B.4", "B.3", "G.2", "G.6"})


# ----------------------------------------------------------------------
# Shape index: only rules that can match a goal are renamed
# ----------------------------------------------------------------------


def _record_renames(monkeypatch) -> list[str]:
    """Labels of the rules renamed from now on, in order."""
    renamed = []
    original = Rule.rename

    def rename(self, tag):
        renamed.append(self.label)
        return original(self, tag)

    monkeypatch.setattr(Rule, "rename", rename)
    return renamed


def _unrelated_rules(n):
    return [(f"o{i}", rule(f"o{i}", atom(f"other{i}", "X"), atom(f"src{i}", "X"))) for i in range(n)]


class TestShapeIndex:
    def test_goal_renames_no_rule_of_another_predicate(self, monkeypatch):
        theory = Theory(
            _unrelated_rules(30)
            + [("rp", rule("rp", atom("p", "X"), atom("q", "X"))), ("f1", atom("q", "a"))]
        )
        renamed = _record_renames(monkeypatch)
        assert prove(theory, atom("q", "a")) is not None
        assert renamed == []
        assert prove(theory, atom("p", "a")) is not None
        assert renamed == ["rp"]

    def test_reduction_renames_only_rules_using_the_atom(self, monkeypatch):
        theory = Theory(
            _unrelated_rules(20)
            + [
                ("c1", rule("c1", atom("can", "X", "x"), atom("have", "X", "h"))),
                ("c2", rule("c2", atom("can", "X", "y"), atom("tool", "X"))),
                ("g1", intends("a", atom("can", "a", "x"))),
            ]
            + [(f"h{i}", atom("have", "b", f"r{i}")) for i in range(10)],
            [GeneralRule("G.1", GeneralKind.OWNERSHIP), GeneralRule("G.2", GeneralKind.REDUCTION)],
        )
        renamed = _record_renames(monkeypatch)
        proof = prove(theory, intends("a", atom("have", "a", "h")))
        assert proof is not None and proof.premises == frozenset({"c1", "g1", "G.2"})
        # the reduction binds c1's variables in place, and builds no give -> have rule
        assert renamed == []

    def test_derived_theories_do_not_share_a_stale_index(self):
        theory = Theory([("rp", rule("rp", atom("p", "X"), atom("q", "X")))])
        assert prove(theory, atom("p", "a")) is None
        grown = theory.extended([("f1", atom("q", "a"))])
        assert prove(grown, atom("p", "a")) is not None
        assert prove(theory, atom("p", "a")) is None
        shrunk = grown.restricted(["rp"])
        assert prove(shrunk, atom("p", "a")) is None
        assert prove(grown, atom("p", "a")) is not None

    def test_transfer_goal_builds_only_the_matching_ownership_rule(self, monkeypatch):
        theory = Theory(
            [(f"h{i}", atom("have", "b", f"r{i}")) for i in range(6)]
            + [
                ("c1", rule("c1", atom("can", "X", "go"), atom("have", "X", "r4"))),
                ("g1", intends("a", atom("can", "a", "go"))),
            ],
            [GeneralRule("G.1", GeneralKind.OWNERSHIP), GeneralRule("G.2", GeneralKind.REDUCTION)],
        )
        renamed = _record_renames(monkeypatch)
        proof = prove(theory, intends("a", atom("give", "b", "a", "r4")))
        assert proof is not None and {"h4", "G.1", "c1"} <= proof.premises
        # the give -> have rule of h4 is bound in place, and c1 is not copied either
        assert renamed == []

    def test_reduction_renames_only_the_rule_whose_constants_match(self, monkeypatch):
        theory = Theory(
            [(f"c{i}", rule(f"c{i}", atom("can", "X", f"g{i}"), atom("have", "X", f"r{i}"))) for i in range(10)]
            + [("i3", intends("a", atom("can", "a", "g3")))],
            [GeneralRule("G.2", GeneralKind.REDUCTION)],
        )
        renamed = _record_renames(monkeypatch)
        proof = prove(theory, intends("a", atom("have", "a", "r3")))
        assert proof is not None and proof.premises == frozenset({"c3", "i3", "G.2"})
        # c0, c1 and c2 have the shape of have(a, r3) and fail on its constant; c3 is bound in place
        assert renamed == []

    def test_fresh_variable_names_follow_declaration_order(self):
        # r3 is reached after a failed nested search below r1, so its fresh
        # name counts every rule looked at before it, r2 and the ownership
        # rules included
        theory = Theory(
            [
                ("f1", atom("have", "a", "hammer")),
                ("f2", atom("have", "b", "nail")),
                ("f3", intends("a", atom("can", "a", "hang"))),
                ("f4", atom("good", "hammer")),
                ("r1", rule("r1", atom("can", "X", "fly"), atom("have", "X", "U"), atom("wing", "U"))),
                ("r2", rule("r2", atom("other", "X"), atom("q", "X"))),
                ("r3", rule("r3", atom("can", "X", "hang"), atom("have", "X", "T"), atom("tool", "T"))),
                ("r4", rule("r4", atom("tool", "Y"), atom("good", "Y"))),
            ],
            [GeneralRule("G.1", GeneralKind.OWNERSHIP), GeneralRule("G.2", GeneralKind.REDUCTION)],
        )
        proof = prove(theory, intends("a", atom("have", "a", "W")))
        assert str(proof.conclusion) == "int a: have(a, T'19)"
        assert proof.premises == frozenset({"f3", "r3", "G.2"})

    def test_a_rule_skipped_for_a_constant_clash_still_takes_its_tag(self):
        # r1 fits the shape of use(a, W, hammer) but not its constant, so it is never
        # renamed; T in r2 is still named after r2's place in declaration order
        theory = Theory(
            [
                ("f1", intends("a", atom("can", "a", "hang"))),
                ("r1", rule("r1", atom("can", "X", "fly"), atom("use", "X", "U", "wing"))),
                ("r2", rule("r2", atom("can", "X", "hang"), atom("use", "X", "T", "hammer"))),
            ],
            [GeneralRule("G.2", GeneralKind.REDUCTION)],
        )
        proof = prove(theory, intends("a", atom("use", "a", "W", "hammer")))
        assert str(proof.conclusion) == "int a: use(a, T'4, hammer)"

    def test_the_ownership_clause_names_its_receiver_after_its_fact(self):
        # every owned fact takes two tags, skipped or not: h3's clause gets Y'9 and tag 10
        owned = [atom("have", "b", "r"), atom("have", "a", "s"), atom("have", "b", "s"), atom("have", "a", "r")]
        theory = Theory(
            [(f"h{i}", f) for i, f in enumerate(owned + [atom("have", "b", "t")])]
            + [
                ("c1", rule("c1", atom("can", "X", "go"), atom("have", "X", "r"))),
                ("c2", rule("c2", atom("got", "Y"), atom("give", "a", "Y", "r"))),
            ],
            [GeneralRule("G.1", GeneralKind.OWNERSHIP), GeneralRule("G.2", GeneralKind.REDUCTION)],
        )
        search = logic._Search(theory)
        inner = atom("give", "a", "W", "r")
        receiver = Variable("Y'9")
        assert list(search._candidate_rules(inner)) == [
            (atom("got", "Y"), [atom("give", "a", "Y", "r")], 2, ("c2",)),
            (atom("have", receiver, "r"), [atom("give", "a", receiver, "r")], 10, ("h3", "G.1")),
        ]
        assert search._tag == 12  # h4 still takes its two tags

    @pytest.mark.parametrize("names", [("U", "V"), ("Y_1", "X_1")])
    def test_fresh_names_never_capture_a_goal_variable(self, names):
        # r takes tag 1; a fresh name must not be one a scenario may give the goal's variables
        theory = Theory([("f", atom("q", "a", "b")), ("r", rule("r", atom("p", "X", "Y"), atom("q", "X", "Y")))])
        proof = prove(theory, atom("p", *names))
        assert proof is not None and proof.conclusion == atom("p", "a", "b")


GOAL = ("g1", intends("a", atom("can", "a", "go")))


def _agent(beliefs, intentions=()) -> AgentState:
    return AgentState(
        id="a",
        units={
            "B": Theory(beliefs),
            "D": Theory(),
            "I": Theory([("g1", atom("can", "a", "go"))] + list(intentions)),
        },
        resources=(),
    )


class TestProvableShapes:
    def test_owned_lists_the_ground_have_facts_in_order(self):
        h1, h2 = atom("have", "a", "r"), atom("have", "b", "s")
        theory = Theory([("h1", h1), ("hx", atom("have", "a", "X")), ("n2", h2.complement()), ("h2", h2)])
        assert theory.owned == [("h1", h1), ("h2", h2)] and theory.owned is theory.owned

    def test_a_label_keeps_its_entry_and_its_general_rule(self):
        theory = Theory([("G.3", atom("have", "a", "r"))], [GeneralRule("G.3", GeneralKind.GENEROSITY, "a")])
        declined = intends("a", atom("have", "a", "r")).complement()
        assert logic.provable_shapes(theory, {"G.3"}) == {HAVE, shape(declined)}
        assert prove(theory, declined).premises == {"G.3"}
        assert logic.provable_shapes(theory, set()) == set()

    def test_a_bodiless_rule_proves_nothing(self):
        theory = Theory([("r", Rule("r", atom("p", "a")))])
        assert logic.provable_shapes(theory, {"r"}) == set() and prove(theory, atom("p", "a")) is None

    def test_a_bodiless_rule_derives_nothing(self):
        theory = Theory([("f", atom("p", "a").complement()), ("r", Rule("r", atom("p", "a")))])
        assert list(forward_chain(theory)) == [atom("p", "a").complement()] and consistent(theory)

    def test_reduction_reaches_a_transfer_through_the_ownership_principle(self, gamma_full):
        keep = {"G.1", "G.2", "M.2", "M.5", "M.7"}
        goal = intends("beta", atom("give", "alpha", "beta", "screw"))
        assert prove(gamma_full.restricted(keep), goal).premises == keep
        assert GIVE_INTENDED in logic.provable_shapes(gamma_full, keep)
        assert all(GIVE_INTENDED not in logic.provable_shapes(gamma_full, keep - {label}) for label in keep)


def test_the_first_principle_naming_an_owner_is_its_generosity():
    general = (
        GeneralRule("G.1", GeneralKind.OWNERSHIP),
        GeneralRule("G.2", GeneralKind.GENEROSITY, "m"),
        GeneralRule("G.3", GeneralKind.GENEROSITY, "m"),
    )
    assert generosity(general, "m") is general[1]
    assert generosity(general, "a") is None and generosity((), "m") is None


class TestOwnershipView:
    def test_first_owner_wins_but_every_holding_counts(self):
        theory = Theory(
            [
                ("f1", atom("have", "a", "r")),
                ("f2", atom("have", "b", "r")),
                ("f3", atom("have", "b", "Y")),
            ]
        )
        assert ground_args(theory, HAVE) == [("a", "r"), ("b", "r")]
        assert believed_ownership(theory) == {"r": "a"}
        assert holdings(theory, "a") == {"r"}
        assert holdings(theory, "b") == {"r"}

    def test_transfer_intention_with_a_variable_giver_is_no_promise(self):
        base = [
            ("c0", rule("c0", atom("can", "X", "go"), atom("have", "X", "s"))),
            ("c1", rule("c1", atom("can", "X", "go"), atom("have", "X", "r"))),
            GOAL,
        ]
        promised = Theory(base + [("p1", intends("a", atom("give", "b", "a", "r")))])
        assert select_plan(promised, "a")[1] == "c1"
        unknown_giver = Theory(base + [("p1", intends("a", atom("give", "Y", "a", "r")))])
        assert ground_args(unknown_giver, GIVE_INTENDED) == []
        assert select_plan(unknown_giver, "a")[1] == "c0"


class TestPlanOptions:
    def test_duplicated_ownership_precondition_counts_once(self):
        beliefs = [
            ("d1", rule("d1", atom("can", "X", "go"), atom("have", "X", "r"), atom("have", "X", "r"))),
            ("d2", rule("d2", atom("can", "X", "go"), atom("have", "X", "s"))),
        ]
        theory = Theory(beliefs + [GOAL])
        goal = atom("can", "a", "go")
        assert [o.needed for o in plan_options(theory, "a", goal)] == [("r",), ("s",)]
        # one unmet resource each: d1 ties d2 and wins on label
        assert [(p.rule_label, p.unmet) for p in ranked_plans(theory, "a", goal, set())] == [
            ("d1", ("r",)),
            ("d2", ("s",)),
        ]
        assert select_plan(theory, "a")[1] == "d1"
        plans = plan(_agent(beliefs), intends("a", goal))
        assert [(p.rule_label, len(p.unmet)) for p in plans] == [("d1", 1), ("d2", 1)]

    def test_duplicated_missing_precondition_is_listed_once(self):
        theory = Theory([("d1", rule("d1", atom("can", "X", "go"), atom("tool", "X"), atom("tool", "X"))), GOAL])
        assert plan_options(theory, "a", atom("can", "a", "go")) == [PlanOption("d1", (), (atom("tool", "a"),), False)]

    def test_missing_precondition_is_unmet_for_the_agent_and_drops_the_plan_for_others(self):
        beliefs = [
            ("p1", rule("p1", atom("can", "X", "go"), atom("tool", "X"))),
            ("p2", rule("p2", atom("can", "X", "go"), atom("have", "X", "r"))),
            ("f1", atom("have", "b", "r")),
        ]
        theory = Theory(beliefs + [GOAL])
        goal = atom("can", "a", "go")
        options = plan_options(theory, "a", goal)
        assert [(o.label, o.missing, o.grounded) for o in options] == [
            ("p1", (atom("tool", "a"),), False),
            ("p2", (), True),
        ]
        assert [p.rule_label for p in ranked_plans(theory, "a", goal, set())] == ["p2"]
        assert select_plan(theory, "a")[1:] == ("p2", {"r"}, False)
        # the agent ranks by unmet, then transfers: tool(a) needs no transfer
        plans = plan(_agent(beliefs), intends("a", goal))
        assert [(p.rule_label, [str(u) for u in p.unmet]) for p in plans] == [
            ("p1", ["tool(a)"]),
            ("p2", ["have(a, r)"]),
        ]
        assert plans[1].transfers == (GiveAction("b", "a", "r"),)

    def test_rules_equal_up_to_renaming_are_read_once_without_renaming(self, monkeypatch):
        theory = Theory(
            [
                ("d1", rule("d1", atom("can", "X", "go"), atom("have", "X", "r"))),
                ("d2", rule("d2", atom("can", "Y", "go"), atom("have", "Y", "r"))),
                GOAL,
            ]
        )
        renamed = _record_renames(monkeypatch)
        assert [o.label for o in plan_options(theory, "a", atom("can", "a", "go"))] == ["d1"]
        assert renamed == []

    def test_rules_for_another_goal_constant_are_not_renamed(self, monkeypatch):
        theory = Theory(
            [
                ("d1", rule("d1", atom("can", "X", "y"), atom("have", "X", "r"))),
                ("d2", rule("d2", atom("can", "X", "x"), atom("have", "X", "h"))),
                ("d3", rule("d3", atom("can", "Y", "y"), atom("tool", "Y"))),
            ]
        )
        renamed = _record_renames(monkeypatch)
        assert [o.label for o in plan_options(theory, "a", atom("can", "a", "x"))] == ["d2"]
        assert renamed == []

    def test_a_goal_with_a_variable_is_bound_without_renaming(self, monkeypatch):
        theory = Theory([("d1", rule("d1", atom("can", "Y", "go"), atom("have", "Y", "r")))])
        renamed = _record_renames(monkeypatch)
        assert plan_options(theory, "a", atom("can", "a", "X")) == [PlanOption("d1", ("r",), (), False)]
        assert renamed == []

    def test_variable_resource_sets_the_flag(self):
        theory = Theory(
            [("v1", rule("v1", atom("can", "X", "go"), atom("have", "X", "T"), atom("tool", "T"))), GOAL]
        )
        (option,) = plan_options(theory, "a", atom("can", "a", "go"))
        assert option.open_resource and option.needed == () and not option.grounded
        assert select_plan(theory, "a") is None


def plan_options_by_unification(theory: Theory, agent: str, goal_atom: Literal) -> list[PlanOption]:
    """`plan_options` the general way: rename each rule apart, unify its head, apply to the body."""
    me = Constant(agent)
    out, seen = [], set()
    for label, r in theory.rules:
        key = r.canonical()
        if r.is_fact or key in seen:
            continue
        seen.add(key)
        renamed = _replace_rename(r, 0)
        s = unify(goal_atom, renamed.head)
        if s is None:
            continue
        needed, missing, open_resource = [], [], False
        for p in (s.apply(b) for b in renamed.body):
            if shape(p) == HAVE and p.args[0] == me:  # a positive plain have/2 of the agent
                if isinstance(p.args[1], Constant):
                    needed.append(p.args[1].symbol)
                else:
                    open_resource = True
            elif not (p.is_ground() and theory.has_fact(p)):
                missing.append(p)
        # a repeated precondition counts once, at its first occurrence
        out.append(PlanOption(label, tuple(dict.fromkeys(needed)), tuple(dict.fromkeys(missing)), open_resource))
    return out


PLAN_CONSTANTS = ["a", "b", "go"]
HEAD_TERMS = st.sampled_from(["X", "Y", *PLAN_CONSTANTS])  # a repeated variable recurs often
BODY_TERMS = st.sampled_from(["X", "Y", "Z", "W", "a", "b", "r"])  # Z and W occur in bodies only
PLAIN_BODIES = st.builds(
    lambda predicate, terms: atom(predicate, *terms),
    st.sampled_from(["have", "tool"]),
    st.lists(BODY_TERMS, min_size=1, max_size=2),
)
# preconditions with a have/2 that is negated or modal, and a 3-ary have
HAVE_BODIES = st.one_of(
    st.builds(lambda x, z: atom("have", x, z).complement(), BODY_TERMS, BODY_TERMS),
    st.builds(
        lambda m, owner, x, z: modal(m, owner, atom("have", x, z)),
        st.sampled_from([Modality.BEL, Modality.INT]),
        BODY_TERMS,
        BODY_TERMS,
        BODY_TERMS,
    ),
    st.builds(lambda x, z, y: atom("have", x, z, y), BODY_TERMS, BODY_TERMS, BODY_TERMS),
)
PLAIN_FACTS = st.builds(atom, st.sampled_from(["have", "tool"]), st.sampled_from(PLAN_CONSTANTS), st.sampled_from(["a", "r"]))
HAVE_FACTS = st.sampled_from(
    [atom("have", "b", "r").complement(), modal(Modality.BEL, "a", atom("have", "b", "r")), atom("have", "a", "r", "b")]
)


@st.composite
def plans_and_goals(draw, wide: bool = False):
    """A theory of rules concluding one head shape, its facts, and a goal of that shape.

    The goal is ground and the bodies are plain `have` and `tool` literals, unless `wide`: then a
    goal term may be a variable (`X`, a name the rules use too, or `G`), and a body may hold a
    negated or modal `have/2` or a 3-ary `have`, with facts of those shapes.
    """
    arity = draw(st.integers(min_value=1, max_value=3))
    modal_head = draw(st.booleans())  # an owner is one more head position to match
    bodies = st.one_of(PLAIN_BODIES, HAVE_BODIES) if wide else PLAIN_BODIES
    goal_terms = st.sampled_from([*PLAN_CONSTANTS, "X", "G"] if wide else PLAN_CONSTANTS)
    rules = []
    for n in range(draw(st.integers(min_value=1, max_value=4))):
        head = atom("can", *draw(st.lists(HEAD_TERMS, min_size=arity, max_size=arity)))
        if modal_head:
            head = intends(draw(HEAD_TERMS), head)
        body = draw(st.lists(bodies, max_size=3))
        body += draw(st.lists(st.sampled_from(body), max_size=2)) if body else []  # a precondition repeated
        covered = {v for b in body for v in b.variables()}
        body += [atom("have", "a", v) for v in sorted(head.variables() - covered)]  # range-restricted
        rules.append((f"d{n}", rule(f"d{n}", head, *body)))
    fact = st.one_of(PLAIN_FACTS, HAVE_FACTS) if wide else PLAIN_FACTS
    facts = [(f"f{i}", f) for i, f in enumerate(draw(st.lists(fact, max_size=3, unique=True)))]
    goal = atom("can", *draw(st.lists(goal_terms, min_size=arity, max_size=arity)))
    if modal_head:
        goal = intends(draw(goal_terms), goal)
    return Theory(draw(st.permutations(rules + facts))), goal


@settings(max_examples=300)
@given(plans_and_goals(), st.sampled_from(["a", "b"]))
def test_plan_options_of_a_ground_goal_equal_those_found_by_unification(case, agent):
    theory, goal = case
    assert plan_options(theory, agent, goal) == plan_options_by_unification(theory, agent, goal)


@settings(max_examples=300)
@given(plans_and_goals(wide=True), st.sampled_from(["a", "b"]))
def test_plan_options_of_any_goal_and_any_have_literal_equal_those_found_by_unification(case, agent):
    theory, goal = case
    assert plan_options(theory, agent, goal) == plan_options_by_unification(theory, agent, goal)


def _enumerate_small_theories():
    """Tiny fact/rule pools for exhaustive prove vs. fixpoint agreement."""
    consts = ["a", "b"]
    facts = [atom("p", c) for c in consts] + [atom("q", c) for c in consts]
    rules = [
        rule("r1", atom("q", "X"), atom("p", "X")),
        rule("r2", atom("s", "X"), atom("q", "X")),
        rule("r3", atom("t", "X"), atom("p", "X"), atom("q", "X")),
        rule("r4", atom("s", "X"), atom("t", "X")),
    ]
    for fact_subset in itertools.chain.from_iterable(
        itertools.combinations(facts, k) for k in range(len(facts) + 1)
    ):
        for rule_subset in itertools.chain.from_iterable(
            itertools.combinations(rules, k) for k in range(3)
        ):
            entries = [(f"f{i}", f) for i, f in enumerate(fact_subset)]
            entries += [(r.label, r) for r in rule_subset]
            yield Theory(entries)


def test_prove_agrees_with_fixpoint_exhaustively():
    goals = [atom(p, c) for p in ("p", "q", "s", "t") for c in ("a", "b")]
    checked = 0
    for theory in _enumerate_small_theories():
        fixpoint = set(forward_chain(theory))
        for goal in goals:
            provable = prove(theory, goal, depth=16) is not None
            assert provable == (goal in fixpoint), f"{goal} in {theory.entries()}"
            checked += 1
    assert checked > 1000


# predicates by level: a rule's head has a higher level than each of its body literals
STRATA = (("p", 1), ("q", 2), ("s", 1), ("t", 2))
STRATA_CONSTANTS = ["a", "b", "c"]
STRATA_GOALS = [atom(p, *cs) for p, n in STRATA for cs in itertools.product(STRATA_CONSTANTS, repeat=n)]


@st.composite
def stratified_theories(draw):
    """Ground facts, and plain positive range-restricted rules without absence conditions or recursion.

    A rule of level 0 has no body; such bodiless rules, ground or not, occur at every level.
    """

    def literal(level: int, terms: list[str]) -> Literal:
        predicate, arity = STRATA[level]
        return atom(predicate, *(draw(st.sampled_from(terms)) for _ in range(arity)))

    entries = [(f"f{i}", literal(draw(st.integers(0, 3)), STRATA_CONSTANTS)) for i in range(draw(st.integers(0, 6)))]
    for i in range(draw(st.integers(0, 5))):
        level = draw(st.integers(0, 3))
        size = draw(st.integers(0, 2)) if level else 0
        body = [literal(draw(st.integers(0, level - 1)), ["X", "Y", "Z", "a", "b"]) for _ in range(size)]
        bound = sorted({v for b in body for v in b.variables()}) if body else ["X", "Y"]
        entries.append((f"r{i}", rule(f"r{i}", literal(level, bound + STRATA_CONSTANTS), *body)))
    return Theory(entries)


@settings(max_examples=300)
@given(stratified_theories())
def test_prove_finds_exactly_the_least_model_of_a_stratified_plain_theory(theory):
    model = forward_chain(theory)
    for goal in STRATA_GOALS:
        assert (prove(theory, goal) is not None) == (goal in model), f"{goal}"


def test_fixpoint_monotone_under_fact_addition():
    base = Theory(
        [
            ("f1", atom("p", "a")),
            ("r1", rule("r1", atom("q", "X"), atom("p", "X"))),
        ]
    )
    extended = base.extended([("f2", atom("p", "b"))])
    assert set(forward_chain(base)) <= set(forward_chain(extended))


def test_consistent_helper():
    theory = Theory([("f1", atom("dry", "lawn"))])
    assert consistent(theory.extended([("f2", atom("wet", "lawn"))]))
    assert not consistent(theory.extended([("f2", atom("dry", "lawn").complement())]))


def test_range_restriction_enforced():
    bad = rule("r1", atom("p", "X", "Y"), atom("q", "X"))
    with pytest.raises(ValueError):
        Theory([("r1", bad)])


def test_theory_extended_dedups_up_to_renaming():
    r1 = rule("r1", atom("q", "X"), atom("p", "X"))
    r2 = rule("r2", atom("q", "Z"), atom("p", "Z"))
    theory = Theory([("r1", r1)]).extended([("r2", r2)])
    assert len(theory) == 1


# every view a theory builds from its entries on first read
VIEWS = sorted(name for name, value in vars(Theory).items() if isinstance(value, logic._view))


class TestExtended:
    """`extended` copies the parent's checked entries and keys; only new items are checked."""

    def theory(self):
        guarded = rule("r", atom("q", "X"), atom("p", "X"), naf=(atom("s", "X"),))
        return Theory([(f"f{i}", atom("p", f"c{i}")) for i in range(99)] + [("r", guarded)])

    def test_keys_only_the_new_items_each_once(self, monkeypatch):
        theory = self.theory()
        keyed = []
        original = logic.entry_canonical
        monkeypatch.setattr(logic, "entry_canonical", lambda item: keyed.append(item) or original(item))
        theory.extended([("new", atom("p", "new"))])
        assert keyed == [atom("p", "new")]

    def test_parent_is_unchanged_and_nothing_stale_is_carried(self):
        theory = self.theory()
        assert prove(theory, atom("q", "c1")) is not None  # builds the parent's positive stratum
        views = {name: getattr(theory, name) for name in VIEWS}
        labels, size, new = theory.labels(), len(theory), atom("p", "new")
        grown = theory.extended([("new", new), ("f1", atom("s", "c1"))])
        assert (theory.labels(), len(theory), theory.contains(new)) == (labels, size, False)
        assert grown.labels()[-2:] == ["new", "f1~2"]
        assert all(getattr(theory, name) is view for name, view in views.items())
        # only the clash-free verdict is carried; every other view is the grown theory's own
        assert all(getattr(grown, name) is not view for name, view in views.items() if name != "clash")
        assert prove(grown, new) is not None and prove(grown, atom("q", "new")) is not None
        assert prove(grown, atom("q", "c1")) is None
        assert prove(theory, atom("q", "c1")) is not None

    def test_new_items_are_still_checked(self):
        bad = rule("bad", atom("p", "X", "Y"), atom("p", "X"))
        with pytest.raises(ValueError, match=r"^rule bad is not range-restricted$"):
            self.theory().extended([("bad", bad)])
        with pytest.raises(ValueError, match=r"^rule r~2 is not range-restricted$"):  # the label it would get
            self.theory().extended([("f1", atom("p", "new")), ("r", bad)])

    def test_an_entry_equal_up_to_renaming_is_skipped(self):
        theory = self.theory()
        twin = rule("r9", atom("q", "Y"), atom("p", "Y"), naf=(atom("s", "Y"),))
        new = rule("w", atom("w", "Z"), atom("p", "Z"))
        grown = theory.extended(
            [("r9", twin), ("w1", new), ("w2", rule("w", atom("w", "V"), atom("p", "V"))), ("f", atom("p", "c0"))]
        )
        assert grown.labels() == theory.labels() + ["w1"]
        assert grown.contains(twin) and grown.lookup("w1") is new

    def test_extension_of_a_clash_free_theory_checks_only_new_facts(self, monkeypatch):
        theory = self.theory()
        assert theory.clash is None
        complemented = []
        original = Literal.complement
        monkeypatch.setattr(Literal, "complement", lambda lit: complemented.append(lit) or original(lit))
        grown = theory.extended([("new", atom("p", "new")), ("f1", atom("s", "c1"))])
        assert grown.clash is None and grown.clash is None
        assert grown.filtered(lambda label, item: label != "f1").clash is None
        assert complemented == [atom("p", "new"), atom("s", "c1")]

    def test_clash_is_the_first_clashing_fact_in_declaration_order(self):
        theory = self.theory()
        assert theory.clash is None
        grown = theory.extended([("n1", atom("p", "c7").complement()), ("n2", atom("p", "c3").complement())])
        assert grown.clash == atom("p", "c3")
        assert Theory(grown.entries()).clash == atom("p", "c3")
        assert grown.filtered(lambda label, item: label != "f3").clash == atom("p", "c7")


class TestFiltered:
    """`filtered` copies already-checked entries: nothing is checked again."""

    def test_keeps_the_accepted_entries_unchecked(self, monkeypatch):
        guarded = rule("r", atom("q", "X"), atom("p", "X"), naf=(atom("s", "X"),))
        theory = Theory(
            [("f1", atom("p", "a")), ("r", guarded), ("f2", atom("p", "b")), ("f3", atom("p", "a"))],
            [GeneralRule("G.1", GeneralKind.OWNERSHIP)],
        )
        checked = []
        monkeypatch.setattr(Rule, "range_restricted", lambda r: checked.append(r) or True)
        kept = theory.filtered(lambda label, item: label not in ("f1", "f2"))
        assert checked == []
        assert kept.labels() == ["r", "f3"] and kept.general == theory.general
        assert kept.lookup("f1") is None and kept.lookup("r") is guarded
        # f3 repeats f1, so the fact stays held; f2 had no twin
        assert kept.has_fact(atom("p", "a")) and not kept.has_fact(atom("p", "b"))
        assert kept.contains(guarded)
        assert theory.restricted(["f2", "G.1"]) == Theory(
            [("f2", atom("p", "b"))], [GeneralRule("G.1", GeneralKind.OWNERSHIP)]
        )


# ----------------------------------------------------------------------
# Term layer: direct construction and per-rule keys
# ----------------------------------------------------------------------


TERMS = st.sampled_from([Constant("a"), Constant("b"), Variable("X"), Variable("Y"), Variable("Z")])
PLAIN = st.builds(
    lambda p, args, positive: Literal(p, tuple(args), positive),
    st.sampled_from(["p", "q"]),
    st.lists(TERMS, max_size=3),
    st.booleans(),
)
LITERALS = st.one_of(
    PLAIN,
    st.builds(
        lambda m, owner, lit: replace(lit, modality=m, owner=owner),
        st.sampled_from([Modality.BEL, Modality.DES, Modality.INT]),
        TERMS,
        PLAIN,
    ),
)
RULES = st.builds(
    lambda head, body, naf: Rule("r", head, tuple(body), tuple(naf)),
    LITERALS,
    st.lists(LITERALS, max_size=3),
    st.lists(LITERALS, max_size=2),
)


def _replace_apply(s: Substitution, lit: Literal) -> Literal:
    owner = s.resolve(lit.owner) if lit.owner is not None else None
    return replace(lit, owner=owner, args=tuple(s.resolve(a) for a in lit.args))


def _replace_rename(r: Rule, tag: int) -> Rule:
    vs = r.head.variables()
    for lit in r.body + r.naf:
        vs |= lit.variables()
    s = Substitution({v: Variable(f"{v}'{tag}") for v in sorted(vs)})
    return replace(
        r,
        head=_replace_apply(s, r.head),
        body=tuple(_replace_apply(s, b) for b in r.body),
        naf=tuple(_replace_apply(s, n) for n in r.naf),
    )


@settings(max_examples=200)
@given(LITERALS, st.dictionaries(st.sampled_from(["X", "Y", "Z"]), TERMS))
def test_complement_and_apply_match_replace(lit, bindings):
    s = Substitution(bindings)
    assert lit.complement() == replace(lit, positive=not lit.positive)
    assert s.apply(lit) == _replace_apply(s, lit)


@settings(max_examples=200)
@given(RULES, st.integers(min_value=0, max_value=50))
def test_rename_matches_replace(r, tag):
    assert r.rename(tag) == _replace_rename(r, tag)
    assert r.rename(tag).canonical() == r.canonical()


@settings(max_examples=200)
@given(LITERALS)
def test_a_rebuilt_literal_has_the_equality_hash_and_repr_of_its_source(lit):
    twin = Literal(lit.predicate, lit.args, lit.positive, lit.modality, lit.owner)
    assert twin == lit and repr(twin) == repr(lit)
    assert hash(twin) == hash(lit)
    back = replace(lit.complement(), positive=lit.positive)
    assert back == lit and hash(back) == hash(lit)


def _spelled_term(t) -> Optional[tuple[str, str]]:
    return None if t is None else (type(t).__name__, str(t))


def _spelled(lit: Literal, rename=lambda t: t) -> tuple:
    """The five fields with each term, mapped by `rename`, spelled out, so equality does not lean on interning."""
    def term(t):
        return None if t is None else _spelled_term(rename(t))

    return (lit.predicate, tuple(map(term, lit.args)), lit.positive, lit.modality.value, term(lit.owner))


def _flipped(spelled: tuple) -> tuple:
    return (*spelled[:2], not spelled[2], *spelled[3:])


# each builder beside the spelling it must give, predicted from the literal it was built from
BUILDERS = {
    "constructor": (
        lambda lit, s, tag: Literal(lit.predicate, lit.args, lit.positive, lit.modality, lit.owner),
        lambda lit, s, tag: _spelled(lit),
    ),
    "replace": (
        lambda lit, s, tag: replace(lit.complement(), positive=lit.positive),
        lambda lit, s, tag: _spelled(lit),
    ),
    "atom": (
        lambda lit, s, tag: atom(lit.predicate, *lit.args),
        lambda lit, s, tag: (*_spelled(lit)[:2], True, "plain", None),
    ),
    "intends": (
        lambda lit, s, tag: intends(lit.owner or "a", lit.atom()),
        lambda lit, s, tag: (*_spelled(lit)[:2], True, "int", _spelled_term(lit.owner or Constant("a"))),
    ),
    "complement": (lambda lit, s, tag: lit.complement(), lambda lit, s, tag: _flipped(_spelled(lit))),
    "apply": (lambda lit, s, tag: s.apply(lit), lambda lit, s, tag: _spelled(lit, s.resolve)),
    "fresh": (
        lambda lit, s, tag: logic._fresh(lit, logic._Fresh(tag)),
        lambda lit, s, tag: _spelled(lit, lambda t: Variable(f"{t.name}'{tag}") if type(t) is Variable else t),
    ),
    "pickle": (lambda lit, s, tag: pickle.loads(pickle.dumps(lit)), lambda lit, s, tag: _spelled(lit)),
}


def _build(how: str, lit: Literal, bindings: dict, tag: int) -> tuple[Literal, Literal, tuple]:
    """The source literal, the literal `how` builds from it, and the spelling that one must have."""
    build, predict = BUILDERS[how]
    s = Substitution(bindings)
    return lit, build(lit, s, tag), predict(lit, s, tag)


BUILT = st.builds(
    _build,
    st.sampled_from(sorted(BUILDERS)),
    LITERALS,
    st.dictionaries(st.sampled_from(["X", "Y", "Z"]), TERMS),
    st.integers(min_value=0, max_value=2),
)


@settings(max_examples=300)
@given(st.text(min_size=1, max_size=4), st.lists(BUILT, min_size=2, max_size=4), st.lists(RULES, max_size=3))
def test_term_layer_values_are_equal_iff_their_fields_are(symbol, cases, rules):
    assert Constant(symbol) is Constant(symbol) is pickle.loads(pickle.dumps(Constant(symbol)))
    for source, lit, predicted in cases:
        assert _spelled(lit) == predicted
        assert (lit.owner is None) == (lit.modality is Modality.NONE)
        if predicted == _spelled(source):
            assert lit == source and hash(lit) == hash(source) and repr(lit) == repr(source)
    built = [lit for _, lit, _ in cases]
    for a, b in itertools.product(built, repeat=2):
        assert (a == b) == (_spelled(a) == _spelled(b))
        assert a != b or (hash(a) == hash(b) and repr(a) == repr(b))
    facts = [(f"f{i}", lit) for i, lit in enumerate(dict.fromkeys(built))]
    kept = [(f"r{i}", r) for i, r in enumerate(rules) if r.range_restricted()]
    theory = Theory(facts + kept)
    rule_keys = theory._keys - {lit for _, lit in facts}
    assert len(rule_keys) == len({r.canonical() for _, r in kept})
    assert not any(lit == key for _, lit in facts for key in rule_keys)
    assert all(theory.has_fact(lit) for _, lit in facts)


MODALITY_WORDS = {Modality.BEL: "bel", Modality.DES: "des", Modality.INT: "int"}


def _rendered_term(t) -> str:
    return t.symbol if isinstance(t, Constant) else t.name


def _rendered(lit: Literal) -> str:
    """A literal as the scenario syntax writes it, spelled out term by term."""
    text = lit.predicate
    if lit.args:
        text += "(" + ", ".join(_rendered_term(t) for t in lit.args) + ")"
    if lit.modality is not Modality.NONE:
        text = MODALITY_WORDS[lit.modality] + " " + _rendered_term(lit.owner) + ": " + text
    return text if lit.positive else "~" + text


@settings(max_examples=300)
@given(RULES)
def test_literals_and_rules_render_as_spelled_out(r):
    for lit in (r.head, *r.body, *r.naf):
        assert str(lit) == _rendered(lit)
    conditions = [_rendered(b) for b in r.body] + ["not(" + _rendered(n) + ")" for n in r.naf]
    assert str(r) == _rendered(r.head) + (" :- " + ", ".join(conditions) if conditions else "") + "."


def test_rendering_covers_every_modality_polarity_and_term_kind():
    assert [str(lit) for lit in (
        Literal("rainy"),
        Literal("rainy", (), False),
        Literal("p", (Constant("a"), Variable("X"))),
        Literal("p", (Variable("X"),), False, Modality.BEL, Constant("a")),
        Literal("give", (Constant("b"), Constant("a"), Constant("r")), True, Modality.INT, Variable("A")),
        Literal("q", (), True, Modality.DES, Constant("a")),
    )] == ["rainy", "~rainy", "p(a, X)", "~bel a: p(X)", "int A: give(b, a, r)", "des a: q"]


# one value of each record type built per disclosed item, plan option or transfer, with the
# `repr` and `str` it had as a frozen dataclass
RECORDS = [
    (GiveAction("a", "b", "r"), "GiveAction(giver='a', receiver='b', resource='r')", "give(a, b, r)"),
    (
        Message(MessageKind.ASK, "a", "b", GiveAction("b", "a", "r")),
        "Message(kind=<MessageKind.ASK: 'ask'>, sender='a', receiver='b', "
        "payload=GiveAction(giver='b', receiver='a', resource='r'))",
        "ask(a -> b: give(b, a, r))",
    ),
    (
        DisclosureItem("res:r", ResourceDecl("a", "r", Fraction(1, 2))),
        "DisclosureItem(label='res:r', payload=ResourceDecl(agent='a', name='r', value=Fraction(1, 2)))",
        None,
    ),
    (
        SupportItem("M.1", atom("have", "b", "r")),
        "SupportItem(label='M.1', item=Literal(predicate='have', args=(Constant(symbol='b'), "
        "Constant(symbol='r')), positive=True, modality=<Modality.NONE: 'plain'>, owner=None))",
        "M.1",
    ),
    (
        Proof(intends("a", atom("give", "b", "a", "r")), frozenset({"M.1"})),
        "Proof(conclusion=Literal(predicate='give', args=(Constant(symbol='b'), Constant(symbol='a'), "
        "Constant(symbol='r')), positive=True, modality=<Modality.INT: 'int'>, owner=Constant(symbol='a')), "
        "premises=frozenset({'M.1'}))",
        None,
    ),
    (
        PlanOption("a.2", ("r",), (atom("tool", "X"),), True),
        "PlanOption(label='a.2', needed=('r',), missing=(Literal(predicate='tool', args=(Variable(name='X'),), "
        "positive=True, modality=<Modality.NONE: 'plain'>, owner=None),), open_resource=True)",
        None,
    ),
    (
        MediatorPlan("a", "a.2", ("r", "s"), ("s",)),
        "MediatorPlan(agent='a', rule_label='a.2', needed=('r', 's'), unmet=('s',))",
        None,
    ),
    (
        Candidate((("a", "a.2"), ("b", "b.2")), frozenset({GiveAction("b", "a", "r")})),
        "Candidate(plans=(('a', 'a.2'), ('b', 'b.2')), "
        "transfers=frozenset({GiveAction(giver='b', receiver='a', resource='r')}))",
        None,
    ),
]


@pytest.mark.parametrize("value, spelled, text", RECORDS, ids=[type(v).__name__ for v, _, _ in RECORDS])
def test_a_record_keeps_its_repr_str_equality_hash_and_pickle(value, spelled, text):
    assert repr(value) == spelled and str(value) == (spelled if text is None else text)
    values = [getattr(value, name) for name in value._fields]
    twin = type(value)(**dict(zip(value._fields, values)))
    assert twin == value and hash(twin) == hash(value) == hash(tuple(values))  # a dataclass's hash
    assert all(value != type(value)(*values[:i], "other", *values[i + 1:]) for i in range(len(values)))
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and repr(back) == spelled


RULE_TERMS = st.sampled_from([Variable("X"), Variable("Y"), Constant("a"), Constant("b")])  # repeats often
GOAL_TERMS = st.sampled_from([Variable("X"), Variable("Y"), Variable("Z"), Constant("a"), Constant("b")])


@st.composite
def bindings_of_goal_variables(draw):
    """A non-empty acyclic substitution: X may point at Y or Z, Y at Z, and any of them at a constant."""
    names = ["X", "Y", "Z"]
    out = {}
    for i in draw(st.sets(st.integers(min_value=0, max_value=2), min_size=1)):
        later = [Variable(n) for n in names[i + 1:]]
        out[names[i]] = draw(st.sampled_from(later + [Constant("a"), Constant("b"), Constant("c")]))
    return Substitution(out)


@st.composite
def rules_and_goals(draw):
    """A rule, one of its literals, and a goal of that literal's shape."""

    def rule_literal():
        lit = Literal(draw(st.sampled_from(["p", "q"])), tuple(draw(st.lists(RULE_TERMS, max_size=3))))
        if draw(st.booleans()):
            lit = replace(lit, modality=Modality.INT, owner=draw(RULE_TERMS))
        return lit

    r = Rule("r", rule_literal(), tuple(rule_literal() for _ in range(draw(st.integers(0, 2)))))
    lits = (r.head, *r.body)
    at = draw(st.integers(min_value=0, max_value=len(lits) - 1))
    lit = lits[at]
    goal = replace(
        lit,
        args=tuple(draw(GOAL_TERMS) for _ in lit.args),
        owner=None if lit.owner is None else draw(GOAL_TERMS),
    )
    return r, at, goal


@settings(max_examples=400)
@given(rules_and_goals(), bindings_of_goal_variables(), st.integers(min_value=0, max_value=50))
def test_bind_is_unify_with_the_rule_renamed_apart(case, subst, tag):
    r, at, goal = case
    renamed = _replace_rename(r, tag)
    want = unify(goal, (renamed.head, *renamed.body)[at], subst)
    fresh = logic._Fresh(tag)
    got = logic._bind((r.head, *r.body)[at], goal, subst, fresh, tag)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.apply(goal) == want.apply(goal)
        for mine, theirs in zip((r.head, *r.body), (renamed.head, *renamed.body)):
            assert got.apply(logic._fresh(mine, fresh)) == want.apply(theirs)


def _bind_by_renaming(lit: Literal, goal: Literal, subst: Substitution, fresh, tag: int) -> Optional[Substitution]:
    """The unifier `_bind` stands for: name every variable of the literal apart, then unify."""
    for name in sorted(lit.variables()):
        fresh[name] = Variable(f"{name}'{tag}")
    return unify(goal, logic._fresh(lit, fresh), subst)


AGENTS, RESOURCES = ["a", "b"], ["r", "s"]
PLAN_TERMS = st.sampled_from(["X", "Y", *AGENTS, *RESOURCES])


@st.composite
def intention_theories(draw):
    """Plans, holdings and goal intentions under ownership and reduction, and an `int` goal to prove."""

    def plan_rule(n):
        head = atom("can", draw(st.sampled_from(["X", *AGENTS])), draw(st.sampled_from(["go", "stay"])))
        body = [
            atom(draw(st.sampled_from(["have", "tool"])), *draw(st.lists(PLAN_TERMS, min_size=1, max_size=2)))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        covered = {v for b in body for v in b.variables()}
        body += [atom("have", "X", v) for v in sorted(head.variables() - covered)]  # range-restricted
        return (f"c{n}", rule(f"c{n}", head, *body))

    rules = [plan_rule(n) for n in range(draw(st.integers(min_value=1, max_value=4)))]
    holding = st.builds(atom, st.just("have"), st.sampled_from(AGENTS), st.sampled_from(RESOURCES))
    facts = draw(st.lists(holding, max_size=3, unique=True))
    wants = st.tuples(st.sampled_from(AGENTS), st.sampled_from(["go", "stay"]))
    wanted = draw(st.lists(wants, min_size=1, max_size=3, unique=True))
    facts += [intends(x, atom("can", x, g)) for x, g in wanted]
    entries = draw(st.permutations(rules + [(f"f{i}", f) for i, f in enumerate(facts)]))
    general = [GeneralRule("G.1", GeneralKind.OWNERSHIP), GeneralRule("G.2", GeneralKind.REDUCTION)]
    # mostly a precondition of some plan, some of its terms made variables or other constants
    precondition = draw(st.sampled_from([b for _, r in rules for b in r.body]))
    terms = [st.one_of(st.just(t), PLAN_TERMS) for t in precondition.args]
    inner = draw(
        st.one_of(
            st.builds(atom, st.just(precondition.predicate), *terms),
            st.builds(atom, st.just("give"), PLAN_TERMS, PLAN_TERMS, PLAN_TERMS),
        )
    )
    return Theory(entries, general), intends(draw(st.sampled_from([x for x, _ in wanted] + AGENTS)), inner)


def _outcome(theory: Theory, goal: Literal):
    try:
        return prove(theory, goal, depth=8)
    except DepthExceeded:
        return DepthExceeded


@settings(max_examples=300, deadline=None)
@given(intention_theories())
def test_prove_binding_in_place_equals_prove_renaming_apart(case):
    theory, goal = case
    got = _outcome(theory, goal)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logic, "_bind", _bind_by_renaming)
        want = _outcome(Theory(theory.entries(), theory.general), goal)  # `theory` keeps its first answer
    assert got == want


@st.composite
def shape_theories(draw):
    """A small theory that can answer in every way `_Search` does, labels to keep, and a goal.

    Facts are plain or `int`, positive or negative, over `have`, `give`, `can` and `p`; beside
    plans, rules have plain, `int`, negative, recursive and absence body literals; the
    ownership, reduction, generosity and parsimony principles are each present or not. The
    goal is mostly a transfer intention, a refusal or a declined holding.
    """
    predicates = st.sampled_from([("have", 2), ("give", 3), ("can", 2), ("p", 1)])
    agents, resources = st.sampled_from(AGENTS), st.sampled_from(RESOURCES)

    def literal(terms, owners):
        pred, n = draw(predicates)
        lit = atom(pred, *draw(st.lists(terms, min_size=n, max_size=n)))
        if draw(st.booleans()):
            lit = intends(draw(owners), lit)
        return lit.complement() if draw(st.integers(0, 3)) == 0 else lit

    held = draw(st.lists(st.tuples(agents, resources), min_size=1, max_size=3))
    facts = [atom("have", x, z) for x, z in held]
    facts += [intends(x, atom("can", x, "go")) for x in draw(st.lists(agents, min_size=1, max_size=2))]
    facts += [literal(st.sampled_from([*AGENTS, *RESOURCES, "go"]), agents) for _ in range(draw(st.integers(0, 2)))]
    terms, owners = st.sampled_from(["X", "Y", *AGENTS, *RESOURCES, "go"]), st.sampled_from(["X", *AGENTS])
    rules = []
    for n in range(draw(st.integers(1, 2))):  # plans
        needed = draw(st.lists(resources, min_size=1, max_size=2, unique=True))
        rules.append(rule(f"c{n}", atom("can", "X", "go"), *(atom("have", "X", r) for r in needed)))
    for n in range(len(rules), len(rules) + draw(st.integers(0, 2))):
        head = literal(terms, owners)
        body = [literal(terms, owners) for _ in range(draw(st.integers(0, 2)))]
        if draw(st.integers(0, 3)) == 0:
            body.append(head)  # recursive
        naf = [literal(terms, agents)] if draw(st.integers(0, 3)) == 0 else []
        covered = {v for b in body + naf for v in b.variables()}
        body += [atom("have", v, "r") for v in sorted(head.variables() - covered)]  # range-restricted
        rules.append(rule(f"c{n}", head, *body, naf=naf))
    facts = [(f"f{i}", f) for i, f in enumerate(dict.fromkeys(facts))]
    entries = draw(st.permutations([(r.label, r) for r in rules] + facts))
    principles = [
        GeneralRule("G.1", GeneralKind.OWNERSHIP),
        GeneralRule("G.2", GeneralKind.REDUCTION),
        GeneralRule("G.3", GeneralKind.GENEROSITY, draw(agents)),
        GeneralRule("G.6", GeneralKind.PARSIMONY),
    ]
    theory = Theory(entries, [g for g in principles if draw(st.integers(0, 4))])
    labels = theory.labels() + [g.label for g in theory.general]
    keep = set(labels) - draw(st.sets(st.sampled_from(labels), max_size=2)) if labels else set()
    x, z = draw(st.sampled_from(held))  # mostly about a holding
    transfer = atom("give", x, draw(st.sampled_from(["Y", *AGENTS])), z)
    goal = draw(
        st.sampled_from(
            [
                intends(draw(agents), transfer),
                intends(x, transfer).complement(),
                intends(x, atom("have", x, z)).complement(),
                literal(terms, agents),
            ]
        )
    )
    return theory, keep, goal


@settings(max_examples=400, deadline=None)
@given(shape_theories())
def test_a_goal_of_a_shape_outside_provable_shapes_has_no_proof(case):
    theory, keep, goal = case
    kept = theory.restricted(keep)
    try:  # the stratum absence conditions read; `prove` raises on its clash before any answer
        forward_chain(kept.filtered(lambda l, e: isinstance(e, Literal) or not e.naf))
    except InconsistentTheory:
        assume(False)
    if shape(goal) not in logic.provable_shapes(theory, keep):
        assert _outcome(kept, goal) in (None, DepthExceeded)


def _saturates(theory: Theory) -> bool:
    try:
        forward_chain(theory)
    except InconsistentTheory:
        return False
    return True


@st.composite
def clash_theories(draw):
    """A theory of `stratified_theories` or `shape_theories`; in half the draws it also holds a ground
    fact that complements the shape of one of its facts or rule heads, so that saturation is needed."""
    theory = draw(st.one_of(stratified_theories(), shape_theories().map(lambda case: case[0])))
    heads = [item if isinstance(item, Literal) else item.head for _, item in theory.entries()]
    if heads and draw(st.booleans()):
        head = draw(st.sampled_from(heads))
        constants = st.sampled_from(STRATA_CONSTANTS + AGENTS + RESOURCES).map(Constant)
        ground = Substitution({v: draw(constants) for v in sorted(head.variables())})
        theory = theory.extended([("clash", ground.apply(head).complement())])
    return theory


@settings(max_examples=300, deadline=None)
@given(clash_theories())
def test_consistent_is_whether_saturation_meets_no_clash(theory):
    assert consistent(theory) == _saturates(theory)


class TestConsistentFromShapes:
    CLASH_RULE = ("r", rule("r", atom("p", "X").complement(), atom("q", "X")))

    def test_complementary_shapes_without_complementary_literals_are_consistent(self):
        theory = Theory([self.CLASH_RULE, ("f1", atom("p", "a")), ("f2", atom("q", "b"))])
        assert consistent(theory) and _saturates(theory)

    def test_complementary_shapes_with_complementary_literals_are_not(self):
        theory = Theory([self.CLASH_RULE, ("f1", atom("p", "a")), ("f2", atom("q", "a"))])
        assert not consistent(theory) and not _saturates(theory)

    @settings(max_examples=100, deadline=None)
    @given(stratified_theories())
    def test_a_theory_of_positive_literals_is_not_saturated(self, theory):
        def refused(_theory):
            raise AssertionError("forward_chain called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logic, "forward_chain", refused)
            assert consistent(theory)


def _view_of(theory: Theory, name: str):
    """The view, with every dict read as its items in order; a saturation that clashes gives its literal."""
    try:
        value = getattr(theory, name)
    except InconsistentTheory as clash:
        return ("inconsistent", clash.literal)
    if isinstance(value, logic.ShapeIndex):
        value = {key: list(v.items()) if isinstance(v, dict) else v for key, v in vars(value).items()}
    return list(value.items()) if isinstance(value, dict) else value


def _derive(data, theory: Theory) -> Theory:
    """`theory` through one drawn step: `extended`, `filtered`, `restricted` or `mediator.revise`."""
    labels = theory.labels()
    dropped = data.draw(st.sets(st.sampled_from(labels), max_size=3)) if labels else set()
    # new items, and the complements of held facts: an extension that clashes
    items = data.draw(shape_theories())[0].entries() + [(f"n{l}", f.complement()) for l, f in theory.facts]
    added = data.draw(st.lists(st.sampled_from(items), min_size=1, max_size=3))
    step = data.draw(st.sampled_from(["extended", "filtered", "restricted", "revise"]))
    if step == "extended":
        return theory.extended(added)
    if step == "filtered":
        return theory.filtered(lambda l, e: l not in dropped)
    if step == "restricted":
        return theory.restricted(set(labels + [g.label for g in theory.general]) - dropped)
    try:
        return revise(theory, added)
    except IncoherentInput:
        return theory


@settings(max_examples=200, deadline=None)
@given(shape_theories(), st.data())
def test_every_view_of_a_derived_theory_is_the_view_of_its_entries(case, data):
    chain = [case[0]]
    for _ in range(data.draw(st.integers(1, 4))):
        for name in data.draw(st.sets(st.sampled_from(VIEWS))):  # built before the step, so it may be carried
            _view_of(chain[-1], name)
        chain.append(_derive(data, chain[-1]))
    for theory in chain:
        fresh = Theory(theory.entries(), theory.general)
        assert all(_view_of(theory, name) == _view_of(fresh, name) for name in VIEWS)
        positive = Theory([(l, e) for l, e in theory.entries() if isinstance(e, Literal) or not e.naf], theory.general)
        try:
            saturated = list(forward_chain(positive).items())
        except InconsistentTheory as clash:
            saturated = ("inconsistent", clash.literal)
        assert _view_of(theory, "positive_stratum") == saturated


def _plan_options_by_instantiation(theory: Theory, agent: str, goal_atom: Literal) -> list[PlanOption]:
    """`plan_options` the copying way: bind each head with a `_Fresh(0)` map, then build every body literal."""
    me = Constant(agent)
    out, seen = [], set()
    for _, label, r in theory.index.heads.get(shape(goal_atom), ()):
        if r.canonical() in seen:
            continue
        seen.add(r.canonical())
        fresh = logic._Fresh(0)
        s = logic._bind(r.head, goal_atom, EMPTY_SUBSTITUTION, fresh, 0)
        if s is None:
            continue
        needed, missing, open_resource = [], [], False
        for p in (s.apply(logic._fresh(b, fresh)) for b in r.body):
            if shape(p) == HAVE and p.args[0] == me:  # a positive plain have/2 of the agent
                if isinstance(p.args[1], Constant):
                    needed.append(p.args[1].symbol)
                else:
                    open_resource = True
            elif not (p.is_ground() and theory.has_fact(p)):
                missing.append(p)
        out.append(PlanOption(label, tuple(dict.fromkeys(needed)), tuple(dict.fromkeys(missing)), open_resource))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plan_options_equal_those_read_from_instantiated_bodies(data):
    if data.draw(st.booleans()):
        theory, goals = make_case(random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1))))
        agents = list(goals)
        atoms = [*goals.values(), atom("can", "X", "goal_a1"), atom("can", "a2", "Y"), atom("can", "X", "Y")]
    else:
        theory, _, goal = data.draw(shape_theories())
        agents = AGENTS
        atoms = [goal.atom(), atom("can", "a", "go"), atom("can", "X", "go"), atom("can", "b", "Y")]
    agent, goal_atom = data.draw(st.sampled_from(agents)), data.draw(st.sampled_from(atoms))
    assert plan_options(theory, agent, goal_atom) == _plan_options_by_instantiation(theory, agent, goal_atom)


def _reduction_binding_every_literal(self, goal, subst, depth):
    """`_Search._solve_reduction` without its constant-clash check: every candidate body literal goes through `_bind`."""
    reduction = self.theory.principles.get(GeneralKind.REDUCTION)
    if reduction is None or type(goal.owner) is not Constant:
        return
    inner = goal.atom()
    for head, lits, tag, charged in self._candidate_rules(inner):
        for b in lits:
            fresh = logic._Fresh(tag)
            s = logic._bind(b, inner, subst, fresh, tag)
            if s is None:
                continue
            head_goal = Literal(head.predicate, logic._fresh(head, fresh).args, True, Modality.INT, goal.owner)
            for s2, prem in self.solve(head_goal, s, depth - 1):
                yield s2, prem | {*charged, reduction.label}


@settings(max_examples=300, deadline=None)
@given(st.one_of(intention_theories(), shape_theories().map(lambda case: (case[0], case[2]))))
def test_reduction_skips_only_body_literals_that_clash_with_the_goal(case):
    theory, goal = case
    got = _outcome(theory, goal)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logic._Search, "_solve_reduction", _reduction_binding_every_literal)
        want = _outcome(Theory(theory.entries(), theory.general), goal)  # `theory` keeps its first answer
    assert got == want


def test_literal_owner_checks_keep_their_messages():
    for modality in (Modality.BEL, Modality.DES, Modality.INT):
        with pytest.raises(ValueError, match=rf"^{modality.value} literal needs an owner$"):
            Literal("p", (), True, modality)
        with pytest.raises(ValueError, match=rf"^{modality.value} literal needs an owner$"):
            replace(atom("p", "a"), modality=modality)
    with pytest.raises(ValueError, match=r"^plain literal cannot carry an owner$"):
        Literal("p", (Constant("a"),), owner=Constant("b"))
    with pytest.raises(ValueError, match=r"^plain literal cannot carry an owner$"):
        replace(intends("b", atom("p", "a")), modality=Modality.NONE)


def test_a_pickled_literal_meets_its_twin_in_another_process():
    lit = intends("alpha", atom("have", "alpha", "nail"))
    data = pickle.dumps(lit)
    assert pickle.loads(data) == lit
    # string and identity hashes differ between processes: the loaded literal must meet a fresh twin
    code = (
        "import pickle, sys; from mediatrix.lang import atom, intends; "
        "lit = pickle.loads(sys.stdin.buffer.read()); "
        "print(lit in {intends('alpha', atom('have', 'alpha', 'nail'))})"
    )
    src = str(Path(logic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "4021", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], input=data, capture_output=True, env=env, check=True)
    assert out.stdout.strip() == b"True"


class TestRuleKeys:
    def test_canonical_is_computed_once(self):
        r = rule("r", atom("q", "X"), atom("p", "X"), naf=(atom("s", "X"),))
        assert r.canonical() is r.canonical()

    def test_replaced_rule_gets_its_own_key(self):
        r = rule("r", atom("q", "X"), atom("p", "X"))
        key = r.canonical()
        other = replace(r, head=atom("s", "X"))
        assert other.canonical() != key
        theory = Theory([("r", r)])
        assert theory.contains(r) and not theory.contains(other)

    def test_a_fact_is_told_apart_from_its_relatives(self):
        fact = atom("have", "alpha", "nail")
        relatives = [
            fact.complement(),
            intends("alpha", fact),
            intends("beta", fact),
            replace(intends("alpha", fact), modality=Modality.BEL),
        ]
        theory = Theory([("f", fact)])
        assert theory.has_fact(fact) and theory.contains(fact)
        for other in relatives:
            assert not theory.has_fact(other) and not theory.contains(other)
        wrapped = Theory([("w", intends("alpha", fact))])
        assert wrapped.has_fact(intends("alpha", fact))
        assert not wrapped.has_fact(intends("beta", fact)) and not wrapped.has_fact(fact)

    def test_cyclic_substitution_stops_at_the_cycle(self):
        s = Substitution({"X": Variable("Y"), "Y": Variable("X")})
        assert s.resolve(Variable("X")) == Variable("X")
        assert s.resolve(Variable("Y")) == Variable("Y")
        assert s.resolve(Variable("Z")) == Variable("Z")
        assert s.resolve(Constant("a")) == Constant("a")


def test_prove_deterministic(gamma_full):
    goal = intends("beta", atom("give", "alpha", "beta", "screw"))
    first = prove(gamma_full, goal)
    second = prove(gamma_full, goal)
    assert first == second


# ----------------------------------------------------------------------
# A theory answers each question once: the `proofs` and `options` views
# ----------------------------------------------------------------------


def _answer(theory: Theory, goal: Literal):
    """`_outcome`, with a clash of the positive stratum read as its literal."""
    try:
        return _outcome(theory, goal)
    except InconsistentTheory as clash:
        return ("inconsistent", clash.literal)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        stratified_theories().map(lambda theory: (theory, STRATA_GOALS)),
        shape_theories().map(lambda case: (case[0], [case[2]])),
    )
)
def test_a_question_asked_again_gets_the_answer_of_a_fresh_theory(case):
    theory, goals = case
    for goal in goals:
        first = _answer(theory, goal)
        assert _answer(theory, goal) == first == _answer(Theory(theory.entries(), theory.general), goal), f"{goal}"


@settings(max_examples=200)
@given(plans_and_goals(wide=True), st.sampled_from([("a", "b"), ("b", "a")]))
def test_plan_options_asked_again_equal_those_of_a_fresh_theory(case, agents):
    theory, goal = case
    for agent in agents:  # the agent is part of the question
        first = plan_options(theory, agent, goal)
        assert plan_options(theory, agent, goal) is first
        assert first == plan_options(Theory(theory.entries(), theory.general), agent, goal)


REACH = Theory(
    [
        ("l1", atom("link", "a", "b")),
        ("l2", atom("link", "b", "a")),
        ("r1", rule("r1", atom("reach", "X", "Y"), atom("link", "X", "Y"))),
        ("r2", rule("r2", atom("reach", "X", "Z"), atom("link", "X", "Y"), atom("reach", "Y", "Z"))),
    ]
)


class TestAnswersKept:
    def test_a_kept_bound_hit_raises_a_new_error_without_searching_again(self, monkeypatch):
        theory, goal = Theory(REACH.entries()), atom("reach", "a", "c")
        with pytest.raises(DepthExceeded) as first:
            prove(theory, goal, depth=4)
        monkeypatch.setattr(logic, "_Search", None)  # a second search would fail on this
        with pytest.raises(DepthExceeded) as second:
            prove(theory, goal, depth=4)
        assert second.value is not first.value
        assert str(second.value) == str(first.value) == "no proof of reach(a, c) within depth 4"

    def test_another_depth_is_another_question(self):
        theory = Theory(REACH.entries())
        with pytest.raises(DepthExceeded):
            prove(theory, atom("reach", "a", "c"), depth=4)
        assert prove(theory, atom("reach", "a", "b"), depth=4) is not None
        with pytest.raises(DepthExceeded):
            prove(theory, atom("reach", "a", "c"), depth=5)
        asked = {(atom("reach", "a", "c"), 4), (atom("reach", "a", "b"), 4), (atom("reach", "a", "c"), 5)}
        assert set(theory.proofs) == asked

    def test_a_derived_theory_starts_with_no_answers(self):
        theory = Theory(
            [
                ("f1", atom("have", "a", "r")),
                ("d1", rule("d1", atom("can", "X", "go"), atom("have", "X", "r"))),
                ("g1", intends("a", atom("can", "a", "go"))),
            ],
            [GeneralRule("G.2", GeneralKind.REDUCTION)],
        )
        goal = intends("a", atom("have", "a", "r"))
        assert prove(theory, goal) is not None and plan_options(theory, "a", atom("can", "a", "go"))
        assert theory.proofs and theory.options
        children = [
            theory.extended([("f2", atom("have", "b", "s"))]),
            theory.filtered(lambda l, e: True),
            theory.restricted(theory.labels() + ["G.2"]),
        ]
        for child in children:
            assert child.proofs == {} and child.options == {}
            assert prove(child, goal) == prove(theory, goal)
