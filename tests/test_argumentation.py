from __future__ import annotations

from mediatrix import argumentation
from mediatrix.argumentation import (
    AttackKind,
    Verdict,
    construct_argument,
    evaluate,
)
from mediatrix.lang import atom, intends
from mediatrix.logic import GeneralKind, GeneralRule, Rule, Theory, prove

from checkers import find_attacks, minimality_check


def rule(label, head, *body):
    return Rule(label, head, tuple(body))


def proofs_of(monkeypatch) -> list[Theory]:
    """The theories `construct_argument` proves in from now on, in call order."""
    proved = []

    def recording(theory, *rest):
        proved.append(theory)
        return prove(theory, *rest)

    monkeypatch.setattr(argumentation, "prove", recording)
    return proved


class TestConstructArgument:
    def test_simple_fact(self):
        theory = Theory([("f1", atom("have", "alpha", "nail"))])
        arg = construct_argument(theory, atom("have", "alpha", "nail"))
        assert arg is not None
        assert arg.labels() == {"f1"}

    def test_unprovable_is_none(self):
        theory = Theory([("f1", atom("have", "alpha", "nail"))])
        assert construct_argument(theory, atom("have", "beta", "nail")) is None

    def test_screw_transfer_support(self, gamma_full):
        goal = intends("beta", atom("give", "alpha", "beta", "screw"))
        arg = construct_argument(gamma_full, goal)
        assert arg is not None
        assert arg.labels() <= {"M.2", "M.5", "M.7", "G.1", "G.2"}
        assert minimality_check(arg, gamma_full)

    def test_screwdriver_transfer_support(self, gamma_full):
        goal = intends("beta", atom("give", "mu", "beta", "screwdriver"))
        arg = construct_argument(gamma_full, goal)
        assert arg is not None
        assert arg.labels() <= {"M.2", "M.5", "M.1", "G.1", "G.2"}

    def test_nail_transfer_support(self, gamma_full):
        goal = intends("alpha", atom("give", "beta", "alpha", "nail"))
        arg = construct_argument(gamma_full, goal)
        assert arg is not None
        assert arg.labels() <= {"M.10", "M.4", "M.9", "G.1", "G.2"}

    def test_redundant_facts_are_dropped(self):
        theory = Theory(
            [
                ("f1", atom("p", "a")),
                ("f2", atom("q", "a")),  # irrelevant
                ("r1", rule("r1", atom("s", "X"), atom("p", "X"))),
            ]
        )
        arg = construct_argument(theory, atom("s", "a"))
        assert arg is not None
        assert "f2" not in arg.labels()
        assert minimality_check(arg, theory)

    def test_inconsistent_support_rejected(self):
        theory = Theory(
            [
                ("f1", atom("p", "a")),
                ("f2", atom("p", "a").complement()),
                ("r2", rule("r2", atom("s", "a"), atom("p", "a"), atom("p", "a").complement())),
            ]
        )
        # the only proof of s(a) needs a complementary pair in its support
        assert construct_argument(theory, atom("s", "a")) is None

    def test_consistency_is_checked_on_the_shrunk_support_when_a_drop_takes_more_with_it(self, monkeypatch):
        theory = Theory(
            [
                ("r1", rule("r1", atom("g"), atom("p", "c"), atom("p", "d"), atom("s", "d").complement())),
                ("ra", rule("ra", atom("p", "X"), atom("s", "X"), atom("t", "X"))),
                ("rb", rule("rb", atom("p", "X"), atom("q", "X"))),
                ("rs", rule("rs", atom("s", "X"), atom("q", "X"))),
                ("fqc", atom("q", "c")),
                ("fqd", atom("q", "d")),
                ("fnsd", atom("s", "d").complement()),
                ("ftc", atom("t", "c")),
            ]
        )
        # the first proof reads p(c) through ra, rs and ftc, though rs derives s(d) against fnsd;
        # without ftc, p(c) comes from rb and the proof needs neither ra nor rs
        proved = proofs_of(monkeypatch)
        arg = construct_argument(theory, atom("g"))
        assert arg is not None and arg.labels() == {"r1", "rb", "fqc", "fqd", "fnsd"}
        assert minimality_check(arg, theory)
        # g's shape stays provable without ftc, so that drop is re-proved: the shrink takes ra and rs with it
        assert set(proved[0].labels()) - set(proved[1].labels()) == {"ftc"}

    def test_case_study_transfer_arguments_take_one_proof_each(self, gamma_full, monkeypatch):
        # without any one support label, no int give/3 literal is provable at all
        for goal, support in [
            (intends("beta", atom("give", "alpha", "beta", "screw")), {"G.1", "G.2", "M.2", "M.5", "M.7"}),
            (intends("alpha", atom("give", "beta", "alpha", "nail")), {"G.1", "G.2", "M.4", "M.9", "M.10"}),
        ]:
            proved = proofs_of(monkeypatch)
            arg = construct_argument(gamma_full, goal)
            assert arg.labels() == support and len(proved) == 1


class TestMinimality:
    def test_exact_check_spots_redundancy(self, gamma_full):
        goal = intends("beta", atom("give", "alpha", "beta", "screw"))
        arg = construct_argument(gamma_full, goal)
        # injecting an extra label makes the support non-minimal
        from mediatrix.argumentation import Argument, SupportItem

        padded = Argument(
            arg.support + (SupportItem("M.9", gamma_full.lookup("M.9")),),
            arg.conclusion,
        )
        assert not minimality_check(padded, gamma_full)

    def test_singleton_support_is_minimal(self):
        theory = Theory([("f1", atom("p", "a"))])
        arg = construct_argument(theory, atom("p", "a"))
        assert minimality_check(arg, theory)

    def test_every_constructed_argument_minimal(self, gamma_full):
        goals = [
            intends("beta", atom("give", "alpha", "beta", "screw")),
            intends("beta", atom("give", "mu", "beta", "screwdriver")),
            intends("alpha", atom("give", "beta", "alpha", "nail")),
            atom("can", "alpha", "hang_picture"),
        ]
        for goal in goals:
            arg = construct_argument(gamma_full, goal)
            if arg is not None:
                assert minimality_check(arg, gamma_full), str(goal)


BETA_PRIVATE = Theory(
    [
        ("B.1", intends("beta", atom("can", "beta", "hang_mirror"))),
        ("B.2", atom("have", "beta", "mirror")),
        ("B.3", atom("have", "beta", "nail")),
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
    ],
    [
        GeneralRule("G.1", GeneralKind.OWNERSHIP),
        GeneralRule("G.2", GeneralKind.REDUCTION),
        GeneralRule("G.6", GeneralKind.PARSIMONY),
        GeneralRule("G.7", GeneralKind.UNIQUE_CHOICE),
    ],
)


class TestAttacks:
    def test_rebut(self, gamma_full):
        conclusion = intends("beta", atom("give", "beta", "alpha", "nail"))
        pro = construct_argument(
            gamma_full.extended([("X.1", conclusion)]), conclusion
        )
        counter = construct_argument(BETA_PRIVATE, conclusion.complement())
        assert pro is not None and counter is not None
        attacks = find_attacks(counter, pro)
        # the conclusion is also a support fact here, so the counter both
        # rebuts and undercuts
        assert [a.kind for a in attacks] == [AttackKind.REBUT, AttackKind.UNDERCUT]
        assert all(a.attacker is counter and a.target is pro for a in attacks)

    def test_undercut(self):
        pro_theory = Theory(
            [
                ("f1", atom("p", "a")),
                ("r1", rule("r1", atom("q", "a"), atom("p", "a"))),
            ]
        )
        pro = construct_argument(pro_theory, atom("q", "a"))
        con = construct_argument(
            Theory([("g1", atom("p", "a").complement())]), atom("p", "a").complement()
        )
        attacks = find_attacks(con, pro)
        assert [a.kind for a in attacks] == [AttackKind.UNDERCUT]
        assert attacks[0].point == atom("p", "a")
        assert attacks[0].attacker is con and attacks[0].target is pro

    def test_no_attack_between_unrelated(self):
        a = construct_argument(Theory([("f1", atom("p", "a"))]), atom("p", "a"))
        b = construct_argument(Theory([("f2", atom("q", "b"))]), atom("q", "b"))
        assert find_attacks(a, b) == []
        assert find_attacks(b, a) == []


class TestEvaluate:
    def test_reject_nail_transfer_without_alternative(self, gamma_full):
        """beta refuses to part with the nail its only known plan needs."""
        conclusion = intends("beta", atom("give", "beta", "alpha", "nail"))
        proposal = construct_argument(
            gamma_full.extended([("S.0", conclusion)]), conclusion
        )
        decision = evaluate(BETA_PRIVATE, proposal)
        assert decision.verdict is Verdict.REJECT
        labels = {s.label for s in decision.explanation}
        assert labels == {"B.1", "B.4", "B.3", "G.2", "G.6"}

    def test_accept_with_alternative_plan_in_context(self, gamma_full):
        """The full proposal context (promised screw + screwdriver and the
        alternative mirror rule) removes beta's objection to giving the nail."""
        conclusion = intends("alpha", atom("give", "beta", "alpha", "nail"))
        proposal = construct_argument(gamma_full, conclusion)
        context = [
            ("S.1", intends("beta", atom("give", "alpha", "beta", "screw"))),
            ("S.2", intends("beta", atom("give", "mu", "beta", "screwdriver"))),
            ("M.2", gamma_full.lookup("M.2")),
        ]
        decision = evaluate(BETA_PRIVATE, proposal, context)
        assert decision.verdict is Verdict.ACCEPT

    def test_accept_unobjectionable_fact(self):
        delta = Theory([("f1", atom("p", "a"))])
        proposal = construct_argument(Theory([("g1", atom("q", "b"))]), atom("q", "b"))
        assert evaluate(delta, proposal).verdict is Verdict.ACCEPT

    def test_rejection_always_carries_counter(self, gamma_full):
        conclusion = intends("beta", atom("give", "beta", "alpha", "nail"))
        proposal = construct_argument(
            gamma_full.extended([("S.0", conclusion)]), conclusion
        )
        decision = evaluate(BETA_PRIVATE, proposal)
        assert decision.counter is not None
        assert decision.counter.kind is AttackKind.REBUT


def test_counter_argument_supports_are_minimal(gamma_full):
    """Definition-1 conditions hold for rejection explanations too."""
    conclusion = intends("beta", atom("give", "beta", "alpha", "nail"))
    proposal = construct_argument(gamma_full.extended([("S.0", conclusion)]), conclusion)
    decision = evaluate(BETA_PRIVATE, proposal)
    counter = decision.counter.attacker
    extended = BETA_PRIVATE.extended(
        [(s.label, s.item) for s in proposal.support if not isinstance(s.item, GeneralRule)]
    )
    assert minimality_check(counter, extended)
