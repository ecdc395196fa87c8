from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from mediatrix.agent import Strategy
from mediatrix.lang import Modality
from mediatrix.scenario import (
    ParseError,
    ValidationError,
    parse_scenario,
    serialize_scenario,
)

from conftest import SCENARIOS

MINIMAL = """
scenario demo;
agent a;
agent b;
mediator m;
[a.1] int a: can(a, sing).
[b.1] int b: can(b, dance).
"""


class TestParse:
    def test_home_improvement_structure(self, home_improvement):
        s = home_improvement
        alpha, beta = s.agents
        assert alpha.id == "alpha" and beta.id == "beta"
        assert s.mediator.id == "mu"
        assert alpha.unit("B").labels() == ["A.2", "A.3", "A.4", "A.5", "A.6"]
        assert alpha.unit("I").labels() == ["A.1"]
        assert beta.unit("B").labels() == ["B.2", "B.3", "B.4"]
        assert s.mediator.theory.labels() == ["M.1", "M.2", "M.3"]
        assert [g.label for g in alpha.general] == [f"G.{i}" for i in range(1, 8)]
        assert len(alpha.bridges) == 5
        assert alpha.strategy is Strategy.EAGER
        assert dict(alpha.resources)["screw"] == Fraction(0)

    def test_minimal_scenario(self):
        s = parse_scenario(MINIMAL)
        assert s.name == "demo"
        assert s.agents[0].goal_labels == ("a.1",)

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse_scenario(b"")
        assert err.value.line == 1 and err.value.col == 1

    def test_three_agents_rejected(self):
        with pytest.raises(ValidationError, match="exactly two"):
            parse_scenario(MINIMAL + "agent c;\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_scenario("scenario x;\nagent a;\nagent a;\nmediator m;")

    def test_resource_value_out_of_range(self):
        with pytest.raises(ValidationError, match="out of"):
            parse_scenario(MINIMAL + "resource a gold = 1.5;\n")

    def test_unsorted_resources_warn(self):
        s = parse_scenario(
            MINIMAL + "resource a gold = 1;\nresource a dust = 0;\n"
        )
        assert any("re-sorted" in w for w in s.warnings)
        assert [r[0] for r in s.agents[0].resources] == ["dust", "gold"]

    def test_inert_declarations_warn(self, home_improvement):
        inert = [w for w in home_improvement.warnings if "declared but has no effect" in w]
        assert inert == [
            "general G.4 unicity: declared but has no effect",
            "general G.5 benevolence: declared but has no effect",
            "bridge R.1 advice: declared but has no effect",
            "bridge R.2 advice_rule: declared but has no effect",
        ]
        assert not any("no effect" in w for w in parse_scenario(MINIMAL).warnings)

    def test_range_restriction_enforced(self):
        with pytest.raises(ValidationError, match="range-restricted"):
            parse_scenario(MINIMAL + "[a.9] bel a: can(X, Y) :- have(X, pen).\n")

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("scenario demo\nagent a;")
        assert err.value.line == 2

    def test_unknown_strategy(self):
        with pytest.raises(ParseError, match="strategy"):
            parse_scenario(MINIMAL + "strategy a = bold;\n")

    def test_comments_and_whitespace_ignored(self):
        s = parse_scenario("# header\n\n" + MINIMAL + "  # trailing\n")
        assert s.name == "demo"

    def test_negated_literal(self):
        s = parse_scenario(MINIMAL + "[a.2] int a: ~give(a, b, pen).\n")
        lit = s.agents[0].unit("I").lookup("a.2")
        assert not lit.positive and lit.predicate == "give"

    def test_nested_modal_fact_for_mediator(self):
        s = parse_scenario(MINIMAL + "[m.1] bel m: int a: can(a, sing).\n")
        lit = s.mediator.theory.lookup("m.1")
        assert lit.modality is Modality.INT and str(lit.owner) == "a"

    def test_naf_condition(self):
        s = parse_scenario(
            MINIMAL + "[a.2] bel a: can(X, sing) :- have(X, mic), not(hoarse(X)).\n"
        )
        r = s.agents[0].unit("B").lookup("a.2")
        assert len(r.naf) == 1 and r.naf[0].predicate == "hoarse"

    def test_invalid_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_scenario(b"\xff\xfe scenario x;")

    def test_non_participant_owner_rejected(self):
        with pytest.raises(ValidationError, match="participant"):
            parse_scenario(MINIMAL + "[z.1] bel zeus: thunder(now).\n")


class TestRoundTrip:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.med")), ids=lambda p: p.stem)
    def test_shipped_fixture(self, path: Path):
        first = parse_scenario(path.read_bytes())
        data = serialize_scenario(first)
        second = parse_scenario(data)
        assert first == second
        # serialization is a fixpoint after one normalization pass
        assert serialize_scenario(second) == data

    def test_declaration_order_preserved(self, home_improvement):
        data = serialize_scenario(home_improvement)
        again = parse_scenario(data)
        assert again.agents[0].unit("B").labels() == home_improvement.agents[0].unit("B").labels()
        assert again.mediator.theory.entries() == home_improvement.mediator.theory.entries()


class TestFuzzSafety:
    """No input may crash the parser with anything but its own error types."""

    @pytest.mark.parametrize(
        "blob",
        [
            b"[",
            b"]",
            b"~~~",
            b"scenario ;",
            b"agent;",
            b"resource a b = ;",
            b"[x] bel",
            b"[x] bel a:",
            b"0" * 100,
            b"scenario s; agent a; agent b; mediator m; [l] int a: p(",
            bytes(range(256)),
        ],
    )
    def test_garbage_raises_parse_or_validation_error(self, blob):
        with pytest.raises((ParseError, ValidationError)):
            parse_scenario(blob)
