from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediatrix import scenario as scenario_module
from mediatrix.agent import Strategy
from mediatrix.lang import Literal, Modality, atom, intends
from mediatrix.scenario import (
    ParseError,
    ValidationError,
    _position,
    _scan,
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
        assert s.agents[0].goals() == [("a.1", atom("can", "a", "sing"))]

    @pytest.mark.parametrize(
        "rule",
        [
            "[a.2] bel a: can(X, sing) :- have(X, mic), near(mic, X).",  # matched whole
            "[a.2] bel a: can(X, sing) :- have(X, mic), not(hoarse(X)).",  # read by the token grammar
        ],
    )
    def test_a_parsed_rules_variables_are_collected_once(self, monkeypatch, rule):
        read = []
        variables = Literal.variables
        monkeypatch.setattr(Literal, "variables", lambda lit: read.append(str(lit)) or variables(lit))
        parsed = parse_scenario(MINIMAL + rule + "\n").agents[0].unit("B").lookup("a.2")
        # the parser checks range restriction; building the unit theory reads the answer it kept
        assert sorted(read) == sorted(map(str, (parsed.head, *parsed.body, *parsed.naf)))

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

    @pytest.mark.parametrize(
        "directive, message",
        [
            ("general G.3 generosity;", "general G.3 generosity: must name an agent"),
            ("general G.4 generosity(zed);", "general G.4 generosity(zed): unknown participant 'zed'"),
            ("general G.1 ownership(a);", "general G.1 ownership: cannot name an agent"),
        ],
    )
    def test_only_generosity_names_an_agent_and_a_declared_one(self, directive, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_scenario(MINIMAL + directive + "\n")

    def test_the_generous_agent_may_be_declared_after_the_directive(self):
        s = parse_scenario("scenario demo;\ngeneral G.3 generosity(m);\nagent a;\nagent b;\nmediator m;\n")
        assert [str(g) for g in s.mediator.theory.general] == ["general G.3 generosity(m);"]

    @pytest.mark.parametrize(
        "tail, message",
        [
            ("general G.2 reduction;\ngeneral G.2 parsimony;", "duplicate general rule label 'G.2'"),
            ("general a.1 reduction;", "general rule label 'a.1' is also a formula label"),
            ("general G.2 reduction;\n[G.2] bel b: have(b, pen).", "general rule label 'G.2' is also a formula label"),
        ],
    )
    def test_a_general_rule_label_names_one_thing(self, tail, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_scenario(MINIMAL + tail + "\n")

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

    def test_unlabelled_formulas_are_numbered_per_owner(self):
        s = parse_scenario(UNLABELLED_AND_DOUBLY_NEGATED)
        a = s.agents[0]
        assert (a.unit("I").labels(), a.unit("B").labels()) == (["a.1"], ["a.2"])
        assert s.agents[1].unit("I").labels() == ["b.1"]

    def test_a_tilde_on_each_side_of_a_modal_prefix_cancels(self):
        lit = parse_scenario(UNLABELLED_AND_DOUBLY_NEGATED).mediator.theory.lookup("m.1")
        assert lit == intends("a", atom("can", "a", "stay"))


SHIPPED = sorted(SCENARIOS.glob("*.med"))
MEDIATOR_RULES_UNDER_DES_AND_INT = b"""scenario tags; agent a; agent b; mediator m;
[M.1] int m: can(X, go) :- have(X, key).
[M.2] des m: can(X, stay) :- have(X, chair).
[M.3] bel m: have(a, key).
"""

UNLABELLED_AND_DOUBLY_NEGATED = b"""scenario unlabelled; agent a; agent b; mediator m;
int a: can(a, go).
bel a: can(X, go) :- have(X, r).
int b: can(b, go).
[m.1] bel m: ~int a: ~can(a, stay).
"""

NULLARY_ATOMS = b"""scenario nullary; agent a; agent b; mediator m;
[a.1] bel a: raining.
[a.2] bel a: can(X, stay) :- have(X, umbrella), raining, not(sunny).
[M.1] bel m: ~windy.
"""


def decimal_texts():
    """Resource values in [0, 1] as the parser reads them, with up to 25 decimal places."""

    def text(places: int, n: int) -> str:
        whole, fraction = divmod(n, 10**places)
        return f"{whole}.{fraction:0{places}d}" if places else str(whole)

    return st.integers(0, 25).flatmap(lambda places: st.integers(0, 10**places).map(lambda n: text(places, n)))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [p.read_bytes() for p in SHIPPED]
        + [MEDIATOR_RULES_UNDER_DES_AND_INT, NULLARY_ATOMS, UNLABELLED_AND_DOUBLY_NEGATED],
        ids=[p.stem for p in SHIPPED] + ["mediator_rules_under_des_and_int", "nullary_atoms", "unlabelled"],
    )
    def test_shipped_fixture(self, text: bytes):
        first = parse_scenario(text)
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

    @pytest.mark.parametrize(
        "value, written",
        [("0.0000001", "0.0000001"), ("0.12345678901234567890", "0.1234567890123456789"), ("0.50", "0.5")],
    )
    def test_a_resource_value_is_written_as_a_decimal(self, value, written):
        first = parse_scenario(MINIMAL + f"resource a r = {value};\n")
        data = serialize_scenario(first)
        assert f"resource a r = {written};" in data.decode()
        assert parse_scenario(data) == first

    @settings(deadline=None)
    @given(decimal_texts())
    def test_every_decimal_resource_value_round_trips(self, value):
        first = parse_scenario(MINIMAL + f"resource a r = {value};\n")
        data = serialize_scenario(first)
        assert parse_scenario(data) == first and dict(first.agents[0].resources)["r"] == Fraction(value)

    @pytest.mark.parametrize("value", [Fraction(1, 3)], ids=["third"])  # a negative one: no state holds it
    def test_a_value_with_no_decimal_form_the_parser_reads_is_refused(self, value):
        s = parse_scenario(MINIMAL)
        mediator = replace(s.mediator, resources=(("r", value),))
        with pytest.raises(ValueError, match=f"^resource value {value} has no decimal form the parser reads$"):
            serialize_scenario(replace(s, mediator=mediator))

    def test_a_negative_value_has_no_decimal_form_the_parser_reads(self):
        # no agent or mediator state holds a negative value, so only a direct call can pass one
        with pytest.raises(ValueError, match=r"^resource value -1/2 has no decimal form the parser reads$"):
            scenario_module._fraction(Fraction(-1, 2))


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
            b"scenario s; agent a; agent b; mediator m; config patience = 3;",
            b"scenario s; agent a; agent b; mediator m; config max_rounds = 1.5;",
            b"scenario s; agent a; agent b; mediator m; config max_rounds = 0;",
            b"scenario s; agent a; agent b; mediator m; [m.1] bel m: have(X, key).",
        ],
    )
    def test_garbage_raises_parse_or_validation_error(self, blob):
        with pytest.raises((ParseError, ValidationError)):
            parse_scenario(blob)


# The eager tokenizer the on-demand scanner replaced, kept as a reference:
# one Python step per match, with running line and column counts.
_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(\.\d+)?|\.\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)*)
  | (?P<arrow>:-)
  | (?P<punct>[()\[\],.:;=~])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            tokens.append((kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def scanned(text: str) -> tuple[list[tuple[str, str, int, int]], ParseError | None]:
    """(kind, text, line, col) of the scanned tokens up to eof, and the error that ended the scan early."""
    tokens = []
    try:
        for kind, value, at in _scan(text):
            tokens.append((kind, value, *_position(text, at)))
            if kind == "eof":
                return tokens, None
    except ParseError as error:
        return tokens, error


# criterion 7's fuzz alphabet, read as Latin-1, with the other blanks
FUZZ_ALPHABET = (b"abXY[]().,:;=~#0123 \n\"'-_" + bytes(range(0, 256, 37))).decode("latin-1") + "\t\r"
SHIPPED_TEXTS = [p.read_text() for p in SHIPPED]


@st.composite
def mutated_scenarios(draw) -> str:
    """A shipped scenario, truncated, with a few characters replaced."""
    text = draw(st.sampled_from(SHIPPED_TEXTS))
    text = text[: draw(st.integers(0, len(text)))]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.sampled_from(FUZZ_ALPHABET)) + text[pos + 1 :]
    return text


class CountingPattern:
    """Counts the tokens the parser pulls from the real pattern."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.reads = 0

    def finditer(self, text, pos=0):
        for m in self.pattern.finditer(text, pos):
            self.reads += 1
            yield m


class TestScan:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(FUZZ_ALPHABET, max_size=40), mutated_scenarios()))
    def test_matches_the_eager_tokenizer(self, text):
        tokens, error = scanned(text)
        try:
            expected = reference_tokenize(text)
        except ParseError as bad:
            assert error is not None
            assert (str(error), error.line, error.col) == (str(bad), bad.line, bad.col)
            line_start = sum(len(line) + 1 for line in text.split("\n")[: bad.line - 1])
            expected = reference_tokenize(text[: line_start + bad.col - 1])[:-1]
        else:
            assert error is None
        assert tokens == expected

    def test_eof_repeats(self):
        scan = _scan("a # comment")
        assert [next(scan) for _ in range(3)] == [("ident", "a", 0), ("eof", "", 11), ("eof", "", 11)]

    def test_reads_only_up_to_the_first_error(self, monkeypatch):
        counting = CountingPattern(scenario_module._TOKEN_RE)
        monkeypatch.setattr(scenario_module, "_TOKEN_RE", counting)
        valid_tail = "[a.9] bel a: can(X, p) :- have(X, q).\n" * 2_500  # 50,000 tokens
        with pytest.raises(ParseError) as err:
            parse_scenario("scenario demo;\nagent a; agent b;; mediator m;\n" + valid_tail)
        assert err.value.line == 2
        assert counting.reads <= 12  # the tokens up to the fault and a little lookahead

    def test_first_error_in_file_order_wins(self):
        head = ["scenario demo;", "agent a;", "[z.1] bel zeus: thunder(now).", "agent b;", "mediator m;"]
        filler = [f"[a.{n}] bel a: p{n}." for n in range(6, 40)]
        lines = head + filler + ["[a.40] bel a: p(a @ b)."]
        with pytest.raises(ValidationError, match="zeus"):
            parse_scenario("\n".join(lines))
        del lines[2]
        with pytest.raises(ParseError, match="'@'") as err:
            parse_scenario("\n".join(lines))
        assert err.value.line == 39


class TestTermSharing:
    def test_repeated_symbols_share_one_term(self):
        s = parse_scenario(MINIMAL + "[a.2] bel a: can(X, sing) :- have(X, mic), not(hoarse(X)).\n")
        rule = s.agents[0].unit("B").lookup("a.2")
        assert rule.head.args[0] is rule.body[0].args[0] is rule.naf[0].args[0]
        assert rule.head.args[1] is s.agents[0].unit("I").lookup("a.1").args[1]

    def test_a_formula_matched_whole_shares_terms_too(self):
        s = parse_scenario(MINIMAL + "[a.2] bel a: can(X, sing) :- have(X, mic), near(mic, X).\n")
        rule = s.agents[0].unit("B").lookup("a.2")
        assert rule.head.args[0] is rule.body[0].args[0] is rule.body[1].args[1]
        assert rule.head.args[1] is s.agents[0].unit("I").lookup("a.1").args[1]


def outcome(text: str) -> tuple:
    """The scenario, its serialized form and warnings, or the error's type and message."""
    try:
        s = parse_scenario(text)
    except (ParseError, ValidationError) as error:
        return type(error).__name__, str(error)
    return s, serialize_scenario(s), s.warnings


def token_grammar_outcome(text: str) -> tuple:
    """`outcome` with the whole-statement match switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "_FORMULA_RE", re.compile(r"(?!)"))
        return outcome(text)


# lines in the shape of bench/family.py's generated files
FAMILY_LINES = [
    "[a.1] int a: can(a, goal_a).",
    "[a.7] bel a: near(a_c445, a_c177).",
    "[a.8] bel a: have(a, r310).",
    "[a.9] bel a: can(X, goal_a) :- have(X, r310), have(X, r977).",
    "[a.10] bel a: a_f0(X, Z) :- likes(X, Y), stored_in(Y, Z).",
    "[b.2] bel b: have(m, r310).",
    "[M.1] bel m: can(X, goal_b) :- have(X, r205).",
    "[a.11] bel a: rainy.",
    "[a.12] des a: near(a_c445, a_c177).",
    "[a.13] bel a: can(X, goal_a) :- rainy, have(X, r310).",
    "[a.14] bel a: have( a ,\n r310 ).",
    "resource a r310 = 0.5;",
    "# a comment between formulas",
    "",
]
# characters that sit on the edges of the statement pattern
EDGE_CHARS = ".5:-#()[],~ \n\f_Xa"


@st.composite
def family_texts(draw) -> str:
    """A small scenario of generated-family lines, truncated, with a few characters replaced."""
    lines = draw(st.lists(st.sampled_from(FAMILY_LINES), max_size=8))
    text = MINIMAL + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    text = text[: draw(st.integers(len(MINIMAL), len(text)))]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(len(MINIMAL), len(text)))
        text = text[:pos] + draw(st.sampled_from(EDGE_CHARS)) + text[pos + 1 :]
    return text


class TestWholeStatementMatch:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(family_texts(), mutated_scenarios()))
    def test_same_scenario_or_error_as_the_token_grammar(self, text):
        assert outcome(text) == token_grammar_outcome(text)

    @pytest.mark.parametrize(
        "tail",
        [
            "[x.1] bel a: p.q",  # `p.q` is one identifier, so `.` is still expected
            "[x.1] bel a: p(c).5",  # `.5` is a number
            "[x.1] bel a: p(c.d",  # `c.d` is one identifier
            "[x.1] bel a: p(c, # note\n d).",
            "[x.1] bel a :- q(c).",  # `:-` is not the owner's `:`
            "[x.1] bel a: int a: p(X) :- q(X).",
            "[x.1] bel zeus: p(c).",
            "[x.1] bel a: p(X) :- q(c).",
            "[x.1] bel a: p(c).\n[x.1] bel a: q(c).",
            "[x.1] bel a: p(X) :- q(X), not(r).",  # negation as failure, not a predicate `not`
            "[x.1] bel a: p(X) :- q(X), not (r(X)).",
            "[x.1] bel a: not(c).",
            "[x.1] bel a:\fp(c).",  # a blank the tokenizer rejects
            "[x.1] bel a: nothing(X) :- q(X), not.x(X).",
            "[x.1] bel X: p(c).",
            "[x.1] bel a: P(c).",
            "[x.1] bel a: p(c).\n[x.2] bel a: q(c).\nresource a r = 0.5;",  # a run ends at a directive
            "[x.1] bel a: p(c).\n[x.2] bel a: q(c).\n[x.3] bel zeus: p(c).\n[x.4] bel a: r(c).",
            "[x.1] bel a: p(c).\n[x.2] bel a: p(X) :- q(c).\n[x.3] bel a: r(c).",
            "[x.1] bel a: p(c).\n# caf\u00e9 @ $ \\ \x00\n[x.2] bel a: q(c).",  # no token starts with these
            "[x.1] bel a: rainy.\n[x.2] bel a: p(X) :- rainy, q(X).",  # nullary head and body literals
            "[x.1] des a: p( c ,\n d ).\n[x.2] int a: q( X ) :- r(\tX ).",  # blanks inside argument lists
        ],
    )
    def test_edge_cases_agree_with_the_token_grammar(self, tail):
        assert outcome(MINIMAL + tail) == token_grammar_outcome(MINIMAL + tail)

    def test_identifier_ends_where_the_tokenizer_ends_it(self):
        kind, message = outcome(MINIMAL + "[x.1] bel a: p.q")
        assert (kind, message) == ("ParseError", "8:17: unexpected end of input (expected .)")

    def test_one_token_read_per_matched_formula(self, monkeypatch):
        counting = CountingPattern(scenario_module._TOKEN_RE)
        monkeypatch.setattr(scenario_module, "_TOKEN_RE", counting)
        formulas = [
            f"[a.{n}] bel a: near(a_c{n}, a_c{n + 1})." if n % 4 else f"[a.{n}] bel a: can(X, g) :- have(X, r{n})."
            for n in range(2, 2_502)
        ]
        s = parse_scenario(MINIMAL + "\n".join(formulas) + "\n")
        assert len(s.agents[0].unit("B").entries()) == 2_500
        # one run of formulas restarts the scanner once; the token grammar reads about 13 per formula
        assert counting.reads <= 20

    def test_a_fact_is_read_from_its_match_alone(self, monkeypatch):
        scans, added = [], []
        literal_re, add_formula = scenario_module._LITERAL_RE, scenario_module._Parser.add_formula

        class CountingLiterals:
            def findall(self, text, start, end):
                scans.append(text[start:end])
                return literal_re.findall(text, start, end)

        def counting_add_formula(parser, p, unit, label, head, rule):
            added.append(label)
            add_formula(parser, p, unit, label, head, rule)

        monkeypatch.setattr(scenario_module, "_LITERAL_RE", CountingLiterals())
        monkeypatch.setattr(scenario_module._Parser, "add_formula", counting_add_formula)
        facts = [f"[a.{n}] bel a: near(a_c{n}, a_c{n + 1})." for n in range(2, 2_502)]
        s = parse_scenario(MINIMAL + "\n".join(facts) + "\n")
        assert len(s.agents[0].unit("B").entries()) == 2_500
        assert (scans, added) == ([], [])
        # in a mixed run each rule's body, and only its body, is scanned once
        rules = range(4, 2_502, 4)
        formulas = [
            f"[a.{n}] bel a: can(X, g) :- have(X, r{n})." if n in rules else facts[n - 2] for n in range(2, 2_502)
        ]
        s = parse_scenario(MINIMAL + "\n".join(formulas) + "\n")
        assert len(s.agents[0].unit("B").entries()) == 2_500
        assert scans == [f" have(X, r{n})" for n in rules]
        assert added == [f"a.{n}" for n in rules]
