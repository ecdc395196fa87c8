"""Scenario files: parsing and serialization.

The concrete syntax is Prolog-adjacent. Lowercase identifiers are
constants, uppercase-initial identifiers are variables, `#` starts a line
comment. Directives end with `;`, facts and rules with `.`:

    scenario home_improvement;
    agent alpha;
    mediator mu;
    strategy alpha = eager;
    resource alpha screw = 0.0;
    general G.1 ownership;
    bridge R.3 trust;
    [A.1] int alpha: can(alpha, hang_picture).
    [A.6] bel alpha: can(X, p) :- have(X, hammer), not(have(X, glue)).
    [M.4] bel mu: int alpha: can(alpha, hang_picture).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Optional, Union

from .agent import ALL_BRIDGES, BRIDGE_ADVICE, BRIDGE_ADVICE_RULE, AgentState, Strategy, resource_order
from .lang import Constant, Literal, Modality, Term, Variable, _new
from .logic import Entry, GeneralKind, GeneralRule, Rule, Theory
from .mediator import MediationConfig, MediatorState

UNIT_OF_KEYWORD = {"bel": "B", "des": "D", "int": "I"}  # modality keyword -> agent unit
BRIDGE_KINDS = set(ALL_BRIDGES)
CONFIG_KEYS = ("max_rounds", "stall_threshold", "proof_depth")
# principles and bridges that parse but change no behaviour
INERT_KINDS = (GeneralKind.UNICITY.value, GeneralKind.BENEVOLENCE.value, BRIDGE_ADVICE, BRIDGE_ADVICE_RULE)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")
        self.line = line
        self.col = col
        self.expected = expected


class ValidationError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    name: str
    agents: tuple[AgentState, ...]
    mediator: MediatorState
    config: MediationConfig
    warnings: tuple[str, ...] = field(default=(), compare=False)


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------

# Blanks, newlines and comments are a skipped prefix of every match, so
# each match is one token; `bad` catches the first character no token
# starts with, and `eof` matches once the rest of the text is skipped.
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*"
_BLANK = r"[ \t\r\n]"
_SKIP = rf"(?:{_BLANK}+|\#[^\n]*)*"
_TOKEN_RE = re.compile(
    rf"""
    {_SKIP}
    (?:
      (?P<number>\d+(?:\.\d+)?|\.\d+)
    | (?P<ident>{_IDENT})
    | (?P<arrow>:-)
    | (?P<punct>[()\[\],.:;=~])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def _position(text: str, at: int) -> tuple[int, int]:
    """Line and column (both from 1) of offset `at`."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


_Tok = tuple[str, str, int]  # (kind, text, offset)


def _scan(text: str, pos: int = 0) -> Iterator[_Tok]:
    """(kind, text, offset) tokens from offset `pos`, read on demand; `eof` repeats forever."""
    for m in _TOKEN_RE.finditer(text, pos):
        kind = m.lastgroup
        if kind == "eof":
            break
        if kind == "bad":
            at = m.start(kind)
            raise ParseError(f"unexpected character {text[at]!r}", *_position(text, at))
        yield kind, m.group(kind), m.start(kind)
    yield from repeat(("eof", "", len(text)))


# A whole `[label] bel|des|int owner: head.` or `… : head :- b1, …, bn.` of plain
# literals, built from the tokenizer's fragments. Each identifier ends where the
# tokenizer's longest match would end it (`_END`), a body literal is not `not(…)`,
# the final `.` starts no number; no comment is matched within, but the blanks and
# comments after it are, so a match ends where the next statement starts. Its groups
# are the label, tag, owner, head predicate and argument text, and a rule's `:- body`.
_END = r"(?![A-Za-z0-9_]|\.[A-Za-z0-9_])"
_ID = _IDENT + _END
_S = _BLANK + "*"
_ARGS = rf"{_S}{_ID}{_S}(?:,{_S}{_ID}{_S})*"
_BODY_LIT = rf"(?!not{_S}\()(?![A-Z]){_ID}{_S}(?:\({_ARGS}\){_S})?"
_FORMULA_RE = re.compile(
    rf"\[{_S}(?P<label>{_ID}){_S}\]{_S}(?P<tag>bel|des|int){_END}{_S}(?P<owner>{_ID}){_S}:{_S}"
    rf"(?![A-Z])(?P<pred>{_ID}){_S}(?:\((?P<args>{_ARGS})\){_S})?"
    rf"(?P<arrow>:-{_S}{_BODY_LIT}(?:,{_S}{_BODY_LIT})*)?\.(?!\d){_SKIP}"
)
_LITERAL_RE = re.compile(rf"({_IDENT}){_S}(?:\(([^)]*)\))?")  # within a matched rule body


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


@dataclass
class _Participant:
    id: str
    is_mediator: bool
    units: dict[str, list[tuple[str, Entry]]] = field(default_factory=lambda: {"B": [], "D": [], "I": []})
    resources: list[tuple[str, Fraction]] = field(default_factory=list)
    strategy: Strategy = Strategy.EAGER


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.tok = next(self.tokens)  # the next token
        self.ahead: list[_Tok] = []  # the tokens after it that peek has read
        self.terms: dict[str, Term] = {}
        self.name = "scenario"
        self.participants: dict[str, _Participant] = {}
        self.general: list[GeneralRule] = []
        self.bridges: list[tuple[str, str]] = []  # (label, kind)
        self.config = MediationConfig()
        self.warnings: list[str] = []
        self._auto_label: dict[str, int] = {}

    # -- token plumbing --------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok:
        if not ahead:
            return self.tok
        while len(self.ahead) < ahead:
            self.ahead.append(next(self.tokens))
        return self.ahead[ahead - 1]

    def next(self) -> _Tok:
        t = self.tok
        self.tok = self.ahead.pop(0) if self.ahead else next(self.tokens)
        return t

    def fail(self, message: str, expected: tuple[str, ...] = (), tok: Optional[_Tok] = None) -> ParseError:
        """An error at token `tok`, by default the next one."""
        return ParseError(message, *_position(self.text, (tok or self.peek())[2]), expected)

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.tok
        if t[0] != kind or (text is not None and t[1] != text):
            want = text if text is not None else kind
            raise self.fail(f"unexpected {t[1]!r}" if t[1] else "unexpected end of input", (want,))
        return self.next()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Tok]:
        t = self.tok
        if t[0] == kind and (text is None or t[1] == text):
            return self.next()
        return None

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Scenario:
        if self.peek()[0] == "eof":
            raise ParseError("empty scenario", 1, 1, ("a directive",))
        while self.peek()[0] != "eof":
            self.statement()
        return self.build()

    def statement(self) -> None:
        tok_kind, word, _ = self.peek()
        if tok_kind == "punct" and word == "[":
            if self.ahead or not self.matched_formula():
                self.labelled_formula()
            return
        if tok_kind != "ident":
            raise self.fail(f"unexpected {word!r}", ("a directive or formula",))
        if word == "scenario":
            self.next()
            self.name = self.expect("ident")[1]
        elif word in ("agent", "mediator"):
            self.next()
            ident = self.expect("ident")[1]
            if ident in self.participants:
                raise ValidationError(f"duplicate participant id {ident!r}")
            self.participants[ident] = _Participant(ident, word == "mediator")
        elif word == "strategy":
            self.next()
            ident = self.expect("ident")[1]
            self.expect("punct", "=")
            value = self.expect("ident")[1]
            try:
                self.participant(ident).strategy = Strategy(value)
            except ValueError:
                raise self.fail(f"unknown strategy {value!r}", ("eager", "cautious"))
        elif word == "resource":
            self.next()
            owner = self.expect("ident")[1]
            name = self.expect("ident")[1]
            self.expect("punct", "=")
            num = self.expect("number")[1]
            value = Fraction(num)
            if not 0 <= value <= 1:
                raise ValidationError(f"resource value out of [0, 1]: {owner} {name} = {num}")
            self.participant(owner).resources.append((name, value))
        elif word == "general":
            self.next()
            label = self.expect("ident")[1]
            kind_tok = self.expect("ident")
            try:
                kind = GeneralKind(kind_tok[1])
            except ValueError:
                raise self.fail(
                    f"unknown general principle {kind_tok[1]!r}", tuple(k.value for k in GeneralKind), kind_tok
                )
            owner = None
            if self.accept("punct", "("):
                owner = self.expect("ident")[1]
                self.expect("punct", ")")
            if (owner is None) == (kind is GeneralKind.GENEROSITY):
                need = "must name" if owner is None else "cannot name"
                raise ValidationError(f"general {label} {kind.value}: {need} an agent")
            if any(g.label == label for g in self.general):
                raise ValidationError(f"duplicate general rule label {label!r}")
            self.general.append(GeneralRule(label, kind, owner))
            self._flag_inert(word, label, kind_tok[1])
        elif word == "bridge":
            self.next()
            label = self.expect("ident")[1]
            kind_tok = self.expect("ident")
            if kind_tok[1] not in BRIDGE_KINDS:
                raise self.fail(f"unknown bridge rule {kind_tok[1]!r}", tuple(sorted(BRIDGE_KINDS)), kind_tok)
            self.bridges.append((label, kind_tok[1]))
            self._flag_inert(word, label, kind_tok[1])
        elif word == "config":
            self.next()
            key = self.expect("ident")[1]
            if key not in CONFIG_KEYS:
                raise self.fail(f"unknown config key {key!r}", CONFIG_KEYS)
            self.expect("punct", "=")
            num = self.expect("number")[1]
            if "." in num:
                raise ValidationError(f"config {key} must be a positive integer")
            value = int(num)
            if value <= 0:
                raise ValidationError(f"config {key} must be a positive integer")
            setattr(self.config, key, value)
        else:
            self.labelled_formula()
            return
        self.expect("punct", ";")

    def _flag_inert(self, directive: str, label: str, kind: str) -> None:
        if kind in INERT_KINDS:
            self.warnings.append(f"{directive} {label} {kind}: declared but has no effect")

    def participant(self, ident: str) -> _Participant:
        if ident not in self.participants:
            raise ValidationError(f"unknown participant {ident!r}")
        return self.participants[ident]

    def labelled_formula(self) -> None:
        label = None
        if self.accept("punct", "["):
            label = self.expect("ident")[1]
            self.expect("punct", "]")
        modality, owner = self.modal_prefix()
        if modality is None:
            raise self.fail("formula must start with a unit tag", ("bel", "des", "int"))
        p = self.owner(owner)
        if label is None:
            self._auto_label[p.id] = n = self._auto_label.get(p.id, 0) + 1
            label = f"{p.id}.{n}"

        head = self.literal()
        rule = self.rule_body() if self.accept("arrow") else None
        self.expect("punct", ".")
        self.add_formula(p, UNIT_OF_KEYWORD[modality.value], label, head, rule)

    def matched_formula(self) -> bool:
        """Take a run of labelled formulas of plain literals, one `_FORMULA_RE` match each.

        A fact is built from the groups alone; only a rule's body is scanned again, and only a rule
        goes through `add_formula`. The run ends at the first statement not matched or not valid; it
        and any error are left, unread and unrecorded, to the token grammar. False when it is empty."""
        text, at = self.text, self.tok[2]
        owners: dict[str, _Participant] = {}
        while m := _FORMULA_RE.match(text, at):
            label, tag, owner, pred, args, arrow = m.groups()
            head = self.plain(pred, args)
            try:
                p = owners.get(owner) or owners.setdefault(owner, self.owner(self.term(owner)))
                if arrow:
                    body = _LITERAL_RE.findall(text, m.start("arrow") + 2, m.end("arrow"))
                    self.add_formula(p, UNIT_OF_KEYWORD[tag], label, head, (tuple(self.plain(*b) for b in body), ()))
                else:
                    p.units[UNIT_OF_KEYWORD[tag]].append((label, head))
            except ValidationError:
                break
            at = m.end()
        if at == self.tok[2]:
            return False
        self.tokens = _scan(text, at)
        self.tok = next(self.tokens)
        return True

    def plain(self, predicate: str, args: Optional[str]) -> Literal:
        """The plain positive literal of a predicate and its matched argument text."""
        terms = tuple(map(self.term, "".join(args.split()).split(","))) if args else ()
        return _new(Literal, (predicate, terms, True, Modality.NONE, None))

    def owner(self, owner: Optional[Term]) -> _Participant:
        if not isinstance(owner, Constant) or owner.symbol not in self.participants:
            raise ValidationError(f"formula owner {owner} is not a declared participant")
        return self.participants[owner.symbol]

    def add_formula(self, p: _Participant, unit: str, label: str, head: Literal, rule: Optional[tuple]) -> None:
        """Record a fact, or a rule when `rule` holds its body and naf literals."""
        entry: Entry = head
        if rule is not None:
            if head.modality is not Modality.NONE:
                raise ValidationError(f"rule {label}: rule heads are plain literals")
            entry = Rule(label, head, *rule)
            if not entry.range_restricted():
                raise ValidationError(f"rule {label} is not range-restricted")
        elif unit == "I" and head.modality is not Modality.NONE and not p.is_mediator:
            read = Literal(head.predicate, head.args, head.positive, Modality.INT, Constant(p.id))
            self.warnings.append(f"intention {label} nests a modality; it is read as {read}")
        p.units[unit].append((label, entry))

    def modal_prefix(self) -> tuple[Optional[Modality], Optional[Term]]:
        kind, word, _ = self.peek()
        if kind == "ident" and word in UNIT_OF_KEYWORD:
            if self.peek(1)[0] == "ident" and self.peek(2)[:2] == ("punct", ":"):
                self.next()
                owner = self.term(self.next()[1])
                self.expect("punct", ":")
                return Modality(word), owner
        return None, None

    def literal(self) -> Literal:
        positive = not self.accept("punct", "~")
        modality, owner = self.modal_prefix()
        if self.accept("punct", "~"):
            positive = not positive
        pred_tok = self.expect("ident")
        predicate = pred_tok[1]
        if predicate[0].isupper():
            raise self.fail(f"predicate {predicate!r} must be lowercase", tok=pred_tok)
        args: list[Term] = []
        if self.accept("punct", "("):
            args.append(self.term(self.expect("ident")[1]))
            while self.accept("punct", ","):
                args.append(self.term(self.expect("ident")[1]))
            self.expect("punct", ")")
        if modality is None:
            return Literal(predicate, tuple(args), positive)
        return Literal(predicate, tuple(args), positive, modality, owner)

    def rule_body(self) -> tuple[tuple[Literal, ...], tuple[Literal, ...]]:
        body: list[Literal] = []
        naf: list[Literal] = []
        while True:
            if self.peek()[:2] == ("ident", "not") and self.peek(1)[:2] == ("punct", "("):
                self.next()
                self.next()
                naf.append(self.literal())
                self.expect("punct", ")")
            else:
                body.append(self.literal())
            if not self.accept("punct", ","):
                break
        return tuple(body), tuple(naf)

    def term(self, text: str) -> Term:
        """One term object per distinct symbol in the file."""
        t = self.terms.get(text)
        if t is None:
            t = self.terms[text] = Variable(text) if text[0].isupper() or text[0] == "_" else Constant(text)
        return t

    # -- assembly ----------------------------------------------------------

    def build(self) -> Scenario:
        mediators = [p for p in self.participants.values() if p.is_mediator]
        agents = [p for p in self.participants.values() if not p.is_mediator]
        if len(mediators) != 1:
            raise ValidationError(f"exactly one mediator required, found {len(mediators)}")
        if len(agents) != 2:
            raise ValidationError(f"exactly two negotiating agents required, found {len(agents)}")
        general = tuple(self.general)
        enabled_bridges = frozenset(kind for _, kind in self.bridges) or frozenset(ALL_BRIDGES)

        agent_states = []
        for p in agents:
            resources = self._sorted_resources(p)
            try:
                units = {u: Theory(entries) for u, entries in p.units.items()}
            except ValueError as exc:
                raise ValidationError(str(exc))
            agent_states.append(
                AgentState(
                    id=p.id,
                    units=units,
                    resources=resources,
                    strategy=p.strategy,
                    general=general,
                    bridges=enabled_bridges,
                )
            )
        m = mediators[0]
        entries = m.units["B"] + m.units["D"] + m.units["I"]
        try:
            theory = Theory(entries, general)
        except ValueError as exc:
            raise ValidationError(str(exc))
        for label, e in theory.facts:
            if not e.is_ground():
                raise ValidationError(f"mediator case fact {label} must be ground")
        units = [theory] + [unit for a in agent_states for unit in a.units.values()]
        for g in general:
            if g.owner is not None and g.owner not in self.participants:
                raise ValidationError(f"general {g.label} {g.kind.value}({g.owner}): unknown participant {g.owner!r}")
            if any(unit.lookup(g.label) is not None for unit in units):
                raise ValidationError(f"general rule label {g.label!r} is also a formula label")
        mediator = MediatorState(m.id, theory, self._sorted_resources(m))
        return Scenario(self.name, tuple(agent_states), mediator, self.config, tuple(self.warnings))

    def _sorted_resources(self, p: _Participant) -> tuple[tuple[str, Fraction], ...]:
        ordered = tuple(sorted(p.resources, key=resource_order))
        if list(ordered) != p.resources:
            self.warnings.append(f"resources of {p.id} re-sorted by ascending value")
        return ordered


def parse_scenario(data: Union[bytes, str]) -> Scenario:
    """Parse a scenario file; ParseError carries line/column information."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc.reason}", 1, 1)
    else:
        text = data
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def serialize_scenario(scenario: Scenario) -> bytes:
    """Canonical text form; parsing it yields an equal Scenario."""
    lines = [f"scenario {scenario.name};", ""]
    for a in scenario.agents:
        lines.append(f"agent {a.id};")
    lines.append(f"mediator {scenario.mediator.id};")
    lines.append("")
    for a in scenario.agents:
        lines.append(f"strategy {a.id} = {a.strategy.value};")
    c = scenario.config
    lines.extend(f"config {key} = {getattr(c, key)};" for key in CONFIG_KEYS)
    lines.append("")
    general = scenario.agents[0].general if scenario.agents else scenario.mediator.theory.general
    lines.extend(str(g) for g in general)
    for kind in sorted(scenario.agents[0].bridges if scenario.agents else ALL_BRIDGES):
        lines.append(f"bridge R.{ALL_BRIDGES.index(kind) + 1} {kind};")
    lines.append("")
    for a in scenario.agents:
        for unit, tag in (("B", "bel"), ("D", "des"), ("I", "int")):
            lines.extend(_formula(label, tag, a.id, item) for label, item in a.units[unit].entries())
        for name, value in a.resources:
            lines.append(f"resource {a.id} {name} = {_fraction(value)};")
        lines.append("")
    m = scenario.mediator
    lines.extend(_formula(label, "bel", m.id, item) for label, item in m.theory.entries())
    for name, value in m.resources:
        lines.append(f"resource {m.id} {name} = {_fraction(value)};")
    return ("\n".join(lines).rstrip("\n") + "\n").encode("utf-8")


def _formula(label: str, tag: str, owner: str, item: Entry) -> str:
    """One formula line; the text of a rule already ends with its full stop."""
    end = "" if isinstance(item, Rule) else "."
    return f"[{label}] {tag} {owner}: {item}{end}"


def _fraction(value: Fraction) -> str:
    """The shortest decimal that reads back as exactly `value`; every value the parser reads has one.

    A denominator 2**a * 5**b needs max(a, b) places, fewer than its bit length.
    """
    d = value.denominator
    places = next((k for k in range(d.bit_length()) if 10**k % d == 0), None)
    if places is None or value < 0:
        raise ValueError(f"resource value {value} has no decimal form the parser reads")
    digits = str(value.numerator * 10**places // d).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}" if places else digits
