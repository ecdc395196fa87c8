"""Rules, theories, forward-chaining saturation and backward proof search.

A theory is an ordered, labelled collection of facts and Horn-style rules,
plus a set of enabled general principles (ownership, reduction, generosity,
parsimony, ...) that the proof search knows how to apply as built-in
inference schemes. Negative rule conditions are negation-as-failure,
evaluated against the positive stratum of the saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .lang import (
    Constant,
    EMPTY_SUBSTITUTION,
    Literal,
    Modality,
    Substitution,
    Term,
    Variable,
    _new,
    is_var,
    shape,
    unify,
)

DEFAULT_PROOF_DEPTH = 32

OWNS = "have"  # ownership predicate used by the transfer machinery
GIVE = "give"


class LogicError(Exception):
    pass


class InconsistentTheory(LogicError):
    """Saturation derived a literal together with its complement."""

    def __init__(self, literal: Literal):
        super().__init__(f"inconsistent theory: {literal} and its complement")
        self.literal = literal


class DepthExceeded(LogicError):
    """Proof search hit the depth bound before finding a proof."""


@dataclass(frozen=True, slots=True)
class Rule:
    label: str
    head: Literal
    body: tuple[Literal, ...] = ()
    naf: tuple[Literal, ...] = ()  # absence conditions, negation-as-failure
    # filled on first use (`canonical`, `range_restricted`); slots keep them out of a per-rule __dict__
    _canonical: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _range_restricted: Optional[bool] = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_fact(self) -> bool:
        return not self.body and not self.naf

    def range_restricted(self) -> bool:
        if self._range_restricted is None:
            bound = set()
            for lit in self.body + self.naf:
                bound |= lit.variables()
            object.__setattr__(self, "_range_restricted", self.is_fact or self.head.variables() <= bound)
        return self._range_restricted

    def rename(self, tag: int) -> "Rule":
        fresh = _Fresh(tag)
        body, naf = tuple(_fresh(b, fresh) for b in self.body), tuple(_fresh(n, fresh) for n in self.naf)
        return Rule(self.label, _fresh(self.head, fresh), body, naf)

    def canonical(self) -> tuple:
        """Key equal for rules identical up to variable renaming, computed once: per literal its modality,
        polarity, predicate and terms, a variable as the number of its first occurrence, a constant as itself."""
        if self._canonical is None:
            numbers: dict[str, int] = {}

            def key(lit: Literal) -> tuple:
                terms = (lit.owner, *lit.args)
                terms = tuple(numbers.setdefault(t.name, len(numbers)) if type(t) is Variable else t for t in terms)
                return (lit.modality, lit.positive, lit.predicate, terms)

            canonical = (key(self.head), tuple(map(key, self.body)), tuple(map(key, self.naf)))
            object.__setattr__(self, "_canonical", canonical)
        return self._canonical

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        parts = [str(b) for b in self.body] + [f"not({n})" for n in self.naf]
        return f"{self.head} :- {', '.join(parts)}."


class _Fresh(dict):
    """A rule's variable names mapped to terms; a name not yet mapped gets the fresh variable `v'tag`."""

    def __init__(self, tag: int):
        self.tag = tag

    def __missing__(self, name: str) -> Variable:
        return self.setdefault(name, Variable(f"{name}'{self.tag}"))  # no scenario variable has a quote


def _fresh(lit: Literal, fresh: dict[str, Term]) -> Literal:
    """The literal with each variable replaced by the term the map gives its name."""
    owner = fresh[lit.owner.name] if type(lit.owner) is Variable else lit.owner
    args = tuple(fresh[a.name] if type(a) is Variable else a for a in lit.args)
    return _new(Literal, (lit.predicate, args, lit.positive, lit.modality, owner))


def _bind(lit: Literal, goal: Literal, subst: Substitution, fresh: dict[str, Term], tag: int) -> Optional[Substitution]:
    """`unify(goal, lit renamed apart with tag, subst)`, renaming only what stays unbound.

    `lit` has the goal's shape. A rule variable takes the goal's constant at its first occurrence,
    or binds the goal's variable to its fresh name as `unify` would; later occurrences unify with
    what it took. `fresh` records what each variable took, and a `_Fresh(tag)` map then instantiates
    the rule's other literals; a failure leaves it half filled.
    """
    pairs = zip(lit.args, goal.args) if lit.owner is None else zip((lit.owner, *lit.args), (goal.owner, *goal.args))
    for h, g in pairs:
        if type(g) is Variable:
            g = subst.resolve(g)
        if type(h) is Variable:
            if h.name not in fresh:
                if type(g) is Variable:
                    subst = subst.bind(g, fresh.setdefault(h.name, Variable(f"{h.name}'{tag}")))
                else:
                    fresh[h.name] = g
                continue
            h = subst.resolve(fresh[h.name])
        if h == g:
            continue
        if type(g) is Variable:
            subst = subst.bind(g, h)
        elif type(h) is Variable:
            subst = subst.bind(h, g)
        else:
            return None
    return subst


class GeneralKind(Enum):
    OWNERSHIP = "ownership"          # give(X,Y,Z) transfers have(X,Z) to have(Y,Z)
    REDUCTION = "reduction"          # intending a conclusion intends its preconditions
    GENEROSITY = "generosity"        # the tagged agent never intends to keep anything
    UNICITY = "unicity"              # giving removes the giver's ownership
    BENEVOLENCE = "benevolence"      # grant a request for an unneeded item
    PARSIMONY = "parsimony"          # refuse transfers of items the owner's plan needs
    UNIQUE_CHOICE = "unique_choice"  # commit to exactly one plan per goal

    __hash__ = object.__hash__  # members are singletons; `Enum.__hash__` runs in Python


@dataclass(frozen=True)
class GeneralRule:
    label: str
    kind: GeneralKind
    owner: Optional[str] = None  # generosity is scoped to one agent

    def __str__(self) -> str:
        if self.owner:
            return f"general {self.label} {self.kind.value}({self.owner});"
        return f"general {self.label} {self.kind.value};"


Entry = Union[Literal, Rule]


def generosity(general: Iterable[GeneralRule], owner: str) -> Optional[GeneralRule]:
    """The first general principle that declares the owner generous, or None."""
    return next((g for g in general if g.kind is GeneralKind.GENEROSITY and g.owner == owner), None)


def entry_canonical(item: Entry):
    """A fact is its own key; a rule's 3-tuple key never equals a 5-field literal."""
    return item.canonical() if isinstance(item, Rule) else item


# shapes of the ownership and transfer facts read by `ground_args`
HAVE = (Modality.NONE, True, OWNS, 2, False)
GIVE_PLAIN = (Modality.NONE, True, GIVE, 3, False)  # an intention inside an I unit
GIVE_INTENDED = (Modality.INT, True, GIVE, 3, True)
GIVE_REFUSED = (Modality.INT, False, GIVE, 3, True)


@dataclass
class ShapeIndex:
    """A theory's facts and non-fact rules grouped by literal shape, in declaration order.

    Each rule carries its ordinal among the theory's non-fact rules, so a
    search that skips the rules of other shapes still knows where in the
    declaration order it stands. Under a body shape, a rule also carries its
    body literals of that shape, in body order.
    """

    facts: dict[tuple, list[tuple[str, Literal]]] = field(default_factory=dict)
    heads: dict[tuple, list[tuple[int, str, Rule]]] = field(default_factory=dict)
    bodies: dict[tuple, list[tuple[int, str, Rule, list[Literal]]]] = field(default_factory=dict)
    rule_count: int = 0


class _view:
    """A view of a theory's entries: built on first read, then a plain attribute in the instance `__dict__`.

    `functools.cached_property` without the 3.11 lock on each first read (2.5 % of a `shipped` op). Views are lists
    and dicts, not tuples: CPython keeps freed short tuples on free lists (+3.5 % peak memory on `oracle`).
    """

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, theory, owner=None):
        if theory is None:
            return self
        return theory.__dict__.setdefault(self.name, self.build(theory))


class Theory:
    """Labelled facts and rules in one dict, in declaration order, their keys and the enabled general principles."""

    def __init__(
        self,
        entries: Iterable[tuple[str, Entry]] = (),
        general: Iterable[GeneralRule] = (),
    ):
        self._entries: dict[str, Entry] = {}
        self._keys: set = set()
        self.general: tuple[GeneralRule, ...] = tuple(general)
        for label, item in entries:
            if label in self._entries:
                raise ValueError(f"duplicate label {label!r}")
            if isinstance(item, Rule) and not item.range_restricted():
                raise ValueError(f"rule {label} is not range-restricted")
            self._entries[label] = item
            self._keys.add(entry_canonical(item))

    # -- views ---------------------------------------------------------

    def entries(self) -> list[tuple[str, Entry]]:
        return list(self._entries.items())

    def lookup(self, label: str) -> Optional[Entry]:
        return self._entries.get(label)

    def labels(self) -> list[str]:
        return list(self._entries)

    def contains(self, item: Entry) -> bool:
        return entry_canonical(item) in self._keys

    def has_fact(self, lit: Literal) -> bool:
        return lit in self._keys

    @_view
    def facts(self) -> list[tuple[str, Literal]]:
        return [(l, e) for l, e in self._entries.items() if isinstance(e, Literal)]

    @_view
    def rules(self) -> list[tuple[str, Rule]]:
        return [(l, e) for l, e in self._entries.items() if isinstance(e, Rule)]

    @_view
    def index(self) -> ShapeIndex:
        index = ShapeIndex()
        for label, item in self._entries.items():
            if isinstance(item, Literal):
                index.facts.setdefault(shape(item), []).append((label, item))
            elif not item.is_fact:
                entry = (index.rule_count, label, item)
                index.rule_count += 1
                index.heads.setdefault(shape(item.head), []).append(entry)
                body: dict[tuple, list[Literal]] = {}
                for b in item.body:
                    body.setdefault(shape(b), []).append(b)
                for key, lits in body.items():
                    index.bodies.setdefault(key, []).append((*entry, lits))
        return index

    @_view
    def principles(self) -> dict[GeneralKind, GeneralRule]:
        """The enabled general principles: each kind's first `GeneralRule`, the one a proof charges."""
        return {g.kind: g for g in reversed(self.general)}

    @_view
    def owned(self) -> list[tuple[str, Literal]]:
        """The ground `have` facts: what the ownership and parsimony principles read."""
        return [entry for entry in self.index.facts.get(HAVE, ()) if entry[1].is_ground()]

    @_view
    def clash(self) -> Optional[Literal]:
        """First fact, in declaration order, whose complement the theory also holds."""
        return next((f for _, f in self.facts if f.complement() in self._keys), None)

    def _clash_free(self) -> bool:  # `clash` was read and found none: only then do derived theories inherit it
        return "clash" in self.__dict__ and self.clash is None

    @_view
    def positive_stratum(self) -> dict[Literal, None]:
        """The saturation of the rules without absence conditions, which those conditions read."""
        return forward_chain(self.filtered(lambda l, e: isinstance(e, Literal) or not e.naf))

    @_view
    def label_shapes(self) -> dict[str, tuple]:
        """What `provable_shapes` reads of each label.

        A label maps to the shape of its fact, or None; its non-fact rule as
        (head shape, body shapes, the head's intended shape, the intended shapes of
        its plain positive body literals), or None; and the kinds of its general
        rules. A bodiless rule is not indexed, so its label is left out.
        """
        out: dict[str, tuple] = {}
        for label, item in self._entries.items():
            if isinstance(item, Literal):
                out[label] = (shape(item), None, ())
            elif not item.is_fact:
                body = tuple(dict.fromkeys(shape(b) for b in item.body))
                intended = tuple(_intended(b) for b in item.body if b.positive and b.modality is Modality.NONE)
                out[label] = (None, (shape(item.head), body, _intended(item.head), intended), ())
        for g in self.general:
            fact, rule, kinds = out.get(g.label, (None, None, ()))
            out[g.label] = (fact, rule, kinds + (g.kind,))
        return out

    @_view
    def proofs(self) -> dict[tuple[Literal, int], Union["Proof", None, type[DepthExceeded]]]:
        """`prove`'s answer for each (goal, depth) asked: the first proof, None, or `DepthExceeded` for a bound hit."""
        return {}

    @_view
    def options(self) -> dict[tuple[str, Literal], list["PlanOption"]]:
        """`plan_options`' list for each (agent, goal atom) asked; its readers only iterate it."""
        return {}

    # -- construction --------------------------------------------------

    def extended(self, items: Iterable[tuple[str, Entry]], general=None) -> "Theory":
        """New theory with the items appended; duplicates (up to renaming) skipped.

        Only the new items are checked and keyed, each once, and a clash-free
        parent stays so unless a new fact meets its complement.
        """
        t = Theory((), self.general if general is None else general)
        t._entries, t._keys = dict(self._entries), set(self._keys)
        entries, keys = t._entries, t._keys
        new = []
        for label, item in items:
            key = entry_canonical(item)
            if key in keys:
                continue
            lab, n = label, 1
            while lab in entries:
                n += 1
                lab = f"{label}~{n}"
            if key is item:  # a fact is its own key
                new.append(item)
            elif not item.range_restricted():
                raise ValueError(f"rule {lab} is not range-restricted")
            entries[lab] = item
            keys.add(key)
        if self._clash_free() and not any(f.complement() in keys for f in new):
            t.clash = None
        return t

    def filtered(self, keep: Callable[[str, Entry], bool], general=None) -> "Theory":
        """Sub-theory of the entries `keep` accepts, in order; they were checked when first added."""
        t = Theory((), self.general if general is None else general)
        t._entries = {l: e for l, e in self._entries.items() if keep(l, e)}
        t._keys = set(map(entry_canonical, t._entries.values()))
        if self._clash_free():
            t.clash = None
        return t

    def restricted(self, labels: Iterable[str]) -> "Theory":
        """Sub-theory keeping only the given labels (entries and general rules)."""
        keep = set(labels)
        return self.filtered(lambda l, e: l in keep, [g for g in self.general if g.label in keep])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Theory)
            and list(self._entries.items()) == list(other._entries.items())  # order counts
            and self.general == other.general
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Theory({len(self._entries)} entries, {len(self.general)} general)"


class Proof(NamedTuple):
    conclusion: Literal
    premises: frozenset[str]


# ----------------------------------------------------------------------
# Forward chaining
# ----------------------------------------------------------------------


def _match_body(body: tuple[Literal, ...], facts: dict, subst: Substitution) -> Iterator[Substitution]:
    """Extensions of `subst` that match each body literal, in order, to a fact."""
    if not body:
        yield subst
        return
    first, rest = body[0], body[1:]
    for fact in facts:
        s = unify(first, fact, subst)
        if s is not None:
            yield from _match_body(rest, facts, s)


def _naf_holds(conds: tuple[Literal, ...], subst: Substitution, stratum: dict) -> bool:
    for cond in conds:
        pat = subst.apply(cond)
        if any(unify(pat, fact) is not None for fact in stratum):
            return False
    return True


def forward_chain(theory: Theory) -> dict[Literal, None]:
    """Least model of the theory: its ground facts, declared ones first, in derivation order.

    Two-pass stratified evaluation: rules without absence conditions are
    saturated first; absence conditions are then checked against that
    positive fixpoint, and saturation continues with all rules. Only the
    backward search builds proofs. Raises InconsistentTheory, naming the
    first literal added whose complement is already held.
    """
    facts: dict[Literal, None] = {}  # ordered, so the literal a clash names never varies

    def add(lit: Literal) -> None:
        if lit.complement() in facts:
            raise InconsistentTheory(lit)
        facts[lit] = None

    for _, fact in theory.facts:
        if fact not in facts:
            add(fact)

    rules = [r for _, r in theory.rules if not r.is_fact]  # a bodiless rule proves nothing, as in `prove`

    def saturate(active: list[Rule], stratum: dict) -> None:
        changed = True
        while changed:
            changed = False
            for rule in active:
                for subst in list(_match_body(rule.body, facts, EMPTY_SUBSTITUTION)):
                    if rule.naf and not _naf_holds(rule.naf, subst, stratum):
                        continue
                    head = subst.apply(rule.head)
                    if head.is_ground() and head not in facts:
                        add(head)
                        changed = True

    saturate([r for r in rules if not r.naf], {})
    if any(r.naf for r in rules):
        saturate(rules, dict(facts))  # absence conditions read the positive stratum
    return facts


def consistent(theory: Theory) -> bool:
    """True iff saturating the theory derives no literal together with its complement.

    Saturation holds only literals of the shapes of the theory's facts and non-fact rule heads, so
    when no two of these shapes differ in polarity alone no clash can arise and nothing is saturated.
    """
    shapes = set()
    for item in theory._entries.values():
        if isinstance(item, Literal):
            shapes.add(shape(item))
        elif not item.is_fact:  # a bodiless rule derives nothing
            shapes.add(shape(item.head))
    if not any((modality, not positive, *rest) in shapes for modality, positive, *rest in shapes):
        return True
    try:
        forward_chain(theory)
    except InconsistentTheory:
        return False
    return True


# ----------------------------------------------------------------------
# Backward proof search
# ----------------------------------------------------------------------


class _Search:
    """One backward-chaining query; holds the depth flag and fresh-name tag.

    Every answer is a substitution and the labels of the premises it used.
    Each pass over the rules advances the tag by one per non-fact rule, and
    a rule gets the tag of its place in declaration order, looked at or not.
    """

    def __init__(self, theory: Theory):
        self.theory = theory
        self.index = theory.index
        self.depth_hit = False
        self._tag = 0

    def solve(
        self, goal: Literal, subst: Substitution, depth: int
    ) -> Iterator[tuple[Substitution, frozenset[str]]]:
        if depth <= 0:
            self.depth_hit = True
            return
        if subst:  # rule heads and the built-in schemes read the goal's terms resolved
            goal = subst.apply(goal)
        key = shape(goal)

        for label, fact in self.index.facts.get(key, ()):
            s = unify(goal, fact, subst)
            if s is not None:
                yield s, frozenset([label])

        passed = 0  # a rule skipped still takes the tag of its place
        for ordinal, label, r in self.index.heads.get(key, ()):
            self._tag += ordinal - passed + 1
            passed = ordinal + 1
            r = r.rename(self._tag)
            s = unify(goal, r.head, subst)
            if s is None:
                continue
            for s2, prem in self._solve_body(r.body, s, depth - 1):
                if r.naf and not _naf_holds(r.naf, s2, self.theory.positive_stratum):
                    continue
                yield s2, prem | {label}
        self._tag += self.index.rule_count - passed

        if goal.modality is Modality.INT:  # the built-in schemes
            if goal.positive:
                yield from self._solve_reduction(goal, subst, depth)
            else:
                yield from self._solve_generosity(goal, subst)
                yield from self._solve_refusal(goal, subst, depth)

    def _solve_body(self, body, subst, depth):
        if not body:
            yield subst, frozenset()
            return
        first, rest = body[0], body[1:]
        for s, prem in self.solve(first, subst, depth):
            for s2, prem2 in self._solve_body(rest, s, depth):
                yield s2, prem | prem2

    # -- built-in schemes ------------------------------------------------

    def _candidate_rules(self, inner: Literal) -> Iterator[tuple[Literal, list[Literal], int, tuple]]:
        """Clauses with body literals of the inner atom's shape: head, those literals, tag and labels charged.

        Declared rules come first. Then, under the ownership principle, each
        ownership fact have(x, z) licenses the derived clause
        give(x, Y, z) -> have(Y, z), two plain literals; its use charges the
        fact and the ownership principle to the premises. A derived clause
        takes two tags, one for Y and one for its fresh names, and is built
        only when x and z can match the giver and resource of the atom.
        """
        passed = 0
        for ordinal, label, r, lits in self.index.bodies.get(shape(inner), ()):
            self._tag += ordinal - passed + 1
            passed = ordinal + 1
            yield r.head, lits, self._tag, (label,)
        self._tag += self.index.rule_count - passed
        ownership = self.theory.principles.get(GeneralKind.OWNERSHIP)
        if ownership is None:
            return
        owned = self.theory.owned
        if inner.predicate != GIVE or len(inner.args) != 3:
            self._tag += 2 * len(owned)
            return
        giver, resource = inner.args[0], inner.args[2]
        for label, fact in owned:
            x, z = fact.args
            self._tag += 2
            if not (is_var(giver) or giver == x) or not (is_var(resource) or resource == z):
                continue
            recv = Variable(f"Y'{self._tag - 1}")
            body = [_new(Literal, (GIVE, (x, recv, z), True, Modality.NONE, None))]
            yield _new(Literal, (OWNS, (recv, z), True, Modality.NONE, None)), body, self._tag, (label, ownership.label)

    def _solve_reduction(self, goal, subst, depth):
        """Intending a rule's conclusion intends each of its preconditions.

        To prove int j: P, find a rule instance with P in its body and show
        int j: head for that instance. The rule is never copied: a body
        literal with a constant where P has another is skipped unread, and
        `_bind` names only the variables P leaves unbound.
        """
        reduction = self.theory.principles.get(GeneralKind.REDUCTION)
        owner = goal.owner
        if reduction is None or type(owner) is not Constant:
            return
        inner = goal.atom()
        for head, lits, tag, charged in self._candidate_rules(inner):
            for b in lits:
                s = None
                for h, g in zip(b.args, inner.args):
                    if h is not g and type(h) is Constant and type(g) is Constant:
                        break  # no renaming mends a constant clash
                else:
                    fresh = _Fresh(tag)
                    s = _bind(b, inner, subst, fresh, tag)
                if s is None:
                    continue
                head_goal = _new(Literal, (head.predicate, _fresh(head, fresh).args, True, Modality.INT, owner))
                premises = frozenset((*charged, reduction.label))
                for s2, prem in self.solve(head_goal, s, depth - 1):
                    yield s2, prem | premises

    def _solve_generosity(self, goal, subst):
        """~int m: have(m, z) holds for a generous owner of z, charged to m's own declaration."""
        owner = goal.owner
        if goal.predicate != OWNS or len(goal.args) != 2 or type(owner) is not Constant:
            return
        principle = generosity(self.theory.general, owner.symbol)
        if principle is None:
            return
        want = Literal(OWNS, (owner, goal.args[1]))
        for label, fact in self.index.facts.get(HAVE, ()):
            s = unify(want, fact, subst)
            if s is None or fact.args[0] != owner:
                continue
            yield s, frozenset([label, principle.label])

    def _solve_refusal(self, goal, subst, depth):
        """~int w: give(x, y, z) when x's committed plan needs z and x holds z.

        Plan commitment is skeptical: among the rules concluding one of x's
        declared goals, exactly one plan is selected (fewest unmet
        preconditions, promises counted as met, then label order). Only the
        selected plan's preconditions justify a refusal.
        """
        principles = self.theory.principles
        parsimony, reduction = principles.get(GeneralKind.PARSIMONY), principles.get(GeneralKind.REDUCTION)
        if parsimony is None or reduction is None or goal.predicate != GIVE or len(goal.args) != 3:
            return
        giver, _, resource = goal.args
        if is_var(giver) or is_var(resource):
            return
        plan = select_plan(self.theory, giver.symbol)
        if plan is None:
            return
        goal_label, rule_label, needed, several = plan
        if resource.symbol not in needed:
            return
        holding = Literal(OWNS, (giver, resource))
        have_label = next((label for label, fact in self.theory.owned if fact == holding), None)
        if have_label is None:
            return
        premises = {goal_label, rule_label, have_label, parsimony.label, reduction.label}
        if several:
            choice = principles.get(GeneralKind.UNIQUE_CHOICE)
            if choice is not None:
                premises.add(choice.label)
        yield subst, frozenset(premises)


def is_goal(fact: Literal) -> bool:
    """A positive fact over a non-transfer atom; the caller checks that it is the agent's intention."""
    return fact.positive and fact.predicate not in (OWNS, GIVE)


def base_goals(theory: Theory, agent: str) -> list[tuple[str, Literal]]:
    """Declared goal intentions of the agent: int facts over non-transfer atoms."""
    me = Constant(agent)
    return [(l, f) for l, f in theory.facts if f.modality is Modality.INT and f.owner == me and is_goal(f)]


def goals_of(theory: Theory, agents: Iterable[str], case: Theory) -> dict[str, Literal]:
    """Each agent's goal atom in the theory, for the agents that have one.

    `case` is the mediator's theory before any disclosure. The agent's first
    goal intention that is not an entry of `case` wins, so what the agent
    disclosed supersedes what the case says; a goal fact of the case is used
    only for an agent that has disclosed no goal.
    """
    out = {}
    for agent in agents:
        found = base_goals(theory, agent)
        ranked = [(l, f) for l, f in found if case.lookup(l) != f] + found
        if ranked:
            out[agent] = ranked[0][1].atom()
    return out


def ground_args(theory: Theory, key: tuple) -> list[tuple[str, ...]]:
    """The ownership view: argument symbols of the facts of one shape, in declaration order.

    `key` is HAVE, GIVE_PLAIN, GIVE_INTENDED or GIVE_REFUSED. Facts with a
    variable argument are left out.
    """
    return [
        tuple(a.symbol for a in fact.args)
        for _, fact in theory.index.facts.get(key, ())
        if all(isinstance(a, Constant) for a in fact.args)
    ]


def holdings(theory: Theory, agent: str) -> set[str]:
    return {res for owner, res in ground_args(theory, HAVE) if owner == agent}


def believed_ownership(theory: Theory) -> dict[str, str]:
    """resource -> owner, from the theory's ownership facts (first wins)."""
    owners: dict[str, str] = {}
    for owner, res in ground_args(theory, HAVE):
        owners.setdefault(res, owner)
    return owners


class PlanOption(NamedTuple):
    """A rule instance concluding a goal, read against one agent's ownership."""

    label: str
    needed: tuple[str, ...]  # resources of the agent's positive plain have/2 preconditions, each once, body order
    missing: tuple[Literal, ...]  # other preconditions that are not ground facts, each once
    open_resource: bool  # some have(agent, V) precondition has a variable resource

    @property
    def grounded(self) -> bool:
        return not self.missing and not self.open_resource


class MediatorPlan(NamedTuple):  # one agent's plan for its goal, as the planner assigns it
    agent: str
    rule_label: str
    needed: tuple[str, ...]  # resources the agent must hold for the plan
    unmet: tuple[str, ...]   # needed resources the agent does not hold yet


def _read(t: Term, fresh: dict[str, Term]) -> Term:
    """A body term under a head's binding; a variable the head leaves unbound gets its fresh name `V'0`."""
    return t if type(t) is Constant else fresh.get(t.name) or Variable(f"{t.name}'0")


def plan_options(theory: Theory, agent: str, goal_atom: Literal) -> list[PlanOption]:
    """Rule instances concluding the goal atom, in declaration order, duplicates dropped.

    The head is bound to the goal in place (`_bind` with tag 0) and each precondition's terms are
    read through that binding: a positive plain `have/2` whose first term is the agent gives only
    its resource, and a literal is built only for another precondition, to look it up as a fact.
    A repeated precondition counts once. The list is kept in the theory's `options` and returned again.
    """
    asked, question = theory.options, (agent, goal_atom)
    if question in asked:
        return asked[question]
    me = Constant(agent)
    out, seen = [], set()
    for _, label, rule in theory.index.heads.get(shape(goal_atom), ()):
        key = rule.canonical()  # rules equal up to renaming match alike
        if key in seen:
            continue
        seen.add(key)
        fresh: dict[str, Term] = {}
        s = _bind(rule.head, goal_atom, EMPTY_SUBSTITUTION, fresh, 0)
        if s is None:
            continue
        if s is not EMPTY_SUBSTITUTION:  # a goal variable was bound: read each head variable through it
            fresh = {name: s.resolve(t) for name, t in fresh.items()}
        needed, missing, open_resource = [], [], False
        for b in rule.body:
            args = b.args
            plain_have = b.predicate == OWNS and len(args) == 2 and b.positive and b.owner is None
            if plain_have and _read(args[0], fresh) is me:
                resource = _read(args[1], fresh)
                if type(resource) is not Constant:
                    open_resource = True
                elif resource.symbol not in needed:
                    needed.append(resource.symbol)
                continue
            owner = b.owner if b.owner is None else _read(b.owner, fresh)
            p = _new(Literal, (b.predicate, tuple([_read(a, fresh) for a in args]), b.positive, b.modality, owner))
            if not (p.is_ground() and theory.has_fact(p)) and p not in missing:
                missing.append(p)
        out.append(PlanOption(label, tuple(needed), tuple(missing), open_resource))
    asked[question] = out
    return out


def ranked_plans(theory: Theory, agent: str, goal_atom: Literal, met: set[str]) -> list[MediatorPlan]:
    """The agent's grounded plan options for the goal as plan records, best first.

    A needed resource is unmet when it is not in `met`; fewest unmet ranks first, then label.
    """
    ranked = [
        MediatorPlan(agent, o.label, o.needed, tuple([r for r in o.needed if r not in met]))
        for o in plan_options(theory, agent, goal_atom)
        if o.grounded
    ]
    ranked.sort(key=lambda p: (len(p.unmet), p.rule_label))
    return ranked


def select_plan(theory: Theory, agent: str) -> Optional[tuple[str, str, set[str], bool]]:
    """Unique-choice plan commitment for the agent's first viable goal.

    Returns (goal label, rule label, needed resources, several)
    where `needed` lists the resources the selected plan requires the agent
    to hold and `several` flags that more than one candidate plan existed.
    A resource is met when the agent holds it or a transfer intention
    promises it to the agent.
    """
    met = holdings(theory, agent)
    met |= {res for _, to, res in ground_args(theory, GIVE_INTENDED) if to == agent}
    for goal_label, goal_fact in base_goals(theory, agent):
        options = ranked_plans(theory, agent, goal_fact.atom(), met)
        if options:
            best = options[0]
            return goal_label, best.rule_label, set(best.needed), len(options) > 1
    return None


def prove(theory: Theory, goal: Literal, depth: int = DEFAULT_PROOF_DEPTH) -> Optional[Proof]:
    """First proof of the goal in deterministic search order, or None.

    Facts are tried before rules, rules in declaration order, built-in
    schemes last. Raises DepthExceeded when the depth bound was hit and no
    proof was found. The answer is kept in the theory's `proofs`, so the
    same question is searched once; a kept bound hit raises anew.
    """
    asked, question = theory.proofs, (goal, depth)
    if question not in asked:
        search = _Search(theory)
        answers = search.solve(goal, EMPTY_SUBSTITUTION, depth)
        proof = next((Proof(subst.apply(goal), premises) for subst, premises in answers), None)
        asked[question] = DepthExceeded if proof is None and search.depth_hit else proof
    answer = asked[question]
    if answer is DepthExceeded:
        raise DepthExceeded(f"no proof of {goal} within depth {depth}")
    return answer


def _intended(lit: Literal) -> tuple:
    """The shape of `int j: p(...)` for the literal's predicate and arity: what the reduction reads."""
    return (Modality.INT, True, lit.predicate, len(lit.args), True)


def provable_shapes(theory: Theory, keep: set[str]) -> set[tuple]:
    """Shapes of every literal `prove` could answer in `theory.restricted(keep)`, at any depth.

    The least fixpoint of `_Search` read on literal shapes alone: constants, the
    depth bound and absence conditions are ignored, so the set can only be too
    large, and a goal whose shape is outside it has no proof. A label keeps its
    entry and any general rule of that label, as `Theory.restricted` does.
    """
    by_label = theory.label_shapes
    kept = [by_label[label] for label in keep if label in by_label]
    kinds = {kind for _, _, label_kinds in kept for kind in label_kinds}
    shapes = {fact for fact, _, _ in kept if fact is not None}
    rules = [rule for _, rule, _ in kept if rule is not None]
    reduction, owns = GeneralKind.REDUCTION in kinds, HAVE in shapes
    if owns and GeneralKind.GENEROSITY in kinds:
        shapes.add((Modality.INT, False, OWNS, 2, True))
    if owns and reduction and GeneralKind.PARSIMONY in kinds:
        shapes.add(GIVE_REFUSED)
    transfers = owns and reduction and GeneralKind.OWNERSHIP in kinds
    size = -1
    while size != len(shapes):
        size = len(shapes)
        for head, body, intended_head, intended_body in rules:
            if all(b in shapes for b in body):
                shapes.add(head)
            if reduction and intended_head in shapes:
                shapes.update(intended_body)
        if transfers and (Modality.INT, True, OWNS, 2, True) in shapes:
            shapes.add(GIVE_INTENDED)  # the ownership principle's give(x, Y, z) -> have(Y, z)
    return shapes
