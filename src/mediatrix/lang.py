"""Term language and literals.

The language is function-free first-order: a term is a constant or a
variable, nothing else. Literals are atoms with an optional single modal
wrapper (belief / desire / intention, tagged with the owning agent), an
explicit polarity, and a predicate over flat terms.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union

# one object per constant symbol: the table holds every distinct symbol the process has read
_CONSTANTS: dict[str, "Constant"] = {}


@dataclass(frozen=True, eq=False, init=False)
class Constant:
    """A constant symbol. There is one object per symbol, so `==` and `hash` are identity."""

    __slots__ = ("symbol",)
    symbol: str

    def __new__(cls, symbol: str) -> "Constant":
        c = _CONSTANTS.get(symbol)
        if c is None:
            if not symbol:
                raise ValueError("empty constant symbol")
            c = object.__new__(cls)
            object.__setattr__(c, "symbol", symbol)
            c = _CONSTANTS.setdefault(symbol, c)
        return c

    def __reduce__(self):
        return Constant, (self.symbol,)  # loading interns again

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("empty variable name")

    def __str__(self) -> str:
        return self.name


Term = Union[Constant, Variable]


def is_var(t: Term) -> bool:
    return isinstance(t, Variable)


class Modality(Enum):
    """Modal tag on a literal. NONE is a plain domain atom."""

    NONE = "plain"
    BEL = "bel"
    DES = "des"
    INT = "int"

    __hash__ = object.__hash__  # members are singletons; `Enum.__hash__` runs in Python


_new = tuple.__new__  # builds a literal without `Literal.__new__`'s checks, for fields known valid


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Literal(namedtuple("_LiteralFields", "predicate args positive modality owner")):
    """An immutable tuple of five named fields, so it is built, hashed and compared in C.

    `Literal(...)` and `dataclasses.replace` check that an owner comes with a
    modality and only with one; code that rebuilds a valid literal with other
    terms or polarity calls `_new` and skips the checks.
    """

    __slots__ = ()
    predicate: str
    args: tuple[Term, ...]
    positive: bool
    modality: Modality
    owner: Optional[Term]

    def __new__(cls, predicate: str, args: tuple[Term, ...] = (), positive: bool = True,
                modality: Modality = Modality.NONE, owner: Optional[Term] = None) -> "Literal":
        if owner is None and modality is not Modality.NONE:
            raise ValueError(f"{modality.value} literal needs an owner")
        if owner is not None and modality is Modality.NONE:
            raise ValueError("plain literal cannot carry an owner")
        return _new(cls, (predicate, args, positive, modality, owner))

    def complement(self) -> "Literal":
        """Classical complement: flips polarity only."""
        return _new(Literal, (self.predicate, self.args, not self.positive, self.modality, self.owner))

    def atom(self) -> "Literal":
        """The embedded plain atom, stripped of modality and polarity."""
        return _new(Literal, (self.predicate, self.args, True, Modality.NONE, None))

    def is_ground(self) -> bool:
        if self.owner is not None and is_var(self.owner):
            return False
        return all(not is_var(a) for a in self.args)

    def terms(self) -> Iterator[Term]:
        if self.owner is not None:
            yield self.owner
        yield from self.args

    def variables(self) -> set[str]:
        return {t.name for t in self.terms() if is_var(t)}

    def __str__(self) -> str:
        text, args, positive, modality, owner = self  # each term's text read directly, not through `str`
        if args:
            text = f"{text}({', '.join([t.symbol if type(t) is Constant else t.name for t in args])})"
        if modality is not Modality.NONE:
            text = f"{modality._value_} {owner.symbol if type(owner) is Constant else owner.name}: {text}"
        return text if positive else "~" + text


def atom(predicate: str, *args: Union[Term, str]) -> Literal:
    """Plain positive atom; bare strings become constants (uppercase: variables)."""
    return Literal(predicate, tuple(_term(a) for a in args))


def _term(a: Union[Term, str]) -> Term:
    if isinstance(a, (Constant, Variable)):
        return a
    return Variable(a) if a[:1].isupper() or a[:1] == "_" else Constant(a)


def modal(modality: Modality, owner: Union[Term, str], lit: Literal) -> Literal:
    """Wrap a plain literal with a modality; keeps the literal's polarity."""
    if lit.modality is not Modality.NONE:
        raise ValueError("cannot nest modal literals")
    return Literal(lit.predicate, lit.args, lit.positive, modality, _term(owner))


def intends(owner: Union[Term, str], lit: Literal) -> Literal:
    return modal(Modality.INT, owner, lit)


class Substitution:
    """Immutable variable bindings with terminal resolution.

    Bindings to variables are chased to their terminal binding, so applying
    a substitution twice equals applying it once.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Optional[dict[str, Term]] = None):
        self._map: dict[str, Term] = dict(bindings or {})

    def resolve(self, t: Term) -> Term:
        bindings = self._map
        if type(t) is not Variable or t.name not in bindings:
            return t
        seen = set()
        while type(t) is Variable and t.name in bindings:
            if t.name in seen:  # defensive; bind() never creates cycles
                break
            seen.add(t.name)
            t = bindings[t.name]
        return t

    def bind(self, v: Variable, t: Term) -> "Substitution":
        t = self.resolve(t)
        if is_var(t) and t.name == v.name:
            return self
        new = object.__new__(Substitution)  # the one copy of the map; `__init__` would copy it again
        new._map = {**self._map, v.name: t}
        return new

    def apply(self, lit: Literal) -> Literal:
        owner = self.resolve(lit.owner) if lit.owner is not None else None
        return _new(Literal, (lit.predicate, tuple(map(self.resolve, lit.args)), lit.positive, lit.modality, owner))

    def __bool__(self) -> bool:
        return bool(self._map)


EMPTY_SUBSTITUTION = Substitution()


def shape(lit: Literal) -> tuple:
    """What `unify` compares before any term: literals of different shapes never unify."""
    return (lit.modality, lit.positive, lit.predicate, len(lit.args), lit.owner is not None)


def unify_terms(a: Term, b: Term, subst: Substitution) -> Optional[Substitution]:
    a, b = subst.resolve(a), subst.resolve(b)
    if a == b:
        return subst
    if is_var(a):
        return subst.bind(a, b)
    if is_var(b):
        return subst.bind(b, a)
    return None


def unify(a: Literal, b: Literal, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Most general unifier of two literals, or None.

    Modality, polarity, predicate and arity must match exactly; owners and
    arguments unify term-wise.
    """
    if shape(a) != shape(b):
        return None
    s = subst or EMPTY_SUBSTITUTION
    pairs = zip(a.args, b.args) if a.owner is None else zip((a.owner, *a.args), (b.owner, *b.args))
    for x, y in pairs:
        s = unify_terms(x, y, s)
        if s is None:
            return None
    return s
