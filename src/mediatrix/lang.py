"""Term language and literals.

The language is function-free first-order: a term is a constant or a
variable, nothing else. Literals are atoms with an optional single modal
wrapper (belief / desire / intention, tagged with the owning agent), an
explicit polarity, and a predicate over flat terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, Optional, Union


@dataclass(frozen=True, order=True)
class Constant:
    symbol: str

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("empty constant symbol")

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True, order=True)
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


_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Literal:
    predicate: str
    args: tuple[Term, ...]
    positive: bool
    modality: Modality
    owner: Optional[Term]
    # filled on first use by `__hash__`: a literal is hashed by every set and dict it meets
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, predicate: str, args: tuple[Term, ...] = (), positive: bool = True,
                 modality: Modality = Modality.NONE, owner: Optional[Term] = None):
        # written out: cheaper than the generated frozen `__init__` followed by `__post_init__`
        if owner is None and modality is not Modality.NONE:
            raise ValueError(f"{modality.value} literal needs an owner")
        if owner is not None and modality is Modality.NONE:
            raise ValueError("plain literal cannot carry an owner")
        _set(self, "predicate", predicate)
        _set(self, "args", args)
        _set(self, "positive", positive)
        _set(self, "modality", modality)
        _set(self, "owner", owner)
        _set(self, "_hash", None)

    def __hash__(self) -> int:
        if self._hash is None:
            key = (self.predicate, self.args, self.positive, self.modality, self.owner)
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so a cached one must not be pickled
        return Literal, (self.predicate, self.args, self.positive, self.modality, self.owner)

    def complement(self) -> "Literal":
        """Classical complement: flips polarity only."""
        return Literal(self.predicate, self.args, not self.positive, self.modality, self.owner)

    def atom(self) -> "Literal":
        """The embedded plain atom, stripped of modality and polarity."""
        return Literal(self.predicate, self.args)

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
        sign = "" if self.positive else "~"
        inner = f"{self.predicate}({', '.join(map(str, self.args))})" if self.args else self.predicate
        if self.modality is Modality.NONE:
            return sign + inner
        return f"{sign}{self.modality.value} {self.owner}: {inner}"


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
    return replace(lit, modality=modality, owner=_term(owner))


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
        if not isinstance(t, Variable) or t.name not in self._map:
            return t
        seen = set()
        while isinstance(t, Variable) and t.name in self._map:
            if t.name in seen:  # defensive; bind() never creates cycles
                break
            seen.add(t.name)
            t = self._map[t.name]
        return t

    def bind(self, v: Variable, t: Term) -> "Substitution":
        t = self.resolve(t)
        if is_var(t) and t.name == v.name:
            return self
        new = dict(self._map)
        new[v.name] = t
        return Substitution(new)

    def apply(self, lit: Literal) -> Literal:
        owner = self.resolve(lit.owner) if lit.owner is not None else None
        args = tuple(self.resolve(a) for a in lit.args)
        return Literal(lit.predicate, args, lit.positive, lit.modality, owner)

    def items(self) -> list[tuple[str, Term]]:
        return sorted((v, self.resolve(Variable(v))) for v in self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self.items() == other.items()

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return "{" + ", ".join(f"{v}->{t}" for v, t in self.items()) + "}"


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


def may_unify(a: Literal, b: Literal) -> bool:
    """False when a position holds two distinct constants, so no renaming unifies them.
    Its one caller, `logic._Search.solve`, passes rule heads of the goal's own shape; a False
    answer is sound whether or not the shapes are equal."""
    for x, y in zip((a.owner, *a.args), (b.owner, *b.args)):
        if type(x) is Constant and type(y) is Constant and x.symbol != y.symbol:
            return False
    return True


def apply(subst: Substitution, lit: Literal) -> Literal:
    return subst.apply(lit)
