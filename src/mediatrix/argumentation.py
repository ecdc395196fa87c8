"""Arguments, attacks and acceptance decisions.

An argument is a pair (support, conclusion): the support is a consistent,
minimal labelled subset of a theory from which the conclusion is provable.
Arguments attack each other by rebutting the conclusion or undercutting a
support fact; an agent accepts a proposed argument unless it can build a
counter-argument from its own knowledge extended with the proposal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .lang import Literal, shape
from .logic import (
    DEFAULT_PROOF_DEPTH,
    DepthExceeded,
    Entry,
    GeneralRule,
    Proof,
    Theory,
    consistent,
    provable_shapes,
    prove,
)


class SupportItem(NamedTuple):
    label: str
    item: Entry  # fact literal or rule; general principles appear label-only

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Argument:
    support: tuple[SupportItem, ...]
    conclusion: Literal

    def labels(self) -> frozenset[str]:
        return frozenset(s.label for s in self.support)

    def fact_items(self) -> list[SupportItem]:
        return [s for s in self.support if isinstance(s.item, Literal)]

    def __str__(self) -> str:
        return f"({self.conclusion}, {{{', '.join(sorted(self.labels()))}}})"


class AttackKind(Enum):
    REBUT = "rebut"
    UNDERCUT = "undercut"


@dataclass(frozen=True)
class Attack:
    kind: AttackKind
    attacker: Argument
    target: Argument
    point: Literal  # target conclusion (rebut) or a support fact (undercut)


class Verdict(Enum):
    ACCEPT = "accept"
    REJECT = "reject"


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    counter: Optional[Attack] = None
    explanation: tuple[SupportItem, ...] = ()

    def __post_init__(self):
        if self.verdict is Verdict.REJECT and self.counter is None:
            raise ValueError("a rejection must carry its counter-attack")


def _support_items(delta: Theory, labels: Iterable[str], rank: dict[str, int]) -> tuple[SupportItem, ...]:
    resolved = []
    for label in sorted(labels, key=rank.__getitem__):
        item = delta.lookup(label)
        if item is None:
            item = next(g for g in delta.general if g.label == label)
        resolved.append(SupportItem(label, item))
    return tuple(resolved)


def _prove_within(theory: Theory, goal: Literal, depth: int) -> Optional[Proof]:
    """A proof of goal, or None when there is none or the search hit the depth bound."""
    try:
        return prove(theory, goal, depth)
    except DepthExceeded:
        return None


def construct_argument(
    delta: Theory, omega: Literal, depth: int = DEFAULT_PROOF_DEPTH
) -> Optional[Argument]:
    """Build an argument for omega from delta, or None if there is none within the depth bound.

    None also covers a search that the bound cut off: no `DepthExceeded` escapes.

    The proof's premises are shrunk to a minimal support by dropping
    candidates in reverse declaration order and re-proving after each drop,
    so the result is deterministic and biased toward keeping earlier
    entries. A drop after which no literal of omega's shape is provable
    (`provable_shapes`) is not re-proved. A support that turns out
    inconsistent is discarded.
    """
    proof = _prove_within(delta, omega, depth)
    if proof is None:
        return None
    working = set(proof.premises)
    conclusion = proof.conclusion
    support = delta.restricted(working)
    order = support.labels() + [g.label for g in support.general]
    held = support  # the theory of exactly `working`, while one was built
    for label in reversed(order):
        if label not in working or len(working) == 1:
            continue
        if shape(omega) not in provable_shapes(support, working - {label}):
            continue  # no proof at any depth without the label: it stays, as a failed re-proof keeps it
        candidate = support.restricted(working - {label})
        smaller = _prove_within(candidate, omega, depth)
        if smaller is not None:
            held = candidate if smaller.premises == working - {label} else None
            working = set(smaller.premises)
            conclusion = smaller.conclusion
    if not consistent(support.restricted(working) if held is None else held):
        return None
    # first occurrence wins: an entry outranks a general rule of the same label
    rank = {label: i for i, label in enumerate(dict.fromkeys(order))}
    return Argument(_support_items(support, working, rank), conclusion)


def evaluate(
    delta: Theory,
    proposed: Argument,
    context: Iterable[tuple[str, Entry]] = (),
    depth: int = DEFAULT_PROOF_DEPTH,
) -> Decision:
    """Accept or reject a proposed argument against the given theory.

    The evaluator's theory is extended with the proposal's support (told
    facts are hypothetically trusted) and any extra context items, then
    searched for a counter-argument: first a rebut of the conclusion, then
    undercuts of the support facts in declaration order.
    """
    extension = [(s.label, s.item) for s in proposed.support if not isinstance(s.item, GeneralRule)]
    extended = delta.extended(list(context) + extension)

    def counter_for(point: Literal, kind: AttackKind) -> Optional[Decision]:
        counter = construct_argument(extended, point.complement(), depth)
        if counter is None:
            return None
        attack = Attack(kind, counter, proposed, point)
        return Decision(Verdict.REJECT, attack, counter.support)

    decision = counter_for(proposed.conclusion, AttackKind.REBUT)
    if decision is not None:
        return decision
    for item in proposed.fact_items():
        decision = counter_for(item.item, AttackKind.UNDERCUT)
        if decision is not None:
            return decision
    return Decision(Verdict.ACCEPT)
