"""Checkers that certify what the mediation computes, kept out of the package.

Each re-derives one property of an argument, an attack or a solution
straight from its definition, without the search that produced it, so a
small checker stands behind a large search.
"""

from __future__ import annotations

import itertools

from mediatrix.agent import NotOwner, execute_give
from mediatrix.argumentation import Argument, Attack, AttackKind
from mediatrix.logic import DEFAULT_PROOF_DEPTH, Theory, prove
from mediatrix.mediator import Solution

# every proper subset is tried, 2^12 - 1 proof searches at most
MINIMALITY_LABELS = 12


def minimality_check(arg: Argument, delta: Theory, depth: int = DEFAULT_PROOF_DEPTH) -> bool:
    """True iff no proper subset of the support proves the conclusion.

    The check is exact: a support of more than MINIMALITY_LABELS labels
    raises ValueError, and a subset whose search hits the depth bound
    raises DepthExceeded, since that subset may prove the conclusion.
    """
    labels = sorted(arg.labels())
    if len(labels) > MINIMALITY_LABELS:
        raise ValueError(f"a support of {len(labels)} labels is over the {MINIMALITY_LABELS} checked exactly")
    for k in range(len(labels)):
        for subset in itertools.combinations(labels, k):
            if prove(delta.restricted(subset), arg.conclusion, depth) is not None:
                return False
    return True


def find_attacks(a: Argument, b: Argument) -> list[Attack]:
    """All rebuts and undercuts of b by a."""
    attacks = []
    if a.conclusion == b.conclusion.complement():
        attacks.append(Attack(AttackKind.REBUT, a, b, b.conclusion))
    for item in b.fact_items():
        if a.conclusion == item.item.complement():
            attacks.append(Attack(AttackKind.UNDERCUT, a, b, item.item))
    return attacks


def solution_feasible(solution: Solution, ownership: dict[str, frozenset[str]]) -> bool:
    """Replay check: transfers execute in order and every plan is then met."""
    world = dict(ownership)
    try:
        for give in solution.transfers:
            world = execute_give(world, give)
    except NotOwner:
        return False
    return all(set(p.needed) <= world.get(p.agent, frozenset()) for p in solution.assignment)
