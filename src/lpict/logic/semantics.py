"""Semantic entailment by exhaustive valuation enumeration."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from ..errors import AtomBudgetError
from .formulas import Formula, atoms, eval_formula

ATOM_BUDGET = 20


def all_valuations(names: Iterable[str]) -> Iterator[dict[str, bool]]:
    names = sorted(set(names))
    for bits in product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def semantic_entails(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """True iff every valuation satisfying all premises satisfies the conclusion."""
    premises = tuple(premises)
    names: set[str] = set(atoms(conclusion))
    for p in premises:
        names |= atoms(p)
    if len(names) > ATOM_BUDGET:
        raise AtomBudgetError(f"{len(names)} atoms exceed the budget of {ATOM_BUDGET}")
    for v in all_valuations(names):
        if all(eval_formula(p, v) for p in premises) and not eval_formula(conclusion, v):
            return False
    return True
