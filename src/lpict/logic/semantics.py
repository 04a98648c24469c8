"""Semantic entailment by exhaustive valuation enumeration.

`ATOM_BUDGET` counts every atom of the sequent. A premise that is an atom or
a negated atom fixes that atom's value (the one-literal rule of Davis and
Putnam), so the table runs over the atoms that no literal premise fixes.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from ..errors import AtomBudgetError
from .formulas import Atom, Formula, Not, atoms, eval_formula

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
    fixed, rest = {}, []  # the value each literal premise gives its atom; the other premises
    for p in premises:
        atom = p.operand if type(p) is Not else p
        if type(atom) is not Atom:
            rest.append(p)
        elif fixed.setdefault(atom.name, atom is p) is not (atom is p):
            return True  # a literal and its negation: no valuation satisfies the premises
    for v in all_valuations(names - fixed.keys()):
        v.update(fixed)
        if all(eval_formula(p, v) for p in rest) and not eval_formula(conclusion, v):
            return False
    return True
