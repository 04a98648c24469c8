"""Semantic entailment by refutation: the conclusion's negation joins the
premises, and a table of every valuation finds no model of them. A premise
that is an atom or a negated atom fixes that atom (the one-literal rule of
Davis and Putnam), a literal conclusion too, and the table runs over the
atoms that no literal fixes. `ATOM_BUDGET` counts every atom of the sequent."""

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
    """True iff no valuation satisfies all premises and the conclusion's negation."""
    premises = (*premises, conclusion.operand if type(conclusion) is Not else Not(conclusion))
    names: set[str] = set()
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
        if all(eval_formula(p, v) for p in rest):
            return False
    return True
