"""Truth tables: the one-literal rule against a plain enumerator, the atom
budget, and the cost per valuation enumerated."""

import random
from itertools import product

import pytest

from lpict.errors import AtomBudgetError
from lpict.logic import semantics
from lpict.logic.formulas import FALSUM, And, Atom, Implies, Not, Or
from lpict.logic.semantics import semantic_entails

from conftest import profiled_calls


def truth(f, v):
    if type(f) is Atom:
        return v[f.name]
    if type(f) is Not:
        return not truth(f.operand, v)
    if type(f) is And:
        return truth(f.left, v) and truth(f.right, v)
    if type(f) is Or:
        return truth(f.left, v) or truth(f.right, v)
    if type(f) is Implies:
        return not truth(f.left, v) or truth(f.right, v)
    return False  # falsum


def names_of(f):
    if type(f) is Atom:
        return {f.name}
    if type(f) is Not:
        return names_of(f.operand)
    if type(f) in (And, Or, Implies):
        return names_of(f.left) | names_of(f.right)
    return set()


def entails_by_enumeration(premises, conclusion):
    """Every valuation of every atom, the premises tried on each."""
    names = sorted(set().union(names_of(conclusion), *map(names_of, premises)))
    for bits in product((False, True), repeat=len(names)):
        v = dict(zip(names, bits))
        if all(truth(p, v) for p in premises) and not truth(conclusion, v):
            return False
    return True


def random_formula(r, atoms, depth):
    roll = r.random()
    if depth <= 0 or roll < 0.25:
        return FALSUM if r.random() < 0.08 else r.choice(atoms)
    if roll < 0.4:
        return Not(random_formula(r, atoms, depth - 1))
    return r.choice((And, Or, Implies))(random_formula(r, atoms, depth - 1), random_formula(r, atoms, depth - 1))


def random_sequent(r):
    """Up to 10 atoms; literal premises, often repeated and now and then
    contradictory, beside premises of every connective and falsum."""
    atoms = [Atom(f"p{i}") for i in range(r.randrange(1, 11))]
    premises = []
    for _ in range(r.randrange(0, 5)):
        atom = r.choice(atoms)
        premises.append(atom if r.random() < 0.6 else Not(atom))
        if r.random() < 0.1:
            premises.append(Not(atom) if premises[-1] is atom else atom)
    premises += [random_formula(r, atoms, r.randrange(0, 4)) for _ in range(r.randrange(0, 4))]
    r.shuffle(premises)
    return premises, random_formula(r, atoms, r.randrange(0, 4))


def test_semantic_entails_agrees_with_a_plain_enumerator():
    r = random.Random(2026)
    answers = set()
    for _ in range(3000):
        premises, conclusion = random_sequent(r)
        answer = semantic_entails(premises, conclusion)
        assert answer is entails_by_enumeration(premises, conclusion), (premises, conclusion)
        answers.add(answer)
    assert answers == {True, False}


def test_contradictory_literals_entail_anything():
    p, q = Atom("p"), Atom("q")
    assert semantic_entails((p, q, Not(p)), FALSUM) is True
    assert semantic_entails((Not(q), p, q), Not(p)) is True
    assert semantic_entails((p, p, Not(q)), q) is False


def test_the_atom_budget_counts_the_atoms_that_literals_fix():
    fixed = [Atom(f"x{i}") for i in range(20)]
    with pytest.raises(AtomBudgetError, match="21 atoms"):
        semantic_entails(fixed, Atom("x20"))
    with pytest.raises(AtomBudgetError, match="21 atoms"):  # raised before contradictory literals decide
        semantic_entails([*fixed, Not(fixed[0])], Atom("x20"))
    assert semantic_entails(fixed[1:], Implies(fixed[0], fixed[1])) is True  # 20 atoms are within it


def horn_sequent(facts, free):
    """Facts f0..; implications among the facts, then a chain from the last
    fact through the free atoms x0..; the goal, the chain's end, is entailed."""
    fs = [Atom(f"f{i}") for i in range(facts)]
    xs = [Atom(f"x{i:02d}") for i in range(free)]
    rules = [Implies(a, b) for a, b in zip(fs, fs[1:])] + [Implies(a, b) for a, b in zip([fs[-1], *xs], xs)]
    return (*fs, *rules), xs[-1]


def test_the_truth_table_runs_over_the_free_atoms_at_a_constant_cost_per_valuation(monkeypatch):
    enumerated = []
    real = semantics.all_valuations

    def counted(names):
        for v in real(names):
            enumerated[-1] += 1
            yield v

    monkeypatch.setattr(semantics, "all_valuations", counted)
    calls = {}
    for free in (8, 10, 12):
        premises, goal = horn_sequent(4, free)
        enumerated.append(0)
        calls[free] = profiled_calls(semantic_entails, premises, goal)
        assert enumerated[-1] == 2**free  # of 2**(free + 4) valuations of every atom
        assert semantic_entails(premises, goal) is True
    short, long = (calls[10] - calls[8]) / (2**10 - 2**8), (calls[12] - calls[10]) / (2**12 - 2**10)
    assert abs(long - short) <= 0.05 * short, (short, long)
