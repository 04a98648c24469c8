"""Shared fixtures: seeded random generators for terms, formulas and chains."""

from __future__ import annotations

import random

import pytest

from lpict.logic.formulas import Atom, Implies, Not
from lpict.pi.terms import (
    NIL,
    Bang,
    Par,
    Receive,
    Restrict,
    Send,
    Sum,
    Tau,
)

FREE_NAMES = ["a", "b", "c", "x", "y", "z"]
PARAM_POOL = ["p", "q", "r", "s"]
RESTRICT_POOL = ["m", "n", "u", "w"]


def random_prefix(rng: random.Random, names: list[str]):
    roll = rng.random()
    if roll < 0.2:
        return Tau(), names
    channel = rng.choice(names)
    if roll < 0.6:
        params = tuple(rng.sample(PARAM_POOL, rng.randrange(0, 3)))
        return Receive(channel, params), names + list(params)
    args = tuple(rng.choice(names) for _ in range(rng.randrange(0, 3)))
    return Send(channel, args), names


def random_term(rng: random.Random, depth: int, names: list[str] | None = None):
    if names is None:
        names = list(FREE_NAMES)
    if depth <= 0:
        if rng.random() < 0.4:
            return NIL
        prefix, _ = random_prefix(rng, names)
        return Sum(((prefix, NIL),))
    roll = rng.random()
    if roll < 0.10:
        return NIL
    if roll < 0.45:
        branches = []
        for _ in range(rng.randrange(1, 3)):
            prefix, inner = random_prefix(rng, names)
            branches.append((prefix, random_term(rng, depth - 1, inner)))
        return Sum(tuple(branches))
    if roll < 0.70:
        return Par(random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))
    if roll < 0.90:
        binder = rng.choice(RESTRICT_POOL)
        return Restrict(binder, random_term(rng, depth - 1, names + [binder]))
    return Bang(random_term(rng, max(depth - 2, 0), names))


def halves(p: Par):
    """Read a parallel composition as the left-deep pair (P1 | .. | Pn-1, Pn),
    for reference code written against binary parallel nodes."""
    comps = p.components
    return (comps[0] if len(comps) == 2 else Par(*comps[:-1]), comps[-1])


def random_chain_sequent(rng: random.Random, max_atoms: int = 8):
    """A random implication-chain sequent: some atomic facts, some atomic
    implications, an atomic goal."""
    atom_names = [f"a{i}" for i in range(rng.randrange(2, max_atoms + 1))]
    atoms = [Atom(n) for n in atom_names]
    premises = []
    for _ in range(rng.randrange(0, 3)):
        premises.append(rng.choice(atoms))
    for _ in range(rng.randrange(1, 2 * len(atoms))):
        left, right = rng.choice(atoms), rng.choice(atoms)
        premises.append(Implies(left, right))
    goal = rng.choice(atoms)
    return tuple(premises), goal


def random_fragment_formula(rng: random.Random, atom_names):
    atoms = [Atom(n) for n in atom_names]
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(atoms)
    if roll < 0.6:
        return Not(rng.choice(atoms))
    left = rng.choice(atoms) if rng.random() < 0.7 else Not(rng.choice(atoms))
    right = rng.choice(atoms) if rng.random() < 0.7 else Not(rng.choice(atoms))
    return Implies(left, right)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
