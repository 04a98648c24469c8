from collections import deque

import pytest

from lpict.errors import FragmentError
from lpict.logic.formulas import And, Atom, Implies, Not
from lpict.logic.proofs import Proof, ProofLine, Rule, Sequent, check_proof
from lpict.logic.search import (
    cross_validate,
    in_chain_fragment,
    search_contradiction,
    search_forward_chain,
)
from lpict.logic.semantics import semantic_entails

from conftest import random_chain_sequent


def chain(k):
    atoms = [Atom(f"a{i}") for i in range(k + 1)]
    premises = tuple([atoms[0]] + [Implies(x, y) for x, y in zip(atoms, atoms[1:])])
    return premises, atoms[-1]


def test_forward_goal_is_premise():
    proof = search_forward_chain((Atom("p"),), Atom("p"))
    assert proof is not None and len(proof) == 1
    assert proof.lines[0].rule is Rule.PREMISE


def test_forward_unreachable_goal():
    assert search_forward_chain((Implies(Atom("p"), Atom("q")),), Atom("q")) is None


def test_forward_line_counts():
    for k in range(1, 11):
        premises, goal = chain(k)
        proof = search_forward_chain(premises, goal)
        assert proof is not None and len(proof) == 2 * k + 1
        assert check_proof(Sequent(premises, goal), proof).valid


def test_contradiction_line_counts():
    for k in range(1, 11):
        premises, goal = chain(k)
        proof = search_contradiction(premises, goal)
        assert proof is not None and len(proof) == 2 * k + 3
        assert check_proof(Sequent(premises, goal), proof).valid


def test_contradiction_single_step():
    # {p, p -> q} refutes !q in five lines: !q, p->q, !p, p, falsum
    p, q = Atom("p"), Atom("q")
    proof = search_contradiction((p, Implies(p, q)), q)
    assert proof is not None and len(proof) == 5
    rules = [line.rule for line in proof.lines]
    assert rules == [
        Rule.ASSUMPTION,
        Rule.PREMISE,
        Rule.MODUS_TOLLENS,
        Rule.PREMISE,
        Rule.NEG_ELIM,
    ]
    assert check_proof(Sequent((p, Implies(p, q)), q), proof).valid


def test_contradiction_empty_premises():
    assert search_contradiction((), Atom("p")) is None


def test_forward_shortest_path():
    # a direct implication beats a two-hop detour
    a, b, g = Atom("a"), Atom("b"), Atom("g")
    premises = (a, Implies(a, b), Implies(b, g), Implies(a, g))
    proof = search_forward_chain(premises, g)
    assert len(proof) == 3


def breadth_first_path(premises, goal):
    """The implication path of a plain breadth-first search from the premises
    in order, each fact queued once: the path the proofs must follow."""
    seen, edges, back = set(premises), {}, {}
    if goal in seen:
        return []
    for p in premises:
        if isinstance(p, Implies):
            edges.setdefault(p.left, []).append(p)
    queue = deque(premises)
    while queue:
        for imp in edges.get(queue.popleft(), ()):
            if imp.right not in seen:
                back[imp.right] = imp
                seen.add(imp.right)
                queue.append(imp.right)
    if goal not in back:
        return None
    path = [back[goal]]
    while path[-1].left in back:
        path.append(back[path[-1].left])
    return path[::-1]


def test_proofs_follow_the_breadth_first_path(rng):
    # fresh but equal formula objects, repeated premises, and implications
    # whose antecedent or consequent is an implication
    def fresh(f):
        return Atom(f.name) if isinstance(f, Atom) else Implies(fresh(f.left), fresh(f.right))

    for _ in range(500):
        premises, goal = random_chain_sequent(rng)
        premises = list(premises) + [fresh(rng.choice(premises)) for _ in range(rng.randrange(3))]
        for _ in range(rng.randrange(3)):
            imp = rng.choice([p for p in premises if isinstance(p, Implies)])
            premises.append(rng.choice([Implies(imp, rng.choice(premises)), Implies(goal, imp)]))
        premises = tuple(fresh(p) if rng.random() < 0.3 else p for p in rng.sample(premises, len(premises)))
        path = breadth_first_path(premises, goal)
        fwd = search_forward_chain(premises, fresh(goal))
        assert (fwd is None) == (path is None)
        if fwd is not None:
            assert [line.formula for line in fwd.lines if line.rule is Rule.ASSUMPTION] == path
            assert check_proof(Sequent(premises, goal), fwd).valid


def test_search_results_check(rng):
    for _ in range(200):
        premises, goal = random_chain_sequent(rng)
        sq = Sequent(premises, goal)
        fwd = search_forward_chain(premises, goal)
        ctr = search_contradiction(premises, goal)
        assert (fwd is None) == (ctr is None)
        if fwd is not None:
            assert check_proof(sq, fwd).valid
            assert check_proof(sq, ctr).valid


def test_fragment_completeness(rng):
    # on implication chains the forward search succeeds iff the truth tables say so
    for _ in range(300):
        premises, goal = random_chain_sequent(rng)
        found = search_forward_chain(premises, goal) is not None
        assert found == semantic_entails(premises, goal)


def test_cross_validate_examples():
    premises, goal = chain(6)
    record = cross_validate(premises, goal)
    assert (record.semantic, record.provable, record.agree) == (True, True, True)
    record = cross_validate((Atom("p"),), Atom("q"))
    assert (record.semantic, record.provable, record.agree) == (False, False, True)


def test_cross_validate_fragment_violation():
    with pytest.raises(FragmentError):
        cross_validate((And(Atom("p"), Atom("q")),), Atom("p"))


def test_cross_validate_random_chains(rng):
    for _ in range(150):
        premises, goal = random_chain_sequent(rng)
        assert cross_validate(premises, goal).agree


def test_in_chain_fragment():
    p, q = Atom("p"), Atom("q")
    assert in_chain_fragment(p)
    assert in_chain_fragment(Not(p))
    assert in_chain_fragment(Implies(p, Not(q)))
    assert not in_chain_fragment(And(p, q))
    assert not in_chain_fragment(Implies(Implies(p, q), q))


def test_soundness_on_corrupted_proofs(rng):
    # whatever the checker accepts must be semantically entailed
    for _ in range(150):
        premises, goal = random_chain_sequent(rng)
        proof = search_forward_chain(premises, goal)
        if proof is None:
            continue
        sq = Sequent(premises, goal)
        lines = list(proof.lines)
        idx = rng.randrange(len(lines))
        line = lines[idx]
        mutation = rng.randrange(3)
        if mutation == 0:
            lines[idx] = ProofLine(line.index, Atom("zz"), line.rule, line.refs)
        elif mutation == 1 and line.refs:
            lines[idx] = ProofLine(line.index, line.formula, line.rule, tuple(reversed(line.refs)))
        else:
            lines[idx] = ProofLine(line.index, line.formula, Rule.PREMISE, ())
        mutated = Proof(tuple(lines))
        if check_proof(sq, mutated).valid:
            assert semantic_entails(premises, goal)
