"""Proof search over implication chains.

`search_forward_chain` derives the goal by repeated implication elimination
starting from a premise; `search_contradiction` assumes the negated goal and
walks the same chain backwards with modus tollens, ending in falsum. Both
emit proofs in the fixed two-column style: a chain through k implications
yields 2k+1 forward lines and 2k+3 refutation lines. `search_both` builds
both proofs from one search of the implication path.
"""

from __future__ import annotations

from collections import deque

from ..errors import FragmentError
from .formulas import FALSUM, Atom, Formula, Implies, Not, frozen_record
from .proofs import _ASSUMPTION, _IMPL_ELIM, _MODUS_TOLLENS, _NEG_ELIM, _PREMISE, Proof, ProofLine, Sequent, check_proof
from .semantics import semantic_entails


def _chain_to(premises: tuple[Formula, ...], goal: Formula) -> list[Implies] | None:
    """Shortest implication path from some premise to the goal.

    Returns the implications along the path in application order, [] when the
    goal is itself a premise, None when the goal is unreachable. The queue
    holds the implications that each new fact makes usable.
    """
    back: dict[Formula, Implies | None] = dict.fromkeys(premises)  # fact -> implication that derived it
    if goal in back:
        return []
    edges: dict[Formula, list[Implies]] = {}
    for p in back:
        if isinstance(p, Implies):
            edges.setdefault(p.left, []).append(p)
    to_goal = edges.setdefault(goal, [])  # a fact is the goal when this is its entry
    queue = deque(out for p in back if (out := edges.get(p)))
    while queue:
        for imp in queue.popleft():
            fact = imp.right
            if back.setdefault(fact, imp) is not imp:
                continue  # known already
            out = edges.get(fact)
            if out is to_goal:
                path = []
                while imp is not None:
                    path.append(imp)
                    imp = back[imp.left]
                path.reverse()
                return path
            if out:
                queue.append(out)
    return None


def _forward_proof(path: list[Implies], goal: Formula) -> Proof:
    if not path:
        return Proof((ProofLine(1, goal, _PREMISE),))
    lines = [ProofLine(1, path[0].left, _PREMISE)]
    for imp in path:
        n = len(lines)
        lines.append(ProofLine(n + 1, imp, _ASSUMPTION))
        lines.append(ProofLine(n + 2, imp.right, _IMPL_ELIM, (n + 1, n)))
    return Proof(tuple(lines))


def _contradiction_proof(path: list[Implies], goal: Formula) -> Proof:
    start = path[0].left if path else goal
    lines = [ProofLine(1, Not(goal), _ASSUMPTION)]
    for imp in reversed(path):
        n = len(lines)
        lines.append(ProofLine(n + 1, imp, _PREMISE))
        lines.append(ProofLine(n + 2, Not(imp.left), _MODUS_TOLLENS, (n + 1, n)))
    n = len(lines)
    lines.append(ProofLine(n + 1, start, _PREMISE))
    lines.append(ProofLine(n + 2, FALSUM, _NEG_ELIM, (n, n + 1)))
    return Proof(tuple(lines))


def search_forward_chain(premises, goal: Formula) -> Proof | None:
    """Premise / assumption / ->e proof of the goal, or None."""
    path = _chain_to(tuple(premises), goal)
    return None if path is None else _forward_proof(path, goal)


def search_contradiction(premises, goal: Formula) -> Proof | None:
    """Refutation: assume the negated goal, chain modus tollens back to a
    premise, and close with negation elimination."""
    path = _chain_to(tuple(premises), goal)
    return None if path is None else _contradiction_proof(path, goal)


def search_both(premises, goal: Formula) -> tuple[Proof, Proof] | None:
    """The forward proof and the refutation of the goal, both built from one
    search of the implication path; None when the goal is unreachable."""
    path = _chain_to(tuple(premises), goal)
    if path is None:
        return None
    return _forward_proof(path, goal), _contradiction_proof(path, goal)


def in_chain_fragment(f: Formula) -> bool:
    """Atoms, negated atoms, and implications between them."""
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return isinstance(f.operand, Atom)
    if isinstance(f, Implies):
        return in_chain_fragment(f.left) and in_chain_fragment(f.right) and not (
            isinstance(f.left, Implies) or isinstance(f.right, Implies)
        )
    return False


@frozen_record
class CrossCheck:
    semantic: bool
    provable: bool
    agree: bool


def cross_validate(premises, conclusion: Formula) -> CrossCheck:
    """Run the truth-table check and the proof searches side by side."""
    premises = tuple(premises)
    for f in (*premises, conclusion):
        if not in_chain_fragment(f):
            raise FragmentError(f"formula outside the implication-chain fragment: {f!r}")
    semantic = semantic_entails(premises, conclusion)
    proofs = search_both(premises, conclusion)
    if proofs is not None:
        sq = Sequent(premises, conclusion)
        assert all(check_proof(sq, proof).valid for proof in proofs)
    return CrossCheck(semantic, proofs is not None, semantic == (proofs is not None))
