"""Proof search over implication chains.

`search_forward_chain` derives the goal by repeated implication elimination
starting from a premise; `search_contradiction` assumes the negated goal and
walks the same chain backwards with modus tollens, ending in falsum. Both
emit proofs in the fixed two-column style: a chain through k implications
yields 2k+1 forward lines and 2k+3 refutation lines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import FragmentError
from .formulas import FALSUM, Atom, Formula, Implies, Not
from .proofs import Proof, ProofLine, Rule, Sequent, check_proof
from .semantics import semantic_entails


def _chain_to(premises: tuple[Formula, ...], goal: Formula) -> list[Implies] | None:
    """Shortest implication path from some premise to the goal.

    Returns the implications along the path in application order, [] when the
    goal is itself a premise, None when the goal is unreachable.
    """
    if goal in premises:
        return []
    edges: dict[Formula, list[Implies]] = {}
    for p in premises:
        if isinstance(p, Implies):
            edges.setdefault(p.left, []).append(p)
    back: dict[Formula, Implies] = {}
    queue: deque[Formula] = deque(premises)
    seen = set(premises)
    while queue:
        fact = queue.popleft()
        for imp in edges.get(fact, ()):
            if imp.right in seen:
                continue
            back[imp.right] = imp
            if imp.right == goal:
                path = []
                cur: Formula = goal
                while cur in back:
                    path.append(back[cur])
                    cur = back[cur].left
                path.reverse()
                return path
            seen.add(imp.right)
            queue.append(imp.right)
    return None


def search_forward_chain(premises, goal: Formula) -> Proof | None:
    """Premise / assumption / ->e proof of the goal, or None."""
    premises = tuple(premises)
    path = _chain_to(premises, goal)
    if path is None:
        return None
    if not path:
        return Proof((ProofLine(1, goal, Rule.PREMISE),))
    lines = [ProofLine(1, path[0].left, Rule.PREMISE)]
    for imp in path:
        n = len(lines)
        lines.append(ProofLine(n + 1, imp, Rule.ASSUMPTION))
        lines.append(ProofLine(n + 2, imp.right, Rule.IMPL_ELIM, (n + 1, n)))
    return Proof(tuple(lines))


def search_contradiction(premises, goal: Formula) -> Proof | None:
    """Refutation: assume the negated goal, chain modus tollens back to a
    premise, and close with negation elimination."""
    premises = tuple(premises)
    path = _chain_to(premises, goal)
    if path is None:
        return None
    start = path[0].left if path else goal
    lines = [ProofLine(1, Not(goal), Rule.ASSUMPTION)]
    for imp in reversed(path):
        n = len(lines)
        lines.append(ProofLine(n + 1, imp, Rule.PREMISE))
        lines.append(ProofLine(n + 2, Not(imp.left), Rule.MODUS_TOLLENS, (n + 1, n)))
    n = len(lines)
    lines.append(ProofLine(n + 1, start, Rule.PREMISE))
    lines.append(ProofLine(n + 2, FALSUM, Rule.NEG_ELIM, (n, n + 1)))
    return Proof(tuple(lines))


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


def _require_fragment(*formulas: Formula) -> None:
    for f in formulas:
        if not in_chain_fragment(f):
            raise FragmentError(f"formula outside the implication-chain fragment: {f!r}")


def _provable(premises, goal: Formula) -> bool:
    if search_forward_chain(premises, goal) is not None:
        return True
    return search_contradiction(premises, goal) is not None


def provably_equivalent(f: Formula, g: Formula) -> bool:
    """Both f |- g and g |- f succeed under the restricted rule set."""
    _require_fragment(f, g)
    return _provable((f,), g) and _provable((g,), f)


@dataclass(frozen=True)
class CrossCheck:
    semantic: bool
    provable: bool
    agree: bool


def cross_validate(premises, conclusion: Formula) -> CrossCheck:
    """Run the truth-table check and the proof searches side by side."""
    premises = tuple(premises)
    _require_fragment(*premises, conclusion)
    semantic = semantic_entails(premises, conclusion)
    provable = _provable(premises, conclusion)
    if provable:
        sq = Sequent(premises, conclusion)
        fwd = search_forward_chain(premises, conclusion)
        ctr = search_contradiction(premises, conclusion)
        assert fwd is None or check_proof(sq, fwd).valid
        assert ctr is None or check_proof(sq, ctr).valid
    return CrossCheck(semantic, provable, semantic == provable)
