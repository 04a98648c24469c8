"""Event trees, and the state tree that strings them together.

An event tree is a formula of `logic.formulas` in the event fragment: atoms
(events), `Not` of an atom, `And` and `Or`. Its leaves are the atoms and
negated atoms. A state tree is a right spine of states in transition order,
each spine node carrying its event tree as the left child; breadth-first
traversal therefore visits states strictly in chain order, interleaved with
event-tree nodes. A chain of `combine` operators (a left-deep tree) is
walked in loops, so it may be as long as the state has events.
"""

from __future__ import annotations

from collections import deque

from .errors import ValidationError
from .logic.formulas import And, Atom, Formula, MissingAtomError, Not, Or, frozen_record

# An event leaf is an atom. The name stays because the benchmark's
# bench/workloads.py builds leaves with it.
EventLeaf = Atom

_OPERATORS = {"and": And, "or": Or}
_AND_OR = frozenset(_OPERATORS.values())


@frozen_record
class StateTreeNode:
    state: str
    events: Formula | None
    next: "StateTreeNode | None" = None


def build_event_tree(events, operators) -> Formula:
    """Left-deep operator tree ((e1 op1 e2) op2 e3)...; leaf order follows
    event order. `events` may be names or objects with a `.name`."""
    names = []  # a loop: a comprehension costs more than a state's few events
    for e in events:
        names.append(e if isinstance(e, str) else e.name)
    operators = tuple(operators)
    tree = Atom(names[0]) if names else None
    for i, op in enumerate(operators, start=1):
        if op not in _OPERATORS:  # reported before a missing event or a count mismatch
            raise ValidationError(f"unknown operator {op!r} in combine")
        if i < len(names):
            tree = _OPERATORS[op](tree, Atom(names[i]))
    if tree is None:
        raise ValidationError("an event tree needs at least one event")
    if len(operators) != len(names) - 1:
        raise ValidationError(f"{len(names)} events need {len(names) - 1} operators, got {len(operators)}")
    return tree


def combine_operators(tree: Formula, events) -> list[str] | None:
    """The inverse of `build_event_tree`: the operators of the `combine` line
    that builds `tree` over `events`, or None when no such line does."""
    names = [e if isinstance(e, str) else e.name for e in events]
    ops, node = [], tree
    for name in reversed(names[1:]):  # the left spine, from the root down
        if type(node) not in _AND_OR or node.right != Atom(name):
            return None
        ops.append("and" if type(node) is And else "or")
        node = node.left
    return ops[::-1] if names and node == Atom(names[0]) else None


def leaf_atom(leaf) -> Atom:
    """The atom of a leaf; ValidationError for a node outside the fragment."""
    atom = leaf.operand if type(leaf) is Not else leaf
    if type(atom) is not Atom:
        raise ValidationError("combine expressions allow only atoms, !, & and |")
    return atom


def event_leaves(tree: Formula) -> list[Formula]:
    """Leaves in left-to-right order; a negated atom is one leaf. Raises
    ValidationError at a node outside the event fragment."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        while type(node) in _AND_OR:  # a left spine in a loop
            stack.append(node.right)
            node = node.left
        if type(node) is not Atom:
            leaf_atom(node)
        out.append(node)
    return out


def eval_event_tree(tree: Formula, valuation) -> bool:
    """The tree's value under a total valuation of its leaves."""
    return eval_event_leaves(tree, valuation)[0]


def eval_event_leaves(tree: Formula, valuation) -> tuple[bool, tuple[bool, ...]]:
    """The tree's value and the value of each leaf, in leaf order; each leaf
    is looked up once, and every leaf is looked up. The left spine is walked
    in a loop, so only an and/or node on the right of another one costs a
    nested call."""
    values: list[bool] = []
    spine = []
    while type(tree) in _AND_OR:
        spine.append(tree)
        tree = tree.left
    node, operand = None, tree  # the leftmost leaf, then each spine node's right operand
    while True:
        if type(operand) in _AND_OR:
            operand_value, operand_values = eval_event_leaves(operand, valuation)
            values += operand_values
        else:
            atom = operand if type(operand) is Atom else leaf_atom(operand)
            try:
                operand_value = bool(valuation[atom.name]) != (atom is not operand)
            except KeyError:
                raise MissingAtomError(f"valuation does not assign atom {atom.name!r}") from None
            values.append(operand_value)
        value = operand_value if node is None else (value and operand_value) if type(node) is And else (value or operand_value)
        if not spine:
            return value, tuple(values)
        node = spine.pop()
        operand = node.right


def bfs_traverse(tree) -> list:
    """Level-order traversal of an event tree or a state tree; a negated
    atom is one node."""
    out = []
    queue = deque([tree])
    while queue:
        node = queue.popleft()
        out.append(node)
        if isinstance(node, StateTreeNode):
            if node.events is not None:
                queue.append(node.events)
            if node.next is not None:
                queue.append(node.next)
        elif type(node) in _AND_OR:
            queue.append(node.left)
            queue.append(node.right)
    return out
