"""Binary trees over events and over protocol states.

An event tree is an and/or operator tree whose leaves name events (a leaf may
be negated). A state tree is a right spine of states in transition order,
each spine node carrying its event tree as the left child; breadth-first
traversal therefore visits states strictly in chain order, interleaved with
event-tree nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

from .errors import LpictError, ValidationError


class MissingEventError(LpictError):
    """The valuation does not cover a leaf of the tree."""


@dataclass(frozen=True, slots=True)
class EventLeaf:
    name: str
    negated: bool = False


@dataclass(frozen=True, slots=True)
class EventOp:
    op: str  # "and" | "or"
    left: "EventTree"
    right: "EventTree"

    def __post_init__(self):
        if self.op not in ("and", "or"):
            raise ValidationError(f"unknown operator {self.op!r}")


EventTree = Union[EventLeaf, EventOp]


@dataclass(frozen=True, slots=True)
class StateTreeNode:
    state: str
    events: EventTree | None
    next: "StateTreeNode | None" = None


def build_event_tree(events, operators) -> EventTree:
    """Left-deep operator tree ((e1 op1 e2) op2 e3)...; leaf order follows
    event order. `events` may be names or objects with a `.name`."""
    names = [getattr(e, "name", e) for e in events]
    operators = tuple(operators)
    if not names:
        raise ValidationError("an event tree needs at least one event")
    if len(operators) != len(names) - 1:
        raise ValidationError(
            f"{len(names)} events need {len(names) - 1} operators, got {len(operators)}"
        )
    tree: EventTree = EventLeaf(names[0])
    for op, name in zip(operators, names[1:]):
        tree = EventOp(op, tree, EventLeaf(name))
    return tree


def event_leaves(tree: EventTree) -> list[EventLeaf]:
    """Leaves in left-to-right order."""
    if isinstance(tree, EventLeaf):
        return [tree]
    return event_leaves(tree.left) + event_leaves(tree.right)


def eval_event_tree(tree: EventTree, valuation) -> bool:
    """Fold the operator tree under a total valuation of its leaves."""
    return _fold(tree, valuation, [])


def eval_event_leaves(tree: EventTree, valuation) -> tuple[bool, tuple[bool, ...]]:
    """The tree's value and the value of each leaf, in leaf order; each leaf
    is looked up once."""
    values: list[bool] = []
    return _fold(tree, valuation, values), tuple(values)


def _fold(tree: EventTree, valuation, values: list[bool]) -> bool:
    if isinstance(tree, EventLeaf):
        try:
            value = bool(valuation[tree.name]) != tree.negated
        except KeyError:
            raise MissingEventError(f"valuation does not assign event {tree.name!r}") from None
        values.append(value)
        return value
    left = _fold(tree.left, valuation, values)
    right = _fold(tree.right, valuation, values)
    return (left and right) if tree.op == "and" else (left or right)


def bfs_traverse(tree) -> list:
    """Level-order traversal of an event tree or a state tree."""
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
        elif isinstance(node, EventOp):
            queue.append(node.left)
            queue.append(node.right)
    return out
