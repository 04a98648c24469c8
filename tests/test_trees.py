import random

import pytest

from lpict.errors import ValidationError
from lpict.logic.formulas import (
    FALSUM,
    And,
    Atom,
    Implies,
    MissingAtomError,
    Not,
    Or,
    atoms,
    eval_formula,
    parse_formula,
)
from lpict.trees import (
    EventLeaf,
    StateTreeNode,
    bfs_traverse,
    build_event_tree,
    eval_event_leaves,
    eval_event_tree,
    event_leaves,
)


def test_build_left_deep():
    tree = build_event_tree(["e1", "e2", "e3"], ["and", "or"])
    assert tree == Or(And(Atom("e1"), Atom("e2")), Atom("e3"))
    assert [leaf.name for leaf in event_leaves(tree)] == ["e1", "e2", "e3"]


def test_build_single_leaf():
    assert build_event_tree(["e1"], []) == Atom("e1")


def test_build_arity_mismatch():
    with pytest.raises(ValidationError):
        build_event_tree(["e1", "e2"], [])
    with pytest.raises(ValidationError):
        build_event_tree([], [])


def test_mixed_tree_fold():
    # (e1 & e2) | e3 with e1=F, e3=T is true; checked against a direct fold
    tree = build_event_tree(["e1", "e2", "e3"], ["and", "or"])
    valuation = {"e1": False, "e2": True, "e3": True}

    def fold(node):
        if isinstance(node, Atom):
            return valuation[node.name]
        if isinstance(node, Not):
            return not fold(node.operand)
        left, right = fold(node.left), fold(node.right)
        return left and right if isinstance(node, And) else left or right

    assert eval_event_tree(tree, valuation) is fold(tree) is True


def test_eval_missing_leaf():
    with pytest.raises(MissingAtomError):
        eval_event_tree(Atom("nope"), {})


def test_every_leaf_is_looked_up():
    # unlike eval_formula, a false left operand does not skip the right one
    tree = And(Atom("a"), Not(Atom("nope")))
    assert eval_formula(tree, {"a": False}) is False
    with pytest.raises(MissingAtomError):
        eval_event_tree(tree, {"a": False})


def test_negated_leaf():
    tree = Or(Atom("x"), Not(Atom("x")))
    assert eval_event_tree(tree, {"x": True}) is True
    assert eval_event_tree(tree, {"x": False}) is True


def test_leaves_in_order_with_negated_and_repeated_leaves():
    tree = parse_formula("(a & !b) | (b & (!a | a))")
    assert event_leaves(tree) == [Atom("a"), Not(Atom("b")), Atom("b"), Not(Atom("a")), Atom("a")]
    value, bits = eval_event_leaves(tree, {"a": True, "b": False})
    assert value is True and bits == (True, True, False, False, True)


def test_unknown_operator_rejected():
    with pytest.raises(ValidationError):
        build_event_tree(["a", "b"], ["xor"])


@pytest.mark.parametrize("tree", [Implies(Atom("a"), Atom("b")), FALSUM, Not(Not(Atom("a"))), Not(And(Atom("a"), Atom("b")))])
def test_nodes_outside_the_fragment_rejected(tree):
    with pytest.raises(ValidationError, match="allow only atoms"):
        event_leaves(Or(Atom("x"), tree))
    with pytest.raises(ValidationError, match="allow only atoms"):
        event_leaves(Or(tree, Atom("x")))
    with pytest.raises(ValidationError):
        eval_event_tree(And(tree, Atom("x")), {"a": True, "b": True, "x": True})


def _random_event_text(rng, depth):
    # an atom or a negated atom, or two such texts joined by & or |,
    # parenthesized at random so that the parser nests either side
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["", "!"]) + rng.choice("abc")
    text = f"{_random_event_text(rng, depth - 1)} {rng.choice('&|')} {_random_event_text(rng, depth - 1)}"
    return f"({text})" if rng.random() < 0.5 else text


def _in_order(node):
    if isinstance(node, (And, Or)):
        return _in_order(node.left) + _in_order(node.right)
    return [node]


def test_leaves_of_random_trees_in_order():
    rng = random.Random(2407)
    for _ in range(300):
        tree = parse_formula(_random_event_text(rng, rng.randrange(0, 6)))
        assert event_leaves(tree) == _in_order(tree)


def test_leaves_of_a_right_nested_tree_do_not_recurse(low_recursion_limit):
    n = 100_000
    leaves = [Atom(f"e{i}") if i % 3 else Not(Atom(f"e{i}")) for i in range(n)]
    tree = leaves[-1]
    for i in range(n - 2, -1, -1):
        tree = (And if i % 2 else Or)(leaves[i], tree)
    assert event_leaves(tree) == leaves


def test_event_leaf_is_an_atom():
    assert EventLeaf("e") == Atom("e")


def test_deep_trees_do_not_recurse():
    n = 100_000
    names = [f"e{i}" for i in range(n)]
    tree = build_event_tree(names, ["and"] * (n - 1))
    assert len(event_leaves(tree)) == n
    valuation = dict.fromkeys(names, True)
    value, bits = eval_event_leaves(tree, valuation)
    assert value is True and len(bits) == n
    assert eval_formula(tree, valuation) is True
    assert atoms(tree) == frozenset(names)
    assert len(bfs_traverse(tree)) == 2 * n - 1
    valuation["e0"] = False
    assert eval_event_tree(tree, valuation) is False


def test_conjunctive_tree_monotone():
    import random

    rng = random.Random(61)
    for _ in range(60):
        n = rng.randrange(1, 7)
        names = [f"e{i}" for i in range(n)]
        tree = build_event_tree(names, ("and",) * (n - 1))
        valuation = {name: rng.random() < 0.5 for name in names}
        before = eval_event_tree(tree, valuation)
        flip = rng.choice(names)
        flipped = dict(valuation)
        flipped[flip] = not flipped[flip]
        after = eval_event_tree(tree, flipped)
        if valuation[flip] and not flipped[flip]:
            assert not (after and not before)  # true->false never rescues
        else:
            assert not (before and not after)  # false->true never breaks


def test_bfs_single_leaf():
    leaf = Atom("e")
    assert bfs_traverse(leaf) == [leaf]


def test_bfs_left_deep_three_leaves():
    # hand-simulated queue trace: root, left op, e3, e1, e2
    tree = build_event_tree(["e1", "e2", "e3"], ["and", "and"])
    names = [n.name if isinstance(n, Atom) else type(n).__name__ for n in bfs_traverse(tree)]
    assert names == ["And", "And", "e3", "e1", "e2"]


def test_bfs_negated_atom_is_one_node():
    tree = Or(Not(Atom("a")), Atom("b"))
    assert bfs_traverse(tree) == [tree, Not(Atom("a")), Atom("b")]


def test_bfs_state_tree_visits_states_in_chain_order():
    spine = None
    for sid in ["S3", "S2", "S1"]:
        spine = StateTreeNode(sid, Atom(f"e_{sid}"), spine)
    visited = [n.state for n in bfs_traverse(spine) if isinstance(n, StateTreeNode)]
    assert visited == ["S1", "S2", "S3"]
