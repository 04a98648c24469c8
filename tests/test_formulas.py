import pickle
from dataclasses import FrozenInstanceError

import pytest

from lpict.errors import AtomBudgetError, ParseError
from lpict.guarded import Event, StateNode
from lpict.lexing import MAX_NESTING
from lpict.logic.formulas import (
    FALSUM,
    And,
    Atom,
    Falsum,
    Implies,
    MissingAtomError,
    Not,
    Or,
    atoms,
    eval_formula,
    format_formula,
    parse_formula,
)
from lpict.logic.semantics import all_valuations, semantic_entails
from lpict.trees import build_event_tree

from conftest import random_fragment_formula


def oracle_eval(f, v):
    """Independent evaluator: 0/1 arithmetic instead of boolean operators."""
    if isinstance(f, Atom):
        return int(v[f.name])
    if isinstance(f, Not):
        return 1 - oracle_eval(f.operand, v)
    if isinstance(f, And):
        return oracle_eval(f.left, v) * oracle_eval(f.right, v)
    if isinstance(f, Or):
        return max(oracle_eval(f.left, v), oracle_eval(f.right, v))
    if isinstance(f, Implies):
        return max(1 - oracle_eval(f.left, v), oracle_eval(f.right, v))
    return 0  # falsum


def test_parse_implication():
    assert parse_formula("p -> q") == Implies(Atom("p"), Atom("q"))


def test_parse_negated_conjunction():
    assert parse_formula("!(p & q)") == Not(And(Atom("p"), Atom("q")))


def test_implication_right_associative():
    assert parse_formula("p -> q -> r") == parse_formula("p -> (q -> r)")
    assert parse_formula("p -> q -> r") != parse_formula("(p -> q) -> r")


def test_precedence():
    assert parse_formula("!p & q | r -> s") == Implies(
        Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s")
    )


def test_parse_error_position():
    with pytest.raises(ParseError):
        parse_formula("p -> ")
    with pytest.raises(ParseError):
        parse_formula("(p")


# Every ParseError of the formula parser, with its exact text and offset.
FORMULA_ERRORS = [
    ("character", "p # q", "unexpected character '#' (at offset 2)"),
    ("character-after-space", "  $", "unexpected character '$' (at offset 2)"),
    ("half-arrow", "p - q", "unexpected character '-' (at offset 2)"),
    ("non-ascii", "p & é", "unexpected character 'é' (at offset 4)"),
    ("trailing-atom", "p q", "trailing input starting at 'q' (at offset 2)"),
    ("trailing-paren", "p)", "trailing input starting at ')' (at offset 1)"),
    ("trailing-false", "false false", "trailing input starting at 'false' (at offset 6)"),
    ("unclosed", "(p", "expected ')' (at offset 2)"),
    ("unclosed-then-atom", "(p q", "expected ')' (at offset 3)"),
    ("empty", "", "expected a formula, found 'end of input' (at offset 0)"),
    ("missing-consequent", "p -> ", "expected a formula, found 'end of input' (at offset 5)"),
    ("missing-conjunct", "p & )", "expected a formula, found ')' (at offset 4)"),
    ("leading-arrow", "-> p", "expected a formula, found '->' (at offset 0)"),
    ("deep-negation", "!" * 101 + "a", "formula nested more than 100 deep (at offset 100)"),
    ("deep-parens", "(" * 101 + "a" + ")" * 101, "formula nested more than 100 deep (at offset 100)"),
    ("deep-implication", " -> ".join(["a"] * 102), "formula nested more than 100 deep (at offset 502)"),
    ("deep-mixed", "(" * 50 + "!" * 51 + "a" + ")" * 50, "formula nested more than 100 deep (at offset 100)"),
]


@pytest.mark.parametrize("source,message", [row[1:] for row in FORMULA_ERRORS], ids=[row[0] for row in FORMULA_ERRORS])
def test_parse_error_messages(source, message):
    with pytest.raises(ParseError) as exc:
        parse_formula(source)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "make",
    [
        lambda n: "!" * n + "a",
        lambda n: "(" * n + "a" + ")" * n,
        lambda n: " -> ".join(["a"] * (n + 1)),
        lambda n: "(" * (n // 2) + "!" * (n - n // 2) + "a" + ")" * (n // 2),
    ],
    ids=["negations", "parens", "implications", "mixed"],
)
def test_nesting_limit(make):
    f = parse_formula(make(MAX_NESTING))
    assert parse_formula(format_formula(f)) == f
    assert eval_formula(f, {"a": True}) in (True, False)
    with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} deep"):
        parse_formula(make(MAX_NESTING + 1))
    with pytest.raises(ParseError):
        parse_formula(make(1500))


def test_eval_examples():
    assert eval_formula(parse_formula("p -> q"), {"p": True, "q": False}) is False
    assert eval_formula(FALSUM, {}) is False
    # (p -> q) & !q -> !p is valid: all four rows true
    f = parse_formula("(p -> q) & !q -> !p")
    for v in all_valuations(["p", "q"]):
        assert eval_formula(f, v) is True


def test_eval_missing_atom():
    with pytest.raises(MissingAtomError):
        eval_formula(Atom("p"), {})


def test_long_chains_do_not_recurse():
    # a left-associative chain parses in a loop; atoms and eval_formula must
    # not recurse once per operand either
    for op in ("&", "|"):
        f = parse_formula(f" {op} ".join(["a"] * 1500))
        assert atoms(f) == {"a"}
        assert eval_formula(f, {"a": True}) is True
        assert eval_formula(f, {"a": False}) is False


def test_format_long_chains_does_not_recurse():
    # format_formula walks the left spine of a one-operator chain in a loop
    for source in (
        " & ".join(["a"] * 1500),
        " | ".join(["a"] * 1500),
        " | ".join(["a & b"] * 1500),
        " & ".join(["(a | b)"] * 1500),
    ):
        assert format_formula(parse_formula(source)) == source


def test_format_an_alternating_left_spine_does_not_recurse():
    # at the default recursion limit: every node of the spine changes the
    # operator, and each | left of an & opens a parenthesis at the start
    names = [f"e{i}" for i in range(5000)]
    operators = ["and", "or"] * 2499 + ["and"]
    tree = build_event_tree(names, operators)
    StateNode("S", tuple(Event(n) for n in names), tree)  # a valid state
    expected, below = names[0], None
    for op, name in zip(operators, names[1:]):
        if op == "and" and below == "or":
            expected = f"({expected})"
        expected += (" & " if op == "and" else " | ") + name
        below = op
    assert format_formula(tree) == expected


def test_format_parse_roundtrip_on_mixed_left_spines():
    # spines that change operator, under !, -> and each other; a subformula
    # whose text is stored already ends a spine's walk
    import random

    r = random.Random(31)

    def spine(depth):
        f = random_formula(r, depth)
        for _ in range(r.randrange(1, 6)):
            f = r.choice((And, Or))(f, spine(depth - 1) if depth > 0 and r.random() < 0.3 else random_formula(r, 1))
        return r.choice((lambda f: f, Not, lambda f: Implies(f, Atom("p")), lambda f: Implies(Atom("q"), f)))(f)

    for _ in range(500):
        f = spine(r.randrange(0, 4))
        if r.random() < 0.3 and not isinstance(f, (Atom, Falsum)):
            format_formula(f.operand if isinstance(f, Not) else f.left)
        assert parse_formula(format_formula(f)) == f


def test_eval_short_circuits_along_a_chain():
    # the right operand is looked up only when it decides the value
    assert eval_formula(parse_formula("p & q & r"), {"p": False}) is False
    assert eval_formula(parse_formula("p | q | r"), {"p": True}) is True
    assert eval_formula(parse_formula("p & q | r"), {"p": False, "r": True}) is True
    assert eval_formula(parse_formula("p | q & r"), {"p": True}) is True
    with pytest.raises(MissingAtomError, match="'q'"):
        eval_formula(parse_formula("p | q | r"), {"p": False, "r": True})
    with pytest.raises(MissingAtomError, match="'r'"):
        eval_formula(parse_formula("p & q & r"), {"p": True, "q": True})


def test_format_parse_roundtrip(rng):
    names = ["p", "q", "r"]
    for _ in range(200):
        f = random_fragment_formula(rng, names)
        assert parse_formula(format_formula(f)) == f
    # non-fragment shapes round-trip too
    for text in ("(p | q) & r", "p | q & r", "!(p -> q) | false", "!!p"):
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


def random_formula(r, depth):
    if depth <= 0:
        return [Atom("p"), Atom("q"), Atom("r"), FALSUM][r.randrange(4)]
    roll = r.random()
    if roll < 0.2:
        return Not(random_formula(r, depth - 1))
    ctor = [And, Or, Implies][r.randrange(3)]
    return ctor(random_formula(r, depth - 1), random_formula(r, depth - 1))


def test_eval_agrees_with_oracle():
    import random

    r = random.Random(11)
    for _ in range(200):
        f = random_formula(r, r.randrange(0, 5))
        for v in all_valuations(["p", "q", "r"]):
            assert eval_formula(f, v) == bool(oracle_eval(f, v))


def test_format_parse_roundtrip_general():
    import random

    r = random.Random(29)
    for _ in range(400):
        f = random_formula(r, r.randrange(0, 6))
        assert parse_formula(format_formula(f)) == f


def test_semantic_entails_examples():
    p, q = Atom("p"), Atom("q")
    assert semantic_entails((p, Implies(p, q)), q) is True
    assert semantic_entails((Implies(p, q), Not(q)), Not(p)) is True
    assert semantic_entails((p,), q) is False


def test_atom_budget():
    big = [Atom(f"x{i}") for i in range(21)]
    with pytest.raises(AtomBudgetError):
        semantic_entails(big, Atom("x0"))


def test_atoms():
    assert atoms(parse_formula("p -> q & !r | false")) == {"p", "q", "r"}


def _chain(build, n, last="a"):
    f = Atom(last)
    for _ in range(n):
        f = build(f)
    return f


@pytest.mark.parametrize(
    "build",
    [lambda f: And(f, Atom("a")), lambda f: Not(f), lambda f: Implies(Atom("a"), f), lambda f: Implies(f, Atom("a"))],
    ids=["conjuncts", "negations", "right-implications", "left-implications"],
)
def test_eq_and_hash_of_deep_formulas_do_not_recurse(build, low_recursion_limit):
    # each node's hash is stored at construction, and == walks with a stack
    f, g = _chain(build, 10**5), _chain(build, 10**5)
    assert f is not g
    assert f == g and hash(f) == hash(g)
    assert f != _chain(build, 10**5, last="b")
    assert f != _chain(build, 10**5 - 1)
    assert {f: 1}[g] == 1


def test_eq_agrees_with_the_printed_text():
    import random

    r = random.Random(41)
    formulas = [random_formula(r, r.randrange(0, 4)) for _ in range(300)]
    equal_pairs = 0
    for a in formulas:
        for b in formulas:
            same = format_formula(a) == format_formula(b)
            assert (a == b) is same and (a != b) is not same
            if same:
                equal_pairs += a is not b
                assert hash(a) == hash(b)
    assert equal_pairs > 300  # the pool repeats formulas as distinct objects


def test_nodes_of_different_kinds_differ():
    x, y = Atom("x"), Atom("y")
    assert And(x, y) != Or(x, y) and And(x, y) != Implies(x, y)
    assert Atom("a") != Not(Atom("a"))
    assert Atom("a") != "a" and FALSUM != None  # noqa: E711
    assert FALSUM == Falsum() and hash(FALSUM) == hash(Falsum())


def test_formulas_pickle_and_stay_immutable():
    f = parse_formula("!(p & q) | r -> false")
    format_formula(f)  # the copy is rebuilt from its fields and makes its own text
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and hash(copy) == hash(f) and repr(copy) == repr(f)
    assert format_formula(copy) == format_formula(f)
    for node, field in ((f, "left"), (f.left, "left"), (Atom("p"), "name"), (Not(Atom("p")), "operand")):
        with pytest.raises(FrozenInstanceError):
            setattr(node, field, Atom("z"))
        with pytest.raises(FrozenInstanceError):
            delattr(node, field)
    assert format_formula(f) == "!(p & q) | r -> false"


def test_repr_shows_the_fields():
    assert repr(parse_formula("!p -> q & false")) == (
        "Implies(left=Not(operand=Atom(name='p')), right=And(left=Atom(name='q'), right=Falsum()))"
    )
