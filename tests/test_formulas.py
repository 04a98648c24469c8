import pytest

from lpict.errors import AtomBudgetError, ParseError
from lpict.logic.formulas import (
    FALSUM,
    MAX_NESTING,
    And,
    Atom,
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
