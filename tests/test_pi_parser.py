import pytest

from lpict.errors import ParseError
from lpict.pi.congruence import standard_form
from lpict.pi.parser import MAX_NESTING, parse_process, pretty_print
from lpict.pi.reduction import reduce_step
from lpict.pi.terms import NIL, Par, Receive, Restrict, Send, Sum, Tau

from conftest import random_term


def test_parse_receive():
    assert parse_process("x(y).0") == Sum(((Receive("x", ("y",)), NIL),))


def test_parse_nil():
    assert parse_process("0") == NIL


def test_parse_restriction_over_parallel():
    term = parse_process("new a (a<b>.0 | a(c).0)")
    assert isinstance(term, Restrict) and term.name == "a"
    assert isinstance(term.body, Par)
    # hand-check against the grammar via the printer round-trip
    assert parse_process(pretty_print(term)) == term


def test_parse_tau_and_sum():
    term = parse_process("tau.0 + a.0")
    assert isinstance(term, Sum) and len(term.branches) == 2
    assert term.branches[0][0] == Tau()
    assert term.branches[1][0] == Receive("a", ())


def test_parse_nullary_send():
    assert parse_process("a<>.0") == Sum(((Send("a", ()), NIL),))


def test_plus_binds_tighter_than_bar():
    term = parse_process("a.0 + b.0 | c.0")
    assert isinstance(term, Par)
    assert isinstance(term.left, Sum) and len(term.left.branches) == 2


def test_replication_and_new_scope():
    term = parse_process("!a.0 | b.0")
    assert isinstance(term, Par)
    term2 = parse_process("new x a.0 | b.0")
    assert isinstance(term2, Par) and isinstance(term2.left, Restrict)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_process("a..0")
    assert err.value.position is not None


def test_duplicate_receive_binders_rejected():
    with pytest.raises(ParseError):
        parse_process("x(y,y).0")


def test_sum_of_non_prefixed_rejected():
    with pytest.raises(ParseError):
        parse_process("0 + a.0")
    with pytest.raises(ParseError):
        parse_process("(a.0 | b.0) + c.0")


def test_empty_receive_parens_rejected():
    with pytest.raises(ParseError):
        parse_process("x().0")


def test_deep_nesting_is_a_parse_error():
    deep = "(" * 1200 + "0" + ")" * 1200
    with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} deep"):
        parse_process(deep)


@pytest.mark.parametrize(
    "make",
    [
        lambda n: "(" * (n - 1) + "x<a>.0 | x(y).0" + ")" * (n - 1),
        lambda n: "!" * (n - 1) + "x<a>.0 | x(y).0",
        lambda n: " ".join(f"new k{i}" for i in range(n - 1)) + " x<k0>.0",
        lambda n: ".".join(["x<a>"] * n) + ".0 | x(y).0",
    ],
    ids=["parens", "bang", "new", "prefixes"],
)
def test_nesting_limit_is_exact_and_safe_below(make):
    # at the limit a term parses, reduces and is put in standard form;
    # one level more is rejected
    term = parse_process(make(MAX_NESTING))
    assert parse_process(pretty_print(term)) == term
    reduce_step(term)
    standard_form(term)
    with pytest.raises(ParseError, match="nested more than"):
        parse_process(make(MAX_NESTING + 1))


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_process("a.0 )")


@pytest.mark.parametrize(
    "source",
    [
        "0",
        "tau.0",
        "x(y).0",
        "x<y>.0",
        "x<>.0",
        "a.0 + b.0",
        "a.0 | b.0 | c.0",
        "new x (x<a>.0 | x(b).b<>.0)",
        "!(a.0 + tau.0)",
        "new x new y x<y>.0",
        "a.(b.0 + c.0)",
        "x(p,q).p<q>.0",
    ],
)
def test_print_parse_identity_on_source(source):
    # print . parse is the identity up to whitespace on these sources
    term = parse_process(source)
    assert pretty_print(term).replace(" ", "") == source.replace(" ", "")


def test_parse_print_identity_on_asts(rng):
    for _ in range(400):
        term = random_term(rng, rng.randrange(0, 6))
        assert parse_process(pretty_print(term)) == term
