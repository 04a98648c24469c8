import dataclasses
import pickle

import pytest

from lpict.errors import ParseError
from lpict.lexing import MAX_NESTING
from lpict.pi.congruence import standard_form
from lpict.pi.parser import parse_process, pretty_print
from lpict.pi.reduction import reduce_step
from lpict.pi.terms import NIL, Bang, Nil, Par, Receive, Restrict, Send, Sum, Tau

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
    assert isinstance(term.components[0], Sum) and len(term.components[0].branches) == 2


def test_replication_and_new_scope():
    term = parse_process("!a.0 | b.0")
    assert isinstance(term, Par)
    term2 = parse_process("new x a.0 | b.0")
    assert isinstance(term2, Par) and isinstance(term2.components[0], Restrict)


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


# Every ParseError of the process parser, with its exact text and offset.
PROCESS_ERRORS = [
    ("character", "a.0 # b", "unexpected character '#' (at offset 4)"),
    ("character-in-prefix", "x-y.0", "unexpected character '-' (at offset 1)"),
    ("trailing-paren", "a.0 )", "trailing input starting at ')' (at offset 4)"),
    ("trailing-nil", "0 0", "trailing input starting at '0' (at offset 2)"),
    ("new-without-name", "new 0", "expected 'ident', found '0' (at offset 4)"),
    ("new-keyword-name", "new new a.0", "expected 'ident', found 'new' (at offset 4)"),
    ("new-at-end", "new", "expected 'ident', found 'end of input' (at offset 3)"),
    ("missing-dot", "a 0", "expected '.', found '0' (at offset 2)"),
    ("tau-with-args", "tau<a>.0", "expected '.', found '<' (at offset 3)"),
    ("unclosed-group", "(a.0", "expected ')', found 'end of input' (at offset 4)"),
    ("unclosed-send", "x<a.0", "expected '>', found '.' (at offset 3)"),
    ("unclosed-receive", "x(a", "expected ')', found 'end of input' (at offset 3)"),
    ("missing-param", "x(a,).0", "expected 'ident', found ')' (at offset 4)"),
    ("empty", "", "expected a process term, found 'end of input' (at offset 0)"),
    ("missing-continuation", "a.", "expected a process term, found 'end of input' (at offset 2)"),
    ("leading-bar", "| a.0", "expected a process term, found '|' (at offset 0)"),
    ("bar-then-plus", "a.0 | +", "expected a process term, found '+' (at offset 6)"),
    ("nil-branch-first", "0 + a.0", "sum branches must be prefixed terms"),
    ("nil-branch-later", "a.0 + 0", "sum branches must be prefixed terms (at offset 4)"),
    ("parallel-branch", "(a.0 | b.0) + c.0", "sum branches must be prefixed terms"),
    ("empty-params", "x().0", "empty parameter list; write the bare channel for a nullary receive (at offset 2)"),
    ("duplicate-binder", "x(y,y).0", "duplicate binder in receive prefix on 'x' (at offset 0)"),
    ("duplicate-binder-later", "a.0 | b(u,v,u).0", "duplicate binder in receive prefix on 'b' (at offset 6)"),
    ("deep-bang", "!" * 101 + "0", "process term nested more than 100 deep (at offset 100)"),
    ("deep-parens", "(" * 101 + "0" + ")" * 101, "process term nested more than 100 deep (at offset 100)"),
    ("deep-new", "new k " * 101 + "0", "process term nested more than 100 deep (at offset 600)"),
    ("deep-prefixes", "a." * 101 + "0", "process term nested more than 100 deep (at offset 200)"),
]


@pytest.mark.parametrize("source,message", [row[1:] for row in PROCESS_ERRORS], ids=[row[0] for row in PROCESS_ERRORS])
def test_parse_error_messages(source, message):
    with pytest.raises(ParseError) as exc:
        parse_process(source)
    assert str(exc.value) == message


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


def test_pretty_print_wide_parallel_does_not_recurse():
    # a parallel level is one node, which pretty_print joins in a loop
    for source in (" | ".join(["x<a>.0"] * 1500), " | ".join(["x<a>.0 | (y.0 | z.0)"] * 1500)):
        assert pretty_print(parse_process(source)) == source


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
        "a.0 | (b.0 | c.0)",
        "(a.0 | b.0) | c.0",
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


def plain_print(p):
    """The grammar's printer again, storing nothing."""

    def body(q):
        out = plain_print(q)
        return f"({out})" if isinstance(q, Par) or (isinstance(q, Sum) and len(q.branches) > 1) else out

    def prefix(pi):
        if isinstance(pi, Tau):
            return "tau"
        if isinstance(pi, Receive):
            return pi.channel + (f"({','.join(pi.params)})" if pi.params else "")
        return f"{pi.channel}<{','.join(pi.args)}>"

    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Sum):
        return " + ".join(f"{prefix(pi)}.{body(cont)}" for pi, cont in p.branches)
    if isinstance(p, Par):
        return " | ".join(f"({plain_print(c)})" if isinstance(c, Par) else plain_print(c) for c in p.components)
    if isinstance(p, Restrict):
        return f"new {p.name} {body(p.body)}"
    return f"!{body(p.body)}"


def changed(p):
    """p with one field replaced through `dataclasses.replace`."""
    if isinstance(p, Sum):
        return dataclasses.replace(p, branches=p.branches[::-1] + p.branches[:1])
    if isinstance(p, Par):
        return dataclasses.replace(p, components=p.components[::-1] + (NIL,))
    if isinstance(p, Restrict):
        return dataclasses.replace(p, name=p.name + "1")
    return dataclasses.replace(p, body=Bang(p.body)) if isinstance(p, Bang) else p


def test_a_term_prints_once_and_as_the_plain_printer_does(rng):
    for _ in range(1000):
        term = random_term(rng, rng.randrange(0, 6))
        expected = plain_print(term)
        never_printed = pickle.loads(pickle.dumps(term))
        assert pretty_print(term) == expected
        assert pretty_print(term) == expected  # the stored text
        if not isinstance(term, Nil):
            assert term.__dict__["_text"] == expected
        # a pickle holds only the fields: the stored text does not travel
        assert pickle.dumps(term) == pickle.dumps(never_printed)
        copy = pickle.loads(pickle.dumps(term))
        assert pretty_print(copy) == expected
        other = changed(term)
        assert pretty_print(other) == plain_print(other)
        assert pretty_print(dataclasses.replace(term)) == expected


def test_successors_print_as_the_plain_printer_does():
    term = parse_process(" | ".join(["new k x<k>.k(v).0"] * 4 + [f"x(y).y<b{i}>.0" for i in range(4)]))
    for _, successor in reduce_step(term):
        assert pretty_print(successor) == plain_print(successor)


@pytest.mark.parametrize("value", [object(), Tau(), "a.0", None])
def test_pretty_print_of_a_non_term_is_a_type_error(value):
    with pytest.raises(TypeError, match="not a process term"):
        pretty_print(value)
