import pytest

from lpict.pi.congruence import canonical_key, normalize
from lpict.pi.parser import parse_process, pretty_print
from lpict.pi.terms import (
    NIL,
    Bang,
    Nil,
    Par,
    Receive,
    Restrict,
    Send,
    Sum,
    Tau,
    all_names,
    free_names,
    substitute,
)

from conftest import halves, random_term


def oracle_free_names(p, bound=frozenset()):
    """Independent recursive free-name computation for cross-checking."""
    if isinstance(p, Nil):
        return set()
    if isinstance(p, Sum):
        out = set()
        for prefix, cont in p.branches:
            if isinstance(prefix, Tau):
                out |= oracle_free_names(cont, bound)
            elif isinstance(prefix, Receive):
                if prefix.channel not in bound:
                    out.add(prefix.channel)
                out |= oracle_free_names(cont, bound | set(prefix.params))
            else:
                for n in (prefix.channel, *prefix.args):
                    if n not in bound:
                        out.add(n)
                out |= oracle_free_names(cont, bound)
        return out
    if isinstance(p, Par):
        left, right = halves(p)
        return oracle_free_names(left, bound) | oracle_free_names(right, bound)
    if isinstance(p, Restrict):
        return oracle_free_names(p.body, bound | {p.name})
    return oracle_free_names(p.body, bound)


def test_free_names_nil():
    assert free_names(NIL) == frozenset()


def test_free_names_restriction_binds():
    assert free_names(parse_process("new x (x<y>.0)")) == {"y"}


def test_free_names_receive_binds():
    # x(y).y<z>.0: y is bound by the receive, x and z stay free
    term = parse_process("x(y).y<z>.0")
    assert free_names(term) == oracle_free_names(term) == {"x", "z"}


def test_free_names_agrees_with_oracle(rng):
    for _ in range(300):
        term = random_term(rng, rng.randrange(0, 6))
        assert free_names(term) == frozenset(oracle_free_names(term))


def test_substitute_free_send():
    assert substitute(parse_process("y<a>.0"), {"y": "z"}) == parse_process("z<a>.0")


def test_substitute_shadowed_binder():
    term = parse_process("x(y).y<a>.0")
    assert substitute(term, {"y": "z"}) == term


def test_substitute_avoids_capture():
    term = parse_process("new y (x<y>.0)")
    result = substitute(term, {"x": "y"})
    # the bound y must have been renamed away; the substituted channel is free
    assert isinstance(result, Restrict)
    assert result.name != "y"
    assert free_names(result) == {"y"}


def test_substitute_capture_oracle(rng):
    # fn(result) == (fn(term) - dom) | image-of-applied-keys, for renamings
    # whose domain and range stay disjoint from each other per-application
    for _ in range(300):
        term = random_term(rng, rng.randrange(0, 6))
        fn = free_names(term)
        mapping = {"a": "zz", "x": "ww"}
        applied = {k for k in mapping if k in fn}
        expected = (fn - applied) | {mapping[k] for k in applied}
        assert free_names(substitute(term, mapping)) == expected


def test_receive_rejects_duplicate_binders():
    with pytest.raises(ValueError):
        Receive("x", ("y", "y"))


def test_sum_rejects_empty():
    with pytest.raises(ValueError):
        Sum(())


def test_par_needs_two_components():
    for components in ((), (NIL,)):
        with pytest.raises(ValueError):
            Par(*components)


WIDE = " | ".join(["x<a>.0"] * 1500)


@pytest.mark.parametrize(
    "holds",
    [
        lambda t: free_names(t) == {"x", "a"},
        lambda t: all_names(t) == {"x", "a"},
        lambda t: substitute(t, {"a": "b"}) == parse_process(WIDE.replace("<a>", "<b>")),
        lambda t: normalize(t) == t,
        lambda t: len(canonical_key(t)) == 1500,
        lambda t: hash(t) == hash(parse_process(WIDE)),
        lambda t: t == parse_process(WIDE),
        lambda t: parse_process(pretty_print(t)) == t,
    ],
    ids=["free_names", "all_names", "substitute", "normalize", "canonical_key", "hash", "eq", "round_trip"],
)
def test_wide_level_does_not_recurse(holds):
    # one parallel level of 1500 components is one node, walked in a loop
    assert holds(parse_process(WIDE))


def test_stored_hashes_agree_and_stay_out_of_a_pickle():
    import pickle

    source = "new k (x<k>.0 | !x(y).(y<a>.0 + tau.0) | (a.0 | b.0))"
    p, q = parse_process(source), parse_process(source)
    assert hash(p) == hash(q) and hash(p) == hash(p)
    assert {p: 1}[q] == 1 and p == q
    state = pickle.dumps(p)
    assert b"_hash" not in state
    copy = pickle.loads(state)
    assert copy == p and hash(copy) == hash(p)
