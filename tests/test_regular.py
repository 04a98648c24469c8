import random

import pytest

from lpict.errors import ValidationError
from lpict.pi.regular import (
    Concat,
    Empty,
    Epsilon,
    Star,
    Symbol,
    Union_,
    arden_solve,
    language,
    nullable,
)


def words_up_to(expr, n):
    return language(expr, n)


def check_fixpoint(s, t, x, max_len=6):
    """X = S.X + T on all words up to max_len, by enumeration."""
    xs = words_up_to(x, max_len)
    ss = words_up_to(s, max_len)
    ts = words_up_to(t, max_len)
    sx = {u + v for u in ss for v in xs if len(u) + len(v) <= max_len}
    return xs == sx | ts


def test_arden_simple():
    # S = a, T = b: the solution is a*b; confirmed by membership iteration
    s, t = Symbol("a"), Symbol("b")
    x = arden_solve(s, t)
    expected = {("b",)} | {("a",) * k + ("b",) for k in range(1, 5)}
    assert {w for w in language(x, 5)} == expected
    assert check_fixpoint(s, t, x)


def test_arden_empty_coefficient():
    t = Concat(Symbol("a"), Symbol("b"))
    x = arden_solve(Empty(), t)
    assert language(x, 6) == language(t, 6)


def test_arden_rejects_nullable_coefficient():
    with pytest.raises(ValidationError):
        arden_solve(Epsilon(), Symbol("b"))
    with pytest.raises(ValidationError):
        arden_solve(Star(Symbol("a")), Symbol("b"))


def test_nullable():
    assert nullable(Epsilon())
    assert nullable(Star(Symbol("a")))
    assert not nullable(Symbol("a"))
    assert not nullable(Concat(Symbol("a"), Epsilon()))
    assert nullable(Concat(Epsilon(), Star(Empty())))
    assert nullable(Union_(Symbol("a"), Epsilon()))


def test_language_enumeration_truncates():
    expr = Star(Symbol("a"))
    assert language(expr, 2) == {(), ("a",), ("a", "a")}


def random_regex(rng, depth, alphabet=("a", "b", "c")):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.15:
            return Empty()
        if roll < 0.3:
            return Epsilon()
        return Symbol(rng.choice(alphabet))
    roll = rng.random()
    if roll < 0.35:
        return Concat(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    if roll < 0.7:
        return Union_(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    return Star(random_regex(rng, depth - 1))


def test_arden_fixpoint_random():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        s = random_regex(rng, rng.randrange(0, 3))
        if nullable(s):
            continue
        t = random_regex(rng, rng.randrange(0, 3))
        assert check_fixpoint(s, t, arden_solve(s, t))
        checked += 1
