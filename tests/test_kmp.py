import random

import pytest

from lpict.analysis import TraceSymbol
from lpict.errors import ValidationError
from lpict.kmp import failure_function, kmp_match


def naive_match(text, pattern, pos=1):
    for start in range(pos - 1, len(text) - len(pattern) + 1):
        if list(text[start : start + len(pattern)]) == list(pattern):
            return start + 1
    return None


def test_failure_function_classic():
    assert failure_function("ABABAB") == [0, 0, 1, 2, 3, 4]
    assert failure_function("AAAA") == [0, 1, 2, 3]
    assert failure_function("ABCD") == [0, 0, 0, 0]


def test_self_match():
    text = ["S1:1", "S2:11", "S3:0"]
    assert kmp_match(text, text, 1) == 1


def test_overlapping_occurrences():
    assert kmp_match("ABABAB", "ABAB", 1) == 1
    assert kmp_match("ABABAB", "ABAB", 2) == 3


def test_pattern_longer_than_text():
    assert kmp_match("AB", "ABC", 1) is None


def test_empty_pattern_matches_at_pos():
    assert kmp_match("ABC", "", 1) == 1
    assert kmp_match("ABC", "", 4) == 4


def test_pos_bounds():
    with pytest.raises(ValidationError):
        kmp_match("ABC", "A", 0)
    with pytest.raises(ValidationError):
        kmp_match("ABC", "A", 5)
    assert kmp_match("ABC", "A", 4) is None


def test_agrees_with_naive_oracle():
    rng = random.Random(101)
    for _ in range(2000):
        sigma = rng.randrange(2, 6)
        text = [rng.randrange(sigma) for _ in range(rng.randrange(0, 50))]
        pattern = [rng.randrange(sigma) for _ in range(rng.randrange(0, 8))]
        pos = rng.randrange(1, len(text) + 2)
        assert kmp_match(text, pattern, pos) == naive_match(text, pattern, pos)


SYMBOLS = {
    "trace symbols": [TraceSymbol("S1", True, (True,)), TraceSymbol("S1", False, (False,)), TraceSymbol("S2", True, ())],
    "characters": "\x00#$ a",
    "tokens": ["", "\x00", "S1:1", "None"],
}


@pytest.mark.parametrize("kind", sorted(SYMBOLS))
def test_the_gap_matches_no_symbol(kind):
    # every text holds every symbol value, so a gap equal to any of them
    # would let an occurrence run across it from the pattern into the text
    symbols, rng = SYMBOLS[kind], random.Random(kind)
    join = "".join if isinstance(symbols, str) else list
    for _ in range(300):
        text = [rng.choice(symbols) for _ in range(rng.randrange(0, 12))] + list(symbols)
        rng.shuffle(text)
        text = join(text)
        pattern = join(rng.choice(symbols) for _ in range(rng.randrange(0, 5)))
        for pos in range(1, len(text) + 2):
            assert kmp_match(text, pattern, pos) == naive_match(text, pattern, pos)
