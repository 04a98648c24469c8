"""Substring search over symbol sequences via the failure function."""

from __future__ import annotations

from typing import Sequence

from .errors import ValidationError

_GAP = object()  # equal to no symbol


def failure_function(pattern: Sequence) -> list[int]:
    """failure[i] = length of the longest proper border of pattern[:i+1]."""
    fail = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = fail[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i] = k
    return fail


def kmp_match(text: Sequence, pattern: Sequence, pos: int = 1) -> int | None:
    """Smallest 1-based index >= pos at which pattern occurs in text.

    Symbols compare with ==. The empty pattern matches at pos. Returns None
    when there is no occurrence. pos must lie in [1, len(text)+1]. An occurrence
    ends where the failure function of the pattern, a gap equal to no symbol
    and the text from pos first reaches the pattern's length.
    """
    if not 1 <= pos <= len(text) + 1:
        raise ValidationError(f"pos {pos} outside [1, {len(text) + 1}]")
    fail = failure_function([*pattern, _GAP, *text[pos - 1 :]])
    try:
        return pos + fail.index(len(pattern)) - 2 * len(pattern)
    except ValueError:  # no occurrence
        return None
