"""Regular expressions over channel names, with the language-equation law
X = S.X + T (least solution star(S).T, defined when epsilon is not in S)."""

from __future__ import annotations

from ..errors import ValidationError
from ..logic.formulas import frozen_record


@frozen_record
class Empty:
    """The empty language."""


@frozen_record
class Epsilon:
    """The language containing only the empty word."""


@frozen_record
class Symbol:
    name: str


@frozen_record
class Concat:
    left: "RegularExpr"
    right: "RegularExpr"


@frozen_record
class Union_:
    left: "RegularExpr"
    right: "RegularExpr"


@frozen_record
class Star:
    body: "RegularExpr"


RegularExpr = Empty | Epsilon | Symbol | Concat | Union_ | Star

Word = tuple[str, ...]


def nullable(r: RegularExpr) -> bool:
    """True iff the empty word belongs to the language of r."""
    if isinstance(r, (Epsilon, Star)):
        return True
    if isinstance(r, (Empty, Symbol)):
        return False
    if isinstance(r, Concat):
        return nullable(r.left) and nullable(r.right)
    if isinstance(r, Union_):
        return nullable(r.left) or nullable(r.right)
    raise TypeError(f"not a regular expression: {r!r}")


def language(r: RegularExpr, max_len: int) -> frozenset[Word]:
    """All words of the language with length at most max_len, by enumeration."""
    if isinstance(r, Empty):
        return frozenset()
    if isinstance(r, Epsilon):
        return frozenset({()})
    if isinstance(r, Symbol):
        return frozenset({(r.name,)}) if max_len >= 1 else frozenset()
    if isinstance(r, Union_):
        return language(r.left, max_len) | language(r.right, max_len)
    if isinstance(r, Concat):
        lefts = language(r.left, max_len)
        rights = language(r.right, max_len)
        return frozenset(
            u + v for u in lefts for v in rights if len(u) + len(v) <= max_len
        )
    if isinstance(r, Star):
        base = frozenset(w for w in language(r.body, max_len) if w)
        words: frozenset[Word] = frozenset({()})
        while True:
            grown = words | frozenset(
                u + v for u in words for v in base if len(u) + len(v) <= max_len
            )
            if grown == words:
                return words
            words = grown
    raise TypeError(f"not a regular expression: {r!r}")


def arden_solve(s: RegularExpr, t: RegularExpr) -> RegularExpr:
    """Least solution X = star(S).T of the equation X = S.X + T.

    Requires epsilon not in the language of S; otherwise the equation has
    further solutions and star(S).T is not forced.
    """
    if nullable(s):
        raise ValidationError("the coefficient language contains the empty word")
    return Concat(Star(s), t)
